"""Driver side of the execution layer: barrier-synchronized worker pools.

One persistent worker per environment instance. The driver broadcasts a
batch of frames, then blocks until every addressed worker replied (the
barrier); replies may arrive in any order and are reordered by worker index.
Two transports share the frame codec bit for bit: ``in-process`` runs each
worker runtime synchronously inside the driver process, ``socket`` launches
one subprocess per worker connected over a loopback TCP stream. A pool with
one worker is therefore observationally identical to serial scenario calls.

Fault policy is fail-fast: a barrier timeout aborts the batch and poisons
the pool. With ``restart_on_failure`` a socket worker that dies is respawned,
re-initialized, and reseeded with its last reset arguments instead; the
affected slot reports a floor-reward terminal transition for that batch.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import wire
from .core import REWARD_FLOOR, StepResult
from .errors import (
    ActionShapeError,
    BarrierTimeout,
    BatchError,
    ProtocolError,
    RolloutError,
    SpawnError,
    SpawnTimeout,
    WorkerError,
    WorkerLost,
)
from .registry import scenario_dims
from .worker import WorkerRuntime

TIMEOUT_ENV_VAR = "ROLLOUT_GRID_TIMEOUT_SECS"
DEFAULT_STEP_TIMEOUT_S = 60.0
DEFAULT_READY_TIMEOUT_S = 30.0
CLOSE_GRACE_S = 5.0


def _default_step_timeout() -> float:
    raw = os.environ.get(TIMEOUT_ENV_VAR)
    if raw:
        try:
            return float(raw)
        except ValueError:
            raise RolloutError(f"{TIMEOUT_ENV_VAR} must be a number, got {raw!r}")
    return DEFAULT_STEP_TIMEOUT_S


@dataclass
class BatchStep:
    """One barrier-synchronized batched step."""

    actions: np.ndarray
    results: list[StepResult]
    step_index: int
    barrier_latency: float  # seconds from the first send to the last reply, on either transport


class InProcessChannel:
    """Worker runtime executed synchronously in the driver process."""

    def __init__(self, frame_log: list | None = None, log_index: int = -1):
        self.runtime = WorkerRuntime()
        self.alive = True
        self._frame_log = frame_log
        self._log_index = log_index
        self._pending: tuple[int, bytes] | None = None

    def send(self, frame: bytes) -> None:
        if self._frame_log is not None:
            self._frame_log.append(("send", self._log_index, frame))
        tag, payload = wire.decode_frame(frame)
        reply = self.runtime.handle_frame(tag, payload)
        if reply is None:  # CLOSE
            self.alive = False
            self._pending = None
            return
        if self._frame_log is not None:
            self._frame_log.append(("recv", self._log_index, reply))
        self._pending = wire.decode_frame(reply)

    def collect(self) -> tuple[int, bytes]:
        if self._pending is None:
            raise ProtocolError("no pending reply on this channel")
        pending, self._pending = self._pending, None
        return pending

    def close(self) -> None:
        self.alive = False


class SocketChannel:
    """One worker subprocess behind a loopback TCP stream."""

    def __init__(self, proc: subprocess.Popen, conn: socket.socket, stderr_path: Path,
                 frame_log: list | None = None, log_index: int = -1):
        self.proc = proc
        self.conn = conn
        self.stderr_path = stderr_path
        self.alive = True
        self.reader = wire.FrameReader()
        self._frame_log = frame_log
        self._log_index = log_index

    def send(self, frame: bytes) -> None:
        if self._frame_log is not None:
            self._frame_log.append(("send", self._log_index, frame))
        try:
            self.conn.sendall(frame)
        except OSError as exc:
            self.alive = False
            raise WorkerLost(f"send failed: {exc}") from exc

    def on_readable(self) -> tuple[int, bytes] | None:
        """Consume available bytes; return a frame if one completed."""
        try:
            data = self.conn.recv(65536)
        except OSError as exc:
            self.alive = False
            raise WorkerLost(f"recv failed: {exc}") from exc
        if not data:
            self.alive = False
            raise WorkerLost("worker closed its connection")
        self.reader.feed(data)
        frame = self.reader.next_frame()
        if frame is not None and self._frame_log is not None:
            tag, payload = frame
            self._frame_log.append(("recv", self._log_index, wire.encode_frame(tag, payload)))
        return frame

    def stderr_tail(self, limit: int = 2000) -> str:
        try:
            text = self.stderr_path.read_text(errors="replace")
        except OSError:
            return ""
        return text[-limit:]

    def close(self, grace_s: float = CLOSE_GRACE_S) -> None:
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=grace_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.alive = False


def _spawn_command(address: str) -> list[str]:
    return [sys.executable, "-m", "rollout_grid", "--worker", "--connect", address]


def _subprocess_env() -> dict:
    # Keep the package importable even without an installed distribution.
    pkg_parent = str(Path(__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = pkg_parent + os.pathsep + env.get("PYTHONPATH", "")
    return env


class WorkerPool:
    """Fixed-size pool with broadcast/collect barrier semantics."""

    def __init__(self, env: str, n_workers: int, transport: str, channels: list,
                 obs_dim: int, act_dim: int, n_s: int, step_timeout_s: float,
                 reward_floor: float, restart_spec: dict | None, frame_log: list | None,
                 stderr_dir: tempfile.TemporaryDirectory | None = None):
        self.env = env
        self.n_workers = n_workers
        self.transport = transport
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.n_s = n_s
        self.step_timeout_s = step_timeout_s
        self.reward_floor = reward_floor
        self.frame_log = frame_log
        self._channels = channels
        self._restart_spec = restart_spec  # INIT payload template, or None
        self._stderr_dir = stderr_dir
        self._closed = False
        self._poisoned = False
        self._step_counter = 0
        self._last_reset: list[tuple[int, dict] | None] = [None] * n_workers

    # -- public operations ----------------------------------------------

    def reset_all(self, seeds, options=None) -> list[np.ndarray]:
        return self.reset_some(list(range(self.n_workers)), seeds, options)

    def reset_some(self, indices, seeds, options=None) -> list[np.ndarray]:
        seeds = list(seeds)
        if len(seeds) != len(indices):
            raise ValueError(f"{len(indices)} workers addressed but {len(seeds)} seeds given")
        opts = self._per_index_options(options, len(indices))
        for slot, idx in enumerate(indices):
            self._last_reset[idx] = (seeds[slot], opts[slot])
        frames = [wire.encode_frame(wire.TAG_RESET, wire.encode_reset(s, o))
                  for s, o in zip(seeds, opts)]
        outcomes, _ = self._barrier(indices, frames, expect=wire.TAG_RESETRES)
        decoded = [o if isinstance(o, BaseException) else wire.decode_vector(o)[0] for o in outcomes]
        if any(isinstance(o, BaseException) for o in decoded):
            raise BatchError(decoded)
        return decoded

    def step_all(self, actions) -> BatchStep:
        actions = self._check_actions(actions, self.n_workers)
        results, latency = self._step(list(range(self.n_workers)), actions, raise_on_error=True)
        return BatchStep(actions, results, self._step_counter, latency)

    def step_some(self, indices, actions, raise_on_error: bool = True) -> list:
        actions = self._check_actions(actions, len(indices))
        results, _ = self._step(list(indices), actions, raise_on_error)
        return results

    def close(self) -> None:
        """Best effort, idempotent; laggard workers are force-terminated."""
        if self._closed:
            return
        self._closed = True
        close_frame = wire.encode_frame(wire.TAG_CLOSE)
        for chan in self._channels:
            if chan.alive:
                try:
                    chan.send(close_frame)
                except RolloutError:
                    pass
        for chan in self._channels:
            chan.close()
        if self._stderr_dir is not None:
            self._stderr_dir.cleanup()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals --------------------------------------------------------

    def _per_index_options(self, options, n: int) -> list[dict]:
        if options is None:
            return [{}] * n
        if isinstance(options, dict):
            return [options] * n
        options = list(options)
        if len(options) != n:
            raise ValueError(f"expected {n} option maps, got {len(options)}")
        return [o or {} for o in options]

    def _check_actions(self, actions, n: int) -> np.ndarray:
        arr = np.asarray(actions, dtype=np.float64)
        if arr.shape != (n, self.act_dim):
            raise ActionShapeError(f"expected actions of shape {(n, self.act_dim)}, got {arr.shape}")
        return arr

    def _step(self, indices, actions, raise_on_error: bool):
        frames = [wire.encode_frame(wire.TAG_STEP, wire.encode_vector(actions[i]))
                  for i in range(len(indices))]
        self._step_counter += 1
        outcomes, latency = self._barrier(indices, frames, expect=wire.TAG_STEPRES)
        results: list = []
        for slot, outcome in enumerate(outcomes):
            if isinstance(outcome, BaseException):
                restarted = self._maybe_restart(indices[slot], outcome)
                results.append(restarted if restarted is not None else outcome)
            else:
                obs, reward, terminated, truncated, info = wire.decode_step_result(outcome)
                results.append(StepResult(obs, reward, terminated, truncated, info))
        if raise_on_error and any(isinstance(r, BaseException) for r in results):
            raise BatchError(results)
        return results, latency

    def _barrier(self, indices, frames, expect: int):
        """Send one frame per index, await one reply per index.

        Returns (outcomes ordered like ``indices``, seconds from the first
        send to the last reply).
        Outcomes are payload bytes of the expected tag, or an exception.
        """
        if self._closed:
            raise RolloutError("pool is closed")
        if self._poisoned:
            raise RolloutError("pool is poisoned after a barrier timeout; close it")
        if len(set(indices)) != len(indices):
            raise ValueError("worker indices must be unique")
        outcomes: list = [None] * len(indices)
        slot_of = {idx: slot for slot, idx in enumerate(indices)}

        start = time.perf_counter()
        pending: set[int] = set()
        for slot, idx in enumerate(indices):
            chan = self._channels[idx]
            try:
                chan.send(frames[slot])
            except RolloutError as exc:
                outcomes[slot] = exc
                continue
            pending.add(idx)

        latency = 0.0
        if self.transport == "in-process":
            # Each send ran its handler to completion, so every reply is in.
            if pending:
                latency = time.perf_counter() - start
            for idx in sorted(pending):
                outcomes[slot_of[idx]] = self._interpret(*self._channels[idx].collect(), expect)
            return outcomes, latency

        deadline = start + self.step_timeout_s
        sel = selectors.DefaultSelector()
        for idx in pending:
            sel.register(self._channels[idx].conn, selectors.EVENT_READ, idx)
        try:
            while pending:
                budget = deadline - time.perf_counter()
                if budget <= 0:
                    self._poisoned = True
                    raise BarrierTimeout(sorted(pending), self.step_timeout_s)
                for key, _ in sel.select(timeout=budget):
                    idx = key.data
                    chan = self._channels[idx]
                    try:
                        frame = chan.on_readable()
                    except WorkerLost as exc:
                        sel.unregister(chan.conn)
                        pending.discard(idx)
                        outcomes[slot_of[idx]] = WorkerLost(
                            f"worker {idx} died: {exc}; stderr tail: {chan.stderr_tail() or '<empty>'}"
                        )
                        continue
                    if frame is None:
                        continue
                    sel.unregister(chan.conn)
                    pending.discard(idx)
                    latency = max(latency, time.perf_counter() - start)
                    if chan.reader.pending_bytes:
                        outcomes[slot_of[idx]] = ProtocolError(
                            f"worker {idx} sent trailing bytes after its reply"
                        )
                        continue
                    outcomes[slot_of[idx]] = self._interpret(*frame, expect)
        finally:
            sel.close()
        return outcomes, latency

    @staticmethod
    def _interpret(tag: int, payload: bytes, expect: int):
        if tag == wire.TAG_ERR:
            return WorkerError(*wire.decode_error(payload))
        if tag != expect:
            return ProtocolError(f"expected tag 0x{expect:02X}, worker sent 0x{tag:02X}")
        return payload

    def _maybe_restart(self, idx: int, cause: BaseException):
        """Respawn a lost socket worker when the restart policy is enabled.

        Returns a synthetic terminal StepResult for the lost batch entry, or
        None when restarting does not apply (fail fast).
        """
        if self._restart_spec is None or not isinstance(cause, WorkerLost):
            return None
        self._channels[idx].close(grace_s=0.1)
        self._channels[idx] = _launch_socket_workers([idx], self._restart_spec, self.frame_log)[0]
        obs = np.zeros(self.obs_dim)
        last = self._last_reset[idx]
        if last is not None:
            seed, options = last
            frame = wire.encode_frame(wire.TAG_RESET, wire.encode_reset(seed, options))
            self._channels[idx].send(frame)
            outcome, _ = self._collect_one(idx, wire.TAG_RESETRES, self.step_timeout_s)
            if not isinstance(outcome, BaseException):
                obs = wire.decode_vector(outcome)[0]
        return StepResult(
            observation=obs,
            reward=self.reward_floor,
            terminated=True,
            truncated=False,
            info={"restarted": True, "cause": str(cause)},
        )

    def _collect_one(self, idx: int, expect: int, timeout_s: float):
        chan = self._channels[idx]
        deadline = time.perf_counter() + timeout_s
        while True:
            if time.perf_counter() > deadline:
                return BarrierTimeout([idx], timeout_s), 0.0
            chan.conn.settimeout(max(0.01, deadline - time.perf_counter()))
            try:
                frame = chan.on_readable()
            except (WorkerLost, OSError) as exc:
                return WorkerLost(str(exc)), 0.0
            finally:
                chan.conn.settimeout(None)
            if frame is not None:
                return self._interpret(*frame, expect), 0.0


def _launch_socket_workers(indices: list[int], init_spec: dict, frame_log):
    """Spawn processes for the given worker indices and complete their INIT.

    Workers connect back in arbitrary order; connections are re-paired to
    their processes via the pid echoed in READY, so kill/stderr/restart
    always target the process actually behind the channel.
    """
    stderr_dir = init_spec["_stderr_dir"]
    ready_timeout_s = init_spec.get("_ready_timeout_s", DEFAULT_READY_TIMEOUT_S)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    procs: list[tuple[subprocess.Popen, Path]] = []
    conns: list[socket.socket] = []
    try:
        listener.bind(("127.0.0.1", 0))
        listener.listen(len(indices))
        address = "127.0.0.1:%d" % listener.getsockname()[1]
        for spawn_slot in range(len(indices)):
            stderr_path = Path(stderr_dir) / f"spawn-{os.getpid()}-{spawn_slot}-{time.monotonic_ns()}.stderr"
            with open(stderr_path, "wb") as stderr_file:
                proc = subprocess.Popen(
                    _spawn_command(address),
                    stdout=subprocess.DEVNULL,
                    stderr=stderr_file,
                    env=_subprocess_env(),
                )
            procs.append((proc, stderr_path))

        deadline = time.perf_counter() + ready_timeout_s
        for idx in indices:
            listener.settimeout(max(0.1, deadline - time.perf_counter()))
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                raise SpawnTimeout(
                    f"worker {idx} did not connect within {ready_timeout_s:.0f}s", index=idx
                )
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conns.append(conn)

        for conn, idx in zip(conns, indices):
            init = {k: v for k, v in init_spec.items() if not k.startswith("_")}
            init["worker_index"] = idx
            frame = wire.encode_frame(wire.TAG_INIT, wire.dumps_canonical(init))
            if frame_log is not None:
                frame_log.append(("send", idx, frame))
            conn.sendall(frame)

        by_pid = {proc.pid: (proc, path) for proc, path in procs}
        channels = []
        for conn, idx in zip(conns, indices):
            conn.settimeout(max(0.1, deadline - time.perf_counter()))
            try:
                tag, payload = wire.read_frame_blocking(conn)
            except (socket.timeout, EOFError) as exc:
                raise SpawnTimeout(
                    f"worker {idx} did not acknowledge INIT: {exc}", index=idx
                ) from exc
            finally:
                conn.settimeout(None)
            if tag == wire.TAG_ERR:
                code, message = wire.decode_error(payload)
                raise SpawnError(f"worker {idx} failed INIT: [{code}] {message}", index=idx)
            if tag != wire.TAG_READY:
                raise SpawnError(f"worker {idx} sent tag 0x{tag:02X} instead of READY", index=idx)
            pid = json.loads(payload.decode()).get("pid")
            if pid not in by_pid:
                raise SpawnError(f"worker {idx} reported unknown pid {pid}", index=idx)
            proc, stderr_path = by_pid.pop(pid)
            if frame_log is not None:
                frame_log.append(("recv", idx, wire.encode_frame(tag, payload)))
            channels.append(SocketChannel(proc, conn, stderr_path, frame_log, idx))
        return channels
    except Exception:
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc, _ in procs:
            if proc.poll() is None:
                proc.kill()
        raise
    finally:
        listener.close()


def spawn_workers(
    env: str,
    n_workers: int,
    transport: str = "in-process",
    *,
    env_config: dict | None = None,
    n_s: int = 1,
    reward_floor: float = REWARD_FLOOR,
    pad_ms: float = 0.0,
    pad_mode: str = "sleep",
    step_delay_max_ms: float = 0.0,
    delay_seed: int = 0,
    step_timeout_s: float | None = None,
    ready_timeout_s: float = DEFAULT_READY_TIMEOUT_S,
    restart_on_failure: bool = False,
    record_frames: bool = False,
) -> WorkerPool:
    """Start ``n_workers`` identical workers and return the pool handle.

    Heavy environment construction happens exactly once per worker, at INIT;
    the call returns only after every worker acknowledged READY. The step
    barrier timeout defaults to 60 s and can be overridden by the
    ``ROLLOUT_GRID_TIMEOUT_SECS`` environment variable.
    """
    if n_workers < 1:
        raise SpawnError(f"n_workers must be >= 1, got {n_workers}")
    if transport not in ("in-process", "socket"):
        raise SpawnError(f"transport must be 'in-process' or 'socket', got {transport!r}")
    if n_s < 1:
        raise SpawnError(f"n_s must be >= 1, got {n_s}")
    # Validates the environment name and configuration before any worker starts.
    obs_dim, act_dim = scenario_dims(env, env_config)

    frame_log: list | None = [] if record_frames else None
    init_spec = {
        "env": env,
        "env_config": env_config or {},
        "n_s": n_s,
        "reward_floor": reward_floor,
        "pad_ms": pad_ms,
        "pad_mode": pad_mode,
        "step_delay_max_ms": step_delay_max_ms,
        "delay_seed": delay_seed,
    }
    step_timeout = _default_step_timeout() if step_timeout_s is None else float(step_timeout_s)

    if transport == "in-process":
        channels = []
        for idx in range(n_workers):
            chan = InProcessChannel(frame_log, idx)
            init = dict(init_spec)
            init["worker_index"] = idx
            chan.send(wire.encode_frame(wire.TAG_INIT, wire.dumps_canonical(init)))
            tag, payload = chan.collect()
            if tag == wire.TAG_ERR:
                code, message = wire.decode_error(payload)
                raise SpawnError(f"worker {idx} failed INIT: [{code}] {message}", index=idx)
            channels.append(chan)
        return WorkerPool(env, n_workers, transport, channels, obs_dim, act_dim, n_s,
                          step_timeout, reward_floor, None, frame_log)

    stderr_dir = tempfile.TemporaryDirectory(prefix="rollout-grid-")
    launch_spec = dict(init_spec)
    launch_spec["_stderr_dir"] = stderr_dir.name
    launch_spec["_ready_timeout_s"] = ready_timeout_s
    try:
        channels = _launch_socket_workers(list(range(n_workers)), launch_spec, frame_log)
    except Exception:
        stderr_dir.cleanup()
        raise
    restart_spec = launch_spec if restart_on_failure else None
    return WorkerPool(env, n_workers, transport, channels, obs_dim, act_dim, n_s,
                      step_timeout, reward_floor, restart_spec, frame_log, stderr_dir)
