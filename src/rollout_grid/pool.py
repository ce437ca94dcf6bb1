"""Driver side of the execution layer: barrier-synchronized worker pools.

One persistent worker per environment instance. The driver broadcasts a
batch of frames, then blocks until every addressed worker replied (the
barrier); replies may arrive in any order and are reordered by worker index.
Two transports share the frame codec bit for bit: ``in-process`` runs each
worker runtime synchronously inside the driver process, ``socket`` launches
one subprocess per worker, each holding one end of its own socket pair. A pool with
one worker is therefore observationally identical to serial scenario calls.

Both transports sit behind one channel interface (``send``, ``receive``), and
``WorkerPool._exchange`` is the only code that waits for replies: INIT, every
RESET and STEP barrier, and a restarted worker's reseed go through it. It also
records the frames when recording is on, and ``WorkerPool._interpret`` is the
only code that turns a reply into a payload or an error. An in-process channel
holds its reply as soon as ``send`` returns, so it is always ready and never
enters the selector.

Fault policy is fail-fast: a barrier timeout aborts the batch and poisons
the pool. With ``restart_on_failure`` a socket worker that dies or whose
stream turns corrupt is respawned, re-initialized, and reseeded with its last
reset arguments instead; the affected slot reports a floor-reward terminal
transition for that batch.
"""

from __future__ import annotations

import math
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
from .config import PAD_MODES
from .core import REWARD_FLOOR, StepResult
from .errors import (
    ActionShapeError,
    BarrierTimeout,
    BatchError,
    FrameError,
    ProtocolError,
    RolloutError,
    SpawnError,
    SpawnTimeout,
    WorkerError,
    WorkerLost,
)
from .registry import make_scenario
from .worker import WorkerRuntime

TIMEOUT_ENV_VAR = "ROLLOUT_GRID_TIMEOUT_SECS"
DEFAULT_STEP_TIMEOUT_S = 60.0
DEFAULT_READY_TIMEOUT_S = 30.0
CLOSE_GRACE_S = 5.0


def _checked_timeout(name: str, seconds) -> float:
    """``seconds`` as a float; SpawnError naming ``name`` unless it is finite and > 0."""
    # NaN or inf breaks the selector's deadline, and 0 or less poisons the
    # pool at its first barrier.
    seconds = float(seconds)
    if not 0 < seconds < math.inf:
        raise SpawnError(f"{name} must be finite and > 0, got {seconds}")
    return seconds


def _default_step_timeout() -> float:
    raw = os.environ.get(TIMEOUT_ENV_VAR)
    if raw:
        try:
            seconds = float(raw)
        except ValueError:
            raise RolloutError(f"{TIMEOUT_ENV_VAR} must be a number, got {raw!r}")
        return _checked_timeout(TIMEOUT_ENV_VAR, seconds)
    return DEFAULT_STEP_TIMEOUT_S


@dataclass
class BatchStep:
    """One barrier-synchronized batched step."""

    results: list[StepResult]
    step_index: int
    barrier_latency: float  # seconds from the first send to the last reply, on either transport


class InProcessChannel:
    """Worker runtime executed synchronously in the driver process."""

    conn = None  # nothing to select on: the reply is in once send returns

    def __init__(self):
        self.runtime = WorkerRuntime()
        self.alive = True
        self._pending: tuple[int, bytes] | None = None

    def send(self, frame: bytes) -> None:
        tag, payload = wire.decode_frame(frame)
        reply = self.runtime.handle_frame(tag, payload)
        if reply is None:  # CLOSE
            self.alive = False
            self._pending = None
            return
        self._pending = wire.decode_frame(reply)

    def receive(self) -> tuple[int, bytes] | None:
        pending, self._pending = self._pending, None
        return pending

    def stderr_tail(self) -> str:
        return ""

    def close(self, grace_s: float) -> None:
        self.alive = False


class SocketChannel:
    """One worker subprocess behind the driver's end of a socket pair."""

    def __init__(self, proc: subprocess.Popen, conn: socket.socket, stderr_path: Path):
        self.proc = proc
        self.conn = conn
        self.stderr_path = stderr_path
        self.alive = True
        self.reader = wire.FrameReader()

    def send(self, frame: bytes) -> None:
        try:
            self.conn.sendall(frame)
        except OSError as exc:
            self.alive = False
            raise WorkerLost(f"send failed: {exc}") from exc

    def receive(self) -> tuple[int, bytes] | None:
        """Consume available bytes; return the reply once it is complete.

        Raises WorkerLost when the worker is gone and FrameError when its
        stream is corrupt, a malformed frame or bytes after the reply; either
        leaves the channel dead.
        """
        try:
            data = self.conn.recv(65536)
        except OSError as exc:
            self.alive = False
            raise WorkerLost(f"recv failed: {exc}") from exc
        if not data:
            self.alive = False
            raise WorkerLost("worker closed its connection")
        self.reader.feed(data)
        try:
            frame = self.reader.next_frame()
        except (FrameError, ProtocolError) as exc:
            self.alive = False
            raise FrameError(str(exc)) from exc
        if frame is None:
            return None
        if self.reader.pending_bytes:
            self.alive = False
            raise FrameError("trailing bytes after the reply")
        return frame

    def stderr_tail(self, limit: int = 2000) -> str:
        try:
            text = self.stderr_path.read_text(errors="replace")
        except OSError:
            return ""
        return text[-limit:]

    def close(self, grace_s: float) -> None:
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


def _spawn_command(fd: int) -> list[str]:
    return [sys.executable, "-m", "rollout_grid", "--worker", "--fd", str(fd)]


def _subprocess_env() -> dict:
    # Keep the package importable even without an installed distribution.
    pkg_parent = str(Path(__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = pkg_parent + os.pathsep + env.get("PYTHONPATH", "")
    return env


class WorkerPool:
    """Fixed-size pool with broadcast/collect barrier semantics."""

    def __init__(self, n_workers: int, channels: list, obs_dim: int, act_dim: int,
                 step_timeout_s: float, restart_spec: dict | None, frame_log: list | None,
                 stderr_dir: tempfile.TemporaryDirectory | None, ready_timeout_s: float):
        self.n_workers = n_workers
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.step_timeout_s = step_timeout_s
        self.frame_log = frame_log  # ("send" | "recv", worker index, frame bytes), or None
        self._channels = channels
        self._restart_spec = restart_spec  # INIT payload template, or None
        self._stderr_dir = stderr_dir
        self._ready_timeout_s = ready_timeout_s
        # Socket channels stay registered across barriers. A channel leaves the
        # selector when it fails or turns readable unasked, and rejoins when a
        # barrier next addresses it; every channel starts out unregistered.
        # In-process channels never join: they are always ready.
        self._selector = selectors.DefaultSelector()
        self._watched: set[int] = set()
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
        return BatchStep(results, self._step_counter, latency)

    def step_some(self, indices, actions, raise_on_error: bool = True) -> list:
        actions = self._check_actions(actions, len(indices))
        results, _ = self._step(list(indices), actions, raise_on_error)
        return results

    def close(self) -> None:
        """Best effort, idempotent; laggard workers are force-terminated."""
        self._close(CLOSE_GRACE_S)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals --------------------------------------------------------

    def _close(self, grace_s: float) -> None:
        if self._closed:
            return
        self._closed = True
        close_frame = wire.encode_frame(wire.TAG_CLOSE)
        for idx, chan in enumerate(self._channels):
            if chan.alive:
                if self.frame_log is not None:
                    self.frame_log.append(("send", idx, close_frame))
                try:
                    chan.send(close_frame)
                except RolloutError:
                    pass
        self._selector.close()
        for chan in self._channels:
            chan.close(grace_s)
        if self._stderr_dir is not None:
            self._stderr_dir.cleanup()

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

    def _init(self, indices: list[int], init_spec: dict) -> None:
        """INIT the workers at ``indices``; raise SpawnError naming the first that is not READY."""
        frames = [wire.encode_frame(wire.TAG_INIT,
                                    wire.dumps_canonical({**init_spec, "worker_index": idx}))
                  for idx in indices]
        outcomes, _, _ = self._exchange(indices, frames, self._ready_timeout_s)
        for idx, outcome in zip(indices, outcomes):
            if outcome is None:
                tail = self._channels[idx].stderr_tail() or "<empty>"
                raise SpawnTimeout(
                    f"worker {idx} did not acknowledge INIT within {self._ready_timeout_s:.0f}s; "
                    f"stderr tail: {tail}", index=idx
                )
            reply = self._interpret(idx, outcome, wire.TAG_READY)
            if isinstance(reply, BaseException):
                kind = SpawnTimeout if isinstance(reply, WorkerLost) else SpawnError
                raise kind(f"worker {idx} failed INIT: {reply}", index=idx) from reply

    def _barrier(self, indices, frames, expect: int):
        """One RESET or STEP barrier: send one frame per index, await one reply per index.

        Returns (outcomes ordered like ``indices``, seconds from the first
        send to the last reply). Outcomes are payload bytes of the expected
        tag, or an exception. A missed deadline poisons the pool.
        """
        if self._closed:
            raise RolloutError("pool is closed")
        if self._poisoned:
            raise RolloutError("pool is poisoned after a barrier timeout; close it")
        if len(set(indices)) != len(indices):
            raise ValueError("worker indices must be unique")
        outcomes, latency, laggards = self._exchange(indices, frames, self.step_timeout_s)
        if laggards:
            self._poisoned = True
            raise BarrierTimeout(laggards, self.step_timeout_s)
        return [self._interpret(idx, o, expect) for idx, o in zip(indices, outcomes)], latency

    def _exchange(self, indices, frames, timeout_s: float):
        """Send ``frames[k]`` to worker ``indices[k]``, then gather one reply per worker.

        The only place the pool waits for workers. Returns (outcomes ordered
        like ``indices``, seconds from the first send to the last reply,
        sorted indices with no reply by the deadline). An outcome is a
        ``(tag, payload)`` reply, the WorkerLost or FrameError that ended the
        slot, or None for a worker with no reply by the deadline. With
        recording on, each frame sent and each reply received is logged.
        """
        log = self.frame_log
        outcomes: list = [None] * len(indices)
        pending: dict[int, int] = {}  # worker index -> slot
        ready: list[int] = []
        start = time.perf_counter()
        for slot, idx in enumerate(indices):
            chan = self._channels[idx]
            if log is not None:
                log.append(("send", idx, frames[slot]))
            try:
                chan.send(frames[slot])
            except WorkerLost as exc:
                outcomes[slot] = exc
                continue
            pending[idx] = slot
            if chan.conn is None:
                ready.append(idx)
            elif idx not in self._watched:
                self._selector.register(chan.conn, selectors.EVENT_READ, idx)
                self._watched.add(idx)

        latency = 0.0
        deadline = start + timeout_s
        while True:
            for idx in ready:
                if idx not in pending:
                    # Readable while unasked: it died or broke protocol. The
                    # next barrier that addresses it reports that.
                    self._unwatch(idx)
                    continue
                try:
                    outcome = self._channels[idx].receive()
                    if outcome is None:
                        continue
                    latency = time.perf_counter() - start
                    if log is not None:
                        log.append(("recv", idx, wire.encode_frame(*outcome)))
                except (WorkerLost, FrameError) as exc:
                    self._unwatch(idx)
                    outcome = exc
                outcomes[pending.pop(idx)] = outcome
            if not pending:
                break
            budget = deadline - time.perf_counter()
            if budget <= 0:
                break
            ready = [key.data for key, _ in self._selector.select(timeout=budget)]
        return outcomes, latency, sorted(pending)

    def _unwatch(self, idx: int) -> None:
        if idx in self._watched:
            self._selector.unregister(self._channels[idx].conn)
            self._watched.discard(idx)

    def _interpret(self, idx: int, outcome, expect: int):
        """Payload bytes of the expected reply, or the exception that fails the slot.

        Barriers, INIT and the reseed all read replies through this method.
        """
        if isinstance(outcome, WorkerLost):
            tail = self._channels[idx].stderr_tail() or "<empty>"
            return WorkerLost(f"worker {idx} died: {outcome}; stderr tail: {tail}")
        if isinstance(outcome, FrameError):
            return ProtocolError(f"worker {idx} sent a corrupt frame: {outcome}")
        tag, payload = outcome
        if tag == wire.TAG_ERR:
            return WorkerError(*wire.decode_error(payload))
        if tag != expect:
            return ProtocolError(
                f"worker {idx} sent {wire.TAG_NAMES[tag]} instead of {wire.TAG_NAMES[expect]}"
            )
        return payload

    def _maybe_restart(self, idx: int, cause: BaseException):
        """Respawn a socket worker that died or corrupted its stream, if the policy allows.

        Returns a synthetic terminal StepResult for the lost batch entry, or
        None when restarting does not apply (fail fast).
        """
        if self._restart_spec is None or self._channels[idx].alive:
            return None
        self._unwatch(idx)  # the next exchange registers the new channel
        self._channels[idx].close(grace_s=0.1)
        self._channels[idx] = _launch_socket_worker(idx, self._stderr_dir.name)
        self._init([idx], self._restart_spec)
        obs = np.zeros(self.obs_dim)
        last = self._last_reset[idx]
        if last is not None:
            frame = wire.encode_frame(wire.TAG_RESET, wire.encode_reset(*last))
            (outcome,), _, _ = self._exchange([idx], [frame], self.step_timeout_s)
            reply = None if outcome is None else self._interpret(idx, outcome, wire.TAG_RESETRES)
            if isinstance(reply, bytes):
                obs = wire.decode_vector(reply)[0]
        return StepResult(
            observation=obs,
            reward=REWARD_FLOOR,
            terminated=True,
            truncated=False,
            info={"restarted": True, "cause": str(cause)},
        )


def _launch_socket_worker(idx: int, stderr_dir: str) -> SocketChannel:
    """Spawn the process for worker ``idx`` on its own socket pair.

    The child inherits one end and the parent closes its copy of that end,
    so a worker's death reads as EOF at once. The channel is bound to its
    process from the start.
    """
    conn, child_end = socket.socketpair()
    stderr_path = Path(stderr_dir) / f"worker-{idx}-{time.monotonic_ns()}.stderr"
    try:
        with child_end, open(stderr_path, "wb") as stderr_file:
            proc = subprocess.Popen(
                _spawn_command(child_end.fileno()),
                stdout=subprocess.DEVNULL,
                stderr=stderr_file,
                env=_subprocess_env(),
                pass_fds=(child_end.fileno(),),
            )
    except BaseException:
        conn.close()
        raise
    return SocketChannel(proc, conn, stderr_path)


def spawn_workers(
    env: str,
    n_workers: int,
    transport: str = "in-process",
    *,
    env_config: dict | None = None,
    n_s: int = 1,
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
    if pad_mode not in PAD_MODES:
        raise SpawnError(f"pad_mode must be one of {PAD_MODES}, got {pad_mode!r}")
    # Written so that NaN fails too: it would reach INIT as JSON null.
    if not pad_ms >= 0:
        raise SpawnError(f"pad_ms must be >= 0, got {pad_ms}")
    if not step_delay_max_ms >= 0:
        raise SpawnError(f"step_delay_max_ms must be >= 0, got {step_delay_max_ms}")
    step_timeout = (_default_step_timeout() if step_timeout_s is None
                    else _checked_timeout("step_timeout_s", step_timeout_s))
    ready_timeout_s = _checked_timeout("ready_timeout_s", ready_timeout_s)
    # Validates the environment name and configuration before any worker starts.
    scenario = make_scenario(env, env_config)

    frame_log: list | None = [] if record_frames else None
    init_spec = {
        "env": env,
        "env_config": env_config or {},
        "n_s": n_s,
        "pad_ms": pad_ms,
        "pad_mode": pad_mode,
        "step_delay_max_ms": step_delay_max_ms,
        "delay_seed": delay_seed,
    }

    stderr_dir = None
    if transport == "socket":
        stderr_dir = tempfile.TemporaryDirectory(prefix="rollout-grid-")
    channels: list = []
    pool = WorkerPool(n_workers, channels, scenario.obs_dim, scenario.act_dim, step_timeout,
                      init_spec if restart_on_failure else None, frame_log, stderr_dir,
                      ready_timeout_s)
    try:
        for idx in range(n_workers):
            channels.append(_launch_socket_worker(idx, stderr_dir.name)
                            if transport == "socket" else InProcessChannel())
        pool._init(list(range(n_workers)), init_spec)
    except BaseException:
        pool._close(grace_s=0.0)
        raise
    return pool
