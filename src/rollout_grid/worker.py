"""Worker side of the execution layer.

A worker owns exactly one scenario instance, constructed once at INIT, and
serves RESET/STEP frames until CLOSE or disconnect. Every STEP advances
``n_s`` internal decision substeps (each itself ``steps_per_action`` physics
ticks), re-applying the same action and summing the rewards. If the episode
ends mid-call the final observation is recorded under ``final_observation``
in the info map, the scenario auto-resets with the next seed of its episode
schedule (``episode_seed(root, j)``), and the fresh initial observation is
returned. Only per-step outputs ever cross the wire after INIT.
"""

from __future__ import annotations

import json
import os
import socket
import time

import numpy as np

from . import wire
from .config import PAD_MODES
from .core import Episode, episode_seed
from .errors import ProtocolError
from .registry import make_scenario


def _busy_wait(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


class _InitConfig(dict):
    """An INIT payload: reading a key it lacks fails the INIT, naming the key."""

    def __missing__(self, key):
        raise ProtocolError(f"INIT lacks the key {key!r}")


class WorkerRuntime:
    """Stateful frame handler shared by the in-process and socket transports."""

    def __init__(self):
        self.episode: Episode | None = None
        self.root_seed = 0
        self.episode_index = 0
        self.reset_options: dict = {}
        self.step_count = 0  # logical clock: STEP frames served

    # -- request handling ---------------------------------------------------

    def handle_frame(self, tag: int, payload: bytes) -> bytes | None:
        """Serve one request; returns the encoded reply, or None on CLOSE."""
        if tag == wire.TAG_CLOSE:
            return None
        try:
            if tag == wire.TAG_INIT:
                return self._handle_init(payload)
            if tag == wire.TAG_RESET:
                return self._handle_reset(payload)
            if tag == wire.TAG_STEP:
                return self._handle_step(payload)
            raise ProtocolError(f"unexpected request tag 0x{tag:02X}")
        except Exception as exc:
            return wire.encode_frame(wire.TAG_ERR, wire.encode_error(exc))

    def _handle_init(self, payload: bytes) -> bytes:
        # spawn_workers sends every key, so the defaults live there only.
        cfg = _InitConfig(json.loads(payload.decode()))
        self.worker_index = int(cfg["worker_index"])
        self.n_s = int(cfg["n_s"])
        if self.n_s < 1:
            raise ProtocolError(f"n_s must be >= 1, got {self.n_s}")
        # A negative or NaN pad or delay would otherwise run unpadded. NaN
        # arrives as null from canonical JSON and as NaN from plain JSON.
        for key in ("pad_ms", "step_delay_max_ms"):
            if not (isinstance(cfg[key], (int, float)) and cfg[key] >= 0):
                raise ProtocolError(f"{key} must be a number >= 0, got {cfg[key]!r}")
        self._pad_s = float(cfg["pad_ms"]) / 1e3
        if cfg["pad_mode"] not in PAD_MODES:
            raise ProtocolError(f"pad_mode must be one of {PAD_MODES}, got {cfg['pad_mode']!r}")
        self._pad_busy = cfg["pad_mode"] == "busy"
        self._delay_max_s = float(cfg["step_delay_max_ms"]) / 1e3
        self._delay_rng = np.random.default_rng(
            np.random.SeedSequence((int(cfg["delay_seed"]), self.worker_index))
        )
        # Set last: a STEP or RESET after a failed INIT is refused.
        self.episode = Episode(make_scenario(cfg["env"], cfg["env_config"]))
        ready = wire.dumps_canonical({"worker_index": self.worker_index, "pid": os.getpid()})
        return wire.encode_frame(wire.TAG_READY, ready)

    def _handle_reset(self, payload: bytes) -> bytes:
        if self.episode is None:
            raise ProtocolError("RESET before INIT")
        seed, options = wire.decode_reset(payload)
        self.root_seed = seed
        self.episode_index = 0
        self.reset_options = options
        obs = self.episode.reset(seed, options)
        return wire.encode_frame(wire.TAG_RESETRES, wire.encode_vector(obs))

    def _handle_step(self, payload: bytes) -> bytes:
        if self.episode is None:
            raise ProtocolError("STEP before INIT")
        action, end = wire.decode_vector(payload)
        if end != len(payload):
            raise ProtocolError("trailing bytes after the action vector")

        total_reward = 0.0
        result = None
        for _ in range(self.n_s):
            self._pad()
            result = self.episode.step(action)
            total_reward += result.reward
            if result.done:
                break
        self.step_count += 1

        info = dict(result.info)
        info["worker_step"] = self.step_count
        obs = result.observation
        if result.done:
            info["final_observation"] = result.observation.tolist()
            info["episode"] = self.episode_index
            self.episode_index += 1
            obs = self.episode.reset(
                episode_seed(self.root_seed, self.episode_index), self.reset_options
            )
        if self._delay_max_s > 0:
            time.sleep(float(self._delay_rng.uniform(0.0, self._delay_max_s)))
        body = wire.encode_step_result(obs, total_reward, result.terminated, result.truncated, info)
        return wire.encode_frame(wire.TAG_STEPRES, body)

    def _pad(self) -> None:
        if self._pad_s <= 0:
            return
        if self._pad_busy:
            _busy_wait(self._pad_s)
        else:
            time.sleep(self._pad_s)


def run_socket_worker(fd: int) -> int:
    """Serve frames on the inherited socket ``fd`` until CLOSE or disconnect."""
    runtime = WorkerRuntime()
    reader = wire.FrameReader()
    with socket.socket(fileno=fd) as sock:
        while True:
            data = sock.recv(65536)
            if not data:
                return 0
            reader.feed(data)
            while (frame := reader.next_frame()) is not None:
                reply = runtime.handle_frame(*frame)
                if reply is None:
                    return 0
                sock.sendall(reply)
