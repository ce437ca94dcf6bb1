"""Pool wrapper that logs what the drivers send and get back, plus log readers.

A log is a list of entries in call order:

    ("reset", indices, seeds, options, observations)
    ("step", indices, results)

where ``results`` holds one ``StepResult`` or exception per addressed slot.
"""

from __future__ import annotations

import json
import math
import struct


class PoolProxy:
    """Stands in for a ``WorkerPool`` in ``run_cem``/``run_bo`` and the rollout loop.

    Counts every slot-step sent and every one that came back as an error.
    While ``log`` is a list, each call is appended to it. With a tracer, each
    pool call is a span named ``pool.reset`` or ``pool.step``.
    """

    def __init__(self, pool, tracer=None):
        self.n_workers = pool.n_workers
        self.obs_dim = pool.obs_dim
        self.act_dim = pool.act_dim
        self.log: list | None = None
        self.attempted = 0
        self.failed = 0
        self._reset = pool.reset_some
        self._step_some = pool.step_some
        self._step_all = pool.step_all
        if tracer is not None:
            self._reset = tracer.wrap(self._reset, "pool.reset")
            self._step_some = tracer.wrap(self._step_some, "pool.step")
            self._step_all = tracer.wrap(self._step_all, "pool.step")

    def reset_all(self, seeds, options=None):
        return self.reset_some(list(range(self.n_workers)), seeds, options)

    def reset_some(self, indices, seeds, options=None):
        obs = self._reset(indices, seeds, options)
        if self.log is not None:
            self.log.append(("reset", list(indices), list(seeds), options, obs))
        return obs

    def step_some(self, indices, actions, raise_on_error=True):
        results = self._step_some(indices, actions, raise_on_error)
        self._record(indices, results)
        return results

    def step_all(self, actions):
        batch = self._step_all(actions)
        self._record(range(self.n_workers), batch.results)
        return batch

    def _record(self, indices, results) -> None:
        self.attempted += len(results)
        self.failed += sum(isinstance(r, BaseException) for r in results)
        if self.log is not None:
            self.log.append(("step", list(indices), results))


def reset_options(entry) -> list[dict]:
    """Per-slot option maps of a logged reset, as the pool expands them."""
    _, indices, _, options, _ = entry
    if options is None:
        return [{}] * len(indices)
    if isinstance(options, dict):
        return [options] * len(indices)
    return [o or {} for o in options]


def step_results(log):
    """Yield (barrier number, worker index, result) for every logged slot-step."""
    barrier = 0
    for entry in log:
        if entry[0] != "step":
            continue
        barrier += 1
        for idx, result in zip(entry[1], entry[2]):
            yield barrier, idx, result


def tracker_steps_executed(log) -> int:
    """Decision steps the tracker workers ran, from the ``err_steps`` field.

    ``err_steps`` counts the decision steps of the current episode; it
    restarts after a reset and after an episode ends inside a STEP call.
    """
    prev: dict[int, int] = {}
    total = 0
    for entry in log:
        if entry[0] == "reset":
            prev.update((idx, 0) for idx in entry[1])
            continue
        for idx, result in zip(entry[1], entry[2]):
            if isinstance(result, BaseException):
                prev[idx] = 0
                continue
            count = int(result.info["err_steps"])
            total += count - prev[idx]
            prev[idx] = 0 if result.done else count
    return total


def cem_steps_recorded(log) -> int:
    """Decision steps that count toward a recorded CEM episode.

    A wave starts at a reset; each slot's episode is recorded up to and
    including its first terminal step. Steps after that are sent to keep the
    barrier in lockstep and are discarded by the driver.
    """
    total = 0
    done: list[bool] = []
    for entry in log:
        if entry[0] == "reset":
            done = [False] * len(entry[1])
            continue
        for slot, result in enumerate(entry[2]):
            if done[slot]:
                continue
            if isinstance(result, BaseException):
                done[slot] = True
                continue
            total += 1
            done[slot] = result.done
    return total


def evaluations_completed(log) -> int:
    return sum(not isinstance(r, BaseException) for _, _, r in step_results(log))


def slot_steps_sent(log, n_s: int) -> int:
    return n_s * sum(len(entry[1]) for entry in log if entry[0] == "step")


def canonical_json(info: dict) -> str:
    """Info map as the wire carries it: sorted keys, non-finite floats as null."""

    def clean(value):
        if isinstance(value, dict):
            return {str(k): clean(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [clean(v) for v in value]
        if isinstance(value, float) and not math.isfinite(value):
            return None
        return value

    return json.dumps(clean(info), sort_keys=True, separators=(",", ":"))


def result_key(result):
    """Every bit of one STEPRES reply, or the type and text of an error."""
    if isinstance(result, BaseException):
        return ("error", type(result).__name__, str(result))
    return (
        result.observation.tobytes(),
        struct.pack("<d", result.reward),
        bool(result.terminated),
        bool(result.truncated),
        canonical_json(result.info),
    )
