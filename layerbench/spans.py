"""Spans around the calls into each layer, recorded from the benchmark's side.

The program itself carries no spans. The benchmark wraps public functions
of each layer for the length of a traced section and puts the originals
back afterwards. Spans stay in memory; the run summarizes them at the end.
"""

from __future__ import annotations

import math
import statistics
from contextlib import contextmanager
from time import perf_counter_ns

import rollout_grid.cem
import rollout_grid.tpe
import rollout_grid.tracker
import rollout_grid.wire
from rollout_grid.core import Episode
from rollout_grid.lander import TouchdownIntegrator
from rollout_grid.worker import WorkerRuntime

class Tracer:
    """Nested spans: name, parent span, duration and time covered by child spans."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.durations: list[int] = []  # ns
        self.child_ns: list[int] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str, label=None):
        """``fn`` recording one span per call; ``label(*args)`` names it, if given."""
        names, parents, durations, child_ns, open_ = (
            self.names, self.parents, self.durations, self.child_ns, self._open)

        def traced(*args, **kwargs):
            i = len(durations)
            names.append(label(*args) if label else name)
            parent = open_[-1] if open_ else -1
            parents.append(parent)
            durations.append(0)
            child_ns.append(0)
            open_.append(i)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - t0
                open_.pop()
                durations[i] = elapsed
                if parent >= 0:
                    child_ns[parent] += elapsed

        return traced

    def durations_of(self, name: str) -> list[int]:
        return [d for n, d in zip(self.names, self.durations) if n == name]

    def self_times_of(self, name: str) -> list[int]:
        return [d - c for n, d, c in zip(self.names, self.durations, self.child_ns) if n == name]

    def top_level_ns(self) -> int:
        return sum(d for p, d in zip(self.parents, self.durations) if p < 0)

    def max_child_per_parent(self, parent_name: str, child_name: str) -> list[int]:
        """For each span named ``parent_name``, its longest direct child named ``child_name``."""
        longest: dict[int, int] = {}
        for n, p, d in zip(self.names, self.parents, self.durations):
            if n == child_name and p >= 0 and self.names[p] == parent_name:
                longest[p] = max(longest.get(p, 0), d)
        return list(longest.values())


class TickMeter:
    """Count and total time of leaf calls too frequent to keep one span each.

    Reading the clock twice costs about as much as a lander tick, so the
    meter times an empty call first and ``net_ns`` takes that floor off.
    """

    def __init__(self, probes: int = 20000):
        self.count: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        probe = self.wrap(lambda owner, dt: None, lambda owner, dt: "probe")
        for _ in range(probes):
            probe(None, 0.0)
        self.floor_ns = self.total_ns.pop("probe") / self.count.pop("probe")

    def wrap(self, fn, label):
        count, total = self.count, self.total_ns

        def timed(*args):
            name = label(*args)
            t0 = perf_counter_ns()
            result = fn(*args)
            elapsed = perf_counter_ns() - t0
            total[name] = total.get(name, 0) + elapsed
            count[name] = count.get(name, 0) + 1
            return result

        return timed

    def net_ns(self, *names: str) -> tuple[int, float]:
        """(calls, their total ns less the floor) over the labels ``names``."""
        calls = sum(self.count.get(n, 0) for n in names)
        return calls, sum(self.total_ns.get(n, 0) for n in names) - calls * self.floor_ns


@contextmanager
def patched(patches):
    """Set each ``(owner, attribute, replacement)`` for the block, then restore."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def driver_patches(tracer: Tracer):
    """Driver-side spans of the socket run: the optimizers' own work."""
    return [
        (rollout_grid.tpe, "tpe_ask", tracer.wrap(rollout_grid.tpe.tpe_ask, "tpe.ask")),
        (rollout_grid.cem, "policy_act", tracer.wrap(rollout_grid.cem.policy_act, "cem.policy_act")),
        (rollout_grid.cem, "cem_iterate", tracer.wrap(rollout_grid.cem.cem_iterate, "cem.update")),
    ]


def worker_patches(tracer: Tracer, stepres_sizes: list[int]):
    """Worker-side spans of the in-process replay, above the physics ticks."""
    traced_encode = tracer.wrap(rollout_grid.wire.encode_step_result, "wire.encode_stepres")

    def encode(*args):
        body = traced_encode(*args)
        stepres_sizes.append(len(body))
        return body

    return [
        (WorkerRuntime, "handle_frame", tracer.wrap(
            WorkerRuntime.handle_frame, "worker.other",
            label=lambda runtime, tag, payload: (
                "worker.step" if tag == rollout_grid.wire.TAG_STEP else "worker.other"))),
        (Episode, "step", tracer.wrap(Episode.step, "core.step")),
        (Episode, "reset", tracer.wrap(Episode.reset, "core.reset")),
        (rollout_grid.wire, "encode_step_result", encode),
        (rollout_grid.wire, "decode_step_result",
         tracer.wrap(rollout_grid.wire.decode_step_result, "wire.decode_stepres")),
    ]


def tick_patches(meter: TickMeter):
    """Physics ticks of both environments; lander ticks split by whether touchdown had settled."""
    return [
        (rollout_grid.tracker, "tracker_dynamics_step", meter.wrap(
            rollout_grid.tracker.tracker_dynamics_step, lambda *args: "tracker.tick")),
        (TouchdownIntegrator, "advance", meter.wrap(
            TouchdownIntegrator.advance,
            lambda integ, dt: "lander.tick_settled" if integ.done else "lander.tick_live")),
    ]


def p50_us(values_ns) -> float:
    return statistics.median(values_ns) / 1e3 if values_ns else 0.0


def p99_us(values_ns) -> float:
    """Nearest-rank 99th percentile."""
    if not values_ns:
        return 0.0
    ordered = sorted(values_ns)
    return ordered[math.ceil(0.99 * len(ordered)) - 1] / 1e3
