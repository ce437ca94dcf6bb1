"""Native Tree-structured Parzen Estimator over a lander design space.

Ask/tell interface: the history is a plain list of :class:`Trial`. Below
``n_startup`` completed trials, asks fall back to the prior. Afterwards the
completed trials are split into the best ceil(gamma*n) ("good") and the rest
("bad"); per dimension, candidates drawn from the good density are scored by
the good/bad density ratio and the argmax wins. Each dimension is treated
independently; pending trials are invisible to the split, so the multiset of
proposed designs depends only on the seed and the ask order, not on how the
evaluations were scheduled.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .core import make_rng
from .errors import NotEnoughData, RolloutError
from .lander import LanderDesign, PriorSet, sample_design

_STD_NORMAL = NormalDist()
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2 * math.pi)

PENDING = "pending"
COMPLETE = "complete"
FAILED = "failed"


@dataclass
class Trial:
    """One evaluation record: parameters, objective value, timing."""

    params: dict[str, float]
    value: float | None = None
    state: str = PENDING
    t_start: float = 0.0
    t_end: float = 0.0
    index: int = -1


@dataclass(frozen=True)
class TpeConfig:
    n_startup: int = 10  # random trials before the estimator engages
    gamma: float = 0.25  # quantile of the good/bad split
    n_candidates: int = 24  # samples drawn from the good density per ask
    # Kernel width of an observed point: max distance to its sorted
    # neighbors, floored at (hi-lo)/min(100, n+1) and capped at (hi-lo).
    bandwidth_rule: str = "neighbor-max"

    def validate(self) -> None:
        if self.n_startup < 1:
            raise ValueError("n_startup must be >= 1")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        if self.bandwidth_rule != "neighbor-max":
            raise ValueError(f"unknown bandwidth rule {self.bandwidth_rule!r}")


def complete_trials(history: list[Trial]) -> list[Trial]:
    return [t for t in history if t.state == COMPLETE]


def best_trial(history: list[Trial]) -> Trial | None:
    done = complete_trials(history)
    return min(done, key=lambda t: t.value) if done else None


def tpe_split(history: list[Trial], gamma: float) -> tuple[list[Trial], list[Trial]]:
    """Split completed trials into the good quantile and the rest.

    Good trials are the ceil(gamma * n) lowest values; ties break toward the
    earlier-finishing trial.
    """
    done = complete_trials(history)
    if len(done) < 2:
        raise NotEnoughData(f"need >= 2 complete trials, have {len(done)}")
    n_good = math.ceil(gamma * len(done))
    ranked = sorted(done, key=lambda t: (t.value, t.t_end, t.index))
    return ranked[:n_good], ranked[n_good:]


def _std_normal_cdf(x: float) -> float:
    # NormalDist().cdf(x): the same float operations, without the method call.
    return 0.5 * (1.0 + math.erf(x / _SQRT2))


class ParzenDensity:
    """1-D kernel mixture over a bounded interval, optionally in log space.

    One truncated Gaussian per observed point plus one prior-wide kernel at
    the interval midpoint, uniformly weighted and renormalized over the
    bounds, so the density always integrates to one. With no points the
    density degenerates to the prior (uniform, or log-uniform when
    ``log_scale``); log-scale densities include the 1/x change-of-variables
    factor.
    """

    def __init__(self, points, lo: float, hi: float, log_scale: bool = False):
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
        self.orig_lo, self.orig_hi = float(lo), float(hi)
        self.log_scale = log_scale
        pts = [float(p) for p in points]
        if any(not self.orig_lo <= p <= self.orig_hi for p in pts):
            raise ValueError("observed points must lie within the bounds")
        if log_scale:
            if lo <= 0:
                raise ValueError("log-scale bounds must be positive")
            self.lo, self.hi = math.log(lo), math.log(hi)
            pts = [math.log(p) for p in pts]
        else:
            self.lo, self.hi = float(lo), float(hi)
        self.centers = sorted(pts)
        self.widths = self._bandwidths(self.centers, self.lo, self.hi)
        if self.centers:
            # Prior-wide component stabilizes the mixture away from data.
            self.centers.append(0.5 * (self.lo + self.hi))
            self.widths.append(self.hi - self.lo)
        # Each kernel's truncation cdfs at the bounds, computed once: the
        # kernel's mass is their difference, and sample draws between them.
        self._cdfs = [
            (_std_normal_cdf((self.lo - c) / w), _std_normal_cdf((self.hi - c) / w))
            for c, w in zip(self.centers, self.widths)
        ]
        self._center_arr = np.array(self.centers)
        self._width_arr = np.array(self.widths)
        self._norms = np.array(
            [w * _SQRT_2PI * (p_hi - p_lo) for w, (p_lo, p_hi) in zip(self.widths, self._cdfs)]
        )

    @staticmethod
    def _bandwidths(centers: list[float], lo: float, hi: float) -> list[float]:
        span = hi - lo
        n = len(centers)
        if n == 0:
            return []
        floor = span / min(100, n + 1)
        widths = []
        for i, c in enumerate(centers):
            left = centers[i] - centers[i - 1] if i > 0 else span
            right = centers[i + 1] - centers[i] if i < n - 1 else span
            widths.append(min(span, max(floor, left, right)))
        return widths

    def pdf(self, x: float) -> float:
        """Density at ``x`` in the original coordinates."""
        return float(self.pdf_many([x])[0])

    def pdf_many(self, xs) -> np.ndarray:
        """Density at each of ``xs`` in the original coordinates, in one pass.

        Each value is the one a per-point loop gives, bit for bit: logs and
        exps go through ``math`` (numpy's differ in the last bit for some
        inputs), and each point's kernel terms are summed left to right.
        """
        xs = np.asarray(xs, dtype=np.float64)
        out = np.zeros(len(xs))
        inside = (self.orig_lo <= xs) & (xs <= self.orig_hi)
        x = xs[inside]
        jacobian = 1.0
        if self.log_scale:
            jacobian = 1.0 / x
            x = np.array([math.log(v) for v in x.tolist()])
        if not self.centers:
            out[inside] = jacobian / (self.hi - self.lo)
            return out
        z = (x[:, None] - self._center_arr) / self._width_arr
        exps = np.fromiter(map(math.exp, (-0.5 * z * z).ravel().tolist()), np.float64, z.size)
        terms = exps.reshape(z.shape) / self._norms
        total = np.add.accumulate(terms, axis=1)[:, -1]
        out[inside] = jacobian * total / len(self.centers)
        return out

    def sample(self, rng: np.random.Generator) -> float:
        """Inverse-CDF draw from a uniformly chosen mixture component."""
        # lo + (hi - lo) * rng.random() is rng.uniform(lo, hi) bit for bit,
        # from the same draw, at a third of the call's cost.
        if not self.centers:
            u = self.lo + (self.hi - self.lo) * rng.random()
            return math.exp(u) if self.log_scale else u
        i = int(rng.integers(len(self.centers)))
        c, w = self.centers[i], self.widths[i]
        p_lo, p_hi = self._cdfs[i]
        u = p_lo + (p_hi - p_lo) * rng.random()
        x = c + w * _STD_NORMAL.inv_cdf(min(max(u, 1e-15), 1.0 - 1e-15))
        x = min(max(x, self.lo), self.hi)
        return math.exp(x) if self.log_scale else x


_DIMENSIONS = (
    # (name, bounds attribute on PriorSet, log scale)
    ("f_y", "f_y", True),
    ("beta", "beta", False),
    ("alpha2", "alpha2", False),
)


def tpe_ask(
    history: list[Trial], priors: PriorSet, cfg: TpeConfig, rng: np.random.Generator
) -> LanderDesign:
    """Propose the next design.

    Startup phase samples the priors directly (in the fixed f_y, beta,
    alpha2 order); afterwards each dimension independently maximizes the
    good/bad density ratio over candidates drawn from the good density.
    """
    cfg.validate()
    done = complete_trials(history)
    if len(done) < cfg.n_startup or len(done) < 2:
        return sample_design(priors, rng)
    good, bad = tpe_split(history, cfg.gamma)
    values: dict[str, float] = {}
    for name, attr, log_scale in _DIMENSIONS:
        lo, hi = getattr(priors, attr)
        if lo == hi:
            values[name] = lo
            continue
        l_density = ParzenDensity([t.params[name] for t in good], lo, hi, log_scale)
        g_density = ParzenDensity([t.params[name] for t in bad], lo, hi, log_scale)
        # All candidates are drawn first; scoring never draws from the rng.
        candidates = [l_density.sample(rng) for _ in range(cfg.n_candidates)]
        l_values = l_density.pdf_many(candidates).tolist()
        g_values = g_density.pdf_many(candidates).tolist()
        best_x, best_score = None, -math.inf
        for x, l, g in zip(candidates, l_values, g_values):
            score = math.inf if g == 0.0 else l / g
            if score > best_score:
                best_x, best_score = x, score
        values[name] = best_x
    return LanderDesign(f_y=values["f_y"], beta=values["beta"], alpha2=values["alpha2"])


def tpe_tell(
    history: list[Trial],
    params: dict[str, float] | LanderDesign | Trial,
    value: float | None,
    *,
    t_start: float = 0.0,
    t_end: float = 0.0,
) -> Trial:
    """Record an outcome. Non-finite or missing values mark the trial failed.

    ``params`` may be a pending Trial previously appended by the caller (it
    is completed in place) or a raw parameter mapping / design (a new trial
    is appended).
    """
    if isinstance(params, Trial):
        trial = params
        if not any(t is trial for t in history):
            history.append(trial)
    else:
        if isinstance(params, LanderDesign):
            params = params.as_dict()
        trial = Trial(params=dict(params), t_start=t_start, index=len(history))
        history.append(trial)
    if trial.index < 0:
        trial.index = len(history) - 1
    trial.t_end = t_end
    if value is not None and math.isfinite(value):
        trial.value = float(value)
        trial.state = COMPLETE
    else:
        trial.value = None
        trial.state = FAILED
    return trial


def run_bo(
    pool,
    priors: PriorSet,
    cfg: TpeConfig,
    n_trials: int,
    batch: int = 1,
    *,
    seed: int = 0,
    clock=time.perf_counter,
    history: list[Trial] | None = None,
) -> tuple[Trial, list[tuple[float, float]]]:
    """Batched ask/evaluate/tell loop over a lander worker pool.

    Each design is evaluated as a single-decision-step episode: the worker is
    reset with the design in its options and stepped once; the objective is
    the negated reward. The curve records (wall clock, best value so far) at
    every completion and is therefore nonincreasing in its second column.
    Pass ``history`` to keep the full trial record (e.g. for the study log);
    it is mutated in place. Failed evaluations do not count toward
    ``n_trials``; once more than ``n_trials`` have failed, RolloutError is
    raised with the last worker error.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if batch > pool.n_workers:
        raise ValueError(f"batch {batch} exceeds pool size {pool.n_workers}")
    rng = make_rng(seed)
    history = [] if history is None else history
    curve: list[tuple[float, float]] = []
    start = clock()
    best = math.inf
    completed = failed = 0
    last_failure = None
    while completed < n_trials:
        width = min(batch, n_trials - completed)
        pending: list[Trial] = []
        now = clock() - start
        for _ in range(width):
            design = tpe_ask(history, priors, cfg, rng)
            trial = Trial(params=design.as_dict(), t_start=now, index=len(history))
            history.append(trial)
            pending.append(trial)
        indices = list(range(width))
        seeds = [seed + t.index for t in pending]
        options = [{"design": t.params} for t in pending]
        pool.reset_some(indices, seeds, options)
        actions = np.zeros((width, pool.act_dim))
        outcomes = pool.step_some(indices, actions, raise_on_error=False)
        for slot, (trial, outcome) in enumerate(zip(pending, outcomes)):
            now = clock() - start
            if isinstance(outcome, BaseException):
                tpe_tell(history, trial, None, t_end=now)
                failed += 1
                last_failure = slot, outcome
                continue
            tpe_tell(history, trial, -outcome.reward, t_end=now)
            completed += 1
            best = min(best, trial.value)
            curve.append((now, best))
        if failed > n_trials:
            slot, exc = last_failure
            raise RolloutError(
                f"{failed} evaluations failed, more than n_trials={n_trials}; "
                f"last failure on worker {slot}: {exc!r}"
            ) from exc
    return best_trial(history), curve


def trial_to_json(trial: Trial) -> str:
    return json.dumps(
        {
            "index": trial.index,
            "params": trial.params,
            "value": trial.value,
            "state": trial.state,
            "t_start": trial.t_start,
            "t_end": trial.t_end,
        },
        sort_keys=True,
    )


def trial_from_json(line: str) -> Trial:
    d = json.loads(line)
    return Trial(
        params=d["params"],
        value=d["value"],
        state=d["state"],
        t_start=d["t_start"],
        t_end=d["t_end"],
        index=d["index"],
    )


def write_trial_log(history: list[Trial], path) -> None:
    with open(path, "w") as fh:
        for trial in history:
            fh.write(trial_to_json(trial) + "\n")


def read_trial_log(path) -> list[Trial]:
    """Rebuild a history by replaying the line-delimited trial log."""
    with open(path) as fh:
        return [trial_from_json(line) for line in fh if line.strip()]
