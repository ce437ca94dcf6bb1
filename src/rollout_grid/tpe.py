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

import functools
import itertools
import json
import math
import operator
import sys
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
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min  # the smallest positive normal float

#: Relative margin within which an approximately scored candidate is rescored
#: exactly: about a million times the few-ulp error of the screening pass.
SCREEN_MARGIN = 1e-9

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

    def __post_init__(self):
        if self.n_startup < 1:
            raise ValueError("n_startup must be >= 1")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")


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
        pts = np.asarray(points, dtype=np.float64).ravel()
        if len(pts) and not (self.orig_lo <= pts.min() and pts.max() <= self.orig_hi):
            raise ValueError("observed points must lie within the bounds")
        if log_scale:
            if lo <= 0:
                raise ValueError("log-scale bounds must be positive")
            self.lo, self.hi = math.log(lo), math.log(hi)
            pts = _map(math.log, pts)
        else:
            self.lo, self.hi = float(lo), float(hi)
        self.centers = np.sort(pts)
        self.widths = self._bandwidths(self.centers, self.lo, self.hi)
        if len(self.centers):
            # Prior-wide component stabilizes the mixture away from data.
            self.centers = np.concatenate((self.centers, [0.5 * (self.lo + self.hi)]))
            self.widths = np.concatenate((self.widths, [self.hi - self.lo]))
        # Each kernel's truncation cdfs at the bounds, NormalDist().cdf's float
        # operations: the kernel's mass is their difference, and sample draws
        # between them.
        n = len(self.centers)
        scaled = np.concatenate(((self.lo - self.centers) / self.widths,
                                 (self.hi - self.centers) / self.widths)) / _SQRT2
        cdfs = 0.5 * (1.0 + _map(math.erf, scaled))
        self._p_lo, self._p_hi = cdfs[:n], cdfs[n:]
        self._norms = self.widths * _SQRT_2PI * (self._p_hi - self._p_lo)

    @staticmethod
    def _bandwidths(centers: np.ndarray, lo: float, hi: float) -> np.ndarray:
        """Kernel width of each of the n sorted centers (the neighbor-max rule).

        A center's width is the larger distance to its sorted neighbors,
        floored at (hi-lo)/min(100, n+1) and capped at (hi-lo).
        """
        span = hi - lo
        n = len(centers)
        if n == 0:
            return np.empty(0)
        # max(floor, left gap, right gap), capped at the span; a missing
        # neighbor counts as a gap of one span.
        floor = span / min(100, n + 1)
        gaps = centers[1:] - centers[:-1]
        widest = np.maximum(np.concatenate(([span], gaps)), np.concatenate((gaps, [span])))
        return np.minimum(span, np.maximum(floor, widest))

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
            x = _map(math.log, x)
        if not len(self.centers):
            out[inside] = jacobian / (self.hi - self.lo)
            return out
        z = (x[:, None] - self.centers) / self.widths
        exps = _map(math.exp, (-0.5 * z * z).ravel())
        terms = exps.reshape(z.shape) / self._norms
        total = np.add.accumulate(terms, axis=1)[:, -1]
        out[inside] = jacobian * total / len(self.centers)
        return out

    def sample(self, rng: np.random.Generator) -> float:
        """Inverse-CDF draw from a uniformly chosen mixture component."""
        return float(self.sample_many(rng, 1)[0])

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` draws in the original coordinates, each one ``sample`` would give.

        Per draw the rng picks a component (``integers``), then a uniform
        (``random``), in that order; the rest runs over the arrays with the
        float operations of the per-draw formula.
        """
        # lo + (hi - lo) * rng.random() is rng.uniform(lo, hi) bit for bit,
        # from the same draw, at a third of the call's cost.
        if not len(self.centers):
            x = self.lo + (self.hi - self.lo) * rng.random(n)
        else:
            integers, random, k = rng.integers, rng.random, len(self.centers)
            draws = np.array([(integers(k), random()) for _ in range(n)])
            i = draws[:, 0].astype(np.intp)
            p_lo, p_hi = self._p_lo[i], self._p_hi[i]
            u = np.minimum(np.maximum(p_lo + (p_hi - p_lo) * draws[:, 1], 1e-15), 1.0 - 1e-15)
            x = self.centers[i] + self.widths[i] * _map(_STD_NORMAL.inv_cdf, u)
            # min(max(x, lo), hi) keeps x on a tie, as np.maximum need not.
            x[x < self.lo] = self.lo
            x[x > self.hi] = self.hi
        return _map(math.exp, x) if self.log_scale else x


def _map(fn, xs: np.ndarray) -> np.ndarray:
    """``fn`` over the elements of a float array, as Python floats."""
    return np.fromiter(map(fn, xs.tolist()), np.float64, xs.size)


class RatioModel:
    """The good and bad densities of one dimension, and the choice between candidates.

    ``best`` returns the index of the first candidate with the highest exact
    score ``l(x) / g(x)`` (infinite where ``g(x) == 0``), exactly as a loop
    over ``pdf`` values would. A screening pass scores every candidate
    approximately, with ``np.exp`` over both densities' kernels at once and
    pairwise sums; only candidates whose approximate ratio lies within
    ``SCREEN_MARGIN`` (relative) of the best are rescored exactly. An
    approximate kernel sum is within ``2K + 1`` ulps of the exact one, for
    ``K`` kernels, so the margin, grown with the kernel count, keeps every
    candidate that could win (README, Determinism, has the argument).
    """

    def __init__(self, l_density: ParzenDensity, g_density: ParzenDensity):
        self.l, self.g = l_density, g_density
        self._split = len(l_density.centers)
        self._screened = self._split > 0 and len(g_density.centers) > 0
        if self._screened:
            self._centers = np.concatenate((l_density.centers, g_density.centers))
            self._widths = np.concatenate((l_density.widths, g_density.widths))
            self._norms = np.concatenate((l_density._norms, g_density._norms))
            n_kernels = len(self._centers)
            self._margin = SCREEN_MARGIN + 8 * n_kernels * _EPS
            # A sum at least this large carries at most one ulp of error per
            # subnormal term, however small a kernel's norm is.
            self._floor = _TINY * (1.0 + 1.0 / self._norms.min())

    def best(self, xs) -> int:
        xs = np.asarray(xs, dtype=np.float64)
        idx = self._contenders(xs)
        if len(idx) == 1:
            return int(idx[0])
        best_i, best_score = -1, -math.inf
        l_values = self.l.pdf_many(xs[idx]).tolist()
        g_values = self.g.pdf_many(xs[idx]).tolist()
        for i, l, g in zip(idx.tolist(), l_values, g_values):
            score = math.inf if g == 0.0 else l / g
            if score > best_score:
                best_i, best_score = i, score
        return best_i

    def _contenders(self, xs: np.ndarray) -> np.ndarray:
        """Indices of the candidates that may score highest; all of them when in doubt."""
        everyone = np.arange(len(xs))
        # Outside the bounds a density is exactly 0; the exact pass settles it.
        if not (self._screened and self.l.orig_lo <= xs.min() and xs.max() <= self.l.orig_hi):
            return everyone
        x = _map(math.log, xs) if self.l.log_scale else xs
        z = (x[:, None] - self._centers) / self._widths
        terms = np.exp(-0.5 * z * z) / self._norms
        sums = np.add.reduceat(terms, [0, self._split], axis=1)
        if not (sums.min() >= self._floor and sums.max() < math.inf):
            return everyone
        # The jacobian and the 1/K factors are the same for every candidate.
        ratio = sums[:, 0] / sums[:, 1]
        top = ratio.max()
        if not (ratio.min() >= _TINY and top < math.inf):
            return everyone
        return np.flatnonzero(ratio >= top * (1.0 - self._margin))


_DIMENSIONS = (
    # (name, which is also the bounds attribute on PriorSet; log scale)
    ("f_y", True),
    ("beta", False),
    ("alpha2", False),
)


@functools.lru_cache(maxsize=1)
def _ratio_models(good: bytes, bad: bytes, bounds: bytes) -> tuple[RatioModel | None, ...]:
    """One model per dimension (None where its interval is a point), from raw float64 bytes.

    The arguments are the exact bytes of the good and bad points (trials by
    dimensions) and of the bounds, so the asks of one batch, which see the
    same completed trials, share one build.
    """
    dims = len(_DIMENSIONS)
    good_pts = np.frombuffer(good).reshape(-1, dims)
    bad_pts = np.frombuffer(bad).reshape(-1, dims)
    box = np.frombuffer(bounds).reshape(dims, 2).tolist()
    return tuple(
        None if lo == hi else RatioModel(ParzenDensity(good_pts[:, j], lo, hi, log_scale),
                                         ParzenDensity(bad_pts[:, j], lo, hi, log_scale))
        for j, ((_, log_scale), (lo, hi)) in enumerate(zip(_DIMENSIONS, box))
    )


_dimension_values = operator.itemgetter(*(name for name, _ in _DIMENSIONS))


def _points_bytes(trials: list[Trial]) -> bytes:
    rows = [_dimension_values(t.params) for t in trials]
    return np.fromiter(itertools.chain.from_iterable(rows), np.float64).tobytes()


def tpe_ask(
    history: list[Trial], priors: PriorSet, cfg: TpeConfig, rng: np.random.Generator
) -> LanderDesign:
    """Propose the next design.

    Startup phase samples the priors directly (in the fixed f_y, beta,
    alpha2 order); afterwards each dimension independently maximizes the
    good/bad density ratio over candidates drawn from the good density.
    """
    done = complete_trials(history)
    if len(done) < cfg.n_startup or len(done) < 2:
        return sample_design(priors, rng)
    good, bad = tpe_split(done, cfg.gamma)
    bounds = [getattr(priors, name) for name, _ in _DIMENSIONS]
    models = _ratio_models(_points_bytes(good), _points_bytes(bad),
                           np.array(bounds, dtype=np.float64).tobytes())
    values: dict[str, float] = {}
    for (name, _), (lo, _), model in zip(_DIMENSIONS, bounds, models):
        if model is None:
            values[name] = lo
            continue
        # All candidates are drawn first; scoring never draws from the rng.
        candidates = model.l.sample_many(rng, cfg.n_candidates)
        values[name] = float(candidates[model.best(candidates)])
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
    on_tell=None,
) -> tuple[Trial, list[tuple[float, float]]]:
    """Batched ask/evaluate/tell loop over a lander worker pool.

    Each design is evaluated as a single-decision-step episode: the worker is
    reset with the design in its options and stepped once; the objective is
    the negated reward. The curve records (wall clock, best value so far) at
    every completion and is therefore nonincreasing in its second column.
    Pass ``history`` to keep the full trial record (e.g. for the study log);
    it is mutated in place. ``on_tell(trial, point)``, if given, runs as
    each trial is told, in history order; ``point`` is the curve row the
    trial added, or None for a failed evaluation. Failed evaluations do not
    count toward ``n_trials``; once more than ``n_trials`` have failed,
    RolloutError is raised with the last worker error.
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
            point = None
            if isinstance(outcome, BaseException):
                tpe_tell(history, trial, None, t_end=now)
                failed += 1
                last_failure = slot, outcome
            else:
                tpe_tell(history, trial, -outcome.reward, t_end=now)
                completed += 1
                best = min(best, trial.value)
                point = (now, best)
                curve.append(point)
            if on_tell is not None:
                on_tell(trial, point)
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


def read_trial_log(path) -> list[Trial]:
    """Rebuild a history by replaying the line-delimited trial log."""
    with open(path) as fh:
        return [trial_from_json(line) for line in fh if line.strip()]
