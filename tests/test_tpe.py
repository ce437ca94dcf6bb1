import hashlib
import itertools
import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from rollout_grid.errors import NotEnoughData, RolloutError
from rollout_grid.lander import PriorSet
from rollout_grid.pool import spawn_workers
from rollout_grid.tpe import (
    COMPLETE,
    FAILED,
    ParzenDensity,
    RatioModel,
    Trial,
    TpeConfig,
    best_trial,
    read_trial_log,
    run_bo,
    tpe_ask,
    tpe_split,
    tpe_tell,
    trial_from_json,
    trial_to_json,
)


def make_history(values, t_end_start=0.0):
    history = []
    for i, v in enumerate(values):
        history.append(Trial(params={"f_y": 1000.0 + i, "beta": 0.1, "alpha2": 0.5},
                             value=v, state=COMPLETE, t_end=t_end_start + i, index=i))
    return history


class TestSplit:
    def test_quantile_count(self):
        good, bad = tpe_split(make_history(range(8)), gamma=0.25)
        assert len(good) == 2 and len(bad) == 6

    def test_lowest_values_are_good(self):
        history = make_history([float(v) for v in range(100, 0, -1)])
        good, _ = tpe_split(history, gamma=0.1)
        assert sorted(t.value for t in good) == list(range(1, 11))

    def test_ties_break_by_earlier_finish(self):
        history = make_history([5.0, 5.0, 5.0, 5.0])
        good, _ = tpe_split(history, gamma=0.5)
        assert [t.index for t in good] == [0, 1]

    def test_needs_two_complete(self):
        with pytest.raises(NotEnoughData):
            tpe_split(make_history([1.0]), gamma=0.5)

    def test_failed_trials_excluded(self):
        history = make_history([3.0, 1.0, 2.0])
        history.append(Trial(params={}, value=None, state=FAILED, index=3))
        good, bad = tpe_split(history, gamma=0.34)
        assert len(good) + len(bad) == 3


class TestParzenDensity:
    def test_no_points_is_uniform_prior(self):
        d = ParzenDensity([], 2.0, 6.0)
        assert d.pdf_many([3.0])[0] == pytest.approx(0.25)
        assert d.pdf_many([1.0])[0] == 0.0
        assert ParzenDensity([], 2.0, 6.0).pdf_many([4.0])[0] == pytest.approx(0.25)

    def test_no_points_log_scale_prior(self):
        d = ParzenDensity([], 1e2, 1e4, log_scale=True)
        # log-uniform density 1/(x ln(hi/lo))
        assert d.pdf_many([1e3])[0] == pytest.approx(1.0 / (1e3 * math.log(100.0)))

    @pytest.mark.parametrize("points", [[5.0], [2.0, 3.0, 9.5], list(np.linspace(1.1, 9.9, 40))])
    def test_normalizes_to_one(self, points):
        d = ParzenDensity(points, 1.0, 10.0)
        integral, _ = quad(lambda x: d.pdf_many([x])[0], 1.0, 10.0, limit=200)
        assert abs(integral - 1.0) < 1e-3

    def test_normalizes_to_one_log_scale(self):
        d = ParzenDensity([150.0, 700.0, 9000.0], 1e2, 1e4, log_scale=True)
        integral, _ = quad(lambda x: d.pdf_many([x])[0], 1e2, 1e4, limit=400)
        assert abs(integral - 1.0) < 1e-3

    def test_normalizes_with_large_history(self, rng):
        points = rng.uniform(0.0, 1.0, size=200)
        d = ParzenDensity(points, 0.0, 1.0)
        integral, _ = quad(lambda x: d.pdf_many([x])[0], 0.0, 1.0, limit=400)
        assert abs(integral - 1.0) < 1e-3

    def test_single_midpoint_is_symmetric(self):
        d = ParzenDensity([5.0], 0.0, 10.0)
        for delta in (0.5, 1.0, 2.5, 4.0):
            left, right = d.pdf_many([5.0 - delta, 5.0 + delta])
            assert left == pytest.approx(right, rel=1e-9)

    def test_density_peaks_near_observations(self):
        d = ParzenDensity([2.0, 2.1, 1.9], 0.0, 10.0)
        assert d.pdf_many([2.0])[0] > d.pdf_many([8.0])[0]

    def test_samples_respect_bounds(self, rng):
        d = ParzenDensity([0.5, 7.0], 0.0, 8.0)
        draws = d.sample_many(rng, 500)
        assert all(0.0 <= x <= 8.0 for x in draws)

    def test_points_outside_bounds_rejected(self):
        with pytest.raises(ValueError):
            ParzenDensity([11.0], 0.0, 10.0)


class ReferenceDensity:
    """The Parzen density as the ask used it before it was batched: one point at a time.

    Plain Python floats throughout: the build loops over the sorted centers,
    ``pdf`` sums one point's kernel terms left to right with ``math.exp``,
    and ``sample`` draws ``integers`` then ``uniform`` per call.
    """

    def __init__(self, points, lo, hi, log_scale):
        self.orig_lo, self.orig_hi, self.log_scale = lo, hi, log_scale
        pts = [float(p) for p in points]
        if log_scale:
            lo, hi, pts = math.log(lo), math.log(hi), [math.log(p) for p in pts]
        self.lo, self.hi = lo, hi
        span, centers = hi - lo, sorted(pts)
        n = len(centers)
        widths = []
        for i in range(n):
            left = centers[i] - centers[i - 1] if i > 0 else span
            right = centers[i + 1] - centers[i] if i < n - 1 else span
            widths.append(min(span, max(span / min(100, n + 1), left, right)))
        if centers:
            centers.append(0.5 * (lo + hi))
            widths.append(span)
        cdf = NormalDist().cdf
        self.kernels = [(c, w, cdf((lo - c) / w), cdf((hi - c) / w))
                        for c, w in zip(centers, widths)]

    def pdf(self, x):
        if not self.orig_lo <= x <= self.orig_hi:
            return 0.0
        jacobian = 1.0
        if self.log_scale:
            jacobian, x = 1.0 / x, math.log(x)
        if not self.kernels:
            return jacobian / (self.hi - self.lo)
        total = 0.0
        for c, w, p_lo, p_hi in self.kernels:
            z = (x - c) / w
            total += math.exp(-0.5 * z * z) / (w * math.sqrt(2 * math.pi) * (p_hi - p_lo))
        return jacobian * total / len(self.kernels)

    def sample(self, rng):
        if not self.kernels:
            u = rng.uniform(self.lo, self.hi)
            return math.exp(u) if self.log_scale else u
        c, w, p_lo, p_hi = self.kernels[int(rng.integers(len(self.kernels)))]
        u = rng.uniform(p_lo, p_hi)
        x = c + w * NormalDist().inv_cdf(min(max(u, 1e-15), 1.0 - 1e-15))
        x = min(max(x, self.lo), self.hi)
        return math.exp(x) if self.log_scale else x


def reference_choice(l_density, g_density, candidates):
    """Index of the first candidate with the highest l/g, scored one at a time."""
    best_i, best_score = None, -math.inf
    for i, x in enumerate(candidates):
        l, g = l_density.pdf(x), g_density.pdf(x)
        score = math.inf if g == 0.0 else l / g
        if score > best_score:
            best_i, best_score = i, score
    return best_i


@st.composite
def density_problems(draw):
    """Bounds, good and bad points, and candidates, with the edge cases the ask meets.

    Points and candidates include the bounds themselves and repeats; a
    candidate may sit just outside the bounds, as ``exp(log(hi))`` can.
    """
    log_scale = draw(st.booleans())
    if log_scale:
        lo = draw(st.floats(1e-3, 1e3))
        hi = lo * draw(st.floats(1.001, 1e4))
    else:
        lo = draw(st.floats(-100.0, 100.0))
        hi = lo + draw(st.floats(1e-3, 1e3))
    point = st.one_of(st.floats(lo, hi), st.sampled_from([lo, hi]))
    good = draw(st.lists(point, max_size=12))
    bad = draw(st.lists(point, max_size=30))
    good += draw(st.lists(st.sampled_from(good), max_size=4)) if good else []
    outside = st.sampled_from([math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)])
    candidate = st.one_of(point, point, point, outside) if draw(st.booleans()) else point
    candidates = draw(st.lists(candidate, min_size=1, max_size=24))
    candidates += draw(st.lists(st.sampled_from(candidates), max_size=4))
    return log_scale, lo, hi, good, bad, candidates


class TestScreenedChoice:
    @given(density_problems())
    def test_choice_and_scores_match_per_candidate_loop(self, problem):
        log_scale, lo, hi, good, bad, candidates = problem
        model = RatioModel(ParzenDensity(good, lo, hi, log_scale),
                           ParzenDensity(bad, lo, hi, log_scale))
        l_ref = ReferenceDensity(good, lo, hi, log_scale)
        g_ref = ReferenceDensity(bad, lo, hi, log_scale)
        assert model.best(candidates) == reference_choice(l_ref, g_ref, candidates)
        for density, ref in ((model.l, l_ref), (model.g, g_ref)):
            got = density.pdf_many(candidates).tolist()
            assert [v.hex() for v in got] == [ref.pdf(x).hex() for x in candidates]

    @given(density_problems(), st.integers(0, 2**32 - 1), st.integers(1, 30))
    def test_sample_many_matches_per_draw_sampling(self, problem, seed, n):
        log_scale, lo, hi, good, _, _ = problem
        drawn = ParzenDensity(good, lo, hi, log_scale).sample_many(np.random.default_rng(seed), n)
        ref, rng = ReferenceDensity(good, lo, hi, log_scale), np.random.default_rng(seed)
        assert [x.hex() for x in drawn.tolist()] == [ref.sample(rng).hex() for _ in range(n)]

    def test_tied_candidates_first_index_wins(self):
        model = RatioModel(ParzenDensity([1.0, 1.5], 0.0, 10.0), ParzenDensity([9.0], 0.0, 10.0))
        # 1.25 scores highest; its copies tie exactly and both pass the screen.
        assert model.best([8.0, 1.25, 5.0, 1.25]) == 1
        assert model.best([0.0, 0.0, 10.0]) == 0


class TestAskTell:
    def test_ask_before_startup_samples_prior(self, rng):
        priors = PriorSet()
        design = tpe_ask([], priors, TpeConfig(), rng)
        lo, hi = priors.f_y
        assert lo <= design.f_y <= hi

    def test_ask_is_deterministic_given_seed(self):
        history = make_history(np.linspace(5, 1, 12))
        cfg = TpeConfig(n_startup=10)
        a = tpe_ask(history, PriorSet(), cfg, np.random.default_rng(33))
        b = tpe_ask(history, PriorSet(), cfg, np.random.default_rng(33))
        assert a == b

    def test_ask_concentrates_near_good_cluster(self, rng):
        # good trials cluster at f_y ~ 3000; bad ones spread over the decade edges
        priors = PriorSet()
        history = []
        star = 3000.0
        for i in range(40):
            if i % 4 == 0:
                f = star * (1.0 + 0.03 * (i % 5 - 2))
                value = 0.1 + 0.001 * i
            else:
                f = 130.0 if i % 2 else 9000.0
                value = 10.0 + i
            history.append(Trial(params={"f_y": f, "beta": 0.3, "alpha2": 0.7},
                                 value=value, state=COMPLETE, t_end=i, index=i))
        proposals = [tpe_ask(history, priors, TpeConfig(), rng).f_y for _ in range(200)]
        prior_median = math.sqrt(priors.f_y[0] * priors.f_y[1])
        dist_prop = abs(np.median(np.log(proposals)) - math.log(star))
        dist_prior = abs(math.log(prior_median) - math.log(star))
        assert dist_prop < dist_prior

    def test_gamma_near_one_uses_prior_for_bad(self, rng):
        history = make_history(np.linspace(1, 2, 12))
        cfg = TpeConfig(n_startup=2, gamma=0.999)
        design = tpe_ask(history, PriorSet(), cfg, rng)
        lo, hi = PriorSet().f_y
        assert lo <= design.f_y <= hi

    def test_tell_appends_complete(self):
        history = []
        tpe_tell(history, {"f_y": 1.0, "beta": 0.0, "alpha2": 0.5}, 0.5)
        assert len(history) == 1 and history[0].state == COMPLETE

    def test_tell_nan_marks_failed(self):
        history = []
        trial = tpe_tell(history, {"f_y": 1.0, "beta": 0.0, "alpha2": 0.5}, float("nan"))
        assert trial.state == FAILED
        assert trial not in [t for t in history if t.state == COMPLETE]

    def test_best_is_running_minimum(self):
        history = []
        for v in (3.0, 1.0, 2.0):
            tpe_tell(history, {"f_y": v, "beta": 0.0, "alpha2": 0.5}, v)
        assert best_trial(history).value == 1.0


class TestRunBo:
    def test_serial_curve_bookkeeping(self):
        with spawn_workers("lander", 1, "in-process") as pool:
            best, curve = run_bo(pool, PriorSet(), TpeConfig(), n_trials=15, batch=1, seed=3)
        assert len(curve) == 15
        values = [v for _, v in curve]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == best.value
        clocks = [t for t, _ in curve]
        assert all(a <= b for a, b in zip(clocks, clocks[1:]))

    def test_batch_must_fit_pool(self):
        with spawn_workers("lander", 2, "in-process") as pool:
            with pytest.raises(ValueError):
                run_bo(pool, PriorSet(), TpeConfig(), n_trials=4, batch=3)

    def test_replay_reproduces_trial_multiset(self):
        histories = []
        for _ in range(2):
            with spawn_workers("lander", 4, "in-process") as pool:
                history = []
                run_bo(pool, PriorSet(), TpeConfig(), n_trials=20, batch=4, seed=9,
                       history=history)
            histories.append([(t.params, t.value) for t in history])
        assert histories[0] == histories[1]

    def test_batched_run_completes_exactly_n_trials(self):
        with spawn_workers("lander", 4, "in-process") as pool:
            history = []
            _, curve = run_bo(pool, PriorSet(), TpeConfig(), n_trials=10, batch=4, seed=1,
                              history=history)
        assert len(curve) == 10
        assert sum(1 for t in history if t.state == COMPLETE) == 10


class FlakyPool:
    """Pool stub whose every third evaluation reports a worker error."""

    n_workers = 2
    obs_dim = 5
    act_dim = 3

    def __init__(self):
        self.calls = 0
        self.pending = []

    def reset_some(self, indices, seeds, options=None):
        self.pending = [o["design"] for o in options]
        return [np.zeros(5) for _ in indices]

    def step_some(self, indices, actions, raise_on_error=True):
        from rollout_grid.core import StepResult
        from rollout_grid.errors import WorkerError

        out = []
        for design in self.pending:
            self.calls += 1
            if self.calls % 3 == 0:
                out.append(WorkerError(1, "synthetic failure"))
            else:
                out.append(StepResult(np.zeros(5), -design["f_y"] / 1e4, True, False, {}))
        return out


def test_run_bo_continues_past_failed_evaluations():
    pool = FlakyPool()
    history = []
    best, curve = run_bo(pool, PriorSet(), TpeConfig(), n_trials=12, batch=2, seed=4,
                         history=history)
    assert sum(1 for t in history if t.state == COMPLETE) == 12
    assert sum(1 for t in history if t.state == FAILED) > 0
    assert len(curve) == 12
    assert best.value == min(t.value for t in history if t.state == COMPLETE)


def test_run_bo_tells_each_trial_in_history_order():
    told = []
    history = []
    _, curve = run_bo(FlakyPool(), PriorSet(), TpeConfig(), n_trials=12, batch=2, seed=4,
                      history=history, on_tell=lambda trial, point: told.append((trial, point)))
    assert [trial for trial, _ in told] == history
    assert all(a is b for (a, _), b in zip(told, history))
    assert [point for _, point in told if point is not None] == curve
    assert [point is None for _, point in told] == [t.state == FAILED for t in history]


class FailingPool(FlakyPool):
    """Pool stub whose every evaluation reports a worker error."""

    def step_some(self, indices, actions, raise_on_error=True):
        from rollout_grid.errors import WorkerError

        self.calls += 1
        assert self.calls <= 100, "run_bo kept evaluating past its failure budget"
        return [WorkerError(1, f"synthetic failure {self.calls}") for _ in self.pending]


def test_run_bo_raises_once_failures_exceed_n_trials():
    pool = FailingPool()
    history = []
    with pytest.raises(RolloutError, match=r"4 evaluations failed.*worker 1.*synthetic failure 2"):
        run_bo(pool, PriorSet(), TpeConfig(), n_trials=3, batch=2, seed=4, history=history)
    assert pool.calls == 2
    assert [t.state for t in history] == [FAILED] * 4


class TestTrialLog:
    def test_json_round_trip(self):
        trial = Trial(params={"f_y": 1.0, "beta": 0.2, "alpha2": 0.3}, value=0.25,
                      state=COMPLETE, t_start=0.5, t_end=0.75, index=4)
        assert trial_from_json(trial_to_json(trial)) == trial

    def test_log_file_replay(self, tmp_path):
        history = make_history([2.0, 0.5, 1.5])
        path = tmp_path / "trials.jsonl"
        path.write_text("".join(trial_to_json(t) + "\n" for t in history))
        replayed = read_trial_log(path)
        assert [t.value for t in replayed] == [2.0, 0.5, 1.5]
        assert best_trial(replayed).value == 0.5


def study_digest(priors, cfg, seed, batch, n_trials=60):
    """SHA-256 over the trial log of an ``n_trials`` ``run_bo`` study, and its best value.

    Evaluations run on in-process lander workers, and the clock is a counter,
    so ``t_start``/``t_end`` (which break value ties in the split) are
    reproducible too. Every float is hashed by its ``hex()``.
    """
    history = []
    with spawn_workers("lander", batch, "in-process") as pool:
        best, _ = run_bo(pool, priors, cfg, n_trials=n_trials, batch=batch, seed=seed,
                         clock=itertools.count().__next__, history=history)
    digest = hashlib.sha256()
    for t in history:
        fields = [t.index, t.state, t.t_start, t.t_end, t.value.hex()]
        fields += [t.params[k].hex() for k in ("f_y", "beta", "alpha2")]
        digest.update(repr(fields).encode())
    return digest.hexdigest(), best.value


class TestGoldenProposals:
    # Digests recorded with the TPE as it stood before its ask was batched
    # (per-candidate pdf loops, NormalDist().cdf, rng.uniform). Every
    # proposal, and so every trial value, must come out bit for bit the same.
    @pytest.mark.parametrize(
        "priors, cfg, seed, batch, expected",
        [
            # log-scale f_y, default config: n_startup 10 < n_candidates 24
            (PriorSet(), TpeConfig(), 2024, 1,
             "a25c24344e2a9f9f51c75a43bbca981f6e22a26077581bb39198b4cac0f0d1ae"),
            # degenerate f_y interval, a small wide split, batched asks
            (PriorSet(f_y=(2500.0, 2500.0), beta=(0.05, 0.5)),
             TpeConfig(n_startup=3, gamma=0.4, n_candidates=7), 77, 2,
             "3cdf7834a5e2b60726df675119d2783ece1247414af91e526fad3125c354b1af"),
            # degenerate angle interval, log-scale f_y, many candidates
            (PriorSet(f_y=(3e2, 8e3), beta=(0.3, 0.3)),
             TpeConfig(n_startup=5, gamma=0.15, n_candidates=40), 5, 1,
             "e8139cb11bebffea52817e6878dbc9b5a20f4b3c05ebb9719f2df9cd94cfd4b9"),
        ],
    )
    def test_study_matches_golden_digest(self, priors, cfg, seed, batch, expected):
        digest, best = study_digest(priors, cfg, seed, batch)
        assert math.isfinite(best)
        assert digest == expected

    # Recorded with every ask building its own densities and scoring each
    # candidate exactly, before the asks of a batch shared one build and
    # candidates were screened.
    @pytest.mark.parametrize(
        "seed, batch, n_trials, expected",
        [
            # the benchmark's own study: default priors and config, batch 2
            (301, 2, 60, "3b0b057e9885426e125e366c8c79280b3cbbcfd72b08d2e60aa046caa45f334d"),
            # past 99 completed trials the bandwidth floor is span/100
            (11, 2, 400, "5d55c2eac3784944f26974ce2cfd3d38fee7b5ff091d7079e423f47bfa8ce527"),
            # three asks per batch see the same completed trials
            (42, 3, 60, "9d3d369bd6fbe6f4a99110ef7149db4e5042ee0afc5891e42ef14ef17fea9f90"),
        ],
    )
    def test_default_study_matches_golden_digest(self, seed, batch, n_trials, expected):
        digest, best = study_digest(PriorSet(), TpeConfig(), seed, batch, n_trials)
        assert math.isfinite(best)
        assert digest == expected
