import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rollout_grid.core import Episode, make_rng
from rollout_grid.errors import DivergentDesignError, InvalidParamsError
from rollout_grid.lander import (
    LanderDesign,
    LanderEnvConfig,
    LanderParams,
    LanderScenario,
    PriorSet,
    TouchdownIntegrator,
    geometry_factor,
    integrate_touchdown,
    objective,
    sample_design,
    simulate_touchdown_closed_form,
    touchdown_speed,
)
from rollout_grid.wire import dumps_canonical

# Independent constant-deceleration kinematics oracle for the reference
# design: m=1000 kg, g=1.62, h=1 m, 6 legs, vertical struts, f_y=1000 N.
M, G, H, N_LEGS, F_Y = 1000.0, 1.62, 1.0, 6, 1000.0
V0 = math.sqrt(2 * G * H)  # 1.8 m/s
A_NET = N_LEGS * F_Y / M - G  # 4.38 m/s^2
STROKE = V0**2 / (2 * A_NET)  # 0.36986... m
E_ABS = 0.5 * M * V0**2 + M * G * STROKE  # absorber work = KE + pot. drop during crush
E_INIT = M * G * H

REF_DESIGN = LanderDesign(f_y=F_Y, beta=0.0, alpha2=0.0)
REF_PARAMS = LanderParams()


def designs(draw_f=st.floats(120.0, 9000.0), draw_a=st.floats(0.2, 1.2),
            draw_b=st.floats(0.0, 0.6)):
    return st.builds(LanderDesign, f_y=draw_f, beta=draw_b, alpha2=draw_a)


class TestGeometryFactor:
    def test_vertical_struts(self):
        assert geometry_factor(0.0, 0.0) == 1.0

    def test_sixty_degree_strut(self):
        assert math.isclose(geometry_factor(math.pi / 3, 0.0), 0.5)

    def test_generic_angles(self):
        assert math.isclose(geometry_factor(0.4, 0.3), math.cos(0.4) * math.cos(0.3))


class TestClosedForm:
    def test_reference_design_against_kinematics_oracle(self):
        res = simulate_touchdown_closed_form(REF_DESIGN, REF_PARAMS)
        assert not res.bottomed_out
        assert math.isclose(res.a_max, 4.38)
        assert math.isclose(res.stroke_used, STROKE)
        assert math.isclose(res.e_abs, E_ABS)
        assert math.isclose(res.e_abs, 2219.1780821917806)
        assert res.e_init == E_INIT == 1620.0

    def test_energy_audit_is_exact(self):
        res = simulate_touchdown_closed_form(REF_DESIGN, REF_PARAMS)
        assert math.isclose(res.e_abs, 0.5 * M * V0**2 + M * G * res.stroke_used, rel_tol=1e-12)

    def test_zero_net_force_bottoms_out_at_touchdown_speed(self):
        # plateau exactly cancels weight: a = 0, residual speed stays v0
        design = LanderDesign(f_y=M * G / N_LEGS, beta=0.0, alpha2=0.0)
        res = simulate_touchdown_closed_form(design, REF_PARAMS)
        assert res.bottomed_out
        assert res.stroke_used == REF_PARAMS.stroke_limit
        v_r = math.sqrt(2 * REF_PARAMS.stop_length * res.a_max)
        assert math.isclose(v_r, V0)

    def test_stiff_limit_shrinks_stroke(self):
        stiff = simulate_touchdown_closed_form(
            LanderDesign(f_y=1e7, beta=0.0, alpha2=0.0), REF_PARAMS
        )
        assert stiff.stroke_used < 1e-3
        assert math.isclose(stiff.e_abs, 0.5 * M * V0**2, rel_tol=1e-3)
        assert math.isclose(stiff.a_max, N_LEGS * 1e7 / M - G)

    def test_weak_design_with_unlimited_stroke_diverges(self):
        params = LanderParams(stroke_limit=math.inf)
        with pytest.raises(DivergentDesignError):
            simulate_touchdown_closed_form(LanderDesign(f_y=10.0, beta=0.0, alpha2=0.0), params)

    def test_zero_drop_height_is_impact_free(self):
        params = LanderParams(drop_height=0.0)
        res = simulate_touchdown_closed_form(REF_DESIGN, params)
        assert res.a_max == res.stroke_used == res.e_abs == 0.0
        assert not res.bottomed_out

    @given(designs())
    @settings(max_examples=60, deadline=None)
    def test_monotonicity_in_yield_force(self, design):
        res = simulate_touchdown_closed_form(design, REF_PARAMS)
        stiffer = LanderDesign(f_y=design.f_y * 1.1, beta=design.beta, alpha2=design.alpha2)
        res2 = simulate_touchdown_closed_form(stiffer, REF_PARAMS)
        if not res.bottomed_out and not res2.bottomed_out:
            assert res2.a_max > res.a_max
            assert res2.stroke_used < res.stroke_used

    @given(designs())
    @settings(max_examples=60, deadline=None)
    def test_energy_audit_property(self, design):
        res = simulate_touchdown_closed_form(design, REF_PARAMS)
        if not res.bottomed_out:
            expected = 0.5 * M * V0**2 + M * G * res.stroke_used
            assert math.isclose(res.e_abs, expected, rel_tol=1e-9)


class TestIntegrator:
    def test_matches_closed_form_on_reference_design(self):
        res = integrate_touchdown(REF_DESIGN, REF_PARAMS, dt=1e-4)
        assert abs(res.a_max - 4.38) / 4.38 < 0.01
        assert abs(res.stroke_used - STROKE) / STROKE < 0.01
        assert abs(res.e_abs - E_ABS) / E_ABS < 0.01

    def test_halving_dt_reduces_stroke_error(self):
        exact = simulate_touchdown_closed_form(REF_DESIGN, REF_PARAMS).stroke_used
        err = [abs(integrate_touchdown(REF_DESIGN, REF_PARAMS, dt).stroke_used - exact)
               for dt in (4e-4, 2e-4, 1e-4)]
        assert err[1] < err[0] and err[2] < err[1]

    def test_zero_drop_height(self):
        res = integrate_touchdown(REF_DESIGN, LanderParams(drop_height=0.0), dt=1e-4)
        assert res.stroke_used == 0.0 and res.e_abs == 0.0

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(InvalidParamsError):
            integrate_touchdown(REF_DESIGN, REF_PARAMS, dt=0.0)

    @given(designs())
    @settings(max_examples=40, deadline=None)
    def test_oracle_equivalence_sampled(self, design):
        closed = simulate_touchdown_closed_form(design, REF_PARAMS)
        stepped = integrate_touchdown(design, REF_PARAMS, dt=1e-4)
        assert stepped.bottomed_out == closed.bottomed_out
        rel = lambda a, b: abs(a - b) / max(abs(b), 1e-12)
        assert rel(stepped.stroke_used, closed.stroke_used) < 0.01
        if not closed.bottomed_out:
            assert rel(stepped.a_max, closed.a_max) < 0.01
            assert rel(stepped.e_abs, closed.e_abs) < 0.01


class TestObjective:
    def test_unit_fixed_point(self):
        from rollout_grid.lander import TouchdownResult

        res = TouchdownResult(a_max=50.0, stroke_used=0.1, e_abs=1620.0, e_init=1620.0,
                              bottomed_out=False)
        assert objective(res, REF_PARAMS) == 1.0

    def test_zero_fixed_point(self):
        from rollout_grid.lander import TouchdownResult

        res = TouchdownResult(a_max=0.0, stroke_used=0.0, e_abs=1620.0, e_init=1620.0,
                              bottomed_out=False)
        assert objective(res, REF_PARAMS) == 0.0

    def test_reference_design_objective(self):
        res = simulate_touchdown_closed_form(REF_DESIGN, REF_PARAMS)
        expected = A_NET / 50.0 + (E_ABS / E_INIT - 1.0) ** 2
        assert math.isclose(objective(res, REF_PARAMS), expected)
        assert abs(expected - 0.2244) < 5e-4

    def test_zero_initial_energy_rejected(self):
        from rollout_grid.lander import TouchdownResult

        res = TouchdownResult(a_max=1.0, stroke_used=0.0, e_abs=0.0, e_init=0.0,
                              bottomed_out=False)
        with pytest.raises(InvalidParamsError):
            objective(res, REF_PARAMS)

    def test_increasing_in_peak_deceleration(self):
        from rollout_grid.lander import TouchdownResult

        lo = TouchdownResult(10.0, 0.1, 1620.0, 1620.0, False)
        hi = TouchdownResult(20.0, 0.1, 1620.0, 1620.0, False)
        assert objective(hi, REF_PARAMS) > objective(lo, REF_PARAMS)

    def test_increasing_in_energy_ratio_deviation(self):
        from rollout_grid.lander import TouchdownResult

        near = TouchdownResult(10.0, 0.1, 1620.0 * 1.1, 1620.0, False)
        far = TouchdownResult(10.0, 0.1, 1620.0 * 1.4, 1620.0, False)
        assert objective(far, REF_PARAMS) > objective(near, REF_PARAMS)


class TestPriors:
    def test_degenerate_interval_is_constant(self, rng):
        priors = PriorSet(f_y=(500.0, 500.0))
        draws = {sample_design(priors, rng).f_y for _ in range(32)}
        assert draws == {500.0}

    def test_log_uniform_mass_per_decade(self, rng):
        priors = PriorSet(f_y=(1e2, 1e4))
        n = 100_000
        draws = np.array([sample_design(priors, rng).f_y for _ in range(n)])
        frac_low = np.mean(draws < 1e3)
        assert abs(frac_low - 0.5) < 0.01

    def test_uniform_angle_mean_is_midpoint(self, rng):
        priors = PriorSet(alpha2=(0.2, 1.2))
        n = 100_000
        draws = np.array([sample_design(priors, rng).alpha2 for _ in range(n)])
        assert abs(draws.mean() - 0.7) < 0.01

    def test_invalid_bounds_rejected(self):
        with pytest.raises(InvalidParamsError):
            PriorSet(f_y=(0.0, 10.0))
        with pytest.raises(InvalidParamsError):
            PriorSet(alpha2=(1.0, 2.0))


class TestLanderScenario:
    def test_initial_observation_encodes_touchdown_speed(self):
        ep = Episode(LanderScenario().spec())
        obs = ep.reset(3, {"drop_height": 1.0})
        np.testing.assert_allclose(obs[0], V0)
        assert obs[1] == 0.0

    def test_single_step_returns_negated_objective(self):
        cfg = LanderEnvConfig()
        ep = Episode(LanderScenario(cfg).spec())
        ep.reset(0, {"design": REF_DESIGN.as_dict()})
        res = ep.step(np.zeros(3))
        assert res.terminated
        stepped = integrate_touchdown(REF_DESIGN, cfg.params, cfg.sim_dt)
        assert math.isclose(res.reward, -objective(stepped, cfg.params))
        assert res.info["landed"] is True
        assert math.isclose(res.info["e_init"], E_INIT)

    def test_same_design_same_result(self):
        ep = Episode(LanderScenario().spec())
        values = []
        for _ in range(2):
            ep.reset(5, {"design": {"f_y": 2000.0, "beta": 0.1, "alpha2": 0.5}})
            values.append(ep.step(np.zeros(3)).reward)
        assert values[0] == values[1]

    def test_invalid_design_fails_reset(self):
        from rollout_grid.errors import ResetError

        ep = Episode(LanderScenario().spec())
        with pytest.raises(ResetError):
            ep.reset(0, {"design": {"f_y": -5.0, "beta": 0.0, "alpha2": 0.0}})

    def test_touchdown_speed_helper(self):
        assert math.isclose(touchdown_speed(REF_PARAMS), 1.8)

    def test_integrator_is_advanceable(self):
        from rollout_grid.lander import TouchdownIntegrator

        integ = TouchdownIntegrator(REF_DESIGN, REF_PARAMS)
        for _ in range(1000):
            integ.advance(1e-3)
        assert integ.done


def evaluation_digest(config, design_seed, n_designs, drop_heights):
    """SHA-256 over reset and step of lander episodes on designs drawn from the prior box.

    Hashes each reset observation, the step's observation bytes,
    ``reward.hex()``, both flags and the canonical info JSON; a zero drop
    height hashes the step's error message instead. Designs cycle through
    ``drop_heights``. Returns the digest and how many designs bottomed out,
    did not settle in the window, and dropped from zero height.
    """
    digest = hashlib.sha256()
    draws = make_rng(design_seed)
    episode = Episode(LanderScenario(config).spec())
    bottomed = unsettled = zero_drop = 0
    for k in range(n_designs):
        design = sample_design(config.priors, draws)
        h = drop_heights[k % len(drop_heights)]
        digest.update(episode.reset(k, {"design": design.as_dict(), "drop_height": h}).tobytes())
        if h == 0.0:
            # No impact energy: the objective is undefined and the step says so.
            with pytest.raises(InvalidParamsError) as excinfo:
                episode.step(np.zeros(3))
            digest.update(str(excinfo.value).encode())
            zero_drop += 1
            continue
        res = episode.step(np.zeros(3))
        digest.update(res.observation.tobytes())
        digest.update(res.reward.hex().encode())
        digest.update(bytes([res.terminated, res.truncated]))
        digest.update(dumps_canonical(res.info))
        bottomed += res.info["bottomed_out"]
        unsettled += res.truncated
    return digest.hexdigest(), bottomed, unsettled, zero_drop


class TestGoldenEvaluations:
    # Digests recorded with the lander as it stood before settled ticks
    # stopped being dispatched (every tick went through advance_all, also
    # after touchdown). Observation, reward and info must not move a bit.
    @pytest.mark.parametrize(
        "config, design_seed, n_designs, drop_heights, counts, expected",
        [
            # default prior box and window; every seventh drop from zero height
            (LanderEnvConfig(), 11, 140, (1.0, 1.0, 0.4, 1.0, 2.5, 1.0, 0.0), (64, 0, 20),
             "795f14449e887b00efd1b80a780a1995ad670b89c8595e6ee0a279f9554fb843"),
            # coarse tick, short window, short stroke: some designs bottom out, slow ones
            # are cut off unsettled
            (LanderEnvConfig(sim_dt=2e-3, window_s=0.15,
                             params=LanderParams(stroke_limit=0.3, n_legs=4)),
             12, 60, (1.0, 0.0, 1.5), (13, 22, 20),
             "675a8dd893899c87b3624398ae0b958872a5367313f6c4ee8f16e8dba4d86990"),
        ],
    )
    def test_evaluations_match_golden_digest(self, config, design_seed, n_designs, drop_heights,
                                             counts, expected):
        digest, *seen = evaluation_digest(config, design_seed, n_designs, drop_heights)
        assert tuple(seen) == counts
        assert digest == expected


def test_settled_lander_dispatches_no_ticks(monkeypatch):
    # Once touchdown has settled, the step dispatches no further integrator
    # ticks; the count per step equals the ticks a bare integrator needs to
    # settle, which is far below the 2000-tick window. The second design
    # bottoms out; the last drops from zero height and is settled at reset.
    cases = [(REF_DESIGN, 1.0), (LanderDesign(f_y=150.0, beta=0.3, alpha2=1.0), 1.0),
             (LanderDesign(f_y=8000.0, beta=0.1, alpha2=0.2), 2.0), (REF_DESIGN, 0.0)]
    config = LanderEnvConfig()
    expected = []
    for design, h in cases:
        integ = TouchdownIntegrator(design, config.params, h)
        ticks = 0
        while not integ.done:
            integ.advance(config.sim_dt)
            ticks += 1
        expected.append(ticks)
    assert max(expected) < 2000 and expected[-1] == 0

    calls = []
    advance = TouchdownIntegrator.advance

    def counting_advance(integ, dt):
        calls.append(dt)
        advance(integ, dt)

    monkeypatch.setattr(TouchdownIntegrator, "advance", counting_advance)
    episode = Episode(LanderScenario(config).spec())
    seen = []
    for design, h in cases:
        episode.reset(0, {"design": design.as_dict(), "drop_height": h})
        before = len(calls)
        if h == 0.0:
            with pytest.raises(InvalidParamsError):  # no impact energy, no objective
                episode.step(np.zeros(3))
        else:
            assert episode.step(np.zeros(3)).terminated
        seen.append(len(calls) - before)
    assert seen == expected
    assert set(calls) == {config.sim_dt}
