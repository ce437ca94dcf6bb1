"""Lumped vertical-drop lander touchdown with ideal-plateau crush absorbers.

The vehicle free-drops from height h, touching down at v0 = sqrt(2 g h).
Each of the n legs carries a rigid-perfectly-plastic absorber: zero force
below yield, a constant axial plateau force f_y while crushing, no rebound.
Geometry enters through a single projection factor c = cos(alpha2)*cos(beta)
used for both the vertical force component and the axial-per-vertical stroke
ratio, which keeps the energy bookkeeping self-consistent.

Reported peak deceleration is the net value (gravity excluded); the chosen
convention is echoed in the scenario's per-step diagnostics. If the crush
stroke runs out, the remaining kinetic energy is dumped into a rigid stop of
length ``stop_length`` and is *not* counted as absorbed energy, so the
energy-ratio penalty of the design objective punishes bottoming out. Note
one consequence of the stop convention: a design that bottoms out with
near-zero residual speed reports a near-zero peak deceleration even though
the crush phase decelerated harder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ScenarioSpec
from .errors import DivergentDesignError, InvalidParamsError


@dataclass(frozen=True)
class LanderDesign:
    """Design vector: plateau yield force and the two leg angles (radians)."""

    f_y: float
    beta: float
    alpha2: float

    def __post_init__(self):
        if not (self.f_y > 0 and math.isfinite(self.f_y)):
            raise InvalidParamsError(f"f_y must be positive and finite, got {self.f_y}")
        if not 0 <= self.alpha2 < math.pi / 2:
            raise InvalidParamsError(f"alpha2 must lie in [0, pi/2), got {self.alpha2}")
        if not 0 <= self.beta < math.pi / 2:
            raise InvalidParamsError(f"beta must lie in [0, pi/2), got {self.beta}")

    def as_dict(self) -> dict[str, float]:
        return {"f_y": self.f_y, "beta": self.beta, "alpha2": self.alpha2}

    @classmethod
    def from_dict(cls, d: dict) -> "LanderDesign":
        return cls(f_y=float(d["f_y"]), beta=float(d["beta"]), alpha2=float(d["alpha2"]))


@dataclass(frozen=True)
class LanderParams:
    mass: float = 1000.0  # kg
    gravity: float = 1.62  # m/s^2, magnitude (lunar)
    drop_height: float = 1.0  # m
    n_legs: int = 6
    stroke_limit: float = 0.5  # m of usable vertical crush stroke
    stop_length: float = 1e-3  # m over which the rigid stop kills residual speed
    a_ref: float = 50.0  # m/s^2 reference deceleration in the objective
    alpha_w: float = 1.0  # energy-penalty weight

    def __post_init__(self):
        for name in ("mass", "gravity", "stop_length", "a_ref"):
            if getattr(self, name) <= 0:
                raise InvalidParamsError(f"{name} must be positive")
        if self.drop_height < 0 or self.stroke_limit <= 0 or self.n_legs < 1:
            raise InvalidParamsError("drop_height >= 0, stroke_limit > 0, n_legs >= 1 required")


@dataclass(frozen=True)
class TouchdownResult:
    a_max: float  # peak net deceleration, m/s^2
    stroke_used: float  # vertical crush stroke, m
    e_abs: float  # energy dissipated by the absorbers, J
    e_init: float  # initial gravitational potential energy, J
    bottomed_out: bool


@dataclass(frozen=True)
class PriorSet:
    """Search-space priors: log-uniform yield force, uniform angles."""

    f_y: tuple[float, float] = (1e2, 1e4)
    alpha2: tuple[float, float] = (0.2, 1.2)
    beta: tuple[float, float] = (0.0, 0.6)

    def __post_init__(self):
        if not (0 < self.f_y[0] <= self.f_y[1]):
            raise InvalidParamsError(f"need 0 < f_min <= f_max, got {self.f_y}")
        if not (0 < self.alpha2[0] <= self.alpha2[1] < math.pi / 2):
            raise InvalidParamsError(f"need 0 < a_min <= a_max < pi/2, got {self.alpha2}")
        if not (0 <= self.beta[0] <= self.beta[1] < math.pi / 2):
            raise InvalidParamsError(f"need 0 <= b_min <= b_max < pi/2, got {self.beta}")

    def center_design(self) -> LanderDesign:
        """Geometric center for f_y (log scale), midpoints for the angles."""
        return LanderDesign(
            f_y=math.sqrt(self.f_y[0] * self.f_y[1]),
            beta=0.5 * (self.beta[0] + self.beta[1]),
            alpha2=0.5 * (self.alpha2[0] + self.alpha2[1]),
        )


def geometry_factor(alpha2: float, beta: float) -> float:
    """Projection factor c = cos(alpha2) * cos(beta), in (0, 1].

    Used both to project the axial plateau force onto the vertical axis and
    as the axial-stroke-per-vertical-stroke ratio.
    """
    return math.cos(alpha2) * math.cos(beta)


def touchdown_speed(params: LanderParams) -> float:
    return math.sqrt(2.0 * params.gravity * params.drop_height)


def simulate_touchdown_closed_form(design: LanderDesign, params: LanderParams) -> TouchdownResult:
    """Constant-deceleration touchdown solution.

    With v0 = sqrt(2gh) and net crush deceleration a = n*f_y*c/m - g:
    if the required stroke v0^2/(2a) fits, the vehicle stops in the crush;
    otherwise it bottoms out at the stroke limit and the residual speed is
    absorbed by the rigid stop. Zero drop height short-circuits to an
    impact-free result.
    """
    c = geometry_factor(design.alpha2, design.beta)
    v0 = touchdown_speed(params)
    e_init = params.mass * params.gravity * params.drop_height
    plateau = params.n_legs * design.f_y * c  # vertical plateau force, N
    a = plateau / params.mass - params.gravity  # net deceleration while crushing

    if v0 == 0.0:
        return TouchdownResult(0.0, 0.0, 0.0, e_init, False)

    if a > 0:
        stroke_needed = v0 * v0 / (2.0 * a)
        if stroke_needed <= params.stroke_limit:
            return TouchdownResult(
                a_max=a,
                stroke_used=stroke_needed,
                e_abs=plateau * stroke_needed,
                e_init=e_init,
                bottomed_out=False,
            )
    elif math.isinf(params.stroke_limit):
        raise DivergentDesignError(
            f"net deceleration {a:.3g} <= 0 with unlimited stroke: the lander never stops"
        )

    # Bottom-out: the crush phase ends at the stroke limit, the stop takes the rest.
    v_r_sq = max(0.0, v0 * v0 - 2.0 * max(a, -params.gravity) * params.stroke_limit)
    return TouchdownResult(
        a_max=v_r_sq / (2.0 * params.stop_length),
        stroke_used=params.stroke_limit,
        e_abs=plateau * params.stroke_limit,
        e_init=e_init,
        bottomed_out=True,
    )


class TouchdownIntegrator:
    """Semi-implicit Euler twin of the closed form; advanceable by dt.

    State is (stroke, downward speed). The plateau force acts while the
    vehicle moves downward with stroke to spare. Sub-tick boundary events
    (coming to rest, hitting the stroke limit) are resolved with constant-
    acceleration kinematics so the reported stroke is not quantized to a
    whole tick.
    """

    def __init__(self, design: LanderDesign, params: LanderParams, drop_height: float | None = None):
        self.design = design
        self.params = params
        h = params.drop_height if drop_height is None else float(drop_height)
        if h < 0:
            raise InvalidParamsError(f"drop_height must be >= 0, got {h}")
        self.c = geometry_factor(design.alpha2, design.beta)
        self.plateau = params.n_legs * design.f_y * self.c
        self.v0 = math.sqrt(2.0 * params.gravity * h)
        self.e_init = params.mass * params.gravity * h

        self.v = self.v0  # downward positive
        self.stroke = 0.0
        self.a_max = 0.0
        self.bottomed_out = False
        self.done = self.v0 == 0.0
        self.decel = self.plateau / params.mass - params.gravity  # net, while crushing
        if self.decel <= 0 and math.isinf(params.stroke_limit) and not self.done:
            raise DivergentDesignError("net deceleration <= 0 with unlimited stroke")

    def advance(self, dt: float) -> None:
        if self.done:
            return
        if not math.isfinite(self.v) or not math.isfinite(self.stroke):
            raise ArithmeticError("touchdown state became non-finite")
        p = self.params
        decel = self.decel
        v_new = self.v - decel * dt
        if v_new <= 0.0:
            # Comes to rest inside this tick: finish the remaining arc exactly.
            # decel > 0 is implied by v dropping through zero.
            rest_distance = self.v * self.v / (2.0 * decel)
            if self.stroke + rest_distance >= p.stroke_limit:
                remaining = p.stroke_limit - self.stroke
                self._bottom_out(max(0.0, self.v * self.v - 2.0 * decel * remaining))
                return
            self.stroke += rest_distance
            self.v = 0.0
            self.a_max = max(self.a_max, decel)
            self.done = True
            return
        stroke_new = self.stroke + v_new * dt
        if stroke_new >= p.stroke_limit:
            remaining = p.stroke_limit - self.stroke
            self._bottom_out(max(0.0, self.v * self.v - 2.0 * decel * remaining))
            return
        if decel > 0:
            self.a_max = max(self.a_max, decel)
        self.v = v_new
        self.stroke = stroke_new

    def _bottom_out(self, v_at_limit_sq: float) -> None:
        # Residual kinetic energy goes into the rigid stop, not the absorbers.
        self.stroke = self.params.stroke_limit
        self.bottomed_out = True
        self.a_max = v_at_limit_sq / (2.0 * self.params.stop_length)
        self.v = 0.0
        self.done = True

    def result(self) -> TouchdownResult:
        return TouchdownResult(
            a_max=self.a_max,
            stroke_used=self.stroke,
            e_abs=self.plateau * self.stroke,
            e_init=self.e_init,
            bottomed_out=self.bottomed_out,
        )


def integrate_touchdown(
    design: LanderDesign, params: LanderParams, dt: float, drop_height: float | None = None
) -> TouchdownResult:
    """Run the time-stepped touchdown to rest and return its result."""
    if dt <= 0:
        raise InvalidParamsError(f"dt must be positive, got {dt}")
    integ = TouchdownIntegrator(design, params, drop_height)
    max_ticks = int(60.0 / dt) + 1  # generous: crush lasts at most ~2*s_max/v0 seconds
    for _ in range(max_ticks):
        if integ.done:
            break
        integ.advance(dt)
    if not integ.done:
        raise ArithmeticError("touchdown did not settle within the integration window")
    return integ.result()


def objective(result: TouchdownResult, params: LanderParams) -> float:
    """Design cost: normalized peak deceleration plus squared energy-ratio penalty."""
    if result.e_init == 0:
        raise InvalidParamsError("e_init is zero; objective undefined")
    ratio = result.e_abs / result.e_init - 1.0
    return result.a_max / params.a_ref + (params.alpha_w * ratio) ** 2


def sample_design(priors: PriorSet, rng: np.random.Generator) -> LanderDesign:
    """Draw one design; fixed draw order f_y, beta, alpha2."""
    lo, hi = priors.f_y
    f_y = lo if lo == hi else math.exp(rng.uniform(math.log(lo), math.log(hi)))
    beta = rng.uniform(*priors.beta)
    alpha2 = rng.uniform(*priors.alpha2)
    return LanderDesign(f_y=f_y, beta=beta, alpha2=alpha2)


@dataclass(frozen=True)
class LanderEnvConfig:
    params: LanderParams = field(default_factory=LanderParams)
    priors: PriorSet = field(default_factory=PriorSet)
    sim_dt: float = 1e-3  # integrator tick inside the scenario
    window_s: float = 2.0  # simulated time covered by the single decision step

    def __post_init__(self):
        if self.sim_dt <= 0 or self.window_s <= 0:
            raise InvalidParamsError("sim_dt and window_s must be positive")


class LanderScenario:
    """Touchdown wrapped as a one-decision-step scenario.

    Reset options may carry ``design`` (a mapping with f_y/beta/alpha2;
    defaults to the prior center) and ``drop_height``. The single step
    ignores its action vector, integrates the touchdown until it settles or
    the window ends, and returns the negated objective as reward with the full
    touchdown record in the diagnostics. Observation layout, in order:
    [downward speed, stroke used, f_y, alpha2, beta]; right after reset the
    first two entries are (sqrt(2*g*h), 0).
    """

    OBS_DIM = 5
    ACT_DIM = 3

    def __init__(self, config: LanderEnvConfig | None = None):
        self.config = config or LanderEnvConfig()
        self._integ: TouchdownIntegrator | None = None
        self._design = self.config.priors.center_design()

    def spec(self) -> ScenarioSpec:
        cfg = self.config
        return ScenarioSpec(
            sim_step_size=cfg.sim_dt,
            steps_per_action=max(1, round(cfg.window_s / cfg.sim_dt)),
            horizon=1,
            obs_dim=self.OBS_DIM,
            act_dim=self.ACT_DIM,
            reset=self._reset,
            apply_action=self._apply_action,
            advance_one=self._advance_one,
            observe=self._observe,
            reward=self._reward,
            status=self._status,
            diagnostics=self._diagnostics,
        )

    # Touchdown is deterministic given the design; the rng is accepted for
    # contract uniformity but never drawn from.
    def _reset(self, rng: np.random.Generator, options: dict) -> None:
        if "design" in options:
            self._design = LanderDesign.from_dict(options["design"])
        else:
            self._design = self.config.priors.center_design()
        drop_height = options.get("drop_height")
        self._integ = TouchdownIntegrator(self._design, self.config.params, drop_height)

    def _apply_action(self, action: np.ndarray) -> None:
        pass  # the design is fixed at reset; there is nothing to actuate

    # Once touchdown has settled, a tick changes nothing that is observed, so
    # the decision step stops ticking.
    # advance goes through the instance, so a patch on the class sees each tick.
    def _advance_one(self, dt: float) -> bool:
        integ = self._integ
        if not integ.done:
            integ.advance(dt)
        return integ.done

    def _observe(self) -> np.ndarray:
        d = self._design
        return np.array([self._integ.v, self._integ.stroke, d.f_y, d.alpha2, d.beta])

    def _reward(self, action: np.ndarray, obs: np.ndarray) -> float:
        return -objective(self._integ.result(), self.config.params)

    def _status(self, decision_step: int) -> tuple[bool, bool]:
        return self._integ.done, False

    def _diagnostics(self) -> dict:
        res = self._integ.result()
        return {
            "a_max": res.a_max,
            "stroke_used": res.stroke_used,
            "e_abs": res.e_abs,
            "e_init": res.e_init,
            "bottomed_out": res.bottomed_out,
            "objective": objective(res, self.config.params),
            "landed": self._integ.done,
            **self._design.as_dict(),
        }
