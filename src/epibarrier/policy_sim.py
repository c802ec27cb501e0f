"""Forward policy simulation, the set-based switching law, and oracles.

The membership oracle cross-checks computed set boundaries the hard way: it
forward-simulates candidate intervention policies (or disturbance signals)
and watches for cap breaches.  A point claimed inside the admissible set must
have *some* cap-preserving input; a point claimed inside the robust invariant
set must survive *every* tested disturbance/input signal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barrier import ComputedSet, Verdict, membership
from .core import Scenario, SetKind, Tolerances, Variant
from .integrate import EventKind, EventSpec, _refine_fraction, _triggered, rk4_step
from .models import Channel, InputVec, active_channels, input_box, rates, state_field

__all__ = [
    "ConstantPolicy",
    "AffineFeedbackPolicy",
    "SwitchingLawPolicy",
    "ExtremalBangPolicy",
    "Trajectory",
    "OracleReport",
    "simulate",
    "switching_law",
    "monte_carlo",
    "membership_oracle",
    "grid_membership_oracle",
]

DIVIDE_GUARD_S = 1e-9
ORACLE_T_END = 500.0
ORACLE_STEP_H = 1e-2


# ---------------------------------------------------------------------------
# policies: callables (t, state) -> InputVec over the variant's free channels
# ---------------------------------------------------------------------------


class ConstantPolicy:
    """Fixed input values on every free channel."""

    def __init__(self, scenario: Scenario, values: InputVec):
        box = input_box(scenario)
        for ch, (lo, hi) in box.items():
            v = values.get(ch)
            if not lo <= v <= hi:
                raise ValueError(f"{ch.value}={v} outside [{lo}, {hi}]")
        self.values = values

    def u(self, t: float, state) -> InputVec:
        return self.values


class AffineFeedbackPolicy:
    """Interpolated-rate feedback on I, with fixed disturbance values.

    For imperfect variants the model dynamics already apply the feedback, so
    only the disturbance channels are emitted.  For perfect variants the
    controls are set to the same affine laws: the contact rate interpolates
    from beta_max at I=0 down to beta_min at I=I_max, the removal rate from
    gamma_min up to gamma_max.
    """

    def __init__(self, scenario: Scenario, disturbance: InputVec | None = None):
        self.scenario = scenario
        self.disturbance = disturbance or InputVec()

    def u(self, t: float, state) -> InputVec:
        sc = self.scenario
        if not sc.variant.is_perfect:
            return self.disturbance
        beta, _, gamma, _, _ = rates(sc, float(state[-1]), None)
        if sc.variant is Variant.SIR_PERFECT:
            return InputVec(beta=beta)
        return InputVec(beta=beta, gamma=gamma)


class SwitchingLawPolicy:
    """Set-membership-driven contact-rate law for the perfect SIR model."""

    def __init__(
        self,
        scenario: Scenario,
        admissible_set: ComputedSet,
        mrpi_set: ComputedSet,
    ):
        if scenario.variant is not Variant.SIR_PERFECT:
            raise ValueError("switching law requires the perfect SIR variant")
        self.scenario = scenario
        self.admissible_set = admissible_set
        self.mrpi_set = mrpi_set
        self._cache_state: tuple | None = None
        self._cache_radius = 0.0
        self._cache_u: InputVec | None = None
        self._diff = np.empty(2)

    def u(self, t: float, state) -> InputVec:
        # verdicts cannot change while the state stays within the previously
        # measured clearance from the boundary, so reuse the last decision;
        # the distance is the BLAS dot of np.linalg.norm on a reused buffer
        if self._cache_state is not None:
            (s, i), (s_c, i_c), diff = state, self._cache_state, self._diff
            diff[0], diff[1] = s - s_c, i - i_c
            if math.sqrt(diff.dot(diff)) < self._cache_radius:
                return self._cache_u
        x = np.asarray(state, dtype=float)
        u, clearance = _switching_law_with_clearance(
            x, self.admissible_set, self.mrpi_set, self.scenario
        )
        self._cache_state = tuple(x.tolist())
        self._cache_radius = clearance
        self._cache_u = u
        return u


class ExtremalBangPolicy:
    """Seeded random piecewise-constant signal at the input-box corners."""

    def __init__(
        self,
        scenario: Scenario,
        seed,
        t_end: float,
        n_segments: int = 8,
    ):
        rng = np.random.default_rng(seed)
        self.scenario = scenario
        self.schedules: dict[Channel, tuple[np.ndarray, np.ndarray]] = {
            ch: _bang_schedule(rng, lo, hi, t_end, n_segments)
            for ch, (lo, hi) in input_box(scenario).items()
        }

    def u(self, t: float, state) -> InputVec:
        vals = {}
        for ch, (times, values) in self.schedules.items():
            k = int(np.searchsorted(times, t, side="right")) - 1
            vals[ch.value] = float(values[max(k, 0)])
        return InputVec(**vals)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass
class Trajectory:
    samples: list[tuple[float, np.ndarray, InputVec]]
    breached: bool
    max_I: float
    first_breach_time: float | None = None


@dataclass
class OracleReport:
    point: np.ndarray
    claimed: Verdict | None
    n_trials: int
    agree: bool
    counterexample: tuple[str, Trajectory] | None = None


def simulate(
    scenario: Scenario,
    policy,
    x0,
    t_end: float,
    tolerances: Tolerances | None = None,
    *,
    h: float | None = None,
    record_every: int = 10,
    stop_on_breach: bool = False,
) -> Trajectory:
    """Forward RK4 with the policy re-evaluated every step.

    The state is integrated as a float tuple, and policies receive it as one;
    recorded samples are numpy arrays.  The first crossing of I = I_max is
    located by the integrator's event refiner, giving first_breach_time to
    event_time_tol; integration then continues to t_end unless
    stop_on_breach is set.
    """
    tol = tolerances or Tolerances()
    step = h if h is not None else tol.step_h
    if t_end > 10000.0:
        raise ValueError("t_end above 10000 days is unsupported")
    x = np.asarray(x0, dtype=float)
    if x.shape != (scenario.dim,):
        raise ValueError(f"x0 must have {scenario.dim} components")
    x = tuple(x.tolist())
    im = scenario.i_max
    cap = EventSpec(EventKind.DOMAIN_EXIT, "cap_face", lambda tt, yy: yy[-1], trigger_level=im)
    t = 0.0
    u = policy.u(t, x)
    samples = [(t, np.array(x), u)]
    max_i = float(x[-1])
    breached = x[-1] > im + tol.geom_tol
    first_breach = 0.0 if breached else None
    n_steps = int(np.ceil(t_end / step - 1e-12)) if t_end > 0 else 0

    for k in range(n_steps):
        hk = min(step, t_end - t)
        u = policy.u(t, x)
        rhs = lambda tt, yy: state_field(scenario, yy, u)
        x_new = rk4_step(rhs, t, x, hk)
        if first_breach is None and _triggered(cap, x[-1], x_new[-1]):
            frac, _ = _refine_fraction(rhs, cap, t, x, hk, x[-1], tol.event_time_tol)
            first_breach = t + frac * hk
        t, x = t + hk, x_new
        max_i = max(max_i, float(x[-1]))
        if max_i > im + tol.geom_tol:
            breached = True
        if (k + 1) % record_every == 0 or k == n_steps - 1:
            samples.append((t, np.array(x), u))
        if breached and stop_on_breach:
            break
    return Trajectory(samples, bool(breached), float(max_i), first_breach)


def switching_law(
    state,
    admissible_set: ComputedSet,
    mrpi_set: ComputedSet,
    scenario: Scenario,
    tolerances: Tolerances | None = None,
) -> InputVec:
    """Contact rate chosen from the state's location relative to both sets.

    Full contact (beta_max) while safely inside either set; minimal contact
    (beta_min) on the barrier and outside; the cap-holding rate gamma/S,
    clamped to the box, on the usable part of the cap face.
    """
    return _switching_law_with_clearance(
        np.asarray(state, dtype=float),
        admissible_set,
        mrpi_set,
        scenario,
        tolerances,
    )[0]


def _switching_law_with_clearance(
    state: np.ndarray,
    admissible_set: ComputedSet,
    mrpi_set: ComputedSet,
    scenario: Scenario,
    tolerances: Tolerances | None = None,
) -> tuple[InputVec, float]:
    """Law value plus the state-space radius within which it cannot change."""
    tol = tolerances or admissible_set.tolerances
    eps = tol.boundary_layer_eps
    s_val, i_val = float(state[0]), float(state[1])
    up = admissible_set.usable
    cap_margin = (scenario.i_max - eps) - i_val  # <= 0 once in the cap layer
    on_cap_layer = (
        up is not None and cap_margin <= 0.0 and s_val <= up.s_hi + eps
    )
    if on_cap_layer:
        # the emitted rate varies with S here, so never cache it
        if s_val < DIVIDE_GUARD_S:
            return InputVec(beta=scenario.beta_max), 0.0
        beta = scenario.gamma / s_val
        beta = min(scenario.beta_max, max(scenario.beta_min, beta))
        return InputVec(beta=beta), 0.0
    in_adm = membership(admissible_set, state)
    if in_adm.verdict is Verdict.INSIDE:
        clearance = min(in_adm.distance_estimate - eps, cap_margin)
        return InputVec(beta=scenario.beta_max), max(0.0, 0.9 * clearance)
    # the robust invariant set is contained in the admissible set, so its
    # INSIDE verdict can only add beta_max when the admissible query was
    # inconclusive (boundary layer)
    if in_adm.verdict is Verdict.BOUNDARY:
        if membership(mrpi_set, state).verdict is Verdict.INSIDE:
            return InputVec(beta=scenario.beta_max), 0.0
        return InputVec(beta=scenario.beta_min), 0.0
    # outside: minimal contact rate, stable until the boundary layer
    clearance = min(in_adm.distance_estimate - eps, cap_margin)
    return InputVec(beta=scenario.beta_min), max(0.0, 0.9 * clearance)


def monte_carlo(
    scenario: Scenario,
    x0,
    n_trials: int,
    seed,
    *,
    t_end: float = ORACLE_T_END,
    tolerances: Tolerances | None = None,
    h: float | None = None,
) -> list[Trajectory]:
    """Closed-loop runs with the disturbance drawn uniformly per trial.

    Imperfect variants only: the feedback laws are part of the dynamics and
    each trial holds its drawn disturbance value constant in time.  The seeded
    generator is split per trial, so results do not depend on run order.
    """
    if scenario.variant.is_perfect:
        raise ValueError("monte_carlo requires an imperfect (disturbed) variant")
    box = input_box(scenario)
    out = []
    for child in np.random.SeedSequence(seed).spawn(max(n_trials, 0)):
        rng = np.random.default_rng(child)
        vals = {
            ch.value: float(rng.uniform(lo, hi)) for ch, (lo, hi) in box.items()
        }
        policy = ConstantPolicy(scenario, InputVec(**vals))
        out.append(
            simulate(scenario, policy, x0, t_end, tolerances, h=h)
        )
    return out


# ---------------------------------------------------------------------------
# brute-force membership oracle
# ---------------------------------------------------------------------------


def _bang_schedule(rng, lo, hi, t_end, n_segments=8):
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, t_end, n_segments - 1))])
    values = rng.choice([lo, hi], size=n_segments)
    return times, values


def _sir_batch_breach(
    scenario: Scenario,
    points: np.ndarray,
    schedule: tuple[np.ndarray, np.ndarray],
    t_end: float,
    h: float,
    geom_tol: float,
) -> np.ndarray:
    """Vectorized forward runs of all points under one input schedule.

    Returns a breach flag per point.  Points are retired early once they
    breach or once the cap can provably never be reached again
    (beta_hi * S < gamma_lo implies dI/dt < 0 forever, S being
    non-increasing).
    """
    times, values = schedule
    perfect = scenario.variant.is_perfect
    if perfect:
        beta_hi = float(np.max(values))
        gamma_lo = scenario.gamma
    else:
        beta_hi = scenario.beta_max
        gamma_lo = float(np.min(values))
    im = scenario.i_max
    S = points[:, 0].astype(float).copy()
    I = points[:, 1].astype(float).copy()
    breached = I > im + geom_tol
    undecided = ~breached & ~(beta_hi * S < gamma_lo)
    n_steps = int(np.ceil(t_end / h))
    seg = 0
    for k in range(n_steps):
        if not np.any(undecided):
            break
        t = k * h
        while seg + 1 < len(times) and times[seg + 1] <= t:
            seg += 1
        val = values[seg]
        s, i = S[undecided], I[undecided]
        if perfect:
            beta, gamma = val, scenario.gamma
            s, i = _sir_vec_rk4(s, i, beta, gamma, h, None)
        else:
            s, i = _sir_vec_rk4(s, i, None, val, h, scenario)
        S[undecided], I[undecided] = s, i
        hit = undecided.copy()
        hit[undecided] = i > im + geom_tol
        breached |= hit
        safe = undecided.copy()
        safe[undecided] = beta_hi * s < gamma_lo
        undecided &= ~hit & ~safe
    return breached


def _sir_vec_rk4(S, I, beta, gamma, h, feedback_scenario):
    def f(s, i):
        if feedback_scenario is not None:
            sc = feedback_scenario
            r = np.clip(i / sc.i_max, 0.0, 1.0)
            b = sc.beta_min * r + sc.beta_max * (1.0 - r)
        else:
            b = beta
        flux = b * s * i
        return -flux, flux - gamma * i

    k1s, k1i = f(S, I)
    k2s, k2i = f(S + 0.5 * h * k1s, I + 0.5 * h * k1i)
    k3s, k3i = f(S + 0.5 * h * k2s, I + 0.5 * h * k2i)
    k4s, k4i = f(S + h * k3s, I + h * k3i)
    return (
        S + (h / 6.0) * (k1s + 2 * k2s + 2 * k3s + k4s),
        I + (h / 6.0) * (k1i + 2 * k2i + 2 * k3i + k4i),
    )


def _mrpi_schedules(scenario: Scenario, n_trials: int, seed, t_end: float):
    ch = active_channels(scenario.variant)[0]
    lo, hi = input_box(scenario)[ch]
    schedules = [
        (np.array([0.0]), np.array([lo])),
        (np.array([0.0]), np.array([hi])),
    ]
    for child in np.random.SeedSequence(seed).spawn(n_trials):
        schedules.append(
            _bang_schedule(np.random.default_rng(child), lo, hi, t_end)
        )
    return schedules


def grid_membership_oracle(
    scenario: Scenario,
    set_kind: SetKind,
    points,
    *,
    n_trials: int = 8,
    seed=0,
    admissible_set: ComputedSet | None = None,
    mrpi_set: ComputedSet | None = None,
    t_end: float = ORACLE_T_END,
    h: float = ORACLE_STEP_H,
    tolerances: Tolerances | None = None,
) -> np.ndarray:
    """Oracle INSIDE/OUTSIDE flags for a batch of SIR query points.

    MRPI: a point is inside iff no tested disturbance/input schedule (box
    corners plus seeded bang signals) breaches the cap.  ADMISSIBLE (perfect
    SIR): inside iff constant beta_min preserves the cap, or failing that the
    set-based switching law does.
    """
    if not scenario.variant.is_sir:
        raise ValueError("the grid oracle is two-dimensional (SIR variants)")
    tol = tolerances or Tolerances()
    pts = np.asarray(points, dtype=float)
    if set_kind is SetKind.MRPI:
        inside = np.ones(len(pts), dtype=bool)
        for sched in _mrpi_schedules(scenario, n_trials, seed, t_end):
            inside &= ~_sir_batch_breach(scenario, pts, sched, t_end, h, tol.geom_tol)
        return inside
    # admissible: constant minimal contact first, switching law as fallback
    sched = (np.array([0.0]), np.array([scenario.beta_min]))
    breach_min = _sir_batch_breach(scenario, pts, sched, t_end, h, tol.geom_tol)
    inside = ~breach_min
    if admissible_set is not None and mrpi_set is not None:
        policy = SwitchingLawPolicy(scenario, admissible_set, mrpi_set)
        for j in np.flatnonzero(breach_min):
            traj = simulate(
                scenario, policy, pts[j], t_end, tol, h=h,
                record_every=10_000, stop_on_breach=True,
            )
            inside[j] = not traj.breached
    return inside


def _seir_point_oracle(
    scenario: Scenario,
    set_kind: SetKind,
    point: np.ndarray,
    n_trials: int,
    seed,
    t_end: float,
    tolerances: Tolerances | None,
) -> bool:
    """Scalar forward-simulation oracle for three-dimensional queries.

    Trial signals are the input-box corner constants plus seeded bang
    signals.  For the robust invariant set the point must survive every
    trial; for the admissible set (perfect SEIR) one cap-preserving trial
    suffices.
    """
    tol = tolerances or Tolerances()
    box = input_box(scenario)
    channels = list(box)
    policies = []
    # corner constants: every combination of channel extremes
    n_corners = 1 << len(channels)
    for mask in range(n_corners):
        vals = {}
        for k, ch in enumerate(channels):
            lo, hi = box[ch]
            vals[ch.value] = hi if (mask >> k) & 1 else lo
        policies.append(ConstantPolicy(scenario, InputVec(**vals)))
    for child in np.random.SeedSequence(seed).spawn(n_trials):
        policies.append(
            ExtremalBangPolicy(scenario, child, t_end)
        )
    survived = breach_any = False
    for policy in policies:
        traj = simulate(
            scenario, policy, point, t_end, tol, h=ORACLE_STEP_H,
            record_every=10_000, stop_on_breach=True,
        )
        if traj.breached:
            breach_any = True
            if set_kind is SetKind.MRPI:
                return False
        else:
            survived = True
            if set_kind is SetKind.ADMISSIBLE:
                return True
    return not breach_any if set_kind is SetKind.MRPI else survived


def membership_oracle(
    scenario: Scenario,
    set_kind: SetKind,
    point,
    n_trials: int = 8,
    seed=0,
    *,
    computed_set: ComputedSet | None = None,
    admissible_set: ComputedSet | None = None,
    mrpi_set: ComputedSet | None = None,
    t_end: float = ORACLE_T_END,
    tolerances: Tolerances | None = None,
) -> OracleReport:
    """Single-point oracle check against a claimed membership verdict."""
    pt = np.asarray(point, dtype=float)
    if scenario.variant.is_sir:
        inside = bool(
            grid_membership_oracle(
                scenario,
                set_kind,
                pt[None, :],
                n_trials=n_trials,
                seed=seed,
                admissible_set=admissible_set,
                mrpi_set=mrpi_set,
                t_end=t_end,
                tolerances=tolerances,
            )[0]
        )
    else:
        inside = _seir_point_oracle(
            scenario, set_kind, pt, n_trials, seed, t_end, tolerances
        )
    claimed = None
    if computed_set is not None:
        claimed = membership(computed_set, pt).verdict
    if claimed in (None, Verdict.BOUNDARY, Verdict.UNKNOWN):
        agree = True
        counter = None
    else:
        agree = (claimed is Verdict.INSIDE) == inside
        counter = None
        if not agree:
            # store the decisive trajectory for inspection
            tol = tolerances or Tolerances()
            if scenario.variant.is_perfect:
                u = InputVec(beta=scenario.beta_min, gamma=getattr(scenario, "gamma_max", None))
            else:
                u = InputVec(gamma=scenario.gamma_min, eta=getattr(scenario, "eta_min", None))
            vals = {
                ch.value: u.get(ch) for ch in active_channels(scenario.variant)
            }
            policy = ConstantPolicy(scenario, InputVec(**vals))
            traj = simulate(scenario, policy, pt, t_end, tol, h=ORACLE_STEP_H)
            counter = (f"seed={seed}", traj)
    return OracleReport(pt, claimed, n_trials, agree, counter)
