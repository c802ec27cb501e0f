"""Forward policy simulation, the set-based switching law, and oracles.

The membership oracle cross-checks computed set boundaries the hard way, in all
four variants: it forward-simulates trial input/disturbance signals (input-box
corner constants and seeded bang signals) and watches for cap breaches.  A
trial signal is one list of segments: ``inputs[k]`` holds from ``starts[k]``
until the next start.  A point claimed inside the admissible set must have
*some* cap-preserving input; a point claimed inside the robust invariant set
must survive *every* trial signal.  All (point, trial) runs of a query batch
step together as lanes of numpy arrays while many are live; the few left are
finished one by one as float tuples, each reading its trial's segments.  Both
take the RK4 stages, the vector field, the step count and the clipped last step
of :func:`simulate`.  A refuted claim carries its counterexample: the deciding
trial, replayed through :func:`simulate`.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .barrier import ComputedSet, Verdict, membership
from .core import Scenario, SetKind, Tolerances, Variant
from .integrate import EventKind, EventSpec, _refine_fraction, _rk4_stages, rk4_step
from .models import (
    BadChannelError,
    InputVec,
    active_channels,
    check_input,
    check_set_kind,
    input_box,
    rate_law,
    vector_field,
)

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
_BANG_SEGMENTS = 8  # segments of one channel of a seeded bang signal
T_END_MAX = 10000.0  # longest horizon simulate accepts, days


# ---------------------------------------------------------------------------
# policies: callables (t, state) -> InputVec over the variant's free channels
# ---------------------------------------------------------------------------


class ConstantPolicy:
    """Fixed input values on every free channel: a signal of one segment."""

    def __init__(self, scenario: Scenario, values: InputVec):
        check_input(scenario, values)
        self.starts = [0.0]
        self.inputs = [values]

    def u(self, t: float, state) -> InputVec:
        return self.inputs[0]


class AffineFeedbackPolicy:
    """Interpolated-rate feedback on I, with fixed disturbance values.

    For imperfect variants the model dynamics already apply the feedback, so
    only the disturbance channels are emitted, each set once and inside its
    box.  For perfect variants, which take no disturbance, the controls are
    set to the same affine laws: the contact rate interpolates from beta_max
    at I=0 down to beta_min at I=I_max, the removal rate from gamma_min up to
    gamma_max.
    """

    def __init__(self, scenario: Scenario, disturbance: InputVec | None = None):
        self.scenario = scenario
        self.disturbance = disturbance or InputVec()
        if not scenario.variant.is_perfect:
            check_input(scenario, self.disturbance)
        elif self.disturbance != InputVec():
            raise BadChannelError(f"feedback on {scenario.variant.value} takes no parameters")
        self.channels = [ch.value for ch in active_channels(scenario.variant)]
        self._law = rate_law(scenario, None) if scenario.variant.is_perfect else None

    def u(self, t: float, state) -> InputVec:
        if self._law is None:
            return self.disturbance
        beta, _, gamma, _, _ = self._law(float(state[-1]))
        law = {"beta": beta, "gamma": gamma}
        return InputVec(**{ch: law[ch] for ch in self.channels})


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
        self._eps = admissible_set.tolerances.boundary_layer_eps

    def u(self, t: float, state) -> InputVec:
        # on the cap layer the law is a closed form of S, with no clearance
        s, i = state
        u = _cap_layer_law(self.scenario, self.admissible_set, self._eps, s, i)
        if u is not None:
            self._cache_radius = 0.0
            return u
        # verdicts cannot change while the state stays within the previously
        # measured clearance from the boundary, so reuse the last decision;
        # the distance is the BLAS dot of np.linalg.norm on a reused buffer
        if self._cache_state is not None:
            (s_c, i_c), diff = self._cache_state, self._diff
            diff[0], diff[1] = s - s_c, i - i_c
            if math.sqrt(diff.dot(diff)) < self._cache_radius:
                return self._cache_u
        # off the cap layer, which was tested above, the law reads the verdicts
        x = np.asarray(state, dtype=float)
        u, clearance = _membership_law(x, self.admissible_set, self.mrpi_set, self.scenario)
        self._cache_state = tuple(x.tolist())
        self._cache_radius = clearance
        self._cache_u = u
        return u


class ExtremalBangPolicy:
    """Seeded random piecewise-constant signal at the input-box corners.

    The free channels' switch times merge into ``starts``, the first 0.0;
    ``inputs[k]`` holds from ``starts[k]`` to the next start (the first also before 0).
    """

    def __init__(self, scenario: Scenario, seed, t_end: float):
        rng = np.random.default_rng(seed)
        self.scenario = scenario
        box = input_box(scenario).items()
        scheds = {ch.value: _bang_schedule(rng, lo, hi, t_end) for ch, (lo, hi) in box}
        self.starts = sorted({t for times, _ in scheds.values() for t in times.tolist()})
        self.inputs = [
            InputVec(**{
                ch: float(values[np.searchsorted(times, t, side="right") - 1])
                for ch, (times, values) in scheds.items()
            })
            for t in self.starts
        ]

    def u(self, t: float, state) -> InputVec:
        return self.inputs[max(bisect_right(self.starts, t) - 1, 0)]


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
    record_every: int = 10,
    stop_on_breach: bool = False,
) -> Trajectory:
    """Forward RK4 with the policy re-evaluated every step.

    The state is integrated as a float tuple, and policies receive it as one;
    recorded samples are numpy arrays.  ``first_breach_time`` marks the first
    time I exceeds I_max, even when the excess stays within geom_tol and
    ``breached`` is not set: 0.0 for a start above the cap, otherwise the
    crossing located by the integrator's event refiner to event_time_tol.
    Integration continues to t_end unless stop_on_breach is set.
    """
    tol = tolerances or Tolerances()
    step = tol.step_h
    n_steps = _step_count(t_end, step)
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")
    x = np.asarray(x0, dtype=float)
    if x.shape != (scenario.dim,):
        raise ValueError(f"x0 must have {scenario.dim} components")
    x = tuple(x.tolist())
    im = scenario.i_max
    thr = im + tol.geom_tol
    cap = EventSpec(EventKind.DOMAIN_EXIT, "cap_face", lambda tt, yy: yy[-1], trigger_level=im)
    t = 0.0
    u = policy.u(t, x)
    samples = [(t, np.array(x), u)]
    max_i = x[-1]
    breached = max_i > thr
    first_breach = 0.0 if max_i > im else None

    u_rhs = rhs = None
    for k in range(n_steps):
        hk = step if step <= t_end - t else t_end - t
        u = policy.u(t, x)
        if u is not u_rhs:  # policies that hold an input return the same object
            u_rhs = u
            rhs = vector_field(scenario, u)
        x_new = rk4_step(rhs, t, x, hk)
        i_old, i_new = x[-1], x_new[-1]
        if first_breach is None and i_new > im >= i_old:  # the cap event triggers
            frac, _ = _refine_fraction(rhs, cap, t, x, hk, i_old, tol.event_time_tol)
            first_breach = t + frac * hk
        t, x = t + hk, x_new
        if i_new > max_i:
            max_i = i_new
            breached = breached or i_new > thr
        if (k + 1) % record_every == 0 or k == n_steps - 1:
            samples.append((t, np.array(x), u))
        if breached and stop_on_breach:
            break
    return Trajectory(samples, breached, max_i, first_breach)


def _step_count(t_end: float, h: float) -> int:
    """Steps to ``t_end``, the last clipped to it: a negative ``t_end`` would make it negative."""
    if not 0.0 <= t_end <= T_END_MAX:  # negated, so that NaN fails too
        raise ValueError(f"t_end must lie in [0, {T_END_MAX:g}] days")
    return int(np.ceil(t_end / h - 1e-12))


def switching_law(
    state,
    admissible_set: ComputedSet,
    mrpi_set: ComputedSet,
    scenario: Scenario,
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
    )[0]


def _switching_law_with_clearance(
    state: np.ndarray,
    admissible_set: ComputedSet,
    mrpi_set: ComputedSet,
    scenario: Scenario,
) -> tuple[InputVec, float]:
    """Law value plus the state-space radius within which it cannot change."""
    eps = admissible_set.tolerances.boundary_layer_eps
    on_cap = _cap_layer_law(scenario, admissible_set, eps, float(state[0]), float(state[1]))
    if on_cap is not None:  # the emitted rate varies with S here, so never cache it
        return on_cap, 0.0
    return _membership_law(state, admissible_set, mrpi_set, scenario)


def _membership_law(
    state: np.ndarray,
    admissible_set: ComputedSet,
    mrpi_set: ComputedSet,
    scenario: Scenario,
) -> tuple[InputVec, float]:
    """The law and its clearance off the cap layer, read from the two sets' verdicts."""
    eps = admissible_set.tolerances.boundary_layer_eps
    cap_margin = (scenario.i_max - eps) - float(state[1])  # <= 0 once in the cap layer
    lo, hi = _beta_ends(scenario)
    in_adm = membership(admissible_set, state)
    if in_adm.verdict is Verdict.INSIDE:
        clearance = min(in_adm.distance_estimate - eps, cap_margin)
        return hi, max(0.0, 0.9 * clearance)
    # the robust invariant set is contained in the admissible set, so its
    # INSIDE verdict can only add beta_max when the admissible query was
    # inconclusive (boundary layer).  SIR distance estimates are exact
    # Euclidean distances to the boundary polylines, hence 1-Lipschitz in the
    # state, so within the clearance below the admissible distance stays under
    # eps (still BOUNDARY), the robust distance stays on its side of eps (a
    # BOUNDARY verdict stays one; otherwise the disc misses the boundary and
    # INSIDE/OUTSIDE holds), and I stays below the cap layer
    if in_adm.verdict is Verdict.BOUNDARY:
        in_mrpi = membership(mrpi_set, state)
        clearance = min(
            eps - in_adm.distance_estimate,
            abs(in_mrpi.distance_estimate - eps),
            cap_margin,
        )
        return hi if in_mrpi.verdict is Verdict.INSIDE else lo, max(0.0, 0.9 * clearance)
    # outside: minimal contact rate, stable until the boundary layer
    clearance = min(in_adm.distance_estimate - eps, cap_margin)
    return lo, max(0.0, 0.9 * clearance)


@lru_cache(maxsize=16)
def _beta_ends(scenario: Scenario) -> tuple[InputVec, InputVec]:
    """``(beta_min, beta_max)`` as one input object each per scenario.

    The law returns these at its clamped ends, so :func:`simulate` keeps its field there.
    """
    return InputVec(beta=scenario.beta_min), InputVec(beta=scenario.beta_max)


def _cap_layer_law(
    scenario: Scenario, admissible_set: ComputedSet, eps: float, s_val: float, i_val: float
) -> InputVec | None:
    """The law on the usable cap layer, or None off it.

    On the layer (I within ``eps`` of the cap, S at most ``eps`` past the
    usable part's end) the cap-holding rate gamma/S, clamped to the box, and
    beta_max below DIVIDE_GUARD_S; a clamped rate is one of :func:`_beta_ends`.
    """
    up = admissible_set.usable
    if not (up is not None and scenario.i_max - eps <= i_val and s_val <= up.s_hi + eps):
        return None
    beta = scenario.gamma / s_val if s_val >= DIVIDE_GUARD_S else scenario.beta_max
    if scenario.beta_min < beta < scenario.beta_max:
        return InputVec(beta=beta)
    lo, hi = _beta_ends(scenario)
    return hi if beta >= scenario.beta_max else lo


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
    ``h``, when given, replaces the step ``tolerances.step_h``.
    """
    tol = tolerances if h is None else replace(tolerances or Tolerances(), step_h=h)
    if scenario.variant.is_perfect:
        raise ValueError("monte_carlo requires an imperfect (disturbed) variant")
    if n_trials < 0:
        raise ValueError(f"n_trials must not be negative, got {n_trials}")
    box = input_box(scenario)
    out = []
    for child in np.random.SeedSequence(seed).spawn(n_trials):
        rng = np.random.default_rng(child)
        vals = {
            ch.value: float(rng.uniform(lo, hi)) for ch, (lo, hi) in box.items()
        }
        policy = ConstantPolicy(scenario, InputVec(**vals))
        out.append(simulate(scenario, policy, x0, t_end, tol))
    return out


# ---------------------------------------------------------------------------
# brute-force membership oracle
# ---------------------------------------------------------------------------


def _bang_schedule(rng, lo, hi, t_end):
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, t_end, _BANG_SEGMENTS - 1))])
    values = rng.choice([lo, hi], size=_BANG_SEGMENTS)
    return times, values


def _oracle_trials(
    scenario: Scenario, set_kind: SetKind, n_trials: int, seed, t_end: float
) -> list[ConstantPolicy | ExtremalBangPolicy]:
    """The oracle's trial signals, in the order their breaches are reported.

    Perfect SIR admissible set: constant beta_min alone (the switching law is
    the fallback).  Every other set: the 2^channels input-box corner
    constants, then ``n_trials`` seeded bang signals, one per child of
    ``SeedSequence(seed)``.
    """
    if set_kind is SetKind.ADMISSIBLE and scenario.variant is Variant.SIR_PERFECT:
        return [ConstantPolicy(scenario, InputVec(beta=scenario.beta_min))]
    box = [(ch.value, lo, hi) for ch, (lo, hi) in input_box(scenario).items()]
    trials: list[ConstantPolicy | ExtremalBangPolicy] = [
        ConstantPolicy(
            scenario,
            InputVec(**{ch: hi if (mask >> k) & 1 else lo for k, (ch, lo, hi) in enumerate(box)}),
        )
        for mask in range(1 << len(box))
    ]
    for child in np.random.SeedSequence(seed).spawn(n_trials):
        trials.append(ExtremalBangPolicy(scenario, child, t_end))
    return trials


# Once no more than this many lanes are live, the oracle finishes each one
# alone as a float tuple.  One RK4 step of the lane arrays costs about 40 us
# at any width up to 64 lanes, one float-tuple lane step about 2 us (timeit,
# SIR perfect, 2-core Xeon VM), so the tuples win below about 20 lanes.  On
# the dynamics benchmark's 133-point SIR grid (i_max 0.02, 500 d), the
# admissible schedule's first retirement leaves 2 lanes, so every width from
# 4 up took about 1 ms and width 0 took 12 ms (medians of 9); the robust
# schedule's leaves 254 of 1,330, and widths 0 / 8 / 16 / 24 / 64 / 2000 took
# 0.41 / 0.28 / 0.24 / 0.28 / 0.44 / 0.98 s (medians of 5).
_TAIL_LANES = 16

_BOUND_EVERY = 16  # lane arrays test the bound this seldom: its logs cost more than a step


def _breach_matrix(
    scenario: Scenario,
    points: np.ndarray,
    trials: list[ExtremalBangPolicy],
    t_end: float,
    tol: Tolerances,
) -> np.ndarray:
    """Cap-breach flags of every (point, trial) forward run, shape (n_points, n_trials).

    Each pair is one lane, stepped by :func:`_rk4_stages` on
    :func:`vector_field` with :func:`simulate`'s step count and a last step
    clipped to ``t_end``; a lane reads its trial's input at the step start
    t = k*h.  While more than ``_TAIL_LANES`` lanes are live they step
    together as a tuple of numpy arrays; the rest are then finished one by
    one as float tuples, which gives the same floats.  A lane retires once
    it breaches (I > i_max + geom_tol) or once it provably never will:

    - Its trial's rates stay within beta <= beta_hi and gamma >= gamma_lo
      (the imperfect feedback laws included: they sit at those ends at
      I = 0), so with c = gamma_lo/beta_hi, V = S + E + I - c*ln(S) has
      dV/dt = I*(c*beta - gamma) <= 0 in all four variants (E = 0 in SIR;
      eta cancels in E + I).  S never increases, and S' - c*ln(S') over
      S' <= S is least at S' = min(S, c), so E + I stays at most its value
      now plus slack(S) = S - c - c*ln(S/c) for S > c, 0 otherwise.  The
      lane retires once E + I + slack(S) <= i_max + geom_tol (tested every
      ``_BOUND_EVERY`` array steps; a lane retired later steps on under the
      same bound, so no flag changes).  Under a
      corner constant with beta = beta_hi and gamma = gamma_lo, V is
      conserved and the bound is the exact peak of E + I.  RK4 does not
      conserve V exactly: at step_h = 1e-2 over 500 d, under the SIR and
      SEIR corner constants that conserve it (three starts each), V rose at
      most 5.7e-14 above its start, so a retired lane whose RK4 run would
      still have breached peaks within that of the threshold, inside the
      geom_tol = 1e-9 band the threshold already grants the cap.
    - A lane that starts on the invariant axis, I == 0 in SIR and E == 0
      and I == 0 in SEIR, stays on it: in all four variants every
      right-hand-side term of E and I is a product with E or I (beta*S*I,
      eta*E, gamma*I), so each RK4 stage adds exactly 0.0 to those
      components and I never leaves 0.  Lanes are tested for this once,
      before the first step.
    """
    n_pts, n_tr = len(points), len(trials)
    thr = scenario.i_max + tol.geom_tol
    h = tol.step_h
    n_steps = _step_count(t_end, h)
    lanes = np.arange(n_tr * n_pts)  # trial-major: lane = trial * n_pts + point
    y = tuple(np.tile(points[:, d], n_tr) for d in range(points.shape[1]))
    channels = [ch.value for ch in input_box(scenario)]
    hi, lo = [], []
    for tr in trials:
        vals = [[getattr(u, ch) for u in tr.inputs] for ch in channels]
        hi.append(rate_law(scenario, InputVec(**dict(zip(channels, map(max, vals)))))(0.0)[0])
        lo.append(rate_law(scenario, InputVec(**dict(zip(channels, map(min, vals)))))(0.0)[2])
    c = np.repeat(np.divide(lo, hi), n_pts)  # gamma_lo / beta_hi per lane
    # every later segment start of every trial, in time order, behind one pointer
    segs = ((t, j, u) for j, tr in enumerate(trials) for t, u in zip(tr.starts[1:], tr.inputs[1:]))
    starts = sorted(segs, key=lambda start: start[0])
    lane_u = {
        ch: np.repeat([getattr(tr.inputs[0], ch) for tr in trials], n_pts) for ch in channels
    }
    breached = np.zeros(n_tr * n_pts, dtype=bool)
    k = nxt = 0
    f = None
    while True:
        done = hit = y[-1] > thr
        if k % _BOUND_EVERY == 0:
            e_plus_i = y[-1] if len(y) == 2 else y[1] + y[2]
            slack = np.maximum(y[0] - c - c * np.log(np.maximum(y[0] / c, 1.0)), 0.0)
            done = hit | (e_plus_i + slack <= thr)
        if k == 0:  # on the invariant axis: y[1] is E in SEIR, I itself in SIR
            done = done | ((y[1] == 0.0) & (y[-1] == 0.0))
        if done.any():
            breached[lanes[hit]] = True
            keep = ~done
            lanes = lanes[keep]
            c = c[keep]
            y = tuple(a[keep] for a in y)
            lane_u = {ch: a[keep] for ch, a in lane_u.items()}
            f = None
        if k == n_steps or len(lanes) <= _TAIL_LANES:
            break
        t = k * h
        while nxt < len(starts) and starts[nxt][0] <= t:
            _, j, u = starts[nxt]
            for ch, a in lane_u.items():
                a[lanes // n_pts == j] = getattr(u, ch)
            nxt += 1
            f = None
        if f is None:
            f = vector_field(scenario, InputVec(**lane_u))
        y = _rk4_stages(f, t, y, min(h, t_end - t))
        k += 1
    for i, lane in enumerate(lanes.tolist()):
        breached[lane] = _finish_lane(
            scenario, tuple(a[i].item() for a in y), trials[lane // n_pts],
            k, n_steps, t_end, h, thr, c[i].item(),
        )
    return breached.reshape(n_tr, n_pts).T


def _finish_lane(scenario, y, trial, k, n_steps, t_end, h, thr, c):
    """Step one oracle lane as a float tuple from step ``k`` until it retires.

    Retires and steps as :func:`_breach_matrix` does.  The input at t = k*h is
    the trial's segment holding t (what its ``u`` returns), looked up again only
    once t passes that segment's end.  Returns whether the lane breached.
    """
    ends, end = trial.starts[1:] + [math.inf], -math.inf
    while True:
        i = y[-1]
        if i > thr:
            return True
        e_plus_i = i if len(y) == 2 else y[1] + i
        s = y[0]
        slack = max(s - c - c * math.log(s / c), 0.0) if s > c else 0.0
        if k == n_steps or e_plus_i + slack <= thr:
            return False
        t = k * h
        if t >= end:
            seg = bisect_right(ends, t)
            end, f = ends[seg], vector_field(scenario, trial.inputs[seg])
        y = _rk4_stages(f, t, y, min(h, t_end - t))
        k += 1


def _oracle(
    scenario: Scenario,
    set_kind: SetKind,
    points,
    n_trials: int,
    seed,
    admissible_set: ComputedSet | None,
    mrpi_set: ComputedSet | None,
    t_end: float,
    tol: Tolerances,
):
    """Oracle flags of a batch of points, with the trials and breach matrix behind them."""
    check_set_kind(scenario.variant, set_kind)
    _step_count(t_end, tol.step_h)  # refuses a bad horizon before trials are drawn on it
    if n_trials < 0:
        raise ValueError(f"n_trials must not be negative, got {n_trials}")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != scenario.dim:
        raise ValueError(f"points must have shape (n, {scenario.dim})")
    if not np.isfinite(pts).all():  # a NaN lane never compares above the cap
        raise ValueError("points must be finite")
    trials = _oracle_trials(scenario, set_kind, n_trials, seed, t_end)
    breach = _breach_matrix(scenario, pts, trials, t_end, tol)
    if set_kind is SetKind.MRPI:
        inside = ~breach.any(axis=1)
        return inside, trials, breach
    inside = ~breach.all(axis=1)
    if admissible_set is not None and mrpi_set is not None:
        policy = SwitchingLawPolicy(scenario, admissible_set, mrpi_set)
        for j in np.flatnonzero(~inside):
            traj = simulate(
                scenario, policy, pts[j], t_end, tol, record_every=10_000, stop_on_breach=True
            )
            inside[j] = not traj.breached
    return inside, trials, breach


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
    tolerances: Tolerances | None = None,
) -> np.ndarray:
    """Oracle INSIDE/OUTSIDE flags for a batch of query points, any variant.

    MRPI: a point is inside iff no trial signal (input-box corner constants
    plus seeded bang signals) breaches the cap.  ADMISSIBLE, perfect SEIR:
    inside iff some trial signal preserves the cap.  ADMISSIBLE, perfect
    SIR: inside iff constant beta_min preserves the cap, or failing that the
    set-based switching law does (when both sets are given).  Every run
    steps at ``tolerances.step_h``.
    """
    tol = tolerances or Tolerances()
    return _oracle(
        scenario, set_kind, points, n_trials, seed, admissible_set, mrpi_set, t_end, tol
    )[0]


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
    """Single-point oracle check against a claimed membership verdict.

    On disagreement the counterexample is the deciding trial replayed through
    :func:`simulate`: the first trial that breaches when the oracle says
    outside, the first that survives when it says inside, or the switching
    law when only it held a perfect-SIR point under the cap.
    """
    tol = tolerances or Tolerances()
    pt = np.asarray(point, dtype=float)
    flags, trials, breach = _oracle(
        scenario, set_kind, pt[None, :], n_trials, seed,
        admissible_set, mrpi_set, t_end, tol,
    )
    inside = bool(flags[0])
    claimed = None if computed_set is None else membership(computed_set, pt).verdict
    if claimed not in (Verdict.INSIDE, Verdict.OUTSIDE):
        return OracleReport(pt, claimed, n_trials, True)
    agree = (claimed is Verdict.INSIDE) == inside
    counter = None
    if not agree:
        matching = np.flatnonzero(breach[0] != inside)
        if len(matching):
            j = int(matching[0])
            policy, label = trials[j], f"seed={seed} trial={j}"
        else:
            policy = SwitchingLawPolicy(scenario, admissible_set, mrpi_set)
            label = f"seed={seed} switching_law"
        counter = (label, simulate(scenario, policy, pt, t_end, tol))
    return OracleReport(pt, claimed, n_trials, agree, counter)
