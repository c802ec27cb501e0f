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
take :func:`simulate`'s RK4 stages, field and step count, but step k from
t = k*h, not from its accumulated t.  A refuted claim carries its
counterexample: the deciding trial, replayed through :func:`simulate`.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .barrier import ComputedSet, Verdict, membership
from .core import Scenario, SetKind, Tolerances, Variant
from .integrate import EventKind, EventSpec, _fill, _generated, _refine_fraction, _rk4_stages
from .integrate import Source
from .models import (
    BadChannelError,
    InputVec,
    _input_rates,
    active_channels,
    check_input,
    check_set_kind,
    forward_source,
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
    """Set-membership-driven contact-rate law for the perfect SIR model.

    Full contact (beta_max) while safely inside either set; minimal contact
    (beta_min) on the barrier and outside; the cap-holding rate gamma/S,
    clamped to the box, on the usable part of the cap face.
    """

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
        self._cache_state = (0.0, 0.0)
        self._cache_radius = 0.0  # no state lies nearer than 0 to the cached one
        self._cache_u: InputVec | None = None
        self._diff = np.empty(2)
        self._eps = admissible_set.tolerances.boundary_layer_eps
        # the law returns these at its clamped ends, so simulate keeps its field there
        self._lo = InputVec(beta=scenario.beta_min)
        self._hi = InputVec(beta=scenario.beta_max)

    def u(self, t: float, state) -> InputVec:
        # on the cap layer the law is a closed form of S, with no clearance
        s, i = state
        u = self._cap_layer_law(s, i)
        if u is not None:
            self._cache_radius = 0.0
            return u
        # verdicts cannot change while the state stays within the previously
        # measured clearance from the boundary, so reuse the last decision;
        # the distance is the BLAS dot of np.linalg.norm on a reused buffer
        (s_c, i_c), diff = self._cache_state, self._diff
        diff[0], diff[1] = s - s_c, i - i_c
        if math.sqrt(diff.dot(diff)) < self._cache_radius:
            return self._cache_u
        # off the cap layer, which was tested above, the law reads the verdicts
        x = np.asarray(state, dtype=float)
        u, clearance = self._membership_law(x)
        self._cache_state = tuple(x.tolist())
        self._cache_radius = clearance
        self._cache_u = u
        return u

    def _cap_layer_law(self, s_val: float, i_val: float) -> InputVec | None:
        """The law on the usable cap layer, or None off it.

        On the layer (I within ``eps`` of the cap, S at most ``eps`` past the
        usable part's end) the cap-holding rate gamma/S, clamped to the box, and
        beta_max below DIVIDE_GUARD_S; a clamped rate is one of the policy's two ends.
        """
        sc, eps, up = self.scenario, self._eps, self.admissible_set.usable
        if not (up is not None and sc.i_max - eps <= i_val and s_val <= up.s_hi + eps):
            return None
        beta = sc.gamma / s_val if s_val >= DIVIDE_GUARD_S else sc.beta_max
        if sc.beta_min < beta < sc.beta_max:
            return InputVec(beta=beta)
        return self._hi if beta >= sc.beta_max else self._lo

    def _membership_law(self, state: np.ndarray) -> tuple[InputVec, float]:
        """The law and its clearance off the cap layer, read from the two sets' verdicts."""
        eps = self._eps
        cap_margin = (self.scenario.i_max - eps) - float(state[1])  # <= 0 once in the cap layer
        in_adm = membership(self.admissible_set, state)
        if in_adm.verdict is not Verdict.BOUNDARY:
            # inside: full contact rate, outside: minimal; stable until the boundary layer
            clearance = min(in_adm.distance_estimate - eps, cap_margin)
            u = self._hi if in_adm.verdict is Verdict.INSIDE else self._lo
        else:
            # the robust invariant set is contained in the admissible set, so its
            # INSIDE verdict can only add beta_max when the admissible query was
            # inconclusive (boundary layer).  SIR distance estimates are exact
            # Euclidean distances to the boundary polylines, hence 1-Lipschitz in the
            # state, so within the clearance below the admissible distance stays under
            # eps (still BOUNDARY), the robust distance stays on its side of eps (a
            # BOUNDARY verdict stays one; otherwise the disc misses the boundary and
            # INSIDE/OUTSIDE holds), and I stays below the cap layer
            in_mrpi = membership(self.mrpi_set, state)
            clearance = min(
                eps - in_adm.distance_estimate,
                abs(in_mrpi.distance_estimate - eps),
                cap_margin,
            )
            u = self._hi if in_mrpi.verdict is Verdict.INSIDE else self._lo
        return u, max(0.0, 0.9 * clearance)


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


# Steps from step _k of _n (the last clipped to _t_end) under the input _u, recording
# every _every-th state and the first cap crossing (_refine), until the end, a breach
# that stops the run, the signal's next segment start, or an input from the policy _pol
# (called at each step start after the first) whose rates _rebind cannot bind.
_FORWARD_TEMPLATE = """\
def entry(_t, _y, _k, _n, _t_end, _step, _every, _samples, _array, _im, _thr, _max, _br,
          _first, _stop, _u, _next, _pol, _rebind, _refine, {params}):
    `_y#`, = _y
    while True:
        _h = _t_end - _t
        if _step <= _h:
            _h = _step
        @STAGES
        @FINITE
        if _z{i} > _im >= _y{i} and _first is None:
            _first = _refine(_t, (`_y#`,), _h, _u)
        _t = _t + _h
        `_y#` = `_z#`
        _k += 1
        if _t >= _t_end:  # the accumulated time may reach t_end before step _n
            _k = _n
        if _y{i} > _max:
            _max = _y{i}
            _br = _br or _y{i} > _thr
        if _k % _every == 0 or _k == _n:
            _samples.append((_t, _array((`_y#`,)), _u))
        if _k == _n or _br and _stop or _t >= _next:
            return _t, (`_y#`,), _k, _max, _br, _first, _u
        if _pol is not None:
            _v = _pol(_t, (`_y#`,))
            if _v is not _u:
                _p = _rebind and _rebind(_v)
                if _p is None:
                    return _t, (`_y#`,), _k, _max, _br, _first, _v
                {params}, = _p
                _u = _v
"""


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
    """Forward RK4 in one generated loop, on :func:`models.forward_source` bound per input.

    A bang signal (``starts``/``inputs``) is called at each step start that
    reaches a segment start; any other policy is called every step, on the
    state as a float tuple.  ``first_breach_time`` marks the first
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
    cap = EventSpec(EventKind.DOMAIN_EXIT, "cap_face", Source(f"y[{len(x) - 1}]"), im)

    def refine(t, y, h, u):  # the time the step from t crosses the cap
        src = forward_source(scenario, u)
        return t + _refine_fraction(src, cap, t, y, h, y[-1], tol.event_time_tol)[0] * h

    t = 0.0
    u = policy.u(t, x)  # the first step's input too
    samples = [(t, np.array(x), u)]
    max_i = x[-1]
    breached = max_i > thr
    first_breach = 0.0 if max_i > im else None

    starts = getattr(policy, "starts", None)  # a signal's input holds until its next start
    pol, nxt, k, bound = None if starts else policy.u, math.inf, 0, None
    while k < n_steps:
        if starts:
            j = bisect_right(starts, t)
            u, nxt = policy.u(t, x), (starts[j] if j < len(starts) else math.inf)
        if u is not bound:  # policies that hold an input return the same object
            bound, src = u, forward_source(scenario, u)
            code = _FORWARD_TEMPLATE.format(params=", ".join(src.params), i=len(x) - 1)
            loop = _generated(("forward", code, *src[:2]), _fill, code, len(x), src)
            rebind = partial(_input_rates, scenario) if _input_rates(scenario, u) else None
        t, x, k, max_i, breached, first_breach, u = loop(
            t, x, k, n_steps, t_end, step, record_every, samples, np.array, im, thr, max_i,
            breached, first_breach, stop_on_breach, u, nxt, pol, rebind, refine, **src.params,
        )
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
    """Contact rate at ``state`` from a fresh :class:`SwitchingLawPolicy`, the law's only home."""
    return SwitchingLawPolicy(scenario, admissible_set, mrpi_set).u(0.0, tuple(map(float, state)))


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

    Each pair is one lane, stepped by :func:`_rk4_stages` on :func:`vector_field`
    with :func:`simulate`'s step count; step k starts at t = k*h (not at
    :func:`simulate`'s accumulated t), reads the trial's input there and is
    clipped to t_end - k*h.  While more than ``_TAIL_LANES`` lanes are live
    they step together as a tuple of numpy arrays; the rest are then finished
    one by one as float tuples, which gives the same floats.  A lane retires
    once it breaches (I > i_max + geom_tol) or once it provably never will:

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
    law when only it held a perfect-SIR point under the cap.  The replay steps
    on :func:`simulate`'s clock, t = t + h, not on the lanes' t = k*h.
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
