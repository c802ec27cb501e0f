"""Forward policy simulation, the set-based switching law, and oracles.

:func:`simulate` steps in one generated loop, which inlines a law's per-step
rule: the switching law reads the admissible set only on a clearance miss.

The membership oracle cross-checks computed set boundaries the hard way, in all
four variants: it forward-simulates trial input/disturbance signals (input-box
corner constants and seeded bang signals) and watches for cap breaches.  A
trial signal is one list of segments: ``inputs[k]`` holds from ``starts[k]``
until the next start.  A point claimed inside the admissible set must have
*some* cap-preserving input; a point claimed inside the robust invariant set
must survive *every* trial signal; on each perfect SIR set one constant
(beta_min for the admissible set, beta_max for the robust one) decides
exactly, so no oracle reads the set it checks.  All (point, trial) runs of a
query batch step together as lanes of numpy arrays while many are live; the
few left are finished one by one as float tuples, each reading its trial's
segments.  Both take :func:`simulate`'s RK4 stages, field, step count and
clock: step k starts at t = k*h, and the last ends at t_end.  A refuted claim
carries its counterexample: the deciding trial, replayed through :func:`simulate`.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .barrier import ComputedSet, Verdict, membership
from .core import Scenario, SetKind, Tolerances, Variant
from .integrate import EventKind, EventSpec, Source, _each, _fill, _generated, _inline
from .integrate import _refine_fraction, _rk4_stages, source_function
from .models import (
    BadChannelError,
    InputVec,
    active_channels,
    breach_bound,
    breach_params,
    check_input,
    check_set_kind,
    forward_source,
    input_box,
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

ORACLE_T_END = 500.0
_BANG_SEGMENTS = 8  # segments of one channel of a seeded bang signal
T_END_MAX = 10000.0  # longest horizon simulate accepts, days


# ---------------------------------------------------------------------------
# policies: signals (starts, inputs) and laws (a Source, and its input)
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
    the policy is a signal of one segment, its disturbance, set once and
    inside its box.  For perfect variants, which take no disturbance, it is a
    law: ``law`` is :func:`models.forward_source`'s statements on the closed
    loop, whose contact rate ``b`` interpolates from beta_max at I=0 down to
    beta_min at I=I_max and, in SEIR, whose removal rate ``g`` goes from
    gamma_min up to gamma_max.  :func:`simulate` inlines it and :meth:`u`
    compiles it.  The rates are a zero-order hold: taken at the state of each
    step's start and held over the step.
    """

    def __init__(self, scenario: Scenario, disturbance: InputVec | None = None):
        disturbance = disturbance or InputVec()
        self.starts = self.inputs = self.law = None
        if not scenario.variant.is_perfect:
            check_input(scenario, disturbance)
            self.starts, self.inputs = [0.0], [disturbance]
            return
        if disturbance != InputVec():
            raise BadChannelError(f"feedback on {scenario.variant.value} takes no parameters")
        closed = forward_source(scenario, None)
        rates = ("b", "g")[: len(active_channels(scenario.variant))]
        self.law = Source(rates, closed.body, closed.params)
        self._rule = source_function(self.law)

    def u(self, t: float, state) -> InputVec:
        return self.inputs[0] if self.law is None else self.input(*self._rule(t, state))

    def input(self, beta: float, gamma: float | None = None) -> InputVec:
        """The input of the rates the law returned."""
        return InputVec(beta=beta, gamma=gamma)


class SwitchingLawPolicy:
    """Set-membership-driven contact-rate law for the perfect SIR model.

    It is beta_max in the free region beta_max*S <= gamma, where I never rises
    again: dI/dt = (beta*S - gamma)*I <= 0 under every beta, and S never rises.
    Elsewhere it reads the admissible set ``A`` alone: beta_max while safely
    inside ``A``, beta_min on its boundary layer and outside (there beta_min is
    the semipermeable extremal input), and the cap-holding rate gamma/S,
    at least beta_min, on the usable part of the cap face.  The robust set
    ``M`` could never change the input, since INSIDE ``M`` implies INSIDE ``A``:

    - If ``x`` reads INSIDE ``M``, the open disc of radius ``d_M(x) > eps``
      around ``x`` meets none of ``M``'s pieces (its polygon edges, the S = 0
      edge among them, and the I = 0 axis) and lies in ``M``'s polygon.
    - ``M``'s polygon lies in ``A``'s, so the disc meets none of ``A``'s pieces either:
      ``A``'s own edges plus the same axis, or a trivial ``A``'s cap face.
    - So ``d_A(x) >= d_M(x) > eps``, and ``x`` reads INSIDE ``A``.

    The containment holds up to ``geom_tol`` (``M``'s sum-face vertex lies
    7.1e-10 outside ``A`` at i_max = 0.3); in that sliver the law picks
    beta_min, which is never less safe.
    The law's per-step rule is ``law``, a :class:`Source` whose value is the
    contact rate: :func:`simulate` inlines it into its step loop, and :meth:`u`
    compiles it.  Off the cap layer it reuses the rate of its last membership
    reading while the state stays within that reading's clearance, and calls
    ``miss`` for a new reading otherwise.
    ``mrpi_set`` is accepted and unused: the benchmark's workloads pass it.
    """

    # beta_max in the free region beta_max*S <= gamma; on the usable cap layer (I within eps of
    # the cap, S at most eps past the usable part's end) gamma/S, at least beta_min (and past
    # the free region at most beta_max); else the cached rate in the cached clearance (NaN misses).
    _RULE = """\
S = y[0]
I = y[1]
s_c, i_c, radius, rate = cache
if S * beta_hi <= gamma:
    rate = beta_hi
elif I >= layer_i and S <= layer_s:
    rate = gamma / S
    rate = rate if rate > beta_lo else beta_lo
elif not sqrt((S - s_c) * (S - s_c) + (I - i_c) * (I - i_c)) < radius:
    rate = miss(S, I)"""

    def __init__(
        self,
        scenario: Scenario,
        admissible_set: ComputedSet,
        mrpi_set: ComputedSet | None = None,
    ):
        if scenario.variant is not Variant.SIR_PERFECT:
            raise ValueError("switching law requires the perfect SIR variant")
        if admissible_set.set_kind is not SetKind.ADMISSIBLE or admissible_set.scenario != scenario:
            raise ValueError("switching law requires the scenario's admissible set")
        self.scenario = scenario
        self.admissible_set = admissible_set
        self._eps = eps = admissible_set.tolerances.boundary_layer_eps
        up = admissible_set.usable
        # the last reading's state, clearance and rate; no state lies nearer than 0
        self._cache = [0.0, 0.0, 0.0, scenario.beta_min]
        self.law = Source("rate", self._RULE, {
            "layer_i": math.nan if up is None else scenario.i_max - eps,  # NaN: no layer
            "layer_s": math.nan if up is None else up.s_hi + eps,
            "gamma": scenario.gamma,
            "beta_lo": scenario.beta_min, "beta_hi": scenario.beta_max,
            "cache": self._cache, "miss": self._miss,
        })
        self._rule = source_function(self.law)
        # the law returns these at the box's ends, so a run records one object per end
        self._lo = InputVec(beta=scenario.beta_min)
        self._hi = InputVec(beta=scenario.beta_max)

    def u(self, t: float, state) -> InputVec:
        return self.input(self._rule(t, state))

    def input(self, rate: float) -> InputVec:
        """The input of a contact rate the law returned."""
        hi, lo = self._hi, self._lo
        return hi if rate == hi.beta else lo if rate == lo.beta else InputVec(beta=rate)

    def _miss(self, s: float, i: float) -> float:
        """A new membership reading at (s, i), cached; its rate."""
        u, clearance = self._membership_law(np.array((s, i)))
        self._cache[:] = s, i, clearance, u.beta
        return u.beta

    def _membership_law(self, state: np.ndarray) -> tuple[InputVec, float]:
        """The law off the cap layer, and the clearance within which it holds.

        SIR distances are exact Euclidean distances, hence 1-Lipschitz: within
        the clearance the distance stays on its side of eps and I below the cap layer.
        """
        eps = self._eps
        cap_margin = (self.scenario.i_max - eps) - float(state[1])  # <= 0 once in the cap layer
        in_adm = membership(self.admissible_set, state)
        u = self._hi if in_adm.verdict is Verdict.INSIDE else self._lo
        return u, max(0.0, 0.9 * min(abs(in_adm.distance_estimate - eps), cap_margin))


class ExtremalBangPolicy:
    """Seeded random piecewise-constant signal at the input-box corners.

    The free channels' switch times merge into ``starts``, the first 0.0;
    ``inputs[k]`` holds from ``starts[k]`` to the next start (the first also before 0).
    """

    def __init__(self, scenario: Scenario, seed, t_end: float):
        rng = np.random.default_rng(seed)
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


# Steps _k up to _until of _n under the input {u}, each _h long from _k*_step (step _n ends at
# _t_end if earlier), recording every _every-th state and the first cap crossing (_refine), until
# _until or a breach stops the run; @LAW sets a law's rates at each step start after the first.
_FORWARD_TEMPLATE = """\
def entry(_y, _k, _until, _n, _t_end, _step, _h, _every, _samples, _array, _im, _thr, _max, _br,
          _first, _stop, _u, _pol, _refine, {params}):
    `_y#`, = _y
    while True:
        @STAGES
        @FINITE
        if _z{i} > _im >= _y{i} and _first is None:
            _first = _refine(_k * _step, (`_y#`,), _h, {u})
        `_y#` = `_z#`
        _k += 1
        if _y{i} > _max:
            _max = _y{i}
            _br = _br or _y{i} > _thr
        if _k % _every == 0 or _k == _n:
            _samples.append((min(_k * _step, _t_end), _array((`_y#`,)), {u}))
        if _k == _n or _br and _stop:
            return (`_y#`,), _k, _max, _br, _first, {u}
        @LAW
        if _k == _until:  # {u} is the next step's input
            return (`_y#`,), _k, _max, _br, _first, {u}
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

    Step k starts at t = k*h, as in the oracle's lanes; the last ends at t_end,
    or at n*h where the step count's 1e-12 puts that first.  The policy is one
    of two kinds; any other raises TypeError.  A signal (``starts``/``inputs``)
    is called at the first step start at or past each segment start.  A law (a
    ``law`` :class:`Source` of the field's rates ``b``, then ``g``, and
    ``input``) is inlined: the loop sets those rates to the law's values at
    each step start, and asks the policy's ``input`` for the input of a step
    only to record or return it.  ``first_breach_time`` marks the first time I
    exceeds I_max, even when the excess stays within geom_tol and ``breached``
    is not set: 0.0 for a start above the cap, otherwise the crossing located
    by the integrator's event refiner to event_time_tol.  Integration
    continues to t_end unless stop_on_breach is set.
    """
    starts = getattr(policy, "starts", None)  # a signal's input holds until its next start
    law = getattr(policy, "law", None)  # a Source of the field's rates, inlined in the loop
    if (starts is None) == (law is None):
        raise TypeError(f"{type(policy).__name__} is neither a signal nor a law")
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

    u = policy.u(0.0, x)  # the first step's input too
    samples = [(0.0, np.array(x), u)]
    max_i = x[-1]
    breached = max_i > thr
    first_breach = 0.0 if max_i > im else None

    pol = policy.input if law else None
    k, bound = 0, None
    while k < n_steps:
        t, until = k * step, max(n_steps - 1, k + 1)  # the last step runs alone, clipped
        if starts:  # step 0's input is taken; a law's loop returns the next step's
            u, j = (policy.u(t, x) if k else u), bisect_right(starts, t)
            if j < len(starts):  # up to the next segment's first step, where the lanes switch
                until = bisect_left(range(until), starts[j], k + 1, key=step.__rmul__)
        if u is not bound:  # a signal holds one input object per segment
            bound, src = u, forward_source(scenario, u)
            loop, params = _forward_loop(src, law, len(x))
        x, k, max_i, breached, first_breach, u = loop(
            x, k, until, n_steps, t_end, step, step if until < n_steps else min(step, t_end - t),
            record_every, samples, np.array, im, thr, max_i, breached, first_breach, stop_on_breach,
            u, pol, refine, **params,
        )
        if breached and stop_on_breach:
            break
    return Trajectory(samples, breached, max_i, first_breach)


def _forward_loop(field: Source, law: Source | None, n: int):
    """:data:`_FORWARD_TEMPLATE` on ``field`` and the params it takes.  @LAW inlines ``law``
    into ``field``'s rates, one per output: ``b``, then ``g``; a step's input {u} is the
    policy's ``_pol`` of them.  Without a law, @LAW is empty and {u} is ``_u``."""
    if law is None:
        params, u, block = field.params, "_u", []
    else:
        rates = ["b", "g"][: 1 if isinstance(law.out, str) else len(law.out)]
        params, u = {**field.params, **law.params}, f"_pol({', '.join(rates)})"
        block = _inline(law, _each("_y#", n), rates)
    code = _FORWARD_TEMPLATE.format(params=", ".join(params), i=n - 1, u=u)
    key = ("forward", code, *field[:2], *block)
    return _generated(key, partial(_fill, t="_k * _step", LAW=block), code, n, field), params


def _step_count(t_end: float, h: float) -> int:
    """Steps to ``t_end``, the last clipped to it: a negative ``t_end`` would make it negative."""
    if not 0.0 <= t_end <= T_END_MAX:  # negated, so that NaN fails too
        raise ValueError(f"t_end must lie in [0, {T_END_MAX:g}] days")
    return int(np.ceil(t_end / h - 1e-12))


def switching_law(state, admissible_set: ComputedSet, scenario: Scenario) -> InputVec:
    """Contact rate at ``state`` from a fresh :class:`SwitchingLawPolicy`, the law's only home."""
    return SwitchingLawPolicy(scenario, admissible_set).u(0.0, tuple(map(float, state)))


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

    Perfect SIR: one constant decides each set exactly, beta_min the admissible
    set and beta_max the robust one.  Each conserves :func:`models.first_integral`
    with c = gamma/beta.  With beta_max's c, V never rises, so no signal peaks above
    the constant's :func:`models.breach_bound`; with beta_min's, V never falls, so
    every signal breaches where the constant does (its S falls to c, or else I -> 0
    and V would fall), on an unbounded horizon; the runs stop at ``t_end``.
    Every other set: the 2^channels input-box corner constants,
    then ``n_trials`` seeded bang signals, one per child of ``SeedSequence(seed)``.
    """
    if scenario.variant is Variant.SIR_PERFECT:
        beta = scenario.beta_min if set_kind is SetKind.ADMISSIBLE else scenario.beta_max
        return [ConstantPolicy(scenario, InputVec(beta=beta))]
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

_BOUND_EVERY = 16  # lanes test the breach bound this seldom: it costs more than a step


def _breach_matrix(
    scenario: Scenario,
    points: np.ndarray,
    trials: list[ExtremalBangPolicy],
    t_end: float,
    tol: Tolerances,
) -> np.ndarray:
    """Cap-breach flags of every (point, trial) forward run, shape (n_points, n_trials).

    Each pair is one lane, stepped by :func:`_rk4_stages` on :func:`vector_field`
    with :func:`simulate`'s step count and clock: step k starts at t = k*h,
    reads the trial's input there and is clipped to t_end - k*h.  While more
    than ``_TAIL_LANES`` lanes are live they step together as a tuple of numpy
    arrays; the rest are then finished one by one as float tuples, which gives
    the same floats.  A lane retires once it breaches (I > i_max + geom_tol) or
    once it provably never will:

    - Its :func:`models.breach_bound`, on its trial's least and largest inputs,
      is at most i_max + geom_tol, tested every ``_BOUND_EVERY`` steps (a lane
      retired later steps on under the same bound, so no flag changes).  Over
      500 d at step_h = 1e-2, RK4 kept V within 5.7e-14 of its start under
      the SIR and SEIR corners that conserve it, inside geom_tol = 1e-9.
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
    params = zip(*(breach_params(scenario, tr.inputs) for tr in trials))
    bound = [np.repeat(p, n_pts) for p in params]  # (c, s_lo, e*) per lane
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
            done = hit | (breach_bound(y, *bound) <= thr)
        if k == 0:  # on the invariant axis: y[1] is E in SEIR, I itself in SIR
            done = done | ((y[1] == 0.0) & (y[-1] == 0.0))
        if done.any():
            breached[lanes[hit]] = True
            keep = ~done
            lanes = lanes[keep]
            bound = [a[keep] for a in bound]
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
            k, n_steps, t_end, h, thr, [a[i].item() for a in bound],
        )
    return breached.reshape(n_tr, n_pts).T


def _finish_lane(scenario, y, trial, k, n_steps, t_end, h, thr, bound):
    """Step one oracle lane as a float tuple from step ``k`` until it retires.

    Retires and steps as :func:`_breach_matrix` does.  The input at t = k*h is
    the trial's segment holding t (what its ``u`` returns), looked up again only
    once t passes that segment's end.  Returns whether the lane breached.
    """
    ends, end = trial.starts[1:] + [math.inf], -math.inf
    while True:
        if y[-1] > thr:
            return True
        if k == n_steps or k % _BOUND_EVERY == 0 and breach_bound(y, *bound) <= thr:
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
        return ~breach.any(axis=1), trials, breach
    return ~breach.all(axis=1), trials, breach


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
    inside iff some trial signal preserves the cap.  Perfect SIR: inside iff
    the one constant that decides the set exactly keeps the cap, beta_min for
    ADMISSIBLE and beta_max for MRPI (see :func:`_oracle_trials`).  Every run
    steps at ``tolerances.step_h``.  ``admissible_set`` and ``mrpi_set`` are
    accepted and unused: the benchmark's workloads still pass them.
    """
    tol = tolerances or Tolerances()
    return _oracle(scenario, set_kind, points, n_trials, seed, t_end, tol)[0]


def membership_oracle(
    scenario: Scenario,
    set_kind: SetKind,
    point,
    n_trials: int = 8,
    seed=0,
    *,
    computed_set: ComputedSet | None = None,
    t_end: float = ORACLE_T_END,
    tolerances: Tolerances | None = None,
) -> OracleReport:
    """Single-point oracle check against a claimed membership verdict.

    On disagreement the counterexample is the deciding trial replayed through
    :func:`simulate`, on the lanes' clock: the first trial that breaches when
    the oracle says outside, the first that survives when it says inside.  Its
    label names a seed only for a seeded bang trial; ``n_trials`` counts the trials run.  A
    ``computed_set`` of another kind or scenario is refused with ValueError.
    """
    if computed_set is not None and (computed_set.set_kind, computed_set.scenario) != (set_kind, scenario):
        raise ValueError(f"membership_oracle requires the scenario's {set_kind.value} set")
    tol = tolerances or Tolerances()
    pt = np.asarray(point, dtype=float)
    flags, trials, breach = _oracle(scenario, set_kind, pt[None, :], n_trials, seed, t_end, tol)
    inside = bool(flags[0])
    claimed = None if computed_set is None else membership(computed_set, pt).verdict
    if claimed not in (Verdict.INSIDE, Verdict.OUTSIDE):
        return OracleReport(pt, claimed, len(trials), True)
    agree = (claimed is Verdict.INSIDE) == inside
    counter = None
    if not agree:  # some trial decided the flag, so one matches it
        j = int(np.flatnonzero(breach[0] != inside)[0])
        seeded = f"seed={seed} " if isinstance(trials[j], ExtremalBangPolicy) else ""
        counter = (f"{seeded}trial={j}", simulate(scenario, trials[j], pt, t_end, tol))
    return OracleReport(pt, claimed, len(trials), agree, counter)
