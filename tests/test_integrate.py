import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epibarrier import integrate
from epibarrier.core import Tolerances
from epibarrier.integrate import (
    SIGMA_STALL_STEPS,
    SIGMA_TOL,
    EventKind,
    EventSpec,
    NonFiniteError,
    SingularArcError,
    integrate_until,
    rk4_step,
)


FINE = Tolerances(step_h=1e-3)


def _decay(t, y):
    return tuple(-v for v in y)


def test_rk4_step_accuracy():
    # one step on y' = -y has local error O(h^5)
    y1 = rk4_step(_decay, 0.0, (1.0,), 0.01)
    assert abs(y1[0] - np.exp(-0.01)) < 1e-11


def test_rk4_step_rejects_zero_step():
    with pytest.raises(ValueError):
        rk4_step(_decay, 0.0, (1.0,), 0.0)


def test_rk4_nonfinite():
    with pytest.raises(NonFiniteError):
        rk4_step(lambda t, y: tuple(v * np.inf for v in y), 0.0, (1.0,), 0.1)


def test_horizon_only():
    res = integrate_until(_decay, [], np.array([1.0]), t_limit=2.0, tolerances=FINE)
    assert res.terminal.kind is EventKind.HORIZON
    assert res.t_end == pytest.approx(2.0, abs=1e-9)
    assert res.y_end[0] == pytest.approx(np.exp(-2.0), abs=1e-10)


def test_sign_change_event_refined_to_tolerance():
    # y' = 1, event function y - 1.2345: crossing time known exactly
    ev = EventSpec(EventKind.SIGN_CHANGE, "cross", fn=lambda t, y: y[0] - 1.2345)
    res = integrate_until(
        lambda t, y: (1.0,), [ev], np.array([0.0]), t_limit=5.0, tolerances=FINE
    )
    assert res.terminal is ev
    assert abs(res.t_end - 1.2345) <= 1e-10


def test_threshold_event():
    ev = EventSpec(
        EventKind.DOMAIN_EXIT, "exit", fn=lambda t, y: y[0] - 2.0, trigger_level=1e-9
    )
    res = integrate_until(
        lambda t, y: (1.0,), [ev], np.array([0.0]), t_limit=5.0, tolerances=FINE
    )
    assert res.terminal.label == "exit"
    assert res.y_end[0] == pytest.approx(2.0, abs=1e-6)
    assert res.y_end[0] >= 2.0  # refinement lands just past the crossing


def test_threshold_event_starting_at_trigger_level():
    # the function starts exactly at its trigger level and exceeds it at once,
    # so the event lies at the start of the first step, not at its end
    ev = EventSpec(EventKind.DOMAIN_EXIT, "exit", fn=lambda t, y: y[0], trigger_level=0.0)
    res = integrate_until(
        lambda t, y: (1.0,), [ev], (0.0,), t_limit=5.0, tolerances=Tolerances(step_h=0.1)
    )
    assert res.terminal is ev
    assert res.t_end <= Tolerances().event_time_tol


def test_earliest_event_wins():
    ev_a = EventSpec(EventKind.SIGN_CHANGE, "a", fn=lambda t, y: y[0] - 0.5)
    ev_b = EventSpec(EventKind.SIGN_CHANGE, "b", fn=lambda t, y: y[0] - 0.5004)
    res = integrate_until(
        lambda t, y: (1.0,),
        [ev_b, ev_a],
        np.array([0.0]),
        t_limit=5.0,
        tolerances=FINE,
    )
    assert res.terminal.label == "a"


def test_bit_reproducibility():
    rhs = lambda t, y: (math.sin(y[0]) + 0.3,)
    a = integrate_until(rhs, [], np.array([0.1]), t_limit=4.0, tolerances=FINE)
    b = integrate_until(rhs, [], np.array([0.1]), t_limit=4.0, tolerances=FINE)
    assert a.y_end.tobytes() == b.y_end.tobytes()
    assert a.t.tobytes() == b.t.tobytes()
    assert a.y.tobytes() == b.y.tobytes()


def test_records_cadence():
    res = integrate_until(
        _decay, [], np.array([1.0]), t_limit=0.1, tolerances=FINE, record_every=10
    )
    # start, every 10th of 100 steps, terminal
    assert len(res.t) == len(res.y) == 11
    assert res.t[0] == 0.0
    assert res.t[-1] == pytest.approx(0.1, abs=1e-9)


def test_singular_arc_stall():
    # event function identically zero below SIGMA_TOL
    ev = EventSpec(EventKind.SIGN_CHANGE, "flat", fn=lambda t, y: 0.0)
    with pytest.raises(SingularArcError):
        integrate_until(_decay, [ev], np.array([1.0]), t_limit=1.0, tolerances=FINE)


def test_singular_arc_wins_over_event_in_the_same_step():
    # y' = 1 from 0 at h = 1e-3: the exit at y = 0.0505 first triggers on step
    # 51, the step on which the flat functional's stall passes 50; the exit is
    # refined first (it comes first in the list), yet the stall still raises
    assert SIGMA_STALL_STEPS == 50
    flat = EventSpec(EventKind.SIGN_CHANGE, "flat", fn=lambda t, y: 0.0)

    def run(level):
        exit_ = EventSpec(EventKind.DOMAIN_EXIT, "exit", fn=lambda t, y: y[0] - level)
        return integrate_until(
            lambda t, y: (1.0,), [exit_, flat], (0.0,), t_limit=1.0, tolerances=FINE
        )

    assert run(0.0495).terminal.label == "exit"  # one step earlier: no stall yet
    with pytest.raises(SingularArcError):
        run(0.0505)


def test_post_step_applied():
    # renormalize a rotating unit vector every step
    rhs = lambda t, y: (-y[1] * 3.0, y[0] * 3.0)

    def renorm(y):
        n = math.hypot(*y)
        return tuple(v / n for v in y)

    res = integrate_until(
        rhs, [], np.array([1.0, 0.0]), t_limit=5.0, tolerances=FINE, post_step=renorm
    )
    assert np.linalg.norm(res.y_end) == pytest.approx(1.0, abs=1e-12)


def test_events_not_reevaluated_after_post_step():
    # one evaluation at the start and one per step; refinement adds one per
    # bisection, and the post-step rescaling adds none
    calls = []

    def fn(t, y):
        calls.append(t)
        return y[0] - 0.0105

    ev = EventSpec(EventKind.SIGN_CHANGE, "cross", fn=fn)
    tol = Tolerances()
    res = integrate_until(
        lambda t, y: (1.0, 0.0),
        [ev],
        (0.0, 1.0),
        t_limit=1.0,
        tolerances=FINE,
        post_step=lambda y: (y[0], y[1] * 2.0),
    )
    assert res.terminal is ev
    bisections, width = 0, 1.0
    while width * 1e-3 > tol.event_time_tol:
        width *= 0.5
        bisections += 1
    assert len(calls) == 1 + res.n_steps + bisections

    calls.clear()
    res = integrate_until(
        lambda t, y: (1.0, 0.0),
        [ev],
        (0.0, 1.0),
        t_limit=0.01,
        tolerances=FINE,
        post_step=lambda y: (y[0], y[1] * 2.0),
    )
    assert res.terminal.kind is EventKind.HORIZON
    assert len(calls) == 1 + res.n_steps


def test_every_step_and_midpoint_calls_the_module_rk4_step(monkeypatch):
    # the benchmark's tracer wraps the module-level rk4_step and counts steps
    # and bisection midpoints through it, so neither may be inlined
    calls = []
    step = integrate.rk4_step

    def counting(rhs, t, y, h):
        calls.append(h)
        return step(rhs, t, y, h)

    monkeypatch.setattr(integrate, "rk4_step", counting)
    res = integrate_until(_decay, [], (1.0,), t_limit=0.5, tolerances=FINE)
    assert res.terminal.kind is EventKind.HORIZON
    assert len(calls) == res.n_steps == 500

    calls.clear()
    ev = EventSpec(EventKind.DOMAIN_EXIT, "exit", fn=lambda t, y: y[0] - 0.0103)
    res = integrate_until(lambda t, y: (1.0,), [ev], (0.0,), t_limit=1.0, tolerances=FINE)
    assert res.terminal is ev
    bisections, width = 0, 1.0
    while width * 1e-3 > Tolerances().event_time_tol:
        width *= 0.5
        bisections += 1
    assert len(calls) == res.n_steps + bisections
    assert all(abs(h) < 1e-3 for h in calls[res.n_steps :])


def _integrate_per_event(rhs, events, y0, t0, tol, t_limit, record_every):
    """The step loop without the event screen: on every step each event is
    decided by ``_triggered``, refined if it triggered, and then its stall
    is counted."""
    step, limit = tol.step_h, t_limit
    y = tuple(np.asarray(y0, dtype=float).tolist())
    t = t0
    is_sign = [e.kind is EventKind.SIGN_CHANGE for e in events]
    f_prev = [e.fn(t, y) for e in events]
    stall = [0] * len(events)
    ts, ys = [t], [y]
    n_steps = 0
    while True:
        remaining = limit - (t - t0)
        if remaining <= tol.event_time_tol:
            return integrate._result(ts, ys, integrate._HORIZON, t, y, n_steps)
        h_cur = step if step <= remaining else remaining
        y_new = rk4_step(rhs, t, y, h_cur)
        t_new = t + h_cur
        f_new = [e.fn(t_new, y_new) for e in events]
        hit = None
        for i, ev in enumerate(events):
            if integrate._triggered(ev, f_prev[i], f_new[i]):
                frac, y_ev = integrate._refine_fraction(
                    rhs, ev, t, y, h_cur, f_prev[i], tol.event_time_tol
                )
                if hit is None or frac < hit[0]:
                    hit = (frac, ev, y_ev)
            if is_sign[i]:
                stall[i] = stall[i] + 1 if abs(f_new[i]) < SIGMA_TOL else 0
                if stall[i] > SIGMA_STALL_STEPS:
                    raise SingularArcError(
                        f"functional '{ev.label}' stayed below {SIGMA_TOL} "
                        f"for {stall[i]} consecutive steps"
                    )
        if hit is not None:
            frac, ev, y_ev = hit
            return integrate._result(ts, ys, ev, t + frac * h_cur, y_ev, n_steps + 1)
        t, y, f_prev = t_new, y_new, f_new
        n_steps += 1
        if n_steps % record_every == 0:
            ts.append(t)
            ys.append(y)


# An event is (kind, shape, component, x, level) on y' = velocity from y = 0:
# "cross" is y[k] - x, crossed x / (v*h) steps in; "flat" is the constant x
# (0.0 and 1e-13 stall a sign event, NaN screens false); "nan_after" is y[k]
# until |t| > x and NaN after.  A level of None puts the trigger level at the
# event's start value.
_KINDS = {"sign": EventKind.SIGN_CHANGE, "exit": EventKind.DOMAIN_EXIT}


def _event(i, kind, shape, k, x, level):
    if shape == "cross":
        fn = lambda t, y: y[k] - x
    elif shape == "flat":
        fn = lambda t, y: x
    else:
        fn = lambda t, y: math.nan if abs(t) > x else y[k]
    if level is None:
        level = fn(0.0, (0.0, 0.0))
    return EventSpec(_KINDS[kind], f"{kind}{i}", fn, trigger_level=level)


@st.composite
def _screen_case(draw):
    v = (draw(st.sampled_from([1.0, -1.0, 0.5, 2.0])), draw(st.sampled_from([1.0, -0.5, 3.0])))
    h = draw(st.sampled_from([1e-2, 2e-2]))
    specs = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(sorted(_KINDS)))
        shape = draw(st.sampled_from(["cross", "cross", "flat", "nan_after"]))
        k = draw(st.integers(0, 1))
        if shape == "cross":  # crossed inside step m + 1, or on its node
            x = v[k] * h * (draw(st.integers(0, 70)) + draw(st.sampled_from([0.0, 0.5, 1e-6])))
        elif shape == "flat":
            x = draw(st.sampled_from([0.0, 1e-13, -1e-13, 1.0, math.nan]))
        else:
            x = draw(st.sampled_from([0.0, 0.25, 0.6]))
        level = None if kind == "sign" else draw(st.sampled_from([0.0, 1e-9, -1e-3, None]))
        specs.append((kind, shape, k, x, level))
    return v, h, draw(st.sampled_from([1, 3, 10])), specs


@settings(max_examples=300, deadline=None)
@given(_screen_case())
# a threshold event that starts at its level and rises at once
@example(((1.0, 1.0), 1e-2, 10, [("exit", "cross", 0, 0.0, None)]))
# two events triggered in one step: the earlier fraction wins, then list order
@example(((1.0, 1.0), 1e-2, 3, [("sign", "cross", 0, 0.125, None), ("exit", "cross", 1, 0.123, 0.0),
                                ("exit", "cross", 1, 0.123, 0.0)]))
# a NaN event value
@example(((1.0, 1.0), 1e-2, 1, [("exit", "flat", 0, math.nan, 0.0), ("sign", "nan_after", 0, 0.25, None),
                                ("exit", "cross", 0, 0.305, 0.0)]))
# a stall and a trigger on the same step (step 51)
@example(((1.0, 1.0), 1e-2, 10, [("exit", "cross", 0, 0.505, 0.0), ("sign", "flat", 0, 0.0, None)]))
def test_event_screen_matches_per_event_reference(case):
    v, h, record_every, specs = case
    rhs = lambda t, y: v
    tol = Tolerances(step_h=h)

    def run(integrator, events):
        try:
            return integrator(rhs, events, (0.0, 0.0), 0.0, tol, 0.8, record_every)
        except SingularArcError as err:
            return str(err)

    events = [_event(i, *spec) for i, spec in enumerate(specs)]
    want = run(_integrate_per_event, events)
    got = run(
        lambda rhs, ev, y0, t0, tol, lim, rec: integrate_until(
            rhs, ev, y0, t0, tol, t_limit=lim, record_every=rec
        ),
        events,
    )
    if isinstance(want, str):
        assert got == want
        return
    assert got.terminal is want.terminal
    assert (got.t_end, got.n_steps) == (want.t_end, want.n_steps)
    assert got.t.tobytes() == want.t.tobytes()
    assert got.y.tobytes() == want.y.tobytes()
    assert got.y_end.tobytes() == want.y_end.tobytes()
