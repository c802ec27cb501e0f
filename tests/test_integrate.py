import math

import numpy as np
import pytest

from epibarrier import integrate
from epibarrier.core import Tolerances
from epibarrier.integrate import (
    SIGMA_STALL_STEPS,
    EventKind,
    EventSpec,
    NonFiniteError,
    SingularArcError,
    integrate_until,
    rk4_step,
)


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
    res = integrate_until(_decay, [], np.array([1.0]), t_limit=2.0, h=1e-3)
    assert res.terminal.kind is EventKind.HORIZON
    assert res.t_end == pytest.approx(2.0, abs=1e-9)
    assert res.y_end[0] == pytest.approx(np.exp(-2.0), abs=1e-10)


def test_sign_change_event_refined_to_tolerance():
    # y' = 1, event function y - 1.2345: crossing time known exactly
    ev = EventSpec(EventKind.SIGN_CHANGE, "cross", fn=lambda t, y: y[0] - 1.2345)
    res = integrate_until(
        lambda t, y: (1.0,), [ev], np.array([0.0]), t_limit=5.0, h=1e-3
    )
    assert res.terminal is ev
    assert abs(res.t_end - 1.2345) <= 1e-10


def test_threshold_event():
    ev = EventSpec(
        EventKind.DOMAIN_EXIT, "exit", fn=lambda t, y: y[0] - 2.0, trigger_level=1e-9
    )
    res = integrate_until(
        lambda t, y: (1.0,), [ev], np.array([0.0]), t_limit=5.0, h=1e-3
    )
    assert res.terminal.label == "exit"
    assert res.y_end[0] == pytest.approx(2.0, abs=1e-6)
    assert res.y_end[0] >= 2.0  # refinement lands just past the crossing


def test_threshold_event_starting_at_trigger_level():
    # the function starts exactly at its trigger level and exceeds it at once,
    # so the event lies at the start of the first step, not at its end
    ev = EventSpec(EventKind.DOMAIN_EXIT, "exit", fn=lambda t, y: y[0], trigger_level=0.0)
    res = integrate_until(lambda t, y: (1.0,), [ev], (0.0,), t_limit=5.0, h=0.1)
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
        h=1e-3,
    )
    assert res.terminal.label == "a"


def test_backward_direction_reversibility():
    # integrate the logistic-like field forward then back; endpoint returns
    rhs = lambda t, y: (y[0] * (1.0 - y[0]),)
    fwd = integrate_until(rhs, [], np.array([0.2]), t_limit=3.0, h=1e-3)
    back = integrate_until(
        rhs, [], fwd.y_end, t0=fwd.t_end, t_limit=3.0, h=-1e-3
    )
    assert abs(back.y_end[0] - 0.2) < 1e-8


def test_bit_reproducibility():
    rhs = lambda t, y: (math.sin(y[0]) + 0.3,)
    a = integrate_until(rhs, [], np.array([0.1]), t_limit=4.0, h=1e-3)
    b = integrate_until(rhs, [], np.array([0.1]), t_limit=4.0, h=1e-3)
    assert a.y_end.tobytes() == b.y_end.tobytes()
    assert a.t.tobytes() == b.t.tobytes()
    assert a.y.tobytes() == b.y.tobytes()


def test_records_cadence():
    res = integrate_until(
        _decay, [], np.array([1.0]), t_limit=0.1, h=1e-3, record_every=10
    )
    # start, every 10th of 100 steps, terminal
    assert len(res.t) == len(res.y) == 11
    assert res.t[0] == 0.0
    assert res.t[-1] == pytest.approx(0.1, abs=1e-9)


def test_singular_arc_stall():
    # event function identically zero below SIGMA_TOL
    ev = EventSpec(EventKind.SIGN_CHANGE, "flat", fn=lambda t, y: 0.0)
    with pytest.raises(SingularArcError):
        integrate_until(_decay, [ev], np.array([1.0]), t_limit=1.0, h=1e-3)


def test_singular_arc_wins_over_event_in_the_same_step():
    # y' = 1 from 0 at h = 1e-3: the exit at y = 0.0505 first triggers on step
    # 51, the step on which the flat functional's stall passes 50; the exit is
    # refined first (it comes first in the list), yet the stall still raises
    assert SIGMA_STALL_STEPS == 50
    flat = EventSpec(EventKind.SIGN_CHANGE, "flat", fn=lambda t, y: 0.0)

    def run(level):
        exit_ = EventSpec(EventKind.DOMAIN_EXIT, "exit", fn=lambda t, y: y[0] - level)
        return integrate_until(lambda t, y: (1.0,), [exit_, flat], (0.0,), t_limit=1.0, h=1e-3)

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
        rhs, [], np.array([1.0, 0.0]), t_limit=5.0, h=1e-3, post_step=renorm
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
        h=1e-3,
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
        h=1e-3,
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
    res = integrate_until(_decay, [], (1.0,), t_limit=0.5, h=1e-3)
    assert res.terminal.kind is EventKind.HORIZON
    assert len(calls) == res.n_steps == 500

    calls.clear()
    ev = EventSpec(EventKind.DOMAIN_EXIT, "exit", fn=lambda t, y: y[0] - 0.0103)
    res = integrate_until(lambda t, y: (1.0,), [ev], (0.0,), t_limit=1.0, h=1e-3)
    assert res.terminal is ev
    bisections, width = 0, 1.0
    while width * 1e-3 > Tolerances().event_time_tol:
        width *= 0.5
        bisections += 1
    assert len(calls) == res.n_steps + bisections
    assert all(abs(h) < 1e-3 for h in calls[res.n_steps :])
