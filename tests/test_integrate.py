import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epibarrier import SetKind, assemble_set, barrier, integrate, validate_scenario
from epibarrier.core import Tolerances
from epibarrier.integrate import (
    SIGMA_STALL_STEPS,
    SIGMA_TOL,
    EventKind,
    EventSpec,
    NonFiniteError,
    SingularArcError,
    Source,
    integrate_until,
    rk4_step,
    source_function,
)

from conftest import (
    SEIR_IMPERFECT_RAW,
    SEIR_PERFECT_RAW,
    SIR_IMPERFECT_RAW,
    SIR_PERFECT_RAW,
)


FINE = Tolerances(step_h=1e-3)
DECAY = Source(("-y[0]",))
ONE = Source(("1.0",))


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
    res = integrate_until(DECAY, [], np.array([1.0]), t_limit=2.0, tolerances=FINE)
    assert res.terminal.kind is EventKind.HORIZON
    assert res.t_end == pytest.approx(2.0, abs=1e-9)
    assert res.y_end[0] == pytest.approx(np.exp(-2.0), abs=1e-10)


def test_sign_change_event_refined_to_tolerance():
    # y' = 1, event function y - 1.2345: crossing time known exactly
    ev = EventSpec(EventKind.SIGN_CHANGE, "cross", fn=Source("y[0] - 1.2345"))
    res = integrate_until(ONE, [ev], np.array([0.0]), t_limit=5.0, tolerances=FINE)
    assert res.terminal is ev
    assert abs(res.t_end - 1.2345) <= 1e-10


def test_threshold_event():
    ev = EventSpec(EventKind.DOMAIN_EXIT, "exit", fn=Source("y[0] - 2.0"), trigger_level=1e-9)
    res = integrate_until(ONE, [ev], np.array([0.0]), t_limit=5.0, tolerances=FINE)
    assert res.terminal.label == "exit"
    assert res.y_end[0] == pytest.approx(2.0, abs=1e-6)
    assert res.y_end[0] >= 2.0  # refinement lands just past the crossing


def test_threshold_event_starting_at_trigger_level():
    # the function starts exactly at its trigger level and exceeds it at once,
    # so the event lies at the start of the first step, not at its end
    ev = EventSpec(EventKind.DOMAIN_EXIT, "exit", fn=Source("y[0]"), trigger_level=0.0)
    res = integrate_until(ONE, [ev], (0.0,), t_limit=5.0, tolerances=Tolerances(step_h=0.1))
    assert res.terminal is ev
    assert res.t_end <= Tolerances().event_time_tol


def test_earliest_event_wins():
    ev_a = EventSpec(EventKind.SIGN_CHANGE, "a", fn=Source("y[0] - 0.5"))
    ev_b = EventSpec(EventKind.SIGN_CHANGE, "b", fn=Source("y[0] - 0.5004"))
    res = integrate_until(ONE, [ev_b, ev_a], np.array([0.0]), t_limit=5.0, tolerances=FINE)
    assert res.terminal.label == "a"


def test_bit_reproducibility():
    rhs = Source(("sin(y[0]) + 0.3",), params={"sin": math.sin})
    a = integrate_until(rhs, [], np.array([0.1]), t_limit=4.0, tolerances=FINE)
    b = integrate_until(rhs, [], np.array([0.1]), t_limit=4.0, tolerances=FINE)
    assert a.y_end.tobytes() == b.y_end.tobytes()
    assert a.t.tobytes() == b.t.tobytes()
    assert a.y.tobytes() == b.y.tobytes()


def test_records_cadence():
    res = integrate_until(
        DECAY, [], np.array([1.0]), t_limit=0.1, tolerances=FINE, record_every=10
    )
    # start, every 10th of 100 steps, terminal
    assert len(res.t) == len(res.y) == 11
    assert res.t[0] == 0.0
    assert res.t[-1] == pytest.approx(0.1, abs=1e-9)


def test_singular_arc_stall():
    # event function identically zero below SIGMA_TOL
    ev = EventSpec(EventKind.SIGN_CHANGE, "flat", fn=Source("0.0"))
    with pytest.raises(SingularArcError):
        integrate_until(DECAY, [ev], np.array([1.0]), t_limit=1.0, tolerances=FINE)


def test_singular_arc_wins_over_event_in_the_same_step():
    # y' = 1 from 0 at h = 1e-3: the exit at y = 0.0505 first triggers on step
    # 51, the step on which the flat functional's stall passes 50; the exit is
    # refined first (it comes first in the list), yet the stall still raises
    assert SIGMA_STALL_STEPS == 50
    flat = EventSpec(EventKind.SIGN_CHANGE, "flat", fn=Source("0.0"))

    def run(level):
        exit_ = EventSpec(EventKind.DOMAIN_EXIT, "exit", Source("y[0] - x", params={"x": level}))
        return integrate_until(ONE, [exit_, flat], (0.0,), t_limit=1.0, tolerances=FINE)

    assert run(0.0495).terminal.label == "exit"  # one step earlier: no stall yet
    with pytest.raises(SingularArcError):
        run(0.0505)


def test_post_step_applied():
    # renormalize a rotating unit vector every step
    rhs = Source(("-y[1] * 3.0", "y[0] * 3.0"))
    renorm = Source(("y[0] / n", "y[1] / n"), "n = hypot(y[0], y[1])", {"hypot": math.hypot})
    res = integrate_until(
        rhs, [], np.array([1.0, 0.0]), t_limit=5.0, tolerances=FINE, post_step=renorm
    )
    assert np.linalg.norm(res.y_end) == pytest.approx(1.0, abs=1e-12)


def test_one_parameter_name_has_one_value():
    # the sources of one integration share one namespace: y' = k y with k = 1
    # must not step as y' = 2 y because the exit event binds k = 2
    rhs = Source(("k * y[0]",), params={"k": 1.0})
    exit_ = EventSpec(EventKind.DOMAIN_EXIT, "exit", Source("y[0] - k", params={"k": 2.0}))
    with pytest.raises(ValueError, match="parameter 'k'"):
        integrate_until(rhs, [exit_], (1.0,), t_limit=2.0, tolerances=FINE)
    # two equal arrays are two values as well
    buf = Source(("y[0] * b[0]",), params={"b": np.ones(1)})
    other = buf._replace(params={"b": np.ones(1)})
    with pytest.raises(ValueError, match="parameter 'b'"):
        integrate_until(buf, [], (1.0,), t_limit=1.0, post_step=other)
    # one object, or equal numbers, under one name is one value
    doubled = EventSpec(EventKind.DOMAIN_EXIT, "exit", Source("y[0] - 2.0 * k", params={"k": 1}))
    res = integrate_until(rhs, [doubled], (1.0,), t_limit=2.0, tolerances=FINE)
    assert res.terminal is doubled
    assert res.t_end == pytest.approx(math.log(2.0), abs=1e-9)
    res = integrate_until(buf, [], (1.0,), t_limit=0.01, tolerances=FINE, post_step=buf)
    assert res.n_steps == 10


def test_events_not_reevaluated_after_post_step():
    # one evaluation at the start and one per step; refinement adds one per
    # bisection, and the post-step rescaling adds none
    calls = []
    seen = Source("seen(y[0]) - 0.0105", params={"seen": _recorder(calls)})
    ev = EventSpec(EventKind.SIGN_CHANGE, "cross", seen)
    rhs, double = Source(("1.0", "0.0")), Source(("y[0]", "y[1] * 2.0"))
    tol = Tolerances()
    res = integrate_until(rhs, [ev], (0.0, 1.0), t_limit=1.0, tolerances=FINE, post_step=double)
    assert res.terminal is ev
    bisections, width = 0, 1.0
    while width * 1e-3 > tol.event_time_tol:
        width *= 0.5
        bisections += 1
    assert len(calls) == 1 + res.n_steps + bisections

    calls.clear()
    res = integrate_until(rhs, [ev], (0.0, 1.0), t_limit=0.01, tolerances=FINE, post_step=double)
    assert res.terminal.kind is EventKind.HORIZON
    assert len(calls) == 1 + res.n_steps


def _recorder(calls, value=None):
    """A function that records its argument and returns ``value``, or the argument if None."""

    def seen(v):
        calls.append(v)
        return v if value is None else value

    return seen


@pytest.mark.parametrize("level", [None, 0.0103, 0.01])
def test_generated_loop_steps_and_bisections_match_the_reference(level):
    # the same steps, the same bisection midpoints (one event evaluation
    # each) and the same four right-hand-side evaluations per step and
    # midpoint as the per-event reference below, each recording the state
    # it reads; level 0.01 lands on a step node
    runs = []
    for integrator in (_integrate_per_event, integrate_until):
        rhs_calls, fn_calls = [], []
        rhs = Source(("rc(y[0])", "-y[1]"), params={"rc": _recorder(rhs_calls, 1.0)})
        events = []
        if level is not None:
            fn = Source("fc(y[0]) - lvl", params={"fc": _recorder(fn_calls), "lvl": level})
            events = [EventSpec(EventKind.DOMAIN_EXIT, "exit", fn)]
        res = integrator(rhs, events, (0.0, 1.0), tolerances=FINE, t_limit=0.5)
        runs.append((res.n_steps, rhs_calls, fn_calls, res.t_end, res.y_end.tobytes()))
    (n_steps, rhs_calls, fn_calls, _, _), generated = runs
    assert generated == runs[0]
    bisections, width = 0, 1.0
    while level is not None and width * 1e-3 > Tolerances().event_time_tol:
        width *= 0.5
        bisections += 1
    assert n_steps == {None: 500, 0.0103: 11, 0.01: 10}[level]
    assert len(fn_calls) == (0 if level is None else 1 + n_steps + bisections)
    assert len(rhs_calls) in (4 * (n_steps + bisections), 4 * (n_steps + bisections + 1))


def _integrate_per_event(rhs, events, y0, t0=0.0, tolerances=None, *, t_limit=None,
                         record_every=10, post_step=None):
    """The step loop without the event screen, written by hand on the sources
    compiled as functions, with integrate_until's signature: on every step
    each event is decided by ``_triggered``, refined if it triggered, and then
    its stall is counted."""
    tol = tolerances or Tolerances()
    step = tol.step_h
    limit = t_limit if t_limit is not None else tol.t_back_max
    f, fns = source_function(rhs), [source_function(e.fn) for e in events]
    post = source_function(post_step) if post_step else (lambda tt, yy: yy)
    y = tuple(np.asarray(y0, dtype=float).tolist())
    t = t0
    is_sign = [e.kind is EventKind.SIGN_CHANGE for e in events]
    f_prev = [fn(t, y) for fn in fns]
    stall = [0] * len(events)
    ts, ys = [t], [y]
    n_steps = 0
    while True:
        remaining = limit - (t - t0)
        if remaining <= tol.event_time_tol:
            return integrate._result(ts, ys, integrate._HORIZON, t, y, n_steps)
        h_cur = step if step <= remaining else remaining
        y_new = rk4_step(f, t, y, h_cur)
        t_new = t + h_cur
        f_new = [fn(t_new, y_new) for fn in fns]
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
            t_ev = t + frac * h_cur
            return integrate._result(ts, ys, ev, t_ev, post(t_ev, y_ev), n_steps + 1)
        t, y, f_prev = t_new, post(t_new, y_new), f_new
        n_steps += 1
        if n_steps % record_every == 0:
            ts.append(t)
            ys.append(y)


# An event is (kind, shape, component, x, level) on y' = velocity from y = 0:
# "cross" is y[k] - x, crossed x / (v*h) steps in; "flat" is the constant x
# (0.0 and 1e-13 stall a sign event, NaN screens false); "nan_after" is y[k]
# until |y[0]| > x and NaN after.  A level of None puts the trigger level at
# the event's start value.  Event i binds its values as x{i} and nan{i}.
_KINDS = {"sign": EventKind.SIGN_CHANGE, "exit": EventKind.DOMAIN_EXIT}


def _event(i, kind, shape, k, x, level):
    nan_after = f"nan{i} if abs(y[0]) > x{i} else y[{k}]"
    code = {"cross": f"y[{k}] - x{i}", "flat": f"x{i}", "nan_after": nan_after}[shape]
    src = Source(code, params={f"x{i}": x, f"nan{i}": math.nan})
    if level is None:
        level = source_function(src)(0.0, (0.0, 0.0))
    return EventSpec(_KINDS[kind], f"{kind}{i}", src, trigger_level=level)


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
    rhs = Source(("v0", "v1"), params={"v0": v[0], "v1": v[1]})
    tol = Tolerances(step_h=h)

    def run(integrator, events):
        try:
            kw = {"tolerances": tol, "t_limit": 0.8, "record_every": record_every}
            return integrator(rhs, events, (0.0, 0.0), **kw)
        except SingularArcError as err:
            return str(err)

    events = [_event(i, *spec) for i, spec in enumerate(specs)]
    want = run(_integrate_per_event, events)
    got = run(integrate_until, events)
    if isinstance(want, str):
        assert got == want
        return
    assert got.terminal is want.terminal
    assert (got.t_end, got.n_steps) == (want.t_end, want.n_steps)
    assert got.t.tobytes() == want.t.tobytes()
    assert got.y.tobytes() == want.y.tobytes()
    assert got.y_end.tobytes() == want.y_end.tobytes()


WORKED_EXAMPLES = [
    "adm_sir", "mrpi_sir", "adm_sir15", "mrpi_sir15", "mrpi_sir_imp",
    "adm_seir", "mrpi_seir", "mrpi_seir40", "mrpi_seir_imp",
]


@pytest.mark.parametrize("name", [*WORKED_EXAMPLES, "adm_sir_horizon"])
def test_generated_tracer_matches_the_per_event_reference(request, monkeypatch, name):
    # every curve of every worked-example set, traced by the generated loop
    # and by the hand-written per-event loop on the same sources as functions:
    # the same segments (steps, end, terminal) and the same bits
    if name == "adm_sir_horizon":  # a cap below the boundary layer: cut at the horizon
        cset = assemble_set(validate_scenario(dict(SIR_PERFECT_RAW, i_max=1e-4)), SetKind.ADMISSIBLE)
    else:
        cset = request.getfixturevalue(name)
    runs = []
    for integrator in (integrate_until, _integrate_per_event):
        segments = []

        def traced(*args, **kwargs):
            res = integrator(*args, **kwargs)
            segments.append((res.n_steps, res.t_end, res.terminal.label))
            return res

        monkeypatch.setattr(barrier, "integrate_until", traced)
        curves = [
            barrier.compute_barrier_curve(cset.scenario, cset.set_kind, c.tangent_point, cset.tolerances)
            for c in cset.curves
        ]
        runs.append((segments, curves))
    (got_segments, got), (want_segments, want) = runs
    assert got_segments == want_segments
    for g, w, assembled in zip(got, want, cset.curves):
        for curve in (w, assembled):
            assert g.tau.tobytes() == curve.tau.tobytes()
            assert g.samples.tobytes() == curve.samples.tobytes()
            assert g.is_switch.tobytes() == curve.is_switch.tobytes()
            assert g.inputs == curve.inputs and g.switch_times == curve.switch_times
            assert (g.termination.label, g.truncated) == (curve.termination.label, curve.truncated)
    if name == "mrpi_seir_imp":
        assert sum(bool(c.switch_times) for c in got) == 14  # 14 of 30 curves switch eta
    if name == "adm_sir_horizon":
        assert got[0].termination.label == "horizon" and got[0].tau[-1] == 1000.0


def test_error_exits_of_the_generated_loop():
    # the stall and the non-finite state raise with the per-event reference's messages
    flat = EventSpec(EventKind.SIGN_CHANGE, "flat", Source("0.0 * y[0]"))
    stall = f"functional 'flat' stayed below {SIGMA_TOL} for {SIGMA_STALL_STEPS + 1} consecutive steps"
    with pytest.raises(SingularArcError, match=re.escape(stall)):
        integrate_until(ONE, [flat], (0.0,), tolerances=FINE, t_limit=1.0)

    # the exit first triggers on step 51, where the stall passes 50: the stall wins
    for level, wins in ((0.0495, "exit"), (0.0505, None)):
        exit_ = EventSpec(EventKind.DOMAIN_EXIT, "exit", Source("y[0] - x", params={"x": level}))
        for integrator in (_integrate_per_event, integrate_until):
            if wins is None:
                with pytest.raises(SingularArcError, match=re.escape(stall)):
                    integrator(ONE, [exit_, flat], (0.0,), 0.0, FINE, t_limit=1.0)
            else:
                res = integrator(ONE, [exit_, flat], (0.0,), 0.0, FINE, t_limit=1.0)
                assert res.terminal is exit_ and res.n_steps == 50

    # y' = 1000 y overflows on step 705, y' = 1e300 y on the first
    for factor, at in (("1000.0", "0.7040000000000005"), ("1e300", "0.0")):
        messages = []
        for integrator in (_integrate_per_event, integrate_until):
            with pytest.raises(NonFiniteError) as err:
                integrator(Source((f"y[0] * {factor}",)), [], (1.0,), 0.0, FINE, t_limit=2.0)
            messages.append(str(err.value))
        assert messages == [f"non-finite state after step at t={at}"] * 2


def _scenarios(rng, count):
    # worked-example scenarios of all four variants, every number scaled by 0.97-1.03
    raws = [SIR_PERFECT_RAW, SIR_IMPERFECT_RAW, SEIR_PERFECT_RAW, SEIR_IMPERFECT_RAW]
    for k in range(count):
        raw = raws[k % 4]
        scale = lambda v: [scale(w) for w in v] if isinstance(v, list) else v * rng.uniform(0.97, 1.03)
        yield validate_scenario({key: v if key == "variant" else scale(v) for key, v in raw.items()})


def test_generated_code_is_cached_once_per_structure(monkeypatch):
    # 20 scenarios, then 20 more: one generated segment loop per variant (its
    # width, rate form and events; A and M share one), and nothing per scenario
    monkeypatch.setattr(integrate, "_STAGES", {})
    sizes = []
    for seed in (11, 12):
        for sc in _scenarios(np.random.default_rng(seed), 20):
            kinds = [SetKind.ADMISSIBLE, SetKind.MRPI] if sc.variant.is_perfect else [SetKind.MRPI]
            for kind in kinds:
                assert assemble_set(sc, kind, n_curves=2).curves
        sizes.append(len(integrate._STAGES))
    segments = [key for key in integrate._STAGES if isinstance(key, tuple) and key[0] == "segment"]
    assert len(segments) == 4
    assert sizes[0] == sizes[1]
