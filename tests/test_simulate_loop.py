"""``simulate``'s generated step loop against the per-step loop it replaced.

The reference below is that loop as it was: the policy called at every step
start, ``models.vector_field`` built whenever the policy returns a new input
object, one ``rk4_step`` per step and the cap crossing refined on that
field's source.  The run ends after the step count's last step, or earlier
once the accumulated time reaches ``t_end``.  The generated loop must
reproduce its whole ``Trajectory`` bit for bit, or raise the same error.
"""
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from epibarrier.core import Tolerances
from epibarrier.integrate import EventKind, EventSpec, Source, _refine_fraction, rk4_step
from epibarrier.models import InputVec, forward_source, input_box, vector_field
from epibarrier.policy_sim import (
    AffineFeedbackPolicy,
    ConstantPolicy,
    ExtremalBangPolicy,
    SwitchingLawPolicy,
    Trajectory,
    simulate,
)


def _simulate_ref(scenario, policy, x0, t_end, tol, *, record_every, stop_on_breach):
    n_steps = int(np.ceil(t_end / tol.step_h - 1e-12))
    step = tol.step_h
    x = tuple(np.asarray(x0, dtype=float).tolist())
    im = scenario.i_max
    thr = im + tol.geom_tol
    cap = EventSpec(EventKind.DOMAIN_EXIT, "cap_face", Source(f"y[{len(x) - 1}]"), trigger_level=im)
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
        if u is not u_rhs:
            u_rhs = u
            rhs = vector_field(scenario, u)
        x_new = rk4_step(rhs, t, x, hk)
        i_old, i_new = x[-1], x_new[-1]
        if first_breach is None and i_new > im >= i_old:
            src = forward_source(scenario, u)
            frac, _ = _refine_fraction(src, cap, t, x, hk, i_old, tol.event_time_tol)
            first_breach = t + frac * hk
        t, x = t + hk, x_new
        last = k == n_steps - 1 or t >= t_end
        if i_new > max_i:
            max_i = i_new
            breached = breached or i_new > thr
        if (k + 1) % record_every == 0 or last:
            samples.append((t, np.array(x), u))
        if last or breached and stop_on_breach:
            break
    return Trajectory(samples, breached, max_i, first_breach)


def _bits(v):
    return None if v is None else struct.pack("<d", v)


def _outcome(run):
    """Every bit of the trajectory ``run()`` returns, or the type and message of its error."""
    try:
        tr = run()
    except Exception as exc:  # both loops must fail alike
        return type(exc), str(exc)
    samples = [
        (_bits(t), x.dtype, x.tobytes(), _bits(u.beta), _bits(u.gamma), _bits(u.eta))
        for t, x, u in tr.samples
    ]
    return samples, tr.breached, _bits(tr.max_I), _bits(tr.first_breach_time)


_KINDS = ["constant", "bang", "affine", "switching"]
_VARIANTS = ["sc_sir", "sc_sir_imp", "sc_seir", "sc_seir_imp"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_generated_loop_matches_the_per_step_loop(
    data, sc_sir, sc_sir_imp, sc_seir, sc_seir_imp, adm_sir, mrpi_sir
):
    scenarios = dict(zip(_VARIANTS, (sc_sir, sc_sir_imp, sc_seir, sc_seir_imp)))
    kind = data.draw(st.sampled_from(_KINDS), "policy")
    name = "sc_sir" if kind == "switching" else data.draw(st.sampled_from(_VARIANTS), "variant")
    sc = scenarios[name]
    u = InputVec(**{
        ch.value: data.draw(st.sampled_from([lo, hi]) | st.floats(lo, hi), ch.value)
        for ch, (lo, hi) in input_box(sc).items()
    })
    seed = data.draw(st.integers(0, 2**16), "seed")
    t_sched = data.draw(st.floats(1.0, 40.0), "bang horizon")

    def policy():  # a fresh one per run: the switching law caches its last decision
        if kind == "constant":
            return ConstantPolicy(sc, u)
        if kind == "bang":
            return ExtremalBangPolicy(sc, seed, t_sched)
        if kind == "affine":
            return AffineFeedbackPolicy(sc, None if sc.variant.is_perfect else u)
        return SwitchingLawPolicy(sc, adm_sir, mrpi_sir)

    # below the cap, just below it with many susceptibles (so that most runs
    # cross it), above it, or so large that the state overflows
    start = data.draw(st.sampled_from(["below", "near", "above", "overflow"]), "start")
    low, i_lo, i_hi = {"below": (0.0, 0.0, 1.0), "near": (0.7, 0.9, 1.0), "above": (0.0, 1.0, 3.0)}.get(
        start, (0.0, 0.0, 0.0)
    )
    x0 = [data.draw(st.floats(low, 0.9)) for _ in range(sc.dim - 1)]
    x0.append(data.draw(st.floats(i_lo * sc.i_max, i_hi * sc.i_max)))
    if start == "overflow":
        x0 = [data.draw(st.floats(1e40, 1e120)) for _ in range(sc.dim)]
    # no step, one step, whole numbers of steps, and horizons that clip the last step
    t_end = data.draw(
        st.sampled_from([0.0, 0.004, 0.05]) | st.integers(1, 30).map(float) | st.floats(1.0, 30.0),
        "t_end",
    )
    tol = Tolerances(step_h=data.draw(st.sampled_from([1e-2, 5e-2]), "step_h"))
    kw = {
        "record_every": data.draw(st.sampled_from([1, 3, 7]), "record_every"),
        "stop_on_breach": data.draw(st.booleans(), "stop_on_breach"),
    }
    want = _outcome(lambda: _simulate_ref(sc, policy(), x0, t_end, tol, **kw))
    got = _outcome(lambda: simulate(sc, policy(), x0, t_end, tol, **kw))
    assert got == want


def test_run_ends_where_the_accumulated_time_reaches_t_end(sc_sir):
    # 1,798 steps of 0.01 add up to this t_end, one step before the step
    # count's last: both loops end there, with its last sample
    t_end = 17.98000000000001
    tol = Tolerances()
    policy = ConstantPolicy(sc_sir, InputVec(beta=0.7))
    kw = {"record_every": 10, "stop_on_breach": False}
    want = _outcome(lambda: _simulate_ref(sc_sir, policy, [0.8, 0.001], t_end, tol, **kw))
    assert _outcome(lambda: simulate(sc_sir, policy, [0.8, 0.001], t_end, tol, **kw)) == want
    tr = simulate(sc_sir, policy, [0.8, 0.001], t_end, tol)
    assert len(tr.samples) == 181  # the start, every 10th of 1,798 steps and the end
    assert [t for t, _, _ in tr.samples[-2:]] == [17.9, t_end]
