"""``simulate``'s generated step loop against the per-step loop it replaced.

The reference is that loop as it was, :func:`conftest.simulate_ref`.  The
generated loop must reproduce its whole ``Trajectory`` bit for bit, or raise
the same error.
"""
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from epibarrier.core import Tolerances
from epibarrier.models import InputVec, input_box
from epibarrier.policy_sim import (
    AffineFeedbackPolicy,
    ConstantPolicy,
    ExtremalBangPolicy,
    SwitchingLawPolicy,
    simulate,
)

from conftest import simulate_ref


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
    data, sc_sir, sc_sir_imp, sc_seir, sc_seir_imp, adm_sir
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
        return SwitchingLawPolicy(sc, adm_sir)

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
    want = _outcome(lambda: simulate_ref(sc, policy(), x0, t_end, tol, **kw))
    got = _outcome(lambda: simulate(sc, policy(), x0, t_end, tol, **kw))
    assert got == want


def test_run_ends_where_the_accumulated_time_reaches_t_end(sc_sir):
    # 1,798 steps of 0.01 add up to this t_end, one step before the step
    # count's last: both loops end there, with its last sample
    t_end = 17.98000000000001
    tol = Tolerances()
    policy = ConstantPolicy(sc_sir, InputVec(beta=0.7))
    kw = {"record_every": 10, "stop_on_breach": False}
    want = _outcome(lambda: simulate_ref(sc_sir, policy, [0.8, 0.001], t_end, tol, **kw))
    assert _outcome(lambda: simulate(sc_sir, policy, [0.8, 0.001], t_end, tol, **kw)) == want
    tr = simulate(sc_sir, policy, [0.8, 0.001], t_end, tol)
    assert len(tr.samples) == 181  # the start, every 10th of 1,798 steps and the end
    assert [t for t, _, _ in tr.samples[-2:]] == [17.9, t_end]


def test_feedback_law_matches_the_per_step_loop_for_500_days(sc_sir, sc_seir):
    # the perfect variants' feedback is a law inlined into the loop; over 500
    # days, long past the hypothesis runs' 30, every bit matches the policy
    # called at every step start
    kw = {"record_every": 10, "stop_on_breach": False}
    for sc, x0 in ((sc_sir, [0.8, 0.012]), (sc_seir, [0.6, 0.1, 0.25])):
        pol = AffineFeedbackPolicy(sc)
        want = _outcome(lambda: simulate_ref(sc, pol, x0, 500.0, Tolerances(), **kw))
        assert _outcome(lambda: simulate(sc, pol, x0, 500.0, **kw)) == want
        assert len(want[0]) == 5_001
