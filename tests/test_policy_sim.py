import hashlib
import itertools
import math
import struct

import numpy as np
import pytest

from epibarrier import models, policy_sim
from epibarrier.barrier import Verdict, membership
from epibarrier.core import SetKind, Tolerances, Variant
from epibarrier.models import BadChannelError, Channel, InputVec, input_box
from epibarrier.policy_sim import (
    AffineFeedbackPolicy,
    ConstantPolicy,
    ExtremalBangPolicy,
    SwitchingLawPolicy,
    grid_membership_oracle,
    membership_oracle,
    monte_carlo,
    simulate,
    switching_law,
)


def test_constant_policy_validates_box(sc_sir):
    ConstantPolicy(sc_sir, InputVec(beta=0.7))
    with pytest.raises(ValueError):
        ConstantPolicy(sc_sir, InputVec(beta=0.9))
    with pytest.raises(ValueError):
        ConstantPolicy(sc_sir, InputVec(beta=0.5))


def test_affine_feedback_policy_endpoints(sc_sir, sc_sir_imp):
    pol = AffineFeedbackPolicy(sc_sir)
    assert pol.u(0.0, [0.9, 0.0]).beta == pytest.approx(sc_sir.beta_max)
    assert pol.u(0.0, [0.9, sc_sir.i_max]).beta == pytest.approx(sc_sir.beta_min)
    # imperfect variants carry the feedback inside the dynamics: the policy
    # only emits the disturbance
    pol = AffineFeedbackPolicy(sc_sir_imp, InputVec(gamma=0.4))
    assert pol.u(0.0, [0.9, 0.1]).gamma == 0.4
    assert pol.u(0.0, [0.9, 0.1]).beta is None


def test_extremal_bang_policy_values(sc_seir_imp):
    pol = ExtremalBangPolicy(sc_seir_imp, seed=5, t_end=100.0)
    lo, hi = input_box(sc_seir_imp)[Channel.ETA]
    for t in np.linspace(0.0, 100.0, 37):
        v = pol.u(t, None).eta
        assert v == lo or v == hi
    # same seed, same signal
    pol2 = ExtremalBangPolicy(sc_seir_imp, seed=5, t_end=100.0)
    assert all(
        pol.u(t, None).eta == pol2.u(t, None).eta for t in np.linspace(0, 100, 17)
    )


@pytest.mark.parametrize("scenario_name", ["sc_seir", "sc_sir_imp"])
@pytest.mark.parametrize("seed", range(5))
def test_bang_signal_matches_per_channel_schedules(request, scenario_name, seed):
    # the merged segments read as the per-channel schedules did: each channel
    # draws 7 sorted switch times and 8 box ends in input_box order, and its
    # value at t is the last one starting at or before t (the first before 0)
    sc = request.getfixturevalue(scenario_name)
    t_end = 100.0
    pol = ExtremalBangPolicy(sc, seed, t_end)
    rng = np.random.default_rng(seed)
    scheds = {}
    for ch, (lo, hi) in input_box(sc).items():
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, t_end, 7))])
        scheds[ch.value] = times, rng.choice([lo, hi], size=8)

    def reference(t):
        vals = {}
        for ch, (times, values) in scheds.items():
            k = int(np.searchsorted(times, t, side="right")) - 1
            vals[ch] = float(values[max(k, 0)])
        return InputVec(**vals)

    starts = pol.starts
    assert starts[0] == 0.0 and len(starts) == len(pol.inputs)
    assert all(type(t) is float for t in starts) and starts == sorted(set(starts))
    mids = [0.5 * (a + b) for a, b in zip(starts, starts[1:])] + [0.5 * (starts[-1] + t_end)]
    probes = starts + [np.nextafter(t, -np.inf) for t in starts] + mids + [-1.0, t_end + 5.0]
    for t in probes:
        assert pol.u(t, None) == reference(t), t
    for start, mid in zip(starts, mids):  # one segment, one object
        assert pol.u(start, None) is pol.u(mid, None)


def test_simulate_builds_one_field_per_segment(monkeypatch, sc_seir):
    # a bang signal holds one InputVec per segment, so simulate binds its
    # field's rates once per segment, not once per step
    pol = ExtremalBangPolicy(sc_seir, 3, 100.0)
    field = policy_sim.forward_source
    calls = []

    def counting(scenario, u):
        calls.append(u)
        return field(scenario, u)

    monkeypatch.setattr(policy_sim, "forward_source", counting)
    simulate(sc_seir, pol, [0.7, 0.01, 0.02], 100.0, record_every=1000)
    assert 1 < len(calls) <= len(pol.starts)


def test_switching_law_keeps_its_field_at_a_clamped_end(monkeypatch, sc_sir, adm_sir, mrpi_sir):
    # the law emits one object per clamped end of the contact-rate box, on
    # the cap layer and off it, so simulate binds its field's rates only when
    # the rate changes; the dynamics benchmark's run rides the cap layer,
    # where gamma/S changes every step.  A perfect variant's rates are bound
    # through _input_rates: once with the field, then in the loop
    rates = policy_sim._input_rates
    built = []

    def counting(scenario, u):
        built.append(u.beta)
        return rates(scenario, u)

    monkeypatch.setattr(policy_sim, "_input_rates", counting)
    pol = SwitchingLawPolicy(sc_sir, adm_sir, mrpi_sir)
    simulate(sc_sir, pol, [0.8, 0.012], 20.0)
    assert sc_sir.beta_max in built
    assert all(a != b for a, b in zip(built, built[1:]))


def _float_bytes(v):
    return b"N" if v is None else struct.pack("<d", v)


def _trajectories_digest(trajs):
    """SHA-256 of every sample's time, state and input, then breached, max_I and first breach."""
    h = hashlib.sha256()
    for tr in trajs:
        for t, x, u in tr.samples:
            h.update(_float_bytes(t) + x.tobytes())
            h.update(_float_bytes(u.beta) + _float_bytes(u.gamma) + _float_bytes(u.eta))
        h.update(bytes([tr.breached]) + _float_bytes(tr.max_I) + _float_bytes(tr.first_breach_time))
    return h.hexdigest()


# Forward runs in all four variants: refiner-located breaches (``breach``),
# a run cut at its breach, last steps clipped to t_end (12.345, 30.005, 60.5
# at step 1e-2), record_every of 3, 7, 25 and 50, the closed-loop laws above
# the cap, and the dynamics benchmark's switching-law run.  The digests were
# recorded before the rate law was bound once per field; they pin every bit.
_GOLDEN = {
    "sir_switching_law": (
        lambda f: [simulate(
            f.sc_sir, SwitchingLawPolicy(f.sc_sir, f.adm_sir, f.mrpi_sir), [0.8, 0.012], 20.0
        )],
        "2a9ce5628f6215697c41b2a153401c41745e8c8b036e3bc1b17c0cab212e3261",
    ),
    "sir_breach_stop": (
        lambda f: [simulate(
            f.sc_sir, ConstantPolicy(f.sc_sir, InputVec(beta=0.8)), [0.8, 0.012], 50.0,
            record_every=7, stop_on_breach=True,
        )],
        "b71176cbf5d85f67e507ae8e33c054e98a2975af082237105817fe6489fb2960",
    ),
    "sir_breach_clipped": (
        lambda f: [simulate(
            f.sc_sir, ConstantPolicy(f.sc_sir, InputVec(beta=0.8)), [0.8, 0.012], 12.345,
            record_every=3,
        )],
        "85807ba6e796fcc24bbe8a297d2121e6b6c5327b0edd7649344f8c899fcf8ad0",
    ),
    "sir_affine": (
        lambda f: [simulate(
            f.sc_sir, AffineFeedbackPolicy(f.sc_sir), [0.8, 0.012], 30.005, record_every=25
        )],
        "efbda8f1adc5cf03ebb53b5ced10a109d3647bed0e4542c0ffef9ae843db2fa8",
    ),
    "sir_imp_monte_carlo": (
        lambda f: monte_carlo(f.sc_sir_imp, [0.8, 0.1], 3, seed=7, t_end=50.0),
        "11f57f85ba0afdeb57ad318b71142c67c684f47402295d7c108b0d959be73b53",
    ),
    "sir_imp_affine_breach": (
        lambda f: [simulate(
            f.sc_sir_imp, AffineFeedbackPolicy(f.sc_sir_imp, InputVec(gamma=0.3)),
            [0.8, 0.19], 40.0,
        )],
        "da545ce13ab943811dcb1237b924d957e13ea05a243bee8723a3f7b4c1cea4a2",
    ),
    "seir_bang": (
        lambda f: [simulate(
            f.sc_seir, ExtremalBangPolicy(f.sc_seir, 3, 100.0), [0.7, 0.01, 0.02], 100.0,
            record_every=50,
        )],
        "d8a2edaf0ce559c58a616f4424b8bd7e9e8271d152aacc75468a78326c0a358a",
    ),
    "seir_affine": (
        lambda f: [simulate(f.sc_seir, AffineFeedbackPolicy(f.sc_seir), [0.6, 0.1, 0.25], 60.5)],
        "ff4f9fbdbfb8807c9ddcfd44936dd4831b6c59255306a3d6a18972c8be53f079",
    ),
    "seir_corner_breach": (
        lambda f: [simulate(
            f.sc_seir, ConstantPolicy(f.sc_seir, InputVec(beta=1.0, gamma=0.2)),
            [0.45, 0.3, 0.25], 30.0,
        )],
        "5909b467578de976bee5564a32be0c01e0356b15678ab519ff2e710559db71fb",
    ),
    "seir_imp_monte_carlo": (
        lambda f: monte_carlo(
            f.sc_seir_imp, [0.7, 0.05, 0.08], 3, seed=11, t_end=80.0,
            tolerances=Tolerances(step_h=0.02),
        ),
        "fd11cc28fb1aee3831d97a744433ec8b5c96fcbcdfa2d797249cee3560de9b4d",
    ),
    "seir_imp_breach_stop": (
        lambda f: [simulate(
            f.sc_seir_imp, ExtremalBangPolicy(f.sc_seir_imp, 6, 200.0), [0.85, 0.1, 0.05],
            200.0, stop_on_breach=True,
        )],
        "fe2405a6fcb4f5ea74c1daf3168ac7e48d146a366668eaff96ef10da7c57f645",
    ),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_forward_runs_match_their_golden_digests(request, case):
    run, want = _GOLDEN[case]

    class Fixtures:
        def __getattr__(self, name):
            return request.getfixturevalue(name)

    assert _trajectories_digest(run(Fixtures())) == want


def test_monte_carlo_builds_one_rate_law_per_trial(monkeypatch, sc_sir_imp, sc_seir_imp):
    # a trial holds its disturbance, so its one field binds the rate law
    # once, not once per step or evaluation
    law = models.rate_source
    calls = []

    def counting(scenario, u):
        calls.append(u)
        return law(scenario, u)

    monkeypatch.setattr(models, "rate_source", counting)
    for sc, x0 in ((sc_sir_imp, [0.8, 0.1]), (sc_seir_imp, [0.7, 0.05, 0.08])):
        calls.clear()
        trajs = monte_carlo(sc, x0, 3, seed=7, t_end=5.0)
        assert len(calls) == 3
        assert calls == [tr.samples[0][2] for tr in trajs]


def test_simulate_axis_equilibrium(sc_sir):
    # I = 0 is invariant: nothing moves
    traj = simulate(sc_sir, ConstantPolicy(sc_sir, InputVec(beta=0.8)), [0.7, 0.0], 5.0)
    assert not traj.breached
    assert traj.max_I == 0.0
    t_last, x_last, _ = traj.samples[-1]
    assert t_last == pytest.approx(5.0)
    assert np.allclose(x_last, [0.7, 0.0])


def test_simulate_breach_detection(sc_sir):
    # full contact from a loaded state overshoots a 2% cap quickly
    traj = simulate(sc_sir, ConstantPolicy(sc_sir, InputVec(beta=0.8)), [0.8, 0.012], 50.0)
    assert traj.breached
    assert traj.first_breach_time is not None
    assert 0.0 < traj.first_breach_time < 50.0
    assert traj.max_I > sc_sir.i_max
    # the located crossing brackets the cap
    assert traj.max_I > sc_sir.i_max + sc_sir.i_max * 0.0  # sanity on types
    assert isinstance(traj.breached, bool)


def test_simulate_breach_from_the_cap(sc_sir):
    # starting on the cap with dI/dt > 0, the breach is at the first instant
    pol = ConstantPolicy(sc_sir, InputVec(beta=0.8))
    traj = simulate(sc_sir, pol, [0.9, sc_sir.i_max], 1.0, Tolerances(step_h=0.1))
    assert traj.breached
    assert 0.0 < traj.first_breach_time < Tolerances().event_time_tol


def test_simulate_breach_from_above_the_cap(sc_sir):
    # a start above I_max, by less than geom_tol, is a crossing at t = 0; the
    # run goes on to breach, so breached comes with its first breach time
    pol = ConstantPolicy(sc_sir, InputVec(beta=0.8))
    traj = simulate(sc_sir, pol, [0.8, sc_sir.i_max + 5e-10], 20.0)
    assert traj.breached
    assert traj.first_breach_time == 0.0


def test_simulate_zero_horizon(sc_sir):
    traj = simulate(sc_sir, ConstantPolicy(sc_sir, InputVec(beta=0.6)), [0.5, 0.01], 0.0)
    assert len(traj.samples) == 1
    assert traj.max_I == pytest.approx(0.01)


def test_simulate_rejects_bad_inputs(sc_sir):
    pol = ConstantPolicy(sc_sir, InputVec(beta=0.7))
    with pytest.raises(ValueError):
        simulate(sc_sir, pol, [0.5, 0.01, 0.0], 1.0)
    with pytest.raises(ValueError):
        simulate(sc_sir, pol, [0.5, 0.01], 20000.0)


@pytest.mark.parametrize("h", [0.0, -1e-3, float("nan"), float("inf")])
def test_forward_runs_reject_a_bad_step(h, sc_sir_imp):
    # refused before any stepping: a negative or infinite step would
    # otherwise return one unbreached sample, and a negative oracle step
    # would never end; every forward run takes its step from Tolerances
    with pytest.raises(ValueError, match="step_h"):
        Tolerances(step_h=h)
    with pytest.raises(ValueError, match="step_h"):
        monte_carlo(sc_sir_imp, [0.8, 0.1], 2, seed=0, t_end=1.0, h=h)


def test_switching_law_regions(sc_sir, adm_sir, mrpi_sir):
    # deep inside the robust set: full contact
    u = switching_law([0.2, 0.005], adm_sir, mrpi_sir, sc_sir)
    assert u.beta == sc_sir.beta_max
    # outside the viable set: minimal contact
    u = switching_law([0.98, 0.019], adm_sir, mrpi_sir, sc_sir)
    assert u.beta == sc_sir.beta_min
    # on the usable part of the cap face: hold the cap with gamma/S, clamped
    u = switching_law([0.7, sc_sir.i_max], adm_sir, mrpi_sir, sc_sir)
    assert u.beta == pytest.approx(0.5 / 0.7)
    # gamma/S = 1.0 above beta_max: clamped to the box
    u = switching_law([0.5, sc_sir.i_max], adm_sir, mrpi_sir, sc_sir)
    assert u.beta == sc_sir.beta_max
    # on the cap but past the usable part: only minimal contact remains
    u = switching_law([0.9, sc_sir.i_max], adm_sir, mrpi_sir, sc_sir)
    assert u.beta == sc_sir.beta_min
    # S below the divide guard: harmless default
    u = switching_law([0.0, sc_sir.i_max], adm_sir, mrpi_sir, sc_sir)
    assert u.beta == sc_sir.beta_max


def test_switching_law_policy_cache_consistency(sc_sir, adm_sir, mrpi_sir):
    pol = SwitchingLawPolicy(sc_sir, adm_sir, mrpi_sir)
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = np.array([rng.uniform(0.0, 0.95), rng.uniform(0.0, sc_sir.i_max)])
        if x.sum() > 1.0:
            continue
        cached = pol.u(0.0, x)
        fresh = switching_law(x, adm_sir, mrpi_sir, sc_sir)
        assert cached.beta == fresh.beta


def test_switching_law_keeps_cap_from_inside(sc_sir, adm_sir, mrpi_sir):
    # several viable starting points stay below the cap under the law
    starts = [[0.8, 0.012], [0.5, 0.015], [0.3, 0.01], [0.83, 0.005]]
    for x0 in starts:
        assert membership(adm_sir, x0).verdict is Verdict.INSIDE
        pol = SwitchingLawPolicy(sc_sir, adm_sir, mrpi_sir)
        traj = simulate(sc_sir, pol, x0, 200.0, record_every=1000)
        assert not traj.breached, x0
        assert traj.max_I <= sc_sir.i_max + 1e-9


def test_switching_law_clearance_keeps_the_trajectory(monkeypatch, sc_sir, adm_sir, mrpi_sir):
    # criterion 08's start, driven once by the cached law and once by the law
    # re-evaluated every step: every recorded step is bit-identical, and the
    # run reaches the admissible boundary layer (near the I = 0 axis after
    # about 55 days), where the cached law rides a positive clearance
    law = SwitchingLawPolicy._membership_law
    boundary_clearances = []
    eps, s_hi = adm_sir.tolerances.boundary_layer_eps, adm_sir.usable.s_hi
    on_cap_layer = lambda x: x[1] >= sc_sir.i_max - eps and x[0] <= s_hi + eps
    cap_layer_calls = []

    def spy(self, state):
        u, clearance = law(self, state)
        if membership(adm_sir, state).verdict is Verdict.BOUNDARY:
            boundary_clearances.append(clearance)
        if on_cap_layer(state):
            cap_layer_calls.append(state)
        return u, clearance

    class EveryStep:
        def u(self, t, state):
            return switching_law(state, adm_sir, mrpi_sir, sc_sir)

    run = lambda pol: simulate(sc_sir, pol, [0.8, 0.012], 60.0, record_every=1)
    fresh = run(EveryStep())
    monkeypatch.setattr(SwitchingLawPolicy, "_membership_law", spy)
    cached = run(SwitchingLawPolicy(sc_sir, adm_sir, mrpi_sir))
    # the cap-layer branch always returns 0, so a positive clearance at an
    # admissible BOUNDARY verdict comes from the BOUNDARY branch
    assert any(c > 0.0 for c in boundary_clearances)
    assert len(cached.samples) == len(fresh.samples) == 6001
    for (t_c, x_c, u_c), (t_f, x_f, u_f) in zip(cached.samples, fresh.samples):
        assert t_c == t_f and u_c.beta == u_f.beta
        assert np.array_equal(x_c, x_f)
    assert (cached.breached, cached.max_I) == (fresh.breached, fresh.max_I)
    # the run rides the cap layer, and the policy decides those steps itself
    assert any(on_cap_layer(x) for _, x, _ in fresh.samples)
    assert cap_layer_calls == []


def test_switching_policy_tests_the_cap_layer_once_per_step(monkeypatch, sc_sir, adm_sir, mrpi_sir):
    # criterion 08's start for 20 days: each policy.u call, clearance-cache
    # miss or not, tests the cap layer exactly once
    cap_calls, misses = [], []
    cap, law = SwitchingLawPolicy._cap_layer_law, SwitchingLawPolicy._membership_law
    counted = lambda calls, fn: lambda *a: calls.append(1) or fn(*a)
    monkeypatch.setattr(SwitchingLawPolicy, "_cap_layer_law", counted(cap_calls, cap))
    monkeypatch.setattr(SwitchingLawPolicy, "_membership_law", counted(misses, law))
    u_calls = []

    class Counted(SwitchingLawPolicy):
        def u(self, t, state):
            u_calls.append(1)
            return super().u(t, state)

    simulate(sc_sir, Counted(sc_sir, adm_sir, mrpi_sir), [0.8, 0.012], 20.0, record_every=1000)
    assert len(misses) > 100
    assert len(cap_calls) == len(u_calls) >= 2_000


def test_switching_law_constant_within_boundary_clearance(sc_sir, adm_sir, mrpi_sir):
    # states in the admissible set's boundary layer, offset from its polygon
    # vertices: the law takes one value on the whole disc its clearance spans
    eps = adm_sir.tolerances.boundary_layer_eps
    rng = np.random.default_rng(11)
    angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    n_positive = 0
    for vertex in adm_sir.polyline:
        x = vertex + rng.uniform(-eps, eps, 2)
        if x.min() < 0.0 or x.sum() > 1.0 or membership(adm_sir, x).verdict is not Verdict.BOUNDARY:
            continue
        pol = SwitchingLawPolicy(sc_sir, adm_sir, mrpi_sir)
        u = pol.u(0.0, x)
        clearance = pol._cache_radius
        n_positive += clearance > 0.0
        for y in x + clearance * ring:
            assert switching_law(y, adm_sir, mrpi_sir, sc_sir).beta == u.beta
    assert n_positive > 0


def test_monte_carlo_determinism(sc_sir_imp):
    a = monte_carlo(sc_sir_imp, [0.8, 0.1], 3, seed=7, t_end=20.0)
    b = monte_carlo(sc_sir_imp, [0.8, 0.1], 3, seed=7, t_end=20.0)
    assert len(a) == 3
    for ta, tb in zip(a, b):
        assert ta.max_I == tb.max_I
        assert ta.breached == tb.breached
    c = monte_carlo(sc_sir_imp, [0.8, 0.1], 3, seed=8, t_end=20.0)
    assert any(ta.max_I != tc.max_I for ta, tc in zip(a, c))


def test_monte_carlo_empty_and_guards(sc_sir_imp, sc_sir):
    assert monte_carlo(sc_sir_imp, [0.8, 0.1], 0, seed=0, t_end=1.0) == []
    with pytest.raises(ValueError):
        monte_carlo(sc_sir, [0.8, 0.01], 2, seed=0)


def test_mrpi_robustness_sample(sc_sir, mrpi_sir):
    # points the computed robust set claims INSIDE survive a battery of
    # extremal contact-rate schedules
    rng = np.random.default_rng(9)
    pts = []
    while len(pts) < 50:
        p = np.array([rng.uniform(0.0, 0.9), rng.uniform(0.0, sc_sir.i_max)])
        m = membership(mrpi_sir, p)
        if m.verdict is Verdict.INSIDE:
            pts.append(p)
    inside = grid_membership_oracle(
        sc_sir, SetKind.MRPI, np.array(pts), n_trials=20, seed=3
    )
    assert np.all(inside)


def test_oracle_agreement_examples(sc_sir, adm_sir, mrpi_sir, sc_sir40):
    # a far corner no policy can save
    rep = membership_oracle(
        sc_sir,
        SetKind.ADMISSIBLE,
        [0.98, 0.019],
        computed_set=adm_sir,
        admissible_set=adm_sir,
        mrpi_set=mrpi_sir,
    )
    assert rep.claimed is Verdict.OUTSIDE and rep.agree
    # the equilibrium axis is part of the boundary; inconclusive claims agree
    rep = membership_oracle(
        sc_sir,
        SetKind.MRPI,
        [0.5, 0.0],
        computed_set=mrpi_sir,
    )
    assert rep.claimed is Verdict.BOUNDARY and rep.agree
    # just above the axis, safely robust
    rep = membership_oracle(
        sc_sir,
        SetKind.MRPI,
        [0.5, 0.002],
        computed_set=mrpi_sir,
    )
    assert rep.claimed is Verdict.INSIDE and rep.agree
    # trivial classification: everything under the cap is safe
    from epibarrier.barrier import assemble_set

    cset40 = assemble_set(sc_sir40, SetKind.MRPI)
    rep = membership_oracle(
        sc_sir40, SetKind.MRPI, [0.3, 0.2], n_trials=20, computed_set=cset40
    )
    assert rep.claimed is Verdict.INSIDE and rep.agree


def test_r0_above_one_with_robust_cap(sc_sir_imp):
    # the feedback keeps the cap although the basic reproduction number
    # beta_min / gamma_max exceeds one
    r0 = sc_sir_imp.beta_min / sc_sir_imp.gamma_max
    assert r0 == pytest.approx(1.2)
    assert r0 > 1.0
    trajs = monte_carlo(sc_sir_imp, [0.8, 0.1], 5, seed=0, t_end=100.0)
    assert not any(t.breached for t in trajs)


@pytest.mark.parametrize(
    "scenario_name, kind",
    [
        ("sc_sir", SetKind.ADMISSIBLE),
        ("sc_sir", SetKind.MRPI),
        ("sc_sir_imp", SetKind.MRPI),
        ("sc_seir", SetKind.ADMISSIBLE),
        ("sc_seir", SetKind.MRPI),
        ("sc_seir_imp", SetKind.MRPI),
    ],
)
def test_grid_oracle_matches_per_trial_simulate(request, scenario_name, kind):
    # the batched oracle against one scalar simulate per (point, trial): the
    # box-corner constants (beta_min alone for the perfect SIR admissible
    # set) and the seeded bang signals, all surviving for the robust set,
    # any surviving for the admissible set
    sc = request.getfixturevalue(scenario_name)
    t_end, seed, n_trials = 40.0, 5, 3
    # seeded states in the upper half of the cap band, plus in SEIR one with
    # so much exposed mass that no input holds the cap
    rng = np.random.default_rng(4)
    pts = [] if sc.dim == 2 else [np.array([0.02, 0.68, 0.95 * sc.i_max])]
    while len(pts) < 8:
        x = rng.uniform(0.0, 1.0, sc.dim)
        x[-1] = sc.i_max * (0.5 + 0.5 * x[-1])
        if x.sum() <= 1.0:
            pts.append(x)
    flags = grid_membership_oracle(
        sc, kind, np.array(pts), n_trials=n_trials, seed=seed, t_end=t_end
    )
    box = input_box(sc)
    if kind is SetKind.ADMISSIBLE and sc.variant is Variant.SIR_PERFECT:
        policies = [ConstantPolicy(sc, InputVec(beta=sc.beta_min))]
    else:
        policies = [
            ConstantPolicy(sc, InputVec(**{ch.value: v for ch, v in zip(box, corner)}))
            for corner in itertools.product(*box.values())
        ]
        policies += [
            ExtremalBangPolicy(sc, child, t_end)
            for child in np.random.SeedSequence(seed).spawn(n_trials)
        ]
    combine = all if kind is SetKind.MRPI else any
    expected = [
        combine(
            not simulate(sc, pol, p, t_end, record_every=10_000, stop_on_breach=True).breached
            for pol in policies
        )
        for p in pts
    ]
    assert flags.tolist() == expected


@pytest.mark.parametrize(
    "scenario_name, kind, axis_points",
    [
        ("sc_sir", SetKind.MRPI, [[0.0, 0.0], [0.3, 0.0], [0.9, 0.0], [1.0, 0.0]]),
        ("sc_sir_imp", SetKind.MRPI, [[0.2, 0.0], [0.95, 0.0]]),
        ("sc_seir", SetKind.ADMISSIBLE, [[0.4, 0.0, 0.0], [0.97, 0.0, 0.0]]),
        ("sc_seir_imp", SetKind.MRPI, [[0.1, 0.0, 0.0], [0.99, 0.0, 0.0]]),
    ],
)
def test_oracle_axis_lanes_take_no_steps(monkeypatch, request, scenario_name, kind, axis_points):
    # I = 0 (E = I = 0 in SEIR) is invariant, so lanes starting there retire
    # before the first RK4 step; their flags equal one simulate per trial
    sc = request.getfixturevalue(scenario_name)
    t_end = 20.0
    pts = np.array(axis_points)
    trials = policy_sim._oracle_trials(sc, kind, 2, 5, t_end)
    calls = _stage_calls(monkeypatch)
    flags = policy_sim._breach_matrix(sc, pts, trials, t_end, Tolerances())
    assert calls == []
    assert flags.tolist() == _simulated_flags(sc, pts, trials, t_end)


def _stage_calls(monkeypatch):
    """The start time of every RK4 step the oracle takes from here on."""
    stages, calls = policy_sim._rk4_stages, []

    def counting(*args):
        calls.append(args[1])
        return stages(*args)

    monkeypatch.setattr(policy_sim, "_rk4_stages", counting)
    return calls


def _simulated_flags(sc, pts, trials, t_end):
    return [
        [
            simulate(sc, tr, p, t_end, record_every=10_000, stop_on_breach=True).breached
            for tr in trials
        ]
        for p in pts
    ]


# Per scenario: the set kind, states the bound retires at the start, and
# states it retires partway through some trials.  All have S above
# c = gamma_lo/beta_hi of the input box and I > 0, so beta_hi*S < gamma_lo
# fails on the corner (beta_max, gamma_min) trial.  E + I + slack(S) lies
# under the cap for every trial at the first states, over it at the later
# ones until their inputs have made V fall or S has passed c.
_BOUND_RETIRED = {
    "sc_sir": (SetKind.MRPI, [[0.7, 0.005], [0.66, 0.01]], [[0.8, 0.005], [0.76, 0.01]]),
    "sc_sir_imp": (SetKind.MRPI, [[0.5, 0.05], [0.6, 0.1]], [[0.8, 0.1], [0.9, 0.05]]),
    "sc_seir": (
        SetKind.ADMISSIBLE,
        [[0.3, 0.01, 0.02], [0.5, 0.05, 0.05]],
        [[0.7, 0.05, 0.05], [0.6, 0.1, 0.1]],
    ),
    "sc_seir_imp": (
        SetKind.MRPI,
        [[0.3, 0.02, 0.03], [0.25, 0.02, 0.03]],
        [[0.4, 0.02, 0.03], [0.45, 0.03, 0.02]],
    ),
}


@pytest.mark.parametrize("scenario_name", list(_BOUND_RETIRED))
def test_oracle_bound_retired_lanes_take_no_steps(monkeypatch, request, scenario_name):
    # V = S + E + I - c*ln(S) never rises along a trial, so E + I never
    # exceeds its value plus slack(S) = S - c - c*ln(S/c): these lanes retire
    # before the first RK4 step, with the flags of one simulate per trial over
    # the whole horizon
    sc = request.getfixturevalue(scenario_name)
    kind, points, _ = _BOUND_RETIRED[scenario_name]
    pts, t_end = np.array(points), 100.0
    assert (pts[:, 0] > (sc.gamma_min or sc.gamma) / sc.beta_max).all()
    assert (pts[:, -1] > 0.0).all()
    trials = policy_sim._oracle_trials(sc, kind, 2, 5, t_end)
    calls = _stage_calls(monkeypatch)
    flags = policy_sim._breach_matrix(sc, pts, trials, t_end, Tolerances())
    assert calls == []
    assert flags.tolist() == _simulated_flags(sc, pts, trials, t_end)


@pytest.mark.parametrize("offset", [-1e-6, 1e-6])
def test_oracle_bound_is_the_peak_under_a_conserving_corner(monkeypatch, sc_sir, offset):
    # under constant beta_max, V = S + I - c*ln(S) with c = gamma/beta_max is
    # conserved, so I peaks at I0 + slack(S0) as S passes c: a start whose
    # peak lies 1e-6 under the cap retires before the first step, one whose
    # peak lies 1e-6 over it steps until it breaches, as simulate flags them
    c, s0, t_end = sc_sir.gamma / sc_sir.beta_max, 0.75, 100.0
    peak = sc_sir.i_max + offset
    pts = np.array([[s0, peak - (s0 - c - c * math.log(s0 / c))]])
    trials = [ConstantPolicy(sc_sir, InputVec(beta=sc_sir.beta_max))]
    calls = _stage_calls(monkeypatch)
    flags = policy_sim._breach_matrix(sc_sir, pts, trials, t_end, Tolerances())
    assert flags.tolist() == [[offset > 0]]
    assert (calls == []) == (offset < 0)
    traj = simulate(sc_sir, trials[0], pts[0], t_end, record_every=10_000)
    assert traj.breached == (offset > 0)
    assert traj.max_I == pytest.approx(peak, abs=1e-8)


def test_oracle_reads_the_input_at_the_step_start(sc_sir):
    # a lane steps from t = k*h with its trial's input at t = k*h: with the
    # switch from beta_max to beta_min at 0.095 d, ten full-contact steps take
    # I over the cap and nine do not, so reading the input one step early or
    # late decides the flag
    class Switch(ExtremalBangPolicy):
        def __init__(self, ts):
            self.scenario = sc_sir
            self.starts, self.inputs = [0.0, ts], [InputVec(beta=0.8), InputVec(beta=0.6)]

    p, t_end, tol = np.array([[0.7, 0.01989]]), 1.0, Tolerances()
    assert tol.step_h == 1e-2
    sim = lambda ts: simulate(sc_sir, Switch(ts), p[0], t_end, stop_on_breach=True)
    assert sim(0.095).breached and not sim(0.085).breached
    flags = policy_sim._breach_matrix(sc_sir, p, [Switch(0.095)], t_end, tol)
    assert flags.tolist() == [[True]]
    flags = policy_sim._breach_matrix(sc_sir, p, [Switch(0.085)], t_end, tol)
    assert flags.tolist() == [[False]]


@pytest.mark.parametrize("t_end", [-1.0, float("nan"), 20000.0])
def test_oracle_rejects_a_bad_horizon(t_end, sc_sir):
    # the last step is clipped to t_end, so a negative horizon would step
    # backward with ever longer steps instead of ending
    with pytest.raises(ValueError, match="t_end"):
        grid_membership_oracle(sc_sir, SetKind.MRPI, [[0.9, 0.01]], t_end=t_end)


def test_oracle_refuses_an_admissible_set_of_an_imperfect_variant(sc_sir_imp):
    # with no controllable input there is no admissible set to check, so the
    # oracle may not report one; it used to flag this point inside
    with pytest.raises(BadChannelError):
        grid_membership_oracle(sc_sir_imp, SetKind.ADMISSIBLE, [[0.5, 0.05]], t_end=10.0)
    with pytest.raises(BadChannelError):
        membership_oracle(sc_sir_imp, SetKind.ADMISSIBLE, [0.5, 0.05], t_end=10.0)


@pytest.mark.parametrize("point", [[0.5, float("nan")], [float("nan"), 0.01], [0.5, float("inf")]])
def test_oracle_rejects_a_point_that_is_not_finite(point, sc_sir):
    # a NaN lane never compares above the cap, so it would never breach and
    # read inside; simulate raises NonFiniteError on the same state
    with pytest.raises(ValueError, match="finite"):
        grid_membership_oracle(sc_sir, SetKind.MRPI, [point], t_end=1.0)
    with pytest.raises(ValueError, match="finite"):
        membership_oracle(sc_sir, SetKind.MRPI, point, t_end=1.0)


_BAD_COUNTS = {
    "grid_oracle_n_trials": lambda sc, sc_imp, pol: grid_membership_oracle(
        sc, SetKind.MRPI, [[0.9, 0.01]], n_trials=-1, t_end=1.0
    ),
    "oracle_n_trials": lambda sc, sc_imp, pol: membership_oracle(
        sc, SetKind.MRPI, [0.9, 0.01], n_trials=-1, t_end=1.0
    ),
    "monte_carlo_n_trials": lambda sc, sc_imp, pol: monte_carlo(
        sc_imp, [0.8, 0.1], -1, seed=0, t_end=1.0
    ),
    "simulate_record_every_0": lambda sc, sc_imp, pol: simulate(
        sc, pol, [0.5, 0.01], 1.0, record_every=0
    ),
    "simulate_record_every_negative": lambda sc, sc_imp, pol: simulate(
        sc, pol, [0.5, 0.01], 1.0, record_every=-1
    ),
}


@pytest.mark.parametrize("case", list(_BAD_COUNTS))
def test_bad_counts_are_refused(case, sc_sir, sc_sir_imp):
    # refused before any stepping: a negative trial count reached numpy's
    # SeedSequence.spawn (OverflowError) or, in monte_carlo, ran no trial,
    # record_every=0 a modulo by zero partway through the run, and a
    # negative record_every passed silently
    pol = ConstantPolicy(sc_sir, InputVec(beta=0.7))
    with pytest.raises(ValueError, match="n_trials|record_every"):
        _BAD_COUNTS[case](sc_sir, sc_sir_imp, pol)


def test_oracle_stops_at_t_end(sc_sir):
    # simulate takes ceil(t_end/h - 1e-12) steps and clips the last one to
    # t_end; under beta_min these states first cross the cap before 0.08 d
    # but after t_end, so a full step past t_end flags a breach simulate
    # never sees: an eighth step at t_end = 0.07, a full eighth step at 0.075
    pol = ConstantPolicy(sc_sir, InputVec(beta=sc_sir.beta_min))
    assert Tolerances().step_h == 0.01
    for t_end, i0 in ((0.07, 0.019888747577818573), (0.075, 0.01989220)):
        p = [0.95, i0]
        assert not simulate(sc_sir, pol, p, t_end).breached
        assert simulate(sc_sir, pol, p, 0.08).breached
        flags = grid_membership_oracle(sc_sir, SetKind.ADMISSIBLE, [p], t_end=t_end)
        assert flags.tolist() == [True], t_end


class _StepStartSwitch(ExtremalBangPolicy):
    """Every free channel from the upper to the lower end of its box at t = k*h."""

    def __init__(self, scenario, k, h):
        self.scenario = scenario
        box = input_box(scenario).items()
        self.starts = [0.0, k * h]
        self.inputs = [
            InputVec(**{ch.value: hi for ch, (lo, hi) in box}),
            InputVec(**{ch.value: lo for ch, (lo, hi) in box}),
        ]


def _oracle_batch(sc, kind, t_end):
    # seeded states in the upper half of the cap band, two on the invariant
    # axis; the seeded trials plus one switching exactly at a step start
    rng = np.random.default_rng(4)
    pts = [np.eye(sc.dim)[0] * s for s in (0.3, 0.9)]
    while len(pts) < 10:
        x = rng.uniform(0.0, 1.0, sc.dim)
        x[-1] = sc.i_max * (0.5 + 0.5 * x[-1])
        if x.sum() <= 1.0:
            pts.append(x)
    trials = policy_sim._oracle_trials(sc, kind, 3, 5, t_end)
    return np.array(pts), trials + [_StepStartSwitch(sc, 37, Tolerances().step_h)]


@pytest.mark.parametrize(
    "scenario_name, kind",
    [
        ("sc_sir", SetKind.ADMISSIBLE),
        ("sc_sir", SetKind.MRPI),
        ("sc_sir_imp", SetKind.MRPI),
        ("sc_seir", SetKind.ADMISSIBLE),
        ("sc_seir", SetKind.MRPI),
        ("sc_seir_imp", SetKind.MRPI),
    ],
)
def test_oracle_flags_do_not_depend_on_the_hand_off_width(
    monkeypatch, request, scenario_name, kind
):
    # every lane stepped as arrays (width 0) against every lane finished as
    # a float tuple (a width above the batch): the same flags
    sc = request.getfixturevalue(scenario_name)
    t_end = 40.0
    pts, trials = _oracle_batch(sc, kind, t_end)
    _assert_flags_do_not_depend_on_the_hand_off_width(monkeypatch, sc, pts, trials, t_end)


@pytest.mark.parametrize("scenario_name", list(_BOUND_RETIRED))
def test_oracle_flags_do_not_depend_on_the_hand_off_width_with_bound_retired_lanes(
    monkeypatch, request, scenario_name
):
    # the batch above plus lanes the bound retires, at the start and partway
    # through a run, where a lane is a float tuple at the larger width
    sc = request.getfixturevalue(scenario_name)
    kind, at_start, later = _BOUND_RETIRED[scenario_name]
    t_end = 40.0
    pts, trials = _oracle_batch(sc, kind, t_end)
    pts = np.vstack([pts, at_start, later])
    _assert_flags_do_not_depend_on_the_hand_off_width(monkeypatch, sc, pts, trials, t_end)


def _assert_flags_do_not_depend_on_the_hand_off_width(monkeypatch, sc, pts, trials, t_end):
    flags = []
    for width in (0, len(pts) * len(trials) + 1):
        monkeypatch.setattr(policy_sim, "_TAIL_LANES", width)
        flags.append(
            policy_sim._breach_matrix(sc, pts, trials, t_end, Tolerances()).tolist()
        )
    assert flags[0] == flags[1]


def test_oracle_tail_lanes_step_as_float_tuples(monkeypatch, sc_sir):
    # the lane arrays narrow from 60 lanes; once no more than _TAIL_LANES
    # are live, the stages see float tuples only
    t_end = 40.0
    pts, trials = _oracle_batch(sc_sir, SetKind.MRPI, t_end)
    stages = policy_sim._rk4_stages
    widths = []

    def counting(rhs, t, y, hk):
        widths.append(len(y[0]) if isinstance(y[0], np.ndarray) else None)
        assert widths[-1] is not None or all(type(v) is float for v in y)
        return stages(rhs, t, y, hk)

    monkeypatch.setattr(policy_sim, "_rk4_stages", counting)
    policy_sim._breach_matrix(sc_sir, pts, trials, t_end, Tolerances())
    first_tail = widths.index(None)
    assert first_tail > 0
    assert min(widths[:first_tail]) > policy_sim._TAIL_LANES
    assert set(widths[first_tail:]) == {None}


def test_counterexample_replays_a_breaching_trial(sc_seir_imp, mrpi_seir_imp):
    # two states the SEIR-imperfect robust-set mesh claims INSIDE although a
    # trial signal drives them over the cap: the stored counterexample is
    # that trial, replayed, so it breaches
    for p in ([0.684, 0.147, 0.044], [0.874, 0.009, 0.082]):
        rep = membership_oracle(sc_seir_imp, SetKind.MRPI, p, computed_set=mrpi_seir_imp)
        assert rep.claimed is Verdict.INSIDE and not rep.agree
        label, traj = rep.counterexample
        assert traj.breached
        assert label.startswith("seed=0 trial=")


def test_counterexample_replays_at_the_tolerance_step(sc_seir_imp, mrpi_seir_imp):
    # the oracle and its replayed counterexample both step at step_h: the
    # replay records every tenth step, so its second sample lies at 10 * step_h
    tol = Tolerances(step_h=0.02)
    rep = membership_oracle(
        sc_seir_imp, SetKind.MRPI, [0.684, 0.147, 0.044], computed_set=mrpi_seir_imp,
        tolerances=tol,
    )
    assert rep.claimed is Verdict.INSIDE and not rep.agree
    _, traj = rep.counterexample
    assert traj.breached
    assert traj.samples[1][0] == pytest.approx(10 * tol.step_h, abs=1e-12)
