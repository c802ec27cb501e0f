import hashlib
import itertools
import math
import struct

import numpy as np
import pytest

from epibarrier import models, policy_sim
from epibarrier.barrier import Verdict, assemble_set, membership
from epibarrier.core import SetKind, Tolerances, Variant, validate_scenario
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

from conftest import SIR_PERFECT_RAW, phi_sir, seir_corner_shot, seir_points, simulate_ref


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


def test_simulate_refuses_a_policy_that_is_neither_signal_nor_law(sc_sir):
    # a policy with only u is no longer called per step: simulate raises
    # before it reads the policy or takes a step
    calls = []

    class OnlyU:
        def u(self, t, state):
            calls.append(t)
            return InputVec(beta=sc_sir.beta_min)

    with pytest.raises(TypeError, match="OnlyU"):
        simulate(sc_sir, OnlyU(), [0.8, 0.012], 10.0)
    assert calls == []


def test_switching_law_binds_its_field_once(monkeypatch, sc_sir, adm_sir):
    # the law's contact rate is inlined into simulate's loop as the field's b,
    # so the field is built and its rates bound once for the whole run, though
    # the dynamics benchmark's run rides the cap layer, where gamma/S changes
    # every step; a recorded input at a clamped end is one of the law's two objects
    field, rates = policy_sim.forward_source, models._input_rates
    built, bound = [], []
    monkeypatch.setattr(policy_sim, "forward_source", lambda *a: built.append(1) or field(*a))
    monkeypatch.setattr(models, "_input_rates", lambda *a: bound.append(1) or rates(*a))
    pol = SwitchingLawPolicy(sc_sir, adm_sir)
    traj = simulate(sc_sir, pol, [0.8, 0.012], 20.0, record_every=1)
    assert len(built) == len(bound) == 1
    inputs = [u for _, _, u in traj.samples]
    assert any(sc_sir.beta_min < u.beta < sc_sir.beta_max for u in inputs)
    ends = [u for u in inputs if u.beta in (sc_sir.beta_min, sc_sir.beta_max)]
    assert ends and all(u is pol.input(u.beta) for u in ends)


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
# recorded once simulate kept time as the step index (step k starts at k*h, the
# last ends at t_end); they pin every bit.
_GOLDEN = {
    "sir_switching_law": (
        lambda f: [simulate(
            f.sc_sir, SwitchingLawPolicy(f.sc_sir, f.adm_sir), [0.8, 0.012], 20.0
        )],
        "4de2d28ab0d817e065c4316aec5ca90cc7f79f754a1b08235ad751a6fde6cb88",
    ),
    "sir_breach_stop": (
        lambda f: [simulate(
            f.sc_sir, ConstantPolicy(f.sc_sir, InputVec(beta=0.8)), [0.8, 0.012], 50.0,
            record_every=7, stop_on_breach=True,
        )],
        "e75064596381a0662bcf59ae5dc569c26f6aacaf697d6a12ed8be55426640c62",
    ),
    "sir_breach_clipped": (
        lambda f: [simulate(
            f.sc_sir, ConstantPolicy(f.sc_sir, InputVec(beta=0.8)), [0.8, 0.012], 12.345,
            record_every=3,
        )],
        "7acfc739cb6651d8960b3dcf176f9b85de326f320d97ebe5862771aacbdc8098",
    ),
    "sir_affine": (
        lambda f: [simulate(
            f.sc_sir, AffineFeedbackPolicy(f.sc_sir), [0.8, 0.012], 30.005, record_every=25
        )],
        "04a3596c659eaf477ee6ae3883c062335518cb94736eb3599930c7b7933d4b27",
    ),
    "sir_imp_monte_carlo": (
        lambda f: monte_carlo(f.sc_sir_imp, [0.8, 0.1], 3, seed=7, t_end=50.0),
        "bfae5b8337d62c2a582121b65e2f8a11f52e94982b2b29b6b20b545c6c4647a6",
    ),
    "sir_imp_affine_breach": (
        lambda f: [simulate(
            f.sc_sir_imp, AffineFeedbackPolicy(f.sc_sir_imp, InputVec(gamma=0.3)),
            [0.8, 0.19], 40.0,
        )],
        "4ede9a3164619f0ed877aa1f42c29a663742f06d343df7cdad2b8e92b8ea3be2",
    ),
    "seir_bang": (
        lambda f: [simulate(
            f.sc_seir, ExtremalBangPolicy(f.sc_seir, 3, 100.0), [0.7, 0.01, 0.02], 100.0,
            record_every=50,
        )],
        "ead35378d75c112084cd1b618fc65620a5c9fdd9a06f5caee4f7160f0697989d",
    ),
    "seir_affine": (
        lambda f: [simulate(f.sc_seir, AffineFeedbackPolicy(f.sc_seir), [0.6, 0.1, 0.25], 60.5)],
        "120e4295f7377cab7620bf21c986e66e7b9a2c59c3379c71babc51fb1023ff45",
    ),
    "seir_corner_breach": (
        lambda f: [simulate(
            f.sc_seir, ConstantPolicy(f.sc_seir, InputVec(beta=1.0, gamma=0.2)),
            [0.45, 0.3, 0.25], 30.0,
        )],
        "8f764132918b64c63f0084b6d371055e8716d6570e9a629efb22423a4cb595d5",
    ),
    "seir_imp_monte_carlo": (
        lambda f: monte_carlo(
            f.sc_seir_imp, [0.7, 0.05, 0.08], 3, seed=11, t_end=80.0,
            tolerances=Tolerances(step_h=0.02),
        ),
        "b45e385df470f2b83192cd4e5f530bc3442f262dde92af2615256d550a1d911e",
    ),
    "seir_imp_breach_stop": (
        lambda f: [simulate(
            f.sc_seir_imp, ExtremalBangPolicy(f.sc_seir_imp, 6, 200.0), [0.85, 0.1, 0.05],
            200.0, stop_on_breach=True,
        )],
        "e3526308baf6267039b4bc212c55150f6a23fbdd18796e6935921a11f5c2e067",
    ),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_forward_runs_match_their_golden_digests(request, case):
    run, want = _GOLDEN[case]

    class Fixtures:
        def __getattr__(self, name):
            return request.getfixturevalue(name)

    assert _trajectories_digest(run(Fixtures())) == want


def test_simulate_and_the_lanes_switch_on_the_same_step(sc_sir):
    # beta_max until t = 3.0, a step start, then beta_min: simulate and the
    # oracle's lanes both take beta_min from step 300 on, so they agree on the
    # breach from starts within 1e-4 of the lanes' threshold; the step from
    # t = 3.0 records beta_min, and simulate breached from all 41 starts when
    # it kept a running time that fell short of 3.0 there
    tol = Tolerances()
    switch = _StepStartSwitch(sc_sir, 300, tol.step_h)
    assert switch.starts[1] == 3.0
    pts = np.array([(0.95, 0.0071557511 * (1.0 + r)) for r in np.linspace(-1e-4, 1e-4, 41)])
    lanes = policy_sim._breach_matrix(sc_sir, pts, [switch], 30.0, tol)[:, 0]
    assert 0 < lanes.sum() < len(pts)
    assert [simulate(sc_sir, switch, p, 30.0).breached for p in pts] == lanes.tolist()
    samples = simulate(sc_sir, switch, pts[0], 3.02, record_every=1).samples
    assert [(t, u.beta) for t, _, u in samples[300:]] == [
        (3.0, sc_sir.beta_max), (301 * tol.step_h, sc_sir.beta_min), (3.02, sc_sir.beta_min),
    ]


def test_recorded_times_are_step_starts_or_t_end(sc_sir):
    # 500 days at step 1e-2: every sample lies at k*h, and the last at t_end
    h = Tolerances().step_h
    tr = simulate(sc_sir, ConstantPolicy(sc_sir, InputVec(beta=0.7)), [0.8, 0.012], 500.0,
                  record_every=7)
    assert [t for t, _, _ in tr.samples] == [k * h for k in range(0, 50_000, 7)] + [500.0]


def test_the_cap_layer_rate_stays_in_the_box():
    # past the free region fl(S*beta_max) > gamma, so S*beta_max > gamma
    # exactly and a correctly rounded gamma/S is at most beta_max: the law
    # clamps it only from below; searched at the first ulps of S above
    # gamma/beta_max for 10,000 seeded (beta_max, gamma) pairs
    rng = np.random.default_rng(36)
    beta_max = rng.uniform(0.05, 5.0, 10_000)
    gamma = beta_max * rng.uniform(0.01, 1.0, 10_000)
    s = gamma / beta_max
    taken = 0
    for _ in range(8):
        past = s * beta_max > gamma
        assert np.all(gamma[past] / s[past] <= beta_max[past])
        taken += past.sum()
        s = np.nextafter(s, np.inf)
    assert taken > 50_000


def test_oracle_report_counts_the_trials_that_ran(sc_sir):
    # one constant decides a perfect SIR set: one trial runs, and the seed draws none
    rep = membership_oracle(sc_sir, SetKind.MRPI, [0.95, 0.0185], n_trials=8, seed=3)
    assert rep.n_trials == 1


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


def test_switching_law_regions(sc_sir, adm_sir):
    # deep inside the admissible set: full contact
    u = switching_law([0.2, 0.005], adm_sir, sc_sir)
    assert u.beta == sc_sir.beta_max
    # outside the viable set: minimal contact
    u = switching_law([0.98, 0.019], adm_sir, sc_sir)
    assert u.beta == sc_sir.beta_min
    # on the usable part of the cap face: hold the cap with gamma/S, clamped
    u = switching_law([0.7, sc_sir.i_max], adm_sir, sc_sir)
    assert u.beta == pytest.approx(0.5 / 0.7)
    # on the cap but past the usable part: only minimal contact remains
    u = switching_law([0.9, sc_sir.i_max], adm_sir, sc_sir)
    assert u.beta == sc_sir.beta_min
    # the free region beta_max*S <= gamma (S <= 0.625), where I never rises
    # again, takes full contact before the cap layer (gamma/S = 1.0 at S = 0.5,
    # and S = 0 divides nothing) and before A's boundary layer near I = 0
    for x in ([0.5, sc_sir.i_max], [0.0, sc_sir.i_max], [0.6, 5e-4]):
        assert switching_law(x, adm_sir, sc_sir).beta == sc_sir.beta_max, x
    assert membership(adm_sir, [0.6, 5e-4]).verdict is Verdict.BOUNDARY
    # just past it, that layer still reads minimal contact
    assert switching_law([0.7, 5e-4], adm_sir, sc_sir).beta == sc_sir.beta_min


def test_switching_law_policy_cache_consistency(sc_sir, adm_sir):
    pol = SwitchingLawPolicy(sc_sir, adm_sir)
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = np.array([rng.uniform(0.0, 0.95), rng.uniform(0.0, sc_sir.i_max)])
        if x.sum() > 1.0:
            continue
        cached = pol.u(0.0, x)
        fresh = switching_law(x, adm_sir, sc_sir)
        assert cached.beta == fresh.beta


def test_switching_law_keeps_cap_from_inside(sc_sir, adm_sir):
    # several viable starting points stay below the cap under the law
    starts = [[0.8, 0.012], [0.5, 0.015], [0.3, 0.01], [0.83, 0.005]]
    for x0 in starts:
        assert membership(adm_sir, x0).verdict is Verdict.INSIDE
        pol = SwitchingLawPolicy(sc_sir, adm_sir)
        traj = simulate(sc_sir, pol, x0, 200.0, record_every=1000)
        assert not traj.breached, x0
        assert traj.max_I <= sc_sir.i_max + 1e-9


def test_switching_law_clearance_keeps_the_trajectory(monkeypatch, sc_sir, adm_sir):
    # a start about 3*eps under A's barrier arc, driven once by the cached law and
    # once by the law re-evaluated at every step of the per-step reference
    # loop: every recorded step is bit-identical, and the run slides along the
    # admissible boundary layer near the barrier arc, where beta_max*S > gamma
    # and the cached law rides a positive clearance, to the cap layer
    law = SwitchingLawPolicy._membership_law
    boundary_clearances = []
    eps, s_hi = adm_sir.tolerances.boundary_layer_eps, adm_sir.usable.s_hi
    on_cap_layer = lambda x: x[1] >= sc_sir.i_max - eps and x[0] <= s_hi + eps
    cap_layer_calls = []
    x0 = [0.873, 0.0161]

    def spy(self, state):
        u, clearance = law(self, state)
        if membership(adm_sir, state).verdict is Verdict.BOUNDARY:
            assert state[0] * sc_sir.beta_max > sc_sir.gamma and state[1] > 0.01
            boundary_clearances.append(clearance)
        if on_cap_layer(state):
            cap_layer_calls.append(state)
        return u, clearance

    class EveryStep:
        def u(self, t, state):
            return switching_law(state, adm_sir, sc_sir)

    kw = {"record_every": 1, "stop_on_breach": False}
    fresh = simulate_ref(sc_sir, EveryStep(), x0, 60.0, Tolerances(), **kw)
    monkeypatch.setattr(SwitchingLawPolicy, "_membership_law", spy)
    cached = simulate(sc_sir, SwitchingLawPolicy(sc_sir, adm_sir), x0, 60.0, **kw)
    # the cap-layer branch always returns 0, so a positive clearance at an
    # admissible BOUNDARY verdict comes from the membership law
    assert membership(adm_sir, x0).verdict is Verdict.INSIDE
    assert any(c > 0.0 for c in boundary_clearances)
    assert len(cached.samples) == len(fresh.samples) == 6001
    for (t_c, x_c, u_c), (t_f, x_f, u_f) in zip(cached.samples, fresh.samples):
        assert t_c == t_f and u_c.beta == u_f.beta
        assert np.array_equal(x_c, x_f)
    assert (cached.breached, cached.max_I) == (fresh.breached, fresh.max_I)
    # the run rides the cap layer, and the policy decides those steps itself
    assert any(on_cap_layer(x) for _, x, _ in fresh.samples)
    assert cap_layer_calls == []


def test_inlined_law_matches_the_law_evaluated_every_step_for_500_days(sc_sir, adm_sir):
    # criterion 08's whole run: after about 18 days it stays in the free
    # region beta_max*S <= gamma, which the rule decides without reading A; a
    # fresh switching_law at every step of the per-step reference loop gives
    # the same bits in every sample, the same breached flag and the same max_I
    class EveryStep:
        def u(self, t, state):
            return switching_law(state, adm_sir, sc_sir)

    kw = {"record_every": 10, "stop_on_breach": False}
    fresh = simulate_ref(sc_sir, EveryStep(), [0.8, 0.012], 500.0, Tolerances(), **kw)
    inlined = simulate(sc_sir, SwitchingLawPolicy(sc_sir, adm_sir), [0.8, 0.012], 500.0, **kw)
    assert len(inlined.samples) == 5_001
    assert _trajectories_digest([inlined]) == _trajectories_digest([fresh])
    assert inlined.samples[-1][1][1] < adm_sir.tolerances.boundary_layer_eps


def test_switching_law_holds_beta_max_while_beta_max_keeps_the_cap(
    sc_sir, sc_sir15, adm_sir, adm_sir15
):
    # ROADMAP item 12's first half: from seeded starts inside A whose
    # constant-beta_max run peaks at least 2*eps under the cap, the law
    # restricts nothing until I first falls under eps after the peak.  With
    # c = gamma/beta_max, V = S + I - c*ln(S) is conserved under beta_max, so
    # the peak is I0 for S0 <= c, else V(x0) - c + c*ln(c)
    for sc, adm in ((sc_sir, adm_sir), (sc_sir15, adm_sir15)):
        eps, c = adm.tolerances.boundary_layer_eps, sc.gamma / sc.beta_max
        rng, starts = np.random.default_rng(3), []
        while len(starts) < 4:
            s, i = rng.uniform(0.0, 1.0), rng.uniform(0.0, sc.i_max)
            if s + i > 1.0 or i < 2 * eps or membership(adm, (s, i)).verdict is not Verdict.INSIDE:
                continue
            peak = i if s <= c else s + i - c * math.log(s) - c + c * math.log(c)
            if peak <= sc.i_max - 2 * eps:
                starts.append((s, i))
        for x0 in starts:
            traj = simulate(sc, SwitchingLawPolicy(sc, adm), x0, 100.0)
            levels = [x[1] for _, x, _ in traj.samples]
            top = levels.index(max(levels))
            end = next(k for k in range(top, len(levels)) if levels[k] < eps)
            assert all(u.beta == sc.beta_max for _, _, u in traj.samples[:end]), x0


def test_switching_law_reads_membership_only_on_a_miss(monkeypatch, sc_sir, adm_sir):
    # criterion 08's start for 20 days: 1,497 of the 2,000 step starts lie on
    # the cap layer, and from about day 18 the run lies in the free region
    # beta_max*S <= gamma; the loop decides those steps and the clearance hits
    # itself, so the membership law runs once per miss, 26 times, all on the
    # way up to the cap layer at beta_max*S > gamma, and u only for the first
    # step; the free region reads no set, so no reading is left to its thin
    # clearances just under the cap layer
    eps, s_hi = adm_sir.tolerances.boundary_layer_eps, adm_sir.usable.s_hi
    on_cap_layer = lambda x: x[1] >= sc_sir.i_max - eps and x[0] <= s_hi + eps
    law, misses, u_calls = SwitchingLawPolicy._membership_law, [], []
    monkeypatch.setattr(
        SwitchingLawPolicy, "_membership_law", lambda self, x: misses.append(x) or law(self, x)
    )

    class Counted(SwitchingLawPolicy):
        def u(self, t, state):
            u_calls.append(state)
            return super().u(t, state)

    traj = simulate(sc_sir, Counted(sc_sir, adm_sir), [0.8, 0.012], 20.0, record_every=1)
    assert sum(on_cap_layer(x) for _, x, _ in traj.samples[:-1]) == 1_497
    assert len(misses) == 26 and not any(on_cap_layer(x) for x in misses)
    assert all(x[0] * sc_sir.beta_max > sc_sir.gamma for x in misses)
    assert u_calls == [(0.8, 0.012)]


def test_switching_law_takes_beta_max_once_the_epidemic_has_passed(monkeypatch, sc_sir, adm_sir):
    # criterion 08's start for 500 days: once I first falls under eps after
    # its peak, the run lies in the free region beta_max*S <= gamma, and every
    # later sample is at beta_max, although A reads BOUNDARY along I = 0
    law, misses = SwitchingLawPolicy._membership_law, []
    monkeypatch.setattr(
        SwitchingLawPolicy, "_membership_law", lambda self, x: misses.append(x) or law(self, x)
    )
    eps = adm_sir.tolerances.boundary_layer_eps
    traj = simulate(sc_sir, SwitchingLawPolicy(sc_sir, adm_sir), [0.8, 0.012], 500.0)
    levels = [x[1] for _, x, _ in traj.samples]
    top = levels.index(max(levels))
    end = next(k for k in range(top, len(levels)) if levels[k] < eps)
    assert traj.samples[end][1][0] * sc_sir.beta_max <= sc_sir.gamma
    assert all(u.beta == sc_sir.beta_max for _, _, u in traj.samples[end:])
    assert membership(adm_sir, traj.samples[-1][1]).verdict is Verdict.BOUNDARY
    assert not traj.breached and len(misses) <= 30


@pytest.mark.parametrize("i_max", [0.3, 0.4])
def test_switching_law_on_a_trivial_set_never_restricts_below_the_cap(i_max):
    # A is trivial here: it reads BOUNDARY only within eps of the cap face,
    # so from seeded starts whose constant-beta_max peak stays 2*eps under the
    # cap, two in the free region beta_max*S <= gamma and two outside it, the
    # law holds beta_max for all of 500 days
    sc = validate_scenario(dict(SIR_PERFECT_RAW, i_max=i_max))
    adm = assemble_set(sc, SetKind.ADMISSIBLE)
    assert adm.trivial
    eps, c = adm.tolerances.boundary_layer_eps, sc.gamma / sc.beta_max
    rng, starts = np.random.default_rng(35), []
    for s_lo, s_hi in ((0.0, c), (c, 1.0), (0.0, c), (c, 1.0)):
        while True:
            s, i = rng.uniform(s_lo, s_hi), rng.uniform(0.0, sc.i_max)
            peak = i if s <= c else s + i - c * math.log(s) - c + c * math.log(c)
            if s + i <= 1.0 and peak <= sc.i_max - 2 * eps:
                break
        starts.append((s, i))
    for x0 in starts:
        traj = simulate(sc, SwitchingLawPolicy(sc, adm), x0, 500.0, record_every=100)
        assert all(u.beta == sc.beta_max for _, _, u in traj.samples), x0


def test_switching_law_refuses_a_variant_it_has_no_rule_for(sc_sir_imp, mrpi_sir_imp):
    with pytest.raises(ValueError, match="perfect SIR"):
        SwitchingLawPolicy(sc_sir_imp, mrpi_sir_imp)


def test_switching_law_constant_within_boundary_clearance(sc_sir, adm_sir):
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
        pol = SwitchingLawPolicy(sc_sir, adm_sir)
        u = pol.u(0.0, x)
        clearance = pol._cache[2]
        n_positive += clearance > 0.0
        for y in x + clearance * ring:
            assert switching_law(y, adm_sir, sc_sir).beta == u.beta
    assert n_positive > 0


def test_switching_law_takes_the_scenarios_admissible_set(
    sc_sir, sc_sir15, sc_sir40, adm_sir, mrpi_sir
):
    # the robust invariant set in A's place ran silently as the law's set, and so
    # did another scenario's A; a trivial A is still a set the law can read
    for scenario, cset in ((sc_sir, mrpi_sir), (sc_sir15, adm_sir)):
        with pytest.raises(ValueError, match="admissible set"):
            SwitchingLawPolicy(scenario, cset)
    trivial = assemble_set(sc_sir40, SetKind.ADMISSIBLE)
    assert trivial.trivial
    assert SwitchingLawPolicy(sc_sir40, trivial).u(0.0, (0.5, 0.1)).beta == sc_sir40.beta_max


def test_switching_law_queries_only_the_admissible_set(monkeypatch, sc_sir, adm_sir, mrpi_sir):
    # the benchmark still passes M as a third argument: the policy keeps no
    # reference to it and asks membership about A alone
    queried = []

    def recording(cset, point):
        queried.append(cset)
        return membership(cset, point)

    monkeypatch.setattr(policy_sim, "membership", recording)
    pol = SwitchingLawPolicy(sc_sir, adm_sir, mrpi_sir)
    assert all(v is not mrpi_sir for v in vars(pol).values())
    simulate(sc_sir, pol, [0.8, 0.012], 60.0, record_every=1000)
    assert queried and all(cset is adm_sir for cset in queried)


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


def test_oracle_refuses_a_set_of_another_kind_or_scenario(sc_sir, sc_sir15, adm_sir):
    # a verdict is a claim about the scenario's set of the kind asked: the admissible set
    # reads INSIDE at this point, which lies outside M, and was judged as M's claim
    with pytest.raises(ValueError, match="scenario's mrpi set"):
        membership_oracle(sc_sir, SetKind.MRPI, [0.9, 0.008733767140053472], computed_set=adm_sir)
    with pytest.raises(ValueError, match="scenario's admissible set"):
        membership_oracle(sc_sir15, SetKind.ADMISSIBLE, [0.5, 0.01], computed_set=adm_sir)


def test_oracle_agreement_examples(sc_sir, adm_sir, mrpi_sir, sc_sir40):
    # a far corner no policy can save
    rep = membership_oracle(
        sc_sir,
        SetKind.ADMISSIBLE,
        [0.98, 0.019],
        computed_set=adm_sir,
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


def _sir_points(scenario, kind, rng, n=200):
    """``n`` uniform states under the cap and ``n`` within ``N(0, 2e-3)`` of the set's boundary."""
    s, i = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, scenario.i_max, n)
    c = scenario.gamma / (scenario.beta_min if kind is SetKind.ADMISSIBLE else scenario.beta_max)
    s_near = rng.uniform(c, 1.0, n)
    i_near = phi_sir(scenario, kind)(s_near) + rng.normal(0.0, 2e-3, n)
    pts = np.column_stack([np.concatenate([s, s_near]), np.concatenate([i, i_near])])
    return pts[(pts[:, 1] >= 0.0) & (pts[:, 1] <= scenario.i_max) & (pts.sum(axis=1) <= 1.0)]


def test_perfect_sir_oracle_runs_one_constant_per_set(sc_sir):
    for kind, beta in ((SetKind.ADMISSIBLE, sc_sir.beta_min), (SetKind.MRPI, sc_sir.beta_max)):
        (trial,) = policy_sim._oracle_trials(sc_sir, kind, 8, 0, policy_sim.ORACLE_T_END)
        assert trial.starts == [0.0] and trial.inputs == [InputVec(beta=beta)]


@pytest.mark.parametrize("i_max", [0.02, 0.15, 0.3])
def test_robust_sir_oracle_agrees_with_the_corners_and_bangs(i_max):
    # with c = gamma/beta_max, V = S + I - c*ln(S) never rises under beta <=
    # beta_max and beta_max conserves it, so no signal peaks above constant
    # beta_max's peak: the one-trial flags equal those of the corner constants
    # and eight seeded bang signals, on 500 uniform states under the cap and
    # 500 within N(0, 2e-3) of phi_M
    sc = validate_scenario(dict(SIR_PERFECT_RAW, i_max=i_max))
    phi, c = phi_sir(sc, SetKind.MRPI), sc.gamma / sc.beta_max
    rng, uniform, near = np.random.default_rng(36), [], []
    while len(uniform) < 500 or len(near) < 500:
        s = rng.uniform(0.0, 1.0)
        s_near = rng.uniform(c, 1.0)
        for pts, x in ((uniform, (s, rng.uniform(0.0, sc.i_max))),
                       (near, (s_near, float(phi(s_near)) + rng.normal(0.0, 2e-3)))):
            if len(pts) < 500 and 0.0 <= x[1] <= sc.i_max and sum(x) <= 1.0:
                pts.append(x)
    pts, t_end = np.array(uniform + near), policy_sim.ORACLE_T_END
    flags = grid_membership_oracle(sc, SetKind.MRPI, pts)
    trials = _corners_and_bangs(sc, 8, 0, t_end)
    full = ~policy_sim._breach_matrix(sc, pts, trials, t_end, Tolerances()).any(axis=1)
    assert flags.tolist() == full.tolist()
    assert 0 < flags.sum() < len(pts)


@pytest.mark.parametrize("i_max", [0.02, 0.15, 0.4])
def test_free_region_lies_in_the_robust_set(i_max):
    # where beta_max*S <= gamma, I never rises again under any contact rate:
    # every such state under the cap is inside M by the corners and bangs
    sc = validate_scenario(dict(SIR_PERFECT_RAW, i_max=i_max))
    rng, c, t_end = np.random.default_rng(37), sc.gamma / sc.beta_max, policy_sim.ORACLE_T_END
    pts = np.column_stack([rng.uniform(0.0, c, 300), rng.uniform(0.0, sc.i_max, 300)])
    pts = np.vstack([pts[pts.sum(axis=1) <= 1.0], [[c, sc.i_max], [0.0, sc.i_max]]])
    trials = _corners_and_bangs(sc, 8, 0, t_end)
    assert not policy_sim._breach_matrix(sc, pts, trials, t_end, Tolerances()).any()


@pytest.mark.parametrize("i_max", [0.02, 0.15, 0.4])
@pytest.mark.parametrize("kind", [SetKind.ADMISSIBLE, SetKind.MRPI])
def test_sir_oracle_flags_follow_the_first_integral(i_max, kind):
    # V = S + I - c*ln(S) never falls under beta >= beta_min with c = gamma/beta_min
    # and never rises under beta <= beta_max with c = gamma/beta_max, and the
    # constant at that end conserves it, so on the perfect SIR sets the oracle's
    # flags are exactly I < phi(S); points within 1e-8 of phi are left out
    sc = validate_scenario(dict(SIR_PERFECT_RAW, i_max=i_max))
    pts = _sir_points(sc, kind, np.random.default_rng(31))
    phi = phi_sir(sc, kind)(pts[:, 0])
    clear = np.abs(pts[:, 1] - phi) > 1e-8
    pts, phi = pts[clear], phi[clear]
    assert len(pts) >= 150
    flags = grid_membership_oracle(sc, kind, pts, seed=0)
    assert flags.tolist() == (pts[:, 1] < phi).tolist()


def test_switching_law_breaches_where_constant_beta_min_does(sc_sir, adm_sir):
    # no contact rate saves a point that constant beta_min breaches from, so the
    # admissible oracle needs no second try: the switching law breaches there too
    # (at i_max 0.15 and 0.4 these points draw almost no state outside A)
    rng = np.random.default_rng(32)
    pts = _sir_points(sc_sir, SetKind.ADMISSIBLE, rng)
    outside = pts[~grid_membership_oracle(sc_sir, SetKind.ADMISSIBLE, pts)]
    assert len(outside) >= 40
    for p in outside[rng.permutation(len(outside))[:40]]:
        policy = SwitchingLawPolicy(sc_sir, adm_sir)
        traj = simulate(
            sc_sir, policy, p, policy_sim.ORACLE_T_END, record_every=10_000, stop_on_breach=True
        )
        assert traj.breached, p


def _graph_vertices(cset):
    """The vertices of the SIR set's upper boundary ``I = g(S)``, from ``S = 0`` to ``(1, 0)``."""
    i_max = cset.scenario.i_max
    if cset.trivial:  # the capped simplex
        return np.array([[0.0, i_max], [1.0 - i_max, i_max], [1.0, 0.0]])
    return np.vstack([cset.polyline[1:], [[1.0, 0.0]]])


def _overhang(points, graph, above):
    """Euclidean distance of each point to the polyline ``graph`` where the point lies
    above it (``above``) or below it (not ``above``), and 0 where it does not."""
    a, ab = graph[:-1], np.diff(graph, axis=0)
    rel = points[:, None, :] - a
    t = np.clip((rel * ab).sum(-1) / np.maximum((ab * ab).sum(-1), 1e-300), 0.0, 1.0)
    dist = np.linalg.norm(rel - t[..., None] * ab, axis=-1).min(axis=1)
    side = points[:, 1] - np.interp(points[:, 0], graph[:, 0], graph[:, 1])
    return np.where(side > 0.0 if above else side < 0.0, dist, 0.0)


@pytest.mark.parametrize("i_max", [0.02, 0.15, 0.3])
def test_inside_the_robust_set_is_inside_the_admissible_set(request, i_max):
    # the premise of the switching law reading A alone (see SwitchingLawPolicy):
    # M's polygon lies in A's, up to geom_tol, so M's graph lies under A's at every
    # vertex of both, and a state that reads INSIDE M reads INSIDE A.  At i_max 0.3
    # A is trivial, the whole capped simplex
    fixtures = {0.02: ("adm_sir", "mrpi_sir"), 0.15: ("adm_sir15", "mrpi_sir15")}
    if i_max in fixtures:
        adm, mrpi = map(request.getfixturevalue, fixtures[i_max])
    else:
        sc = validate_scenario(dict(SIR_PERFECT_RAW, i_max=i_max))
        adm, mrpi = (assemble_set(sc, kind) for kind in (SetKind.ADMISSIBLE, SetKind.MRPI))
    assert adm.trivial == (i_max == 0.3) and not mrpi.trivial
    # (at 0.3 M's last vertex lies 1.0e-9 past the sum face in I, 7.1e-10 away from it)
    tol = adm.tolerances.geom_tol
    graph_a, graph_m = _graph_vertices(adm), _graph_vertices(mrpi)
    assert _overhang(graph_m, graph_a, above=True).max() <= tol
    assert _overhang(graph_a, graph_m, above=False).max() <= tol
    # seeded uniform states and states near either set's boundary
    rng = np.random.default_rng(33)
    pts = np.vstack([_sir_points(adm.scenario, kind, rng, n=1500) for kind in SetKind])
    in_m = [p for p in pts if membership(mrpi, p).verdict is Verdict.INSIDE]
    assert len(in_m) >= 500
    assert [p for p in in_m if membership(adm, p).verdict is not Verdict.INSIDE] == []


@pytest.mark.parametrize(
    "scenario_name, kind",
    [("sc_seir", SetKind.ADMISSIBLE), ("sc_seir", SetKind.MRPI), ("sc_seir40", SetKind.MRPI)],
)
def test_seir_corner_shot_matches_the_oracle(request, scenario_name, kind):
    # one corner constant decides the perfect SEIR sets on these points: the
    # lowest contact and highest removal rate for A, the reverse for M.  This
    # is evidence, not proof: a signal that beats the corner from some point
    # would show here as a flag the shot gets wrong
    sc = request.getfixturevalue(scenario_name)
    pts = seir_points(sc, 300, np.random.default_rng(12345))
    flags = grid_membership_oracle(sc, kind, pts, n_trials=16, seed=0)
    assert seir_corner_shot(sc, kind, pts).tolist() == flags.tolist()


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


@pytest.mark.parametrize("points", [[0.5, 0.01], [[0.5, 0.01, 0.0]], [[[0.5, 0.01]]]])
def test_oracle_refuses_points_of_the_wrong_shape(points, sc_sir):
    with pytest.raises(ValueError, match="shape"):
        grid_membership_oracle(sc_sir, SetKind.MRPI, points, t_end=1.0)


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


def _corners_and_bangs(sc, n_trials, seed, t_end):
    """The input-box corner constants, then ``n_trials`` seeded bang signals.

    The oracle's trials on every set but the perfect SIR ones, which one
    constant decides.
    """
    box = [(ch.value, lo, hi) for ch, (lo, hi) in input_box(sc).items()]
    corners = [
        InputVec(**{ch: hi if m >> k & 1 else lo for k, (ch, lo, hi) in enumerate(box)})
        for m in range(1 << len(box))
    ]
    children = np.random.SeedSequence(seed).spawn(n_trials)
    return [ConstantPolicy(sc, u) for u in corners] + [
        ExtremalBangPolicy(sc, child, t_end) for child in children
    ]


@pytest.mark.parametrize(
    "scenario_name, kind",
    [("sc_sir_imp", SetKind.MRPI), ("sc_seir", SetKind.ADMISSIBLE), ("sc_seir_imp", SetKind.MRPI)],
)
def test_corners_and_bangs_are_the_oracles_other_trials(request, scenario_name, kind):
    sc = request.getfixturevalue(scenario_name)
    ours = _corners_and_bangs(sc, 3, 5, 40.0)
    theirs = policy_sim._oracle_trials(sc, kind, 3, 5, 40.0)
    assert [(t.starts, t.inputs) for t in ours] == [(t.starts, t.inputs) for t in theirs]


def test_oracle_tail_lanes_step_as_float_tuples(monkeypatch, sc_sir):
    # the lane arrays narrow from 60 lanes; once no more than _TAIL_LANES
    # are live, the stages see float tuples only.  The perfect SIR oracle
    # runs one trial per set, so the batch takes the corners and bangs the
    # other sets run, plus the step-start switch
    t_end = 40.0
    pts, _ = _oracle_batch(sc_sir, SetKind.MRPI, t_end)
    trials = _corners_and_bangs(sc_sir, 3, 5, t_end)
    trials.append(_StepStartSwitch(sc_sir, 37, Tolerances().step_h))
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
    # that trial, replayed, so it breaches, as its lane did
    for p in ([0.684, 0.147, 0.044], [0.874, 0.009, 0.082]):
        rep = membership_oracle(sc_seir_imp, SetKind.MRPI, p, computed_set=mrpi_seir_imp)
        assert rep.claimed is Verdict.INSIDE and not rep.agree
        label, traj = rep.counterexample
        assert traj.breached
        # the second of 2 corner constants decides, not a seeded trial: no seed is named
        assert label == "trial=1" and rep.n_trials == 2 + 8
        t_end = policy_sim.ORACLE_T_END
        trial = policy_sim._oracle_trials(sc_seir_imp, SetKind.MRPI, 8, 0, t_end)[1]
        lane = policy_sim._breach_matrix(sc_seir_imp, np.array([p]), [trial], t_end, Tolerances())
        assert traj.breached == lane[0, 0]


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
    assert traj.samples[1][0] == 10 * tol.step_h
