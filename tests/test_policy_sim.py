import itertools

import numpy as np
import pytest

from epibarrier.barrier import Verdict, membership
from epibarrier.core import SetKind, Tolerances, Variant
from epibarrier.models import Channel, InputVec, input_box
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
    traj = simulate(sc_sir, pol, [0.9, sc_sir.i_max], 1.0, h=0.1)
    assert traj.breached
    assert 0.0 < traj.first_breach_time < Tolerances().event_time_tol


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
        traj = simulate(sc_sir, pol, x0, 200.0, h=1e-2, record_every=1000)
        assert not traj.breached, x0
        assert traj.max_I <= sc_sir.i_max + 1e-9


def test_monte_carlo_determinism(sc_sir_imp):
    a = monte_carlo(sc_sir_imp, [0.8, 0.1], 3, seed=7, t_end=20.0, h=1e-2)
    b = monte_carlo(sc_sir_imp, [0.8, 0.1], 3, seed=7, t_end=20.0, h=1e-2)
    assert len(a) == 3
    for ta, tb in zip(a, b):
        assert ta.max_I == tb.max_I
        assert ta.breached == tb.breached
    c = monte_carlo(sc_sir_imp, [0.8, 0.1], 3, seed=8, t_end=20.0, h=1e-2)
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
    trajs = monte_carlo(sc_sir_imp, [0.8, 0.1], 5, seed=0, t_end=100.0, h=1e-2)
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
            not simulate(
                sc, pol, p, t_end, h=1e-2, record_every=10_000, stop_on_breach=True
            ).breached
            for pol in policies
        )
        for p in pts
    ]
    assert flags.tolist() == expected


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
