"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line straight to the real stdout (so the
lines survive pytest's capture) and then asserts.
"""
import sys

import numpy as np
import pytest

from epibarrier.analysis import ClassTag, backward_filter, classify, tangent_set
from epibarrier.barrier import (
    InvariantBreachError,
    Verdict,
    assemble_set,
    compute_barrier_curve,
    membership,
    resample_by_arclength,
    select_extremal_input,
)
from epibarrier.core import SetKind, Tolerances
from epibarrier.models import Channel, lie_derivative_g
from epibarrier.policy_sim import (
    SwitchingLawPolicy,
    grid_membership_oracle,
    monte_carlo,
    simulate,
)

from conftest import phi_sir


@pytest.fixture
def _report(capsys):
    """One PASS/FAIL line per criterion, emitted outside pytest's capture."""

    def report(num: int, title: str, ok: bool) -> None:
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            sys.stdout.write(f"[acceptance] criterion {num:02d} ({title}): {status}\n")
            sys.stdout.flush()
        assert ok, f"criterion {num} ({title}) failed"

    return report


def test_criterion_01_classification(
    _report, sc_sir, sc_sir15, sc_sir40, sc_sir_imp, sc_seir, sc_seir40, sc_seir_imp
):
    ok = (
        classify(sc_sir40).tag is ClassTag.ALL_EQUAL_G
        and classify(sc_sir).tag is ClassTag.BOTH_PROPER
        and classify(sc_sir15).tag is ClassTag.BOTH_PROPER
        and classify(sc_sir_imp).tag is ClassTag.M_PROPER
        and classify(sc_seir40).tag is ClassTag.MRPI_PROPER
        and classify(sc_seir).tag is ClassTag.BOTH_PROPER
        and classify(sc_seir_imp).tag is ClassTag.M_PROPER
    )
    _report(1, "classification table", ok)


def test_criterion_02_tangent_points(_report, sc_sir, sc_seir):
    t_a = tangent_set(sc_sir, SetKind.ADMISSIBLE)
    t_m = tangent_set(sc_sir, SetKind.MRPI)
    s_a = tangent_set(sc_seir, SetKind.ADMISSIBLE)
    s_m = tangent_set(sc_seir, SetKind.MRPI)
    ok = (
        abs(t_a.z1_lo - 0.5 / 0.6) <= 1e-12
        and abs(t_m.z1_lo - 0.5 / 0.8) <= 1e-12
        and abs(t_a.point(t_a.z1_lo)[1] - 0.02) <= 1e-12
        and abs(s_a.z2_star - 0.5) <= 1e-12
        and abs(s_m.z2_star - 0.3) <= 1e-12
    )
    _report(2, "tangent points", ok)


def test_criterion_03_hamiltonian(_report, all_proper_sets):
    worst = 0.0
    for cset in all_proper_sets.values():
        for curve in cset.curves:
            worst = max(worst, float(np.max(np.abs(curve.hamiltonian(cset.scenario)))))
    _report(3, "Hamiltonian invariant", worst <= 1e-6)


def test_criterion_04_tangency_residual(_report, all_proper_sets):
    worst = 0.0
    for cset in all_proper_sets.values():
        sc = cset.scenario
        lam0 = np.zeros(sc.dim)
        lam0[-1] = 1.0
        for curve in cset.curves:
            u0 = select_extremal_input(sc, cset.set_kind, curve.tangent_point, lam0)
            worst = max(worst, abs(lie_derivative_g(sc, curve.tangent_point, u0)))
    _report(4, "tangency residual", worst <= 1e-8)


def test_criterion_05_containment(_report, all_proper_sets):
    ok = True
    for cset in all_proper_sets.values():
        sc = cset.scenario
        for curve in cset.curves:
            # interior samples: terminal points sit on refined face events
            states = curve.states[:-1]
            ok &= bool(np.all(states[:, -1] <= sc.i_max + 1e-9))
            ok &= bool(np.all(states.min(axis=1) >= -1e-9))
            ok &= bool(np.all(states.sum(axis=1) <= 1.0 + 1e-9))
    _report(5, "G- containment", ok)


def test_criterion_06_input_saturation(_report, adm_sir, mrpi_sir, mrpi_sir_imp):
    a, m, i = adm_sir.curves[0], mrpi_sir.curves[0], mrpi_sir_imp.curves[0]
    ok = (
        a.switch_times == []
        and m.switch_times == []
        and i.switch_times == []
        and all(u.beta == adm_sir.scenario.beta_min for u in a.inputs)
        and all(u.beta == mrpi_sir.scenario.beta_max for u in m.inputs)
        and all(u.gamma == mrpi_sir_imp.scenario.gamma_min for u in i.inputs)
    )
    _report(6, "input saturation", ok)


def test_criterion_07_eta_switching(_report, mrpi_seir_imp):
    sc = mrpi_seir_imp.scenario
    ok = False
    for curve in mrpi_seir_imp.curves:
        if (
            len(curve.switch_times) == 1
            and curve.switch_times[0][1] is Channel.ETA
            and abs(curve.inputs[0].eta - sc.eta_max) < 1e-15
            and abs(curve.inputs[-1].eta - sc.eta_min) < 1e-15
        ):
            ok = True
    _report(7, "eta switching", ok)


def test_criterion_08_switching_law(_report, sc_sir, adm_sir):
    policy = SwitchingLawPolicy(sc_sir, adm_sir)
    traj = simulate(
        sc_sir, policy, [0.8, 0.012], 500.0, record_every=10_000
    )
    ok = (not traj.breached) and traj.max_I >= 0.019
    _report(8, "switching-law cap reproduction", ok)


def test_criterion_09_monte_carlo(_report, sc_sir_imp):
    trajs = monte_carlo(sc_sir_imp, [0.8, 0.1], 10, seed=0, t_end=500.0)
    ok = len(trajs) == 10 and not any(t.breached for t in trajs)
    _report(9, "Monte Carlo robustness", ok)


def test_criterion_10_oracle_agreement(_report, sc_sir, adm_sir, mrpi_sir):
    s_axis = np.linspace(0.0, 1.0, 30)
    i_axis = np.linspace(0.0, sc_sir.i_max, 30)
    pts = np.array([(s, i) for s in s_axis for i in i_axis if s + i <= 1.0])
    ok = True
    for kind, cset in ((SetKind.ADMISSIBLE, adm_sir), (SetKind.MRPI, mrpi_sir)):
        oracle = grid_membership_oracle(sc_sir, kind, pts, seed=0)
        n_cmp = n_agree = 0
        band = 2.0 * cset.tolerances.boundary_layer_eps
        for p, o_in in zip(pts, oracle):
            m = membership(cset, p)
            if m.verdict not in (Verdict.INSIDE, Verdict.OUTSIDE):
                continue
            n_cmp += 1
            if (m.verdict is Verdict.INSIDE) == bool(o_in):
                n_agree += 1
            else:
                # disagreements must hug the boundary
                ok &= m.distance_estimate <= band
        ok &= n_cmp > 0 and n_agree / n_cmp >= 0.98
    _report(10, "oracle agreement", ok)


def test_criterion_11_step_convergence(_report, sc_sir):
    tangents = backward_filter(
        sc_sir, SetKind.ADMISSIBLE, tangent_set(sc_sir, SetKind.ADMISSIBLE)
    )
    z1 = tangents.z1_lo
    # the exported-curve error is dominated by reconstruction between recorded
    # nodes, whose spacing (record_every * h) halves along with h
    curves = []
    for h in (1e-3, 5e-4, 2.5e-4):
        tol = Tolerances(step_h=h)
        curve = compute_barrier_curve(
            sc_sir, SetKind.ADMISSIBLE, tangents.point(z1), tol, record_every=200
        )
        curves.append(resample_by_arclength([curve], sc_sir, 400)[0])
    d01 = float(np.max(np.linalg.norm(curves[0] - curves[1], axis=1)))
    d12 = float(np.max(np.linalg.norm(curves[1] - curves[2], axis=1)))
    ok = d12 > 0.0 and d01 / d12 >= 8.0
    _report(11, "step-size convergence", ok)


def test_criterion_12_r0_remark(_report, sc_sir_imp):
    r0 = sc_sir_imp.beta_min / sc_sir_imp.gamma_max
    trajs = monte_carlo(sc_sir_imp, [0.8, 0.1], 10, seed=0, t_end=500.0)
    ok = abs(r0 - 1.2) <= 1e-12 and r0 > 1.0 and not any(t.breached for t in trajs)
    _report(12, "cap held despite R0 > 1", ok)


def test_criterion_13_seir_step_convergence(_report, sc_seir, sc_seir_imp):
    # each curve ends at its first refined event, so its termination label and
    # end time do not depend on the step, even for a return to the cap face
    # just after tangency
    ok = True
    for sc in (sc_seir, sc_seir_imp):
        ends = []
        try:
            for h in (0.02, 0.01, 0.005, 0.002, 0.001):
                tol = Tolerances(step_h=h)
                cset = assemble_set(sc, SetKind.MRPI, n_curves=8, tolerances=tol)
                ends.append([(c.termination.label, c.tau[-1]) for c in cset.curves])
        except InvariantBreachError:
            ok = False
            continue
        ref = ends[-1]
        for run in ends:
            ok &= [lab for lab, _ in run] == [lab for lab, _ in ref]
            ok &= max(abs(t - t_ref) for (_, t), (_, t_ref) in zip(run, ref)) <= 1e-6
    _report(13, "SEIR step-size convergence", ok)


def test_criterion_14_closed_form_sir_verdicts(
    _report, adm_sir, mrpi_sir, adm_sir15, mrpi_sir15, mrpi_sir30
):
    # a SIR-perfect set is exactly 0 < I < phi(S), phi in closed form (conftest.phi_sir):
    # no INSIDE or OUTSIDE verdict may differ from it, on 1,000 seeded states under the cap
    # and 1,000 within N(0, 2e-3) of phi per set (A at i_max 0.3 is trivial)
    rng = np.random.default_rng(14)
    ok = True
    for cset in (adm_sir, mrpi_sir, adm_sir15, mrpi_sir15, mrpi_sir30):
        sc, kind = cset.scenario, cset.set_kind
        phi = phi_sir(sc, kind)
        c = sc.gamma / (sc.beta_min if kind is SetKind.ADMISSIBLE else sc.beta_max)
        uniform = rng.uniform([0.0, 0.0], [1.0, sc.i_max], (2000, 2))
        s_near = rng.uniform(c, 1.0, 20000)
        near = np.column_stack([s_near, phi(s_near) + rng.normal(0.0, 2e-3, 20000)])
        pts = []
        for batch in (uniform, near):
            keep = (batch[:, 1] >= 0.0) & (batch[:, 1] <= sc.i_max) & (batch.sum(axis=1) <= 1.0)
            pts.append(batch[keep][:1000])
        pts = np.vstack(pts)
        ok &= len(pts) == 2000
        exact = (pts[:, 1] > 0.0) & (pts[:, 1] < phi(pts[:, 0]))
        for p, inside in zip(pts, exact):
            verdict = membership(cset, p).verdict
            ok &= verdict is Verdict.BOUNDARY or (verdict is Verdict.INSIDE) == inside
    _report(14, "closed-form SIR verdicts", ok)
