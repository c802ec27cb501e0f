"""Correctness gates that can fail: the first integral's certificate on every
worked-example set, and SEIR verdicts near the boundary.

``models.breach_bound`` proves INSIDE with no oracle and no trajectory: on a
set's ``conftest.set_certificate`` (its corner for a perfect admissible set,
its input box for a robust invariant set), a state whose bound lies under the
cap never breaches, so it may not read OUTSIDE.  On a perfect SIR set the
certificate is exactly ``I < phi(S)``.  Uniform SEIR states lie almost all
inside the perfect sets, so a false INSIDE shows only near the boundary, where
``conftest.seir_boundary_points`` draws and the corner shot judges.  The SEIR
gates fail today, with the counts their marks record, on the off-mesh verdicts
of ROADMAP item 2.
"""
import numpy as np
import pytest

from epibarrier.barrier import Verdict, membership
from epibarrier.models import breach_bound

from conftest import seir_boundary_points, seir_corner_shot, seir_points, set_certificate


def _marked(counts, what):
    """One param per set name, an expected failure where ``counts`` records a count."""
    return [
        pytest.param(name, marks=pytest.mark.xfail(
            reason=f"off-mesh SEIR verdicts (ROADMAP item 2): {count} {what}"
        ) if count else [])
        for name, count in counts.items()
    ]


# certified points that read OUTSIDE today, of 2,000 per set
_CERTIFIED_OUTSIDE = {
    "sir_adm_002": 0, "sir_mrpi_002": 0, "sir_adm_015": 0, "sir_mrpi_015": 0, "sir_imp_mrpi_020": 0,
    "seir_adm_030": 589, "seir_mrpi_030": 345, "seir_mrpi_040": 826, "seir_imp_mrpi_010": 1,
}


def certificate_points(scenario, n=2000):
    """``n`` seeded states under the cap: ``conftest.seir_points`` with ``default_rng(11)`` in
    SEIR, uniform states with ``S + I <= 1`` drawn from ``default_rng(11)`` in SIR."""
    rng = np.random.default_rng(11)
    if scenario.dim == 3:
        return seir_points(scenario, n, rng)
    pts = np.empty((0, 2))
    while len(pts) < n:
        x = rng.uniform([0.0, 0.0], [1.0, scenario.i_max], (n, 2))
        pts = np.vstack([pts, x[x.sum(axis=1) <= 1.0]])
    return pts[:n]


@pytest.mark.parametrize("name", _marked(_CERTIFIED_OUTSIDE, "of 2,000 certified points read OUTSIDE"))
def test_certified_points_never_read_outside(all_proper_sets, name):
    cset = all_proper_sets[name]
    sc = cset.scenario
    pts = certificate_points(sc)
    certified = pts[breach_bound(tuple(pts.T), *set_certificate(sc, cset.set_kind)) < sc.i_max]
    assert len(certified) >= 400
    outside = [p.tolist() for p in certified if membership(cset, p).verdict is Verdict.OUTSIDE]
    assert outside == [], (name, len(outside), len(certified), outside[:3])


# INSIDE verdicts beyond 2*eps from states the corner shot breaches from, of 1,000 per set
_NEAR_FALSE_INSIDE = {"adm_seir": 0, "mrpi_seir": 7, "mrpi_seir40": 0}


@pytest.mark.parametrize("name", _marked(_NEAR_FALSE_INSIDE, "of 1,000 near-boundary points read INSIDE"))
def test_seir_verdicts_near_the_boundary_have_no_false_inside(request, name):
    cset = request.getfixturevalue(name)
    sc, eps = cset.scenario, cset.tolerances.boundary_layer_eps
    pts = seir_boundary_points(sc, cset.set_kind, 1000, np.random.default_rng(7))
    keeps = seir_corner_shot(sc, cset.set_kind, pts)
    assert 0.2 < keeps.mean() < 0.9
    wrong = []
    for p, keep in zip(pts, keeps):
        m = membership(cset, p)
        if not keep and m.verdict is Verdict.INSIDE and m.distance_estimate > 2 * eps:
            wrong.append(p.tolist())
    assert wrong == [], (name, len(wrong), wrong[:3])
