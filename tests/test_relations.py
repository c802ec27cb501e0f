"""Metamorphic relations between sets: an oracle-free check of the verdicts.

Some relations follow from the definitions of the admissible set ``A`` and the
robust invariant set ``M`` alone.  Raising ``I_max`` enlarges both, since every
signal that keeps the lower cap keeps the higher one; a wider control box
enlarges ``A``; a wider disturbance box, or a feedback that restricts less,
shrinks ``M``; and for one perfect scenario ``M ⊆ A``.  Each relation counts the
points INSIDE the set that must be smaller and OUTSIDE the set that must be
larger, which must be none.  The SEIR relations fail today, with the counts
their marks record, on the off-mesh verdicts of ROADMAP item 2.
"""
import json

import numpy as np
import pytest

from epibarrier import SetKind, assemble_set, validate_scenario
from epibarrier.barrier import Verdict, membership

from conftest import (
    SEIR_IMPERFECT_RAW,
    SEIR_PERFECT_RAW,
    SIR_IMPERFECT_RAW,
    SIR_PERFECT_RAW,
    seir_points,
)

A, M = SetKind.ADMISSIBLE, SetKind.MRPI
WIDE_BETA = [0.55, 0.85]


def _sir(i_max, beta=SIR_PERFECT_RAW["beta"]):
    return dict(SIR_PERFECT_RAW, i_max=i_max, beta=beta)


_CAPS = (0.02, 0.05, 0.1, 0.15, 0.3)
_IMP = SIR_IMPERFECT_RAW
# (name, smaller set, larger set), a set being a raw scenario and its kind
RELATIONS = [
    *((f"A_cap_{lo}_{hi}", (_sir(lo), A), (_sir(hi), A)) for lo, hi in zip(_CAPS, _CAPS[1:])),
    *((f"M_cap_{lo}_{hi}", (_sir(lo), M), (_sir(hi), M)) for lo, hi in zip(_CAPS, _CAPS[1:])),
    *((f"M_in_A_{im}", (_sir(im), M), (_sir(im), A)) for im in (0.02, 0.05, 0.15)),
    *((f"wide_beta_A_{im}", (_sir(im), A), (_sir(im, WIDE_BETA), A)) for im in (0.02, 0.05, 0.15)),
    *((f"wide_beta_M_{im}", (_sir(im, WIDE_BETA), M), (_sir(im), M)) for im in (0.02, 0.05, 0.15)),
    ("imperfect_M_cap_0.2_0.25", (_IMP, M), (dict(_IMP, i_max=0.25), M)),
    ("imperfect_wide_gamma_M", (dict(_IMP, gamma=[0.28, 0.5]), M), (_IMP, M)),
    ("imperfect_lower_beta_min_M", (_IMP, M), (dict(_IMP, beta=[0.55, 0.8]), M)),
]

_SETS = {}


def _set(raw, kind):
    """The assembled set, once per scenario and kind in this module."""
    key = (json.dumps(raw, sort_keys=True), kind)
    if key not in _SETS:
        _SETS[key] = assemble_set(validate_scenario(raw), kind)
    return _SETS[key]


def _breaks(small, large, pts):
    """The points INSIDE the smaller set and OUTSIDE the larger one."""
    return [
        p.tolist()
        for p in pts
        if membership(small, p).verdict is Verdict.INSIDE
        and membership(large, p).verdict is Verdict.OUTSIDE
    ]


def _points(small, large, rng, n=1000):
    """``n`` uniform states of the capped simplex of the larger cap, and ``n`` within
    ``N(0, 2e-3)`` of the smaller set's polygon vertices."""
    im = max(small.scenario.i_max, large.scenario.i_max)
    pts = rng.uniform([0.0, 0.0], [1.0, im], (2 * n, 2))
    poly = small.polyline
    near = poly[rng.integers(0, len(poly), n)] + rng.normal(0.0, 2e-3, (n, 2))
    return np.vstack([pts[pts.sum(axis=1) <= 1.0][:n], near])


@pytest.mark.parametrize("name, small, large", RELATIONS, ids=[r[0] for r in RELATIONS])
def test_sir_sets_nest(name, small, large):
    small, large = _set(*small), _set(*large)
    pts = _points(small, large, np.random.default_rng(17))
    assert len(pts) == 2000
    bad = _breaks(small, large, pts)
    assert bad == [], (name, len(bad), bad[:3])


def _seir(i_max, beta=SEIR_PERFECT_RAW["beta"]):
    return dict(SEIR_PERFECT_RAW, i_max=i_max, beta=beta)


_SEIR_IMP = SEIR_IMPERFECT_RAW
# (name, smaller set, larger set, points INSIDE the smaller and OUTSIDE the larger today)
SEIR_RELATIONS = [
    ("A_cap_0.25_0.3", (_seir(0.25), A), (_seir(0.3), A), 234),
    ("A_cap_0.3_0.35", (_seir(0.3), A), (_seir(0.35), A), 208),
    ("A_cap_0.35_0.4", (_seir(0.35), A), (_seir(0.4), A), 0),  # A at 0.4 is trivial
    ("M_cap_0.25_0.3", (_seir(0.25), M), (_seir(0.3), M), 149),
    ("M_cap_0.3_0.35", (_seir(0.3), M), (_seir(0.35), M), 210),
    ("M_cap_0.35_0.4", (_seir(0.35), M), (_seir(0.4), M), 312),
    ("M_in_A_0.25", (_seir(0.25), M), (_seir(0.25), A), 155),
    ("M_in_A_0.3", (_seir(0.3), M), (_seir(0.3), A), 185),
    ("M_in_A_0.35", (_seir(0.35), M), (_seir(0.35), A), 190),
    ("wide_beta_A_0.3", (_seir(0.3), A), (_seir(0.3, [0.75, 1.05]), A), 2),
    ("wide_beta_M_0.3", (_seir(0.3, [0.75, 1.05]), M), (_seir(0.3), M), 12),
    ("imperfect_M_cap_0.1_0.12", (_SEIR_IMP, M), (dict(_SEIR_IMP, i_max=0.12), M), 30),
    ("imperfect_wide_eta_M", (_SEIR_IMP, M), (dict(_SEIR_IMP, eta=[1 / 6.5, 1 / 5.5]), M), 11),
]
_SEIR_POINTS = {}


def _seir_points(scenario):
    """2,000 states under ``scenario``'s cap (conftest.seir_points, ``default_rng(11)``), once
    per cap in this module."""
    if scenario.i_max not in _SEIR_POINTS:
        _SEIR_POINTS[scenario.i_max] = seir_points(scenario, 2000, np.random.default_rng(11))
    return _SEIR_POINTS[scenario.i_max]


@pytest.mark.parametrize(
    "name, small, large",
    [
        pytest.param(
            name,
            small,
            large,
            marks=[] if count == 0 else pytest.mark.xfail(
                strict=True, reason=f"off-mesh SEIR verdicts (ROADMAP item 2): {count} of 2,000 points"
            ),
        )
        for name, small, large, count in SEIR_RELATIONS
    ],
    ids=[r[0] for r in SEIR_RELATIONS],
)
def test_seir_sets_nest(name, small, large):
    small, large = _set(*small), _set(*large)
    pts = _seir_points(max(small.scenario, large.scenario, key=lambda sc: sc.i_max))
    bad = _breaks(small, large, pts)
    assert bad == [], (name, len(bad), bad[:3])
