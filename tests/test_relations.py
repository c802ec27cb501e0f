"""Metamorphic relations between SIR sets: an oracle-free check of the verdicts.

Some relations follow from the definitions of the admissible set ``A`` and the
robust invariant set ``M`` alone.  Raising ``I_max`` enlarges both, since every
signal that keeps the lower cap keeps the higher one; a wider control box
enlarges ``A``; a wider disturbance box, or a feedback that restricts less,
shrinks ``M``; and for one perfect scenario ``M ⊆ A``.  Each relation counts the
points INSIDE the set that must be smaller and OUTSIDE the set that must be
larger, which must be none.
"""
import json

import numpy as np
import pytest

from epibarrier import SetKind, assemble_set, validate_scenario
from epibarrier.barrier import Verdict, membership

from conftest import SIR_IMPERFECT_RAW, SIR_PERFECT_RAW

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
    bad = [
        p.tolist()
        for p in pts
        if membership(small, p).verdict is Verdict.INSIDE
        and membership(large, p).verdict is Verdict.OUTSIDE
    ]
    assert bad == [], (name, len(bad), bad[:3])
