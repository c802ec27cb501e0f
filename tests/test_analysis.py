import numpy as np
import pytest

from epibarrier.analysis import (
    ClassTag,
    EmptyTangentError,
    backward_filter,
    classify,
    is_trivial,
    tangent_set,
    usable_part,
)
from epibarrier.core import SetKind, validate_scenario
from epibarrier.models import BadChannelError

from conftest import SIR_PERFECT_RAW


def test_classification_table(
    sc_sir, sc_sir15, sc_sir40, sc_sir_imp, sc_seir, sc_seir40, sc_seir_imp
):
    assert classify(sc_sir40).tag is ClassTag.ALL_EQUAL_G
    assert classify(sc_sir).tag is ClassTag.BOTH_PROPER
    # 0.6 > 0.5/0.85: both boundaries detach from the cap face here too
    assert classify(sc_sir15).tag is ClassTag.BOTH_PROPER
    assert classify(sc_sir_imp).tag is ClassTag.M_PROPER
    assert classify(sc_seir).tag is ClassTag.BOTH_PROPER
    assert classify(sc_seir40).tag is ClassTag.MRPI_PROPER
    assert classify(sc_seir_imp).tag is ClassTag.M_PROPER


def test_classification_witnesses(sc_sir):
    w = classify(sc_sir).witnesses
    assert w["threshold"] == pytest.approx(0.5 / 0.98)
    assert w["beta_min"] == 0.6 and w["beta_max"] == 0.8


def test_classification_boundary_cases():
    # beta_max exactly at the threshold counts as trivial
    sc = validate_scenario(
        dict(SIR_PERFECT_RAW, beta=[0.4, 0.5 / 0.98], i_max=0.02)
    )
    assert classify(sc).tag is ClassTag.ALL_EQUAL_G
    sc = validate_scenario(dict(SIR_PERFECT_RAW, beta=[0.5, 0.8], i_max=0.02))
    assert classify(sc).tag is ClassTag.MRPI_PROPER


def test_is_trivial(sc_sir, sc_sir40, sc_seir40, sc_sir_imp):
    assert not is_trivial(sc_sir, SetKind.ADMISSIBLE)
    assert not is_trivial(sc_sir, SetKind.MRPI)
    assert is_trivial(sc_sir40, SetKind.ADMISSIBLE)
    assert is_trivial(sc_sir40, SetKind.MRPI)
    # MRPI_PROPER: only the admissible set fills the simplex
    assert is_trivial(sc_seir40, SetKind.ADMISSIBLE)
    assert not is_trivial(sc_seir40, SetKind.MRPI)
    with pytest.raises(BadChannelError):
        is_trivial(sc_sir_imp, SetKind.ADMISSIBLE)


def test_sir_usable_part(sc_sir):
    up_a = usable_part(sc_sir, SetKind.ADMISSIBLE)
    up_m = usable_part(sc_sir, SetKind.MRPI)
    assert up_a.s_hi == pytest.approx(0.5 / 0.6, abs=1e-12)
    assert up_m.s_hi == pytest.approx(0.5 / 0.8, abs=1e-12)
    assert up_a.contains([0.5, 0.02])
    assert not up_a.contains([0.9, 0.02])
    assert not up_a.contains([0.5, 0.01])


def test_sir_usable_part_within_simplex():
    sc = validate_scenario(dict(SIR_PERFECT_RAW, beta=[0.52, 0.8], i_max=0.02))
    up = usable_part(sc, SetKind.ADMISSIBLE)
    assert up.s_hi == pytest.approx(0.5 / 0.52)
    assert up.s_hi <= 1.0 - sc.i_max + 1e-15


def test_seir_usable_part(sc_seir):
    up_a = usable_part(sc_seir, SetKind.ADMISSIBLE)
    up_m = usable_part(sc_seir, SetKind.MRPI)
    assert up_a.s_hi == pytest.approx(0.7)
    # admissible: gamma_max/eta * i_max = (1/3)/(1/5) * 0.3 = 0.5
    assert up_a.e_cap_const == pytest.approx(0.5, abs=1e-12)
    # MRPI: gamma_min/eta * i_max = 0.3
    assert up_m.e_cap_const == pytest.approx(0.3, abs=1e-12)
    # E ceiling also respects the simplex: 1 - S - I_max
    assert up_a.e_cap(0.5) == pytest.approx(0.2)
    assert up_a.e_cap(0.1) == pytest.approx(0.5)
    assert up_a.contains([0.1, 0.4, 0.3])
    assert not up_a.contains([0.5, 0.4, 0.3])


def test_sir_tangent_points(sc_sir):
    t_a = tangent_set(sc_sir, SetKind.ADMISSIBLE)
    t_m = tangent_set(sc_sir, SetKind.MRPI)
    assert t_a.is_sir and t_a.z1_lo == t_a.z1_hi
    assert abs(t_a.z1_lo - 5.0 / 6.0) <= 1e-12
    assert abs(t_m.z1_lo - 0.625) <= 1e-12
    assert np.allclose(t_a.point(t_a.z1_lo), [5.0 / 6.0, 0.02])
    assert len(t_a.sample(30)) == 1  # single curve for SIR


def test_sir_imperfect_tangent(sc_sir_imp):
    t_m = tangent_set(sc_sir_imp, SetKind.MRPI)
    # worst-case removal over the cap-face feedback endpoint: gamma_min/beta_min
    assert t_m.z1_lo == pytest.approx(0.5, abs=1e-12)


def test_seir_tangent_segments(sc_seir, sc_seir_imp):
    t_a = tangent_set(sc_seir, SetKind.ADMISSIBLE)
    t_m = tangent_set(sc_seir, SetKind.MRPI)
    assert t_a.z2_star == pytest.approx(0.5, abs=1e-12)
    assert t_m.z2_star == pytest.approx(0.3, abs=1e-12)
    assert t_a.z1_hi == pytest.approx(1.0 - 0.5 - 0.3, abs=1e-12)
    assert t_m.z1_hi == pytest.approx(1.0 - 0.3 - 0.3, abs=1e-12)
    t_i = tangent_set(sc_seir_imp, SetKind.MRPI)
    # z2* = gamma_max/eta_max * i_max = (1/3)/(1/5) * 0.1
    assert t_i.z2_star == pytest.approx(1.0 / 6.0, abs=1e-12)
    pt = t_a.point(0.1)
    assert np.allclose(pt, [0.1, 0.5, 0.3])


def test_seir_sampling_excludes_origin(sc_seir):
    t_a = tangent_set(sc_seir, SetKind.ADMISSIBLE)
    z = t_a.sample(30)
    assert len(z) == 30
    assert z[0] > 0.0
    assert z[-1] == pytest.approx(t_a.z1_hi)
    assert np.all(np.diff(z) > 0.0)


def test_empty_tangent(sc_sir40):
    with pytest.raises(EmptyTangentError):
        tangent_set(sc_sir40, SetKind.ADMISSIBLE)


def test_backward_filter_sir(sc_sir):
    t_a = tangent_set(sc_sir, SetKind.ADMISSIBLE)
    f = backward_filter(sc_sir, SetKind.ADMISSIBLE, t_a)
    assert f.z1_lo == t_a.z1_lo and f.z1_hi == t_a.z1_hi


def test_backward_filter_seir(sc_seir, sc_seir_imp):
    t_m = tangent_set(sc_seir, SetKind.MRPI)
    f_m = backward_filter(sc_seir, SetKind.MRPI, t_m)
    # gamma_min/beta_max = 0.2 caps the simplex bound 0.4
    assert f_m.z1_hi == pytest.approx(0.2, abs=1e-12)
    t_i = tangent_set(sc_seir_imp, SetKind.MRPI)
    f_i = backward_filter(sc_seir_imp, SetKind.MRPI, t_i)
    # min(gamma_max/beta_min, 1 - z2* - i_max) = min(5/12, 0.7333) = 5/12
    assert f_i.z1_hi == pytest.approx(5.0 / 12.0, abs=1e-12)
    assert f_i.z1_hi <= t_i.z1_hi


def test_monotonicity_random_scenarios():
    # shrinking the cap never makes a nontrivial set trivial "more inside-out":
    # the tangency threshold gamma*/beta* is independent of i_max while the
    # triviality threshold gamma/(1-i_max) grows with i_max
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = float(rng.uniform(0.2, 0.6))
        b_lo = float(rng.uniform(0.3, 0.9))
        b_hi = b_lo + float(rng.uniform(0.01, 0.5))
        im_small = float(rng.uniform(0.01, 0.2))
        im_big = im_small + float(rng.uniform(0.05, 0.5))
        if im_big >= 1.0:
            continue
        small = validate_scenario(
            {"variant": "SIR_PERFECT", "beta": [b_lo, b_hi], "gamma": g, "i_max": im_small}
        )
        big = validate_scenario(
            {"variant": "SIR_PERFECT", "beta": [b_lo, b_hi], "gamma": g, "i_max": im_big}
        )
        for kind in SetKind:
            if is_trivial(small, kind):
                # larger cap only relaxes the constraint
                assert is_trivial(big, kind)
