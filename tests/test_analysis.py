from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epibarrier.analysis import (
    ClassTag,
    EmptyTangentError,
    TangentSet,
    UsablePart,
    backward_filter,
    classify,
    is_trivial,
    tangent_set,
    usable_part,
)
from epibarrier.core import SetKind, Variant, validate_scenario
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


# SEIR-perfect scenarios at the exact admissible boundary, where the paper's
# inequality eta*(1 - i_max) - gamma_max*i_max > 0 and the tangent set's
# z1_hi = 1 - z2* - i_max round to different sides
EMPTY_TANGENT_RAW = {
    "variant": "SEIR_PERFECT",
    "i_max": 0.05903627382330471,
    "beta": [0.13551532189465046, 0.26894411035431975],
    "eta": 0.5312569300054344,
    "gamma": [5.645043496605542, 8.467565244908313],
}  # z1_hi < 0: tangent_set refused, so building A failed
ZERO_WIDTH_TANGENT_RAW = {
    "variant": "SEIR_PERFECT",
    "i_max": 0.9238194529882411,
    "beta": [0.7321934573096696, 2.8420500545515273],
    "eta": 1.574342984794412,
    "gamma": [0.08654960257859688, 0.12982440386789532],
}  # z1_hi == 0.0: every curve of A started at the excluded z1 = 0


@pytest.mark.parametrize(
    "raw", [EMPTY_TANGENT_RAW, ZERO_WIDTH_TANGENT_RAW], ids=["empty", "zero-width"]
)
def test_triviality_at_the_exact_boundary(raw):
    sc = validate_scenario(raw)
    assert classify(sc).witnesses["eta_term_gamma_max"] > 0.0
    assert classify(sc).tag is ClassTag.MRPI_PROPER
    assert is_trivial(sc, SetKind.ADMISSIBLE)
    with pytest.raises(EmptyTangentError):
        tangent_set(sc, SetKind.ADMISSIBLE)
    assert not is_trivial(sc, SetKind.MRPI)
    assert tangent_set(sc, SetKind.MRPI).z1_hi > 0.0


def test_sir_usable_part(sc_sir):
    up_a = usable_part(sc_sir, SetKind.ADMISSIBLE)
    up_m = usable_part(sc_sir, SetKind.MRPI)
    assert up_a.s_hi == pytest.approx(0.5 / 0.6, abs=1e-12)
    assert up_m.s_hi == pytest.approx(0.5 / 0.8, abs=1e-12)


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


# Reference: the hand-written cap-face rate tables that the channel table in
# models replaced, with the usable part, tangency set and filter built on them.
def _rate_pair(scenario, set_kind):
    v = scenario.variant
    if v is Variant.SIR_PERFECT:
        if set_kind is SetKind.ADMISSIBLE:
            return scenario.gamma, scenario.beta_min
        return scenario.gamma, scenario.beta_max
    if v is Variant.SIR_IMPERFECT:
        return scenario.gamma_min, scenario.beta_min
    if v is Variant.SEIR_PERFECT:
        if set_kind is SetKind.ADMISSIBLE:
            return scenario.gamma_max, scenario.beta_min
        return scenario.gamma_min, scenario.beta_max
    return scenario.gamma_max, scenario.beta_min


def _e_rate_pair(scenario, set_kind):
    if scenario.variant is Variant.SEIR_PERFECT:
        if set_kind is SetKind.ADMISSIBLE:
            return scenario.gamma_max, scenario.eta
        return scenario.gamma_min, scenario.eta
    return scenario.gamma_max, scenario.eta_max


def _reference_usable_part(scenario, set_kind):
    im = scenario.i_max
    if scenario.variant.is_sir:
        g, b = _rate_pair(scenario, set_kind)
        return UsablePart(set_kind, im, s_hi=min(g / b, 1.0 - im))
    g, e = _e_rate_pair(scenario, set_kind)
    return UsablePart(set_kind, im, s_hi=1.0 - im, e_cap_const=(g / e) * im)


def _reference_tangent_set(scenario, set_kind):
    im = scenario.i_max
    if scenario.variant.is_sir:
        g, b = _rate_pair(scenario, set_kind)
        z1 = g / b
        if z1 + im >= 1.0:
            raise EmptyTangentError
        return TangentSet(set_kind, im, z1_lo=z1, z1_hi=z1)
    g, e = _e_rate_pair(scenario, set_kind)
    z2 = (g / e) * im
    z1_hi = 1.0 - z2 - im
    if z1_hi <= 0.0:
        raise EmptyTangentError
    return TangentSet(set_kind, im, z1_lo=0.0, z1_hi=z1_hi, z2_star=z2)


def _reference_backward_filter(scenario, set_kind, tangents):
    g, b = _rate_pair(scenario, set_kind)
    if not tangents.is_sir:
        return replace(tangents, z1_hi=min(g / b, tangents.z1_hi))
    return tangents


_RATE = st.floats(min_value=1e-3, max_value=5.0, allow_nan=False, allow_infinity=False)
_INTERVAL = st.lists(_RATE, min_size=2, max_size=2).map(sorted)


@st.composite
def _scenarios(draw):
    variant = draw(st.sampled_from(list(Variant)))
    raw = {
        "variant": variant.value,
        "i_max": draw(st.floats(min_value=1e-3, max_value=0.999)),
        "beta": draw(_INTERVAL),
    }
    if variant is Variant.SIR_PERFECT:
        raw["gamma"] = draw(_RATE)
    else:
        raw["gamma"] = draw(_INTERVAL)
    if variant is Variant.SEIR_PERFECT:
        raw["eta"] = draw(_RATE)
    elif variant is Variant.SEIR_IMPERFECT:
        raw["eta"] = draw(_INTERVAL)
    return validate_scenario(raw)


@settings(max_examples=400, deadline=None)
@given(_scenarios(), st.sampled_from(list(SetKind)))
def test_cap_face_rates_match_the_reference_tables(scenario, set_kind):
    # float repr round-trips, so equal reprs mean bit-identical fields
    if set_kind is SetKind.ADMISSIBLE and not scenario.variant.is_perfect:
        some = TangentSet(set_kind, scenario.i_max, 0.1, 0.1)
        for call in (usable_part, tangent_set, lambda sc, k: backward_filter(sc, k, some)):
            with pytest.raises(BadChannelError):
                call(scenario, set_kind)
        return
    assert repr(usable_part(scenario, set_kind)) == repr(
        _reference_usable_part(scenario, set_kind)
    )
    try:
        expected = _reference_tangent_set(scenario, set_kind)
    except EmptyTangentError:
        with pytest.raises(EmptyTangentError):
            tangent_set(scenario, set_kind)
        return
    got = tangent_set(scenario, set_kind)
    assert repr(got) == repr(expected)
    assert repr(backward_filter(scenario, set_kind, got)) == repr(
        _reference_backward_filter(scenario, set_kind, expected)
    )


@st.composite
def _boundary_scenarios(draw):
    """A scenario whose triviality rate sits exactly on the paper's boundary.

    SIR: gamma (or gamma_min) = beta_end * (1 - i_max); SEIR: one gamma end
    = eta_end * (1 - i_max) / i_max, so the inequality and the tangent set's
    emptiness test are evaluated where their roundings can disagree.
    """
    variant = draw(st.sampled_from(list(Variant)))
    im = draw(st.floats(min_value=0.01, max_value=0.99))
    beta = draw(_INTERVAL)
    raw = {"variant": variant.value, "i_max": im, "beta": beta}
    if variant.is_sir:
        edge = draw(st.sampled_from(beta)) * (1.0 - im)
    else:
        # the rule reads eta (perfect) or eta_max (imperfect)
        raw["eta"] = draw(_INTERVAL) if variant is Variant.SEIR_IMPERFECT else draw(_RATE)
        edge = float(np.max(raw["eta"])) * (1.0 - im) / im
    if variant is Variant.SIR_PERFECT:
        raw["gamma"] = edge
    else:
        raw["gamma"] = sorted([edge, draw(_RATE)])
    return validate_scenario(raw)


@settings(max_examples=300, deadline=None)
@given(_boundary_scenarios())
def test_classify_agrees_with_the_tangent_set_on_the_boundary(scenario):
    # a set is trivial exactly when tangent_set refuses; otherwise its
    # filtered tangent abscissas, from which assemble_set traces, are positive
    kinds = list(SetKind) if scenario.variant.is_perfect else [SetKind.MRPI]
    trivial = {}
    for kind in kinds:
        trivial[kind] = is_trivial(scenario, kind)
        if trivial[kind]:
            with pytest.raises(EmptyTangentError):
                tangent_set(scenario, kind)
            continue
        tangents = backward_filter(scenario, kind, tangent_set(scenario, kind))
        assert np.all(tangents.sample(30) > 0.0)
        if tangents.is_sir:
            assert tangents.z1_hi + scenario.i_max < 1.0
    tag = classify(scenario).tag
    if not scenario.variant.is_perfect:
        assert (tag is ClassTag.M_EQUAL_G) == trivial[SetKind.MRPI]
    else:
        assert (tag is ClassTag.ALL_EQUAL_G) == trivial[SetKind.MRPI]
        assert (tag is not ClassTag.BOTH_PROPER) == trivial[SetKind.ADMISSIBLE]
