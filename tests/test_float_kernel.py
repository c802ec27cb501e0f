"""The float-tuple RK4 kernel against the numpy-vector expressions it replaced.

The references below are the array forms of the RK4 step and of the coupled
backward right-hand side; the tuple kernel must reproduce them bit for bit.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epibarrier import validate_scenario
from epibarrier.barrier import _adjoint_renorm, _backward_rhs
from epibarrier.core import Variant
from epibarrier.integrate import NonFiniteError, _rk4_stages, rk4_step
from epibarrier.models import InputVec, input_box, state_field, state_rhs

from conftest import (
    SEIR_IMPERFECT_RAW,
    SEIR_PERFECT_RAW,
    SIR_IMPERFECT_RAW,
    SIR_PERFECT_RAW,
)

SCENARIOS = [
    validate_scenario(raw)
    for raw in (SIR_PERFECT_RAW, SIR_IMPERFECT_RAW, SEIR_PERFECT_RAW, SEIR_IMPERFECT_RAW)
]


def _rk4_ref(rhs, t, y, h):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _backward_rhs_ref(scenario, u):
    v = scenario.variant
    im = scenario.i_max
    if v is Variant.SIR_PERFECT or v is Variant.SIR_IMPERFECT:
        g = scenario.gamma if v is Variant.SIR_PERFECT else u.gamma

        def rhs(t, y):
            S, I, l1, l2 = y[0], y[1], y[2], y[3]
            if v is Variant.SIR_IMPERFECT:
                r = min(1.0, max(0.0, I / im))
                b = scenario.beta_min * r + scenario.beta_max * (1.0 - r)
                a = 2.0 * (scenario.beta_min - scenario.beta_max) / im * I + scenario.beta_max
            else:
                b = u.beta
                a = b
            flux = b * S * I
            f0, f1 = -flux, flux - g * I
            return np.array(
                [
                    -f0,
                    -f1,
                    -(b * I * l1 - b * I * l2),
                    -(a * S * l1 + (-a * S + g) * l2),
                    np.sqrt(f0 * f0 + f1 * f1),
                ]
            )

        return rhs

    def rhs(t, y):
        S, E, I = y[0], y[1], y[2]
        l1, l2, l3 = y[3], y[4], y[5]
        if v is Variant.SEIR_PERFECT:
            b, g, e = u.beta, u.gamma, scenario.eta
            a, dd = b, g
        else:
            r = min(1.0, max(0.0, I / im))
            b = scenario.beta_min * r + scenario.beta_max * (1.0 - r)
            g = scenario.gamma_min * (1.0 - r) + scenario.gamma_max * r
            a = 2.0 * (scenario.beta_min - scenario.beta_max) / im * I + scenario.beta_max
            dd = 2.0 * (scenario.gamma_max - scenario.gamma_min) / im * I + scenario.gamma_min
            e = u.eta
        flux = b * S * I
        lat = e * E
        f0, f1, f2 = -flux, flux - lat, lat - g * I
        return np.array(
            [
                -f0,
                -f1,
                -f2,
                -(b * I * l1 - b * I * l2),
                -(e * l2 - e * l3),
                -(a * S * l1 - a * S * l2 + dd * l3),
                np.sqrt(f0 * f0 + f1 * f1 + f2 * f2),
            ]
        )

    return rhs


_unit = st.floats(0.0, 1.0)
_adjoint = st.floats(-1.0, 1.0).filter(lambda v: abs(v) > 1e-6)
_step = st.floats(1e-6, 0.1) | st.floats(-0.1, -1e-6)


@st.composite
def _case(draw):
    sc = draw(st.sampled_from(SCENARIOS))
    d = sc.dim
    x = [draw(_unit) for _ in range(d)]
    lam = [draw(_adjoint) for _ in range(d)]
    vals = {}
    for ch, (lo, hi) in input_box(sc).items():
        vals[ch.value] = draw(st.sampled_from([lo, hi]) | st.floats(lo, hi))
    return sc, InputVec(**vals), x + lam + [draw(_unit)], draw(_step), draw(_unit)


@settings(max_examples=400, deadline=None)
@given(_case())
def test_backward_step_bit_identical(case):
    sc, u, y, h, t = case
    got = rk4_step(_backward_rhs(sc, u, sc.dim), t, tuple(y), h)
    want = _rk4_ref(_backward_rhs_ref(sc, u), t, np.array(y), h)
    assert np.array(got).tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(_case())
def test_forward_step_bit_identical(case):
    sc, u, y, h, t = case
    x = y[: sc.dim]
    got = rk4_step(lambda tt, yy: state_field(sc, yy, u), t, tuple(x), h)
    want = _rk4_ref(lambda tt, yy: state_rhs(sc, yy, u), t, np.array(x), h)
    assert np.array(got).tobytes() == want.tobytes()


@settings(max_examples=400, deadline=None)
@given(_case())
def test_renorm_matches_linalg_norm(case):
    sc, _, y, _, _ = case
    d = sc.dim
    out = _adjoint_renorm(d)(tuple(y))
    lam = np.array(y[d : 2 * d])
    assert np.array(out[d : 2 * d]).tobytes() == (lam / np.linalg.norm(lam)).tobytes()
    assert out[:d] == tuple(y[:d]) and out[2 * d :] == tuple(y[2 * d :])


WIDTHS = [2, 3, 5, 7]  # forward SIR/SEIR states, backward SIR/SEIR states


def _linear_plus_product(coef):
    # works on float tuples and on tuples of lane arrays alike
    n = len(coef)

    def rhs(t, y):
        return tuple(
            c0 * y[i] + c1 * y[(i + 1) % n] + c2 * y[i] * y[(i + 2) % n] + t
            for i, (c0, c1, c2) in enumerate(coef)
        )

    return rhs


_coef = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@st.composite
def _width_case(draw, lanes=1):
    n = draw(st.sampled_from(WIDTHS))
    coef = [draw(_coef) for _ in range(n)]
    y = [[draw(st.floats(-1.0, 1.0)) for _ in range(lanes)] for _ in range(n)]
    return _linear_plus_product(coef), y, draw(_step), draw(_unit)


@settings(max_examples=400, deadline=None)
@given(_width_case())
def test_generated_stages_match_array_rk4(case):
    rhs, y, h, t = case
    y0 = tuple(c[0] for c in y)
    got = _rk4_stages(rhs, t, y0, h)
    want = _rk4_ref(lambda tt, yy: np.array(rhs(tt, yy)), t, np.array(y0), h)
    assert len(got) == len(y0)
    assert np.array(got).tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(_width_case(lanes=6))
def test_generated_stages_on_lane_arrays_match_per_lane_steps(case):
    rhs, y, h, t = case
    got = _rk4_stages(rhs, t, tuple(np.array(c) for c in y), h)
    array_rhs = lambda tt, yy: np.array(rhs(tt, yy))
    for lane in range(6):
        want = _rk4_ref(array_rhs, t, np.array([c[lane] for c in y]), h)
        assert np.array([c[lane] for c in got]).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", WIDTHS)
def test_rk4_step_rejects_nonfinite_at_every_width(n):
    for bad in range(n):
        rhs = lambda t, y: tuple(np.nan if i == bad else 0.0 for i in range(n))
        with pytest.raises(NonFiniteError):
            rk4_step(rhs, 0.0, (0.5,) * n, 1e-3)
