"""The float-tuple RK4 kernel against the numpy-vector expressions it replaced.

The references below are the array forms of the RK4 step, of the closed-loop
forward field and of the coupled backward right-hand side, each written from
the model's formulas without calling the package; the tuple kernel must
reproduce them bit for bit.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epibarrier import validate_scenario
from epibarrier.barrier import _unit_adjoint
from epibarrier.core import Tolerances, Variant
from epibarrier.integrate import (
    NonFiniteError,
    Source,
    _rk4_stages,
    integrate_until,
    rk4_step,
    source_function,
)
from epibarrier.models import InputVec, backward_field, backward_source, input_box, vector_field

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


def _forward_rhs_ref(scenario, u):
    # a free channel takes its value from u; every other rate with an
    # interval follows the affine feedback on I, beta from beta_max down to
    # beta_min and gamma from gamma_min up to gamma_max over [0, I_max],
    # clamped outside it (NaN and -0.0 read as I = 0)
    v = scenario.variant
    im = scenario.i_max
    free = lambda ch: None if u is None else getattr(u, ch)

    def rhs(t, y):
        I = y[-1]
        r = min(1.0, max(0.0, I / im))
        b = free("beta")
        if b is None:
            b = scenario.beta_min * r + scenario.beta_max * (1.0 - r)
        g = scenario.gamma if v is Variant.SIR_PERFECT else free("gamma")
        if g is None:
            g = scenario.gamma_min * (1.0 - r) + scenario.gamma_max * r
        if len(y) == 2:
            S = y[0]
            return np.array([-(b * S * I), b * S * I - g * I])
        S, E = y[0], y[1]
        e = scenario.eta if v is Variant.SEIR_PERFECT else u.eta
        return np.array([-(b * S * I), b * S * I - e * E, e * E - g * I])

    return rhs


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
    got = rk4_step(backward_field(sc, u), t, tuple(y), h)
    want = _rk4_ref(_backward_rhs_ref(sc, u), t, np.array(y), h)
    assert np.array(got).tobytes() == want.tobytes()


def _one_loop_step(rhs, y, h, t, post_step=None):
    # integrate_until's generated loop, stopped at the horizon after one step
    res = integrate_until(
        rhs, [], y, t0=t, tolerances=Tolerances(step_h=h), t_limit=h, post_step=post_step
    )
    assert res.n_steps == 1
    return res.y_end


@settings(max_examples=400, deadline=None)
@given(_case())
def test_inlined_backward_step_bit_identical(case):
    # the backward source inlined into the segment loop steps as the array form
    sc, u, y, h, t = case
    got = _one_loop_step(backward_source(sc, u), y, abs(h), t)
    want = _rk4_ref(_backward_rhs_ref(sc, u), t, np.array(y), abs(h))
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(_case())
def test_forward_step_bit_identical(case):
    sc, u, y, h, t = case
    x = y[: sc.dim]
    got = rk4_step(vector_field(sc, u), t, tuple(x), h)
    want = _rk4_ref(_forward_rhs_ref(sc, u), t, np.array(x), h)
    assert np.array(got).tobytes() == want.tobytes()


_LANE_I = [-0.5, -1e-300, -0.0, 0.0, 1e-300, 0.5, 1.0, 1.5, 40.0, np.nan]  # times I_max


# every variant under array inputs, and the perfect ones closed on the feedback law
_LANE_CASES = [(sc, False) for sc in SCENARIOS] + [
    (sc, True) for sc in SCENARIOS if sc.variant.is_perfect
]


@pytest.mark.parametrize(
    "sc, closed", _LANE_CASES, ids=[f"{sc.variant.value}-{c}" for sc, c in _LANE_CASES]
)
def test_forward_step_on_lane_arrays_matches_the_reference(sc, closed):
    # lanes below 0, at -0.0 and 0.0, inside, at and above the cap, and NaN:
    # the rate law's np.clip branch, per lane against the float reference;
    # a NaN lane's state is NaN throughout, whatever its bits, and every
    # other lane steps alone as a float tuple to the same bits
    rng = np.random.default_rng(37)
    n = len(_LANE_I)
    lanes = [rng.uniform(0.0, 1.0, n) for _ in range(sc.dim - 1)]
    lanes.append(np.array(_LANE_I) * sc.i_max)
    box = input_box(sc)
    lane_u = {} if closed else {ch.value: rng.uniform(lo, hi, n) for ch, (lo, hi) in box.items()}
    u = InputVec(**lane_u) if lane_u else None
    h, t = 0.05, 0.3
    got = _rk4_stages(vector_field(sc, u), t, tuple(lanes), h)
    for m in range(n):
        u_m = InputVec(**{ch: float(a[m]) for ch, a in lane_u.items()}) if lane_u else None
        want = _rk4_ref(_forward_rhs_ref(sc, u_m), t, np.array([a[m] for a in lanes]), h)
        lane = np.array([a[m] for a in got])
        if np.isnan(_LANE_I[m]):
            assert np.isnan(lane).all() and np.isnan(want).all()
            continue
        assert lane.tobytes() == want.tobytes(), _LANE_I[m]
        # the same state as a float tuple: the rate law's scalar clamp
        alone = rk4_step(vector_field(sc, u_m), t, tuple(a[m].item() for a in lanes), h)
        assert np.array(alone).tobytes() == want.tobytes(), _LANE_I[m]


@settings(max_examples=400, deadline=None)
@given(_case())
def test_renorm_matches_linalg_norm(case):
    # as a function, and inlined into the loop after one step of a zero field,
    # which leaves every (nonzero or +0.0) component as it is
    sc, _, y, _, _ = case
    d = sc.dim
    unit = _unit_adjoint(d)
    still = Source(("0.0",) * len(y))
    inlined = tuple(_one_loop_step(still, y, 0.01, 0.0, post_step=unit).tolist())
    lam = np.array(y[d : 2 * d])
    for out in (source_function(unit)(0.0, tuple(y)), inlined):
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
