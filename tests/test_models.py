import itertools
import math

import numpy as np
import pytest

from epibarrier.core import SetKind, Variant
from epibarrier.models import (
    BadChannelError,
    Channel,
    InputVec,
    active_channels,
    adjoint_matrix,
    adjoint_rhs,
    backward_field,
    extremal_value,
    input_box,
    lie_derivative_g,
    rate_law,
    state_rhs,
    switch_value,
    vector_field,
)


def _mid_input(scenario):
    vals = {}
    for ch, (lo, hi) in input_box(scenario).items():
        vals[ch.value] = 0.5 * (lo + hi)
    return InputVec(**vals)


def _random_state(rng, dim, i_max):
    # strictly interior point of the constrained simplex
    while True:
        x = rng.uniform(0.01, 0.9, dim)
        x[-1] = rng.uniform(0.01, 0.95) * i_max
        if np.sum(x) < 0.98:
            return x


ALL_SCENARIO_FIXTURES = ["sc_sir", "sc_sir_imp", "sc_seir", "sc_seir_imp"]


def test_sir_rhs_values(sc_sir):
    assert sc_sir.gamma == 0.5
    f = vector_field(sc_sir, InputVec(beta=0.7))(0.0, (0.8, 0.1))
    assert f[0] == pytest.approx(-0.056)
    assert f[1] == pytest.approx(0.056 - 0.05)


def test_seir_rhs_values(sc_seir):
    assert sc_seir.eta == 0.2
    f = vector_field(sc_seir, InputVec(beta=0.9, gamma=0.25))(0.0, (0.6, 0.2, 0.1))
    flux, lat = 0.9 * 0.6 * 0.1, 0.2 * 0.2
    assert np.allclose(f, [-flux, flux - lat, lat - 0.25 * 0.1])


def test_simplex_mass_balance(sc_sir, sc_sir_imp, sc_seir, sc_seir_imp):
    # total derivative of S+I (resp. S+E+I) is -gamma I: mass only leaves
    rng = np.random.default_rng(7)
    for sc in (sc_sir, sc_sir_imp, sc_seir, sc_seir_imp):
        u = _mid_input(sc)
        for _ in range(5):
            x = _random_state(rng, sc.dim, sc.i_max)
            f = vector_field(sc, u)(0.0, x)
            assert float(np.sum(f)) <= 0.0
    # and the I=0 axis is invariant: f = 0 there for SIR
    assert np.allclose(vector_field(sc_sir, InputVec(beta=0.7))(0.0, [0.7, 0.0]), 0.0)


def _state_field_ref(scenario, state, u):
    # the formulas as written before vector_field: the rate law
    # at the state's I on every evaluation
    beta, _, gamma, _, eta = rate_law(scenario, u)(state[-1])
    if len(state) == 2:
        S, I = state
        flux = beta * S * I
        return -flux, flux - gamma * I
    S, E, I = state
    flux = beta * S * I
    lat = eta * E
    return -flux, flux - lat, lat - gamma * I


@pytest.mark.parametrize("name", ALL_SCENARIO_FIXTURES)
def test_vector_field_matches_the_reference_bit_for_bit(request, name):
    # float tuples and lane arrays, with an input and with u=None (every
    # rate that has a feedback law closed on it); states include I = 0 and
    # I above the cap, where the closed-loop rates clamp
    sc = request.getfixturevalue(name)
    rng = np.random.default_rng(23)
    box = input_box(sc)
    n = 40
    cols = [rng.uniform(0.0, 1.0, n) for _ in range(sc.dim - 1)]
    cols.append(rng.uniform(0.0, 1.5 * sc.i_max, n))
    cols[-1][:4] = [0.0, sc.i_max, 1.2 * sc.i_max, 1e-300]
    lanes = tuple(cols)
    lane_u = InputVec(**{ch.value: rng.uniform(lo, hi, n) for ch, (lo, hi) in box.items()})
    for u_arr in (lane_u, None):
        if u_arr is None and sc.variant is Variant.SEIR_IMPERFECT:
            # eta has no feedback law, so neither form has a closed loop
            with pytest.raises(TypeError):
                _state_field_ref(sc, lanes, None)
            with pytest.raises(TypeError):
                vector_field(sc, None)(0.0, lanes)
            continue
        got = vector_field(sc, u_arr)(0.0, lanes)
        want = _state_field_ref(sc, lanes, u_arr)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        for m in range(n):
            y = tuple(float(a[m]) for a in lanes)
            u = None if u_arr is None else InputVec(
                **{ch.value: float(getattr(u_arr, ch.value)[m]) for ch in box}
            )
            want = np.array(_state_field_ref(sc, y, u)).tobytes()
            got = vector_field(sc, u)(float(m), y)
            assert all(type(v) is float for v in got)
            assert np.array(got).tobytes() == want


def _random_input(rng, scenario):
    box = input_box(scenario)
    return InputVec(**{ch.value: rng.uniform(lo, hi) for ch, (lo, hi) in box.items()})


@pytest.mark.parametrize("name", ALL_SCENARIO_FIXTURES)
def test_backward_field_repeats_the_vector_field(request, name):
    # backward_field extends the vector field's statements: its state part
    # must be minus vector_field bit for bit, and its arc-length rate
    # sqrt(f . f) summed left to right
    sc = request.getfixturevalue(name)
    rng = np.random.default_rng(29)
    d = sc.dim
    for _ in range(200):
        u = _random_input(rng, sc)
        x = (*rng.uniform(0.0, 1.0, d - 1).tolist(), float(rng.uniform(0.0, 1.5 * sc.i_max)))
        lam = tuple(rng.uniform(-1.0, 1.0, d).tolist())
        f = vector_field(sc, u)(0.0, x)
        back = backward_field(sc, u)(0.0, (*x, *lam, float(rng.uniform())))
        assert all(type(v) is float for v in back) and len(back) == 2 * d + 1
        assert np.array(back[:d]).tobytes() == (-np.array(f)).tobytes()
        ff = f[0] * f[0]
        for v in f[1:]:
            ff = ff + v * v
        assert back[-1] == math.sqrt(ff)


def _adjoint_matrix_ref(scenario, state, u):
    # the 2-D and 3-D templates adjoint_matrix wrote out before it was read
    # back from backward_field
    if len(state) == 2:
        S, I = state
        b, a, _, d, _ = rate_law(scenario, u)(I)
        return np.array([[b * I, -b * I], [a * S, -a * S + d]])
    S, E, I = state
    b, a, _, d, e = rate_law(scenario, u)(I)
    return np.array(
        [
            [b * I, -b * I, 0.0],
            [0.0, e, -e],
            [a * S, -a * S, d],
        ]
    )


@pytest.mark.parametrize("name", ALL_SCENARIO_FIXTURES)
def test_adjoint_matrix_matches_the_templates_bit_for_bit(request, name):
    sc = request.getfixturevalue(name)
    rng = np.random.default_rng(31)
    for _ in range(500):
        u = _random_input(rng, sc)
        x = _random_state(rng, sc.dim, sc.i_max)
        if rng.uniform() < 0.3:  # above the cap, where closed-loop rates clamp
            x[-1] = rng.uniform(1.0, 1.5) * sc.i_max
        got = adjoint_matrix(sc, x, u)
        assert got.shape == (sc.dim, sc.dim)
        assert got.tobytes() == _adjoint_matrix_ref(sc, x, u).tobytes()
    x = _random_state(rng, sc.dim, sc.i_max)
    assert adjoint_matrix(sc, x.tolist(), u).tobytes() == adjoint_matrix(sc, x, u).tobytes()


def _beta_feedback(i, sc):
    return rate_law(sc, None)(i)[0]


def _gamma_feedback(i, sc):
    return rate_law(sc, None)(i)[2]


def test_feedback_endpoints(sc_sir_imp, sc_seir_imp):
    sc = sc_sir_imp
    assert _beta_feedback(0.0, sc) == pytest.approx(sc.beta_max)
    assert _beta_feedback(sc.i_max, sc) == pytest.approx(sc.beta_min)
    assert _beta_feedback(0.5 * sc.i_max, sc) == pytest.approx(
        0.5 * (sc.beta_min + sc.beta_max)
    )
    sc = sc_seir_imp
    assert _gamma_feedback(0.0, sc) == pytest.approx(sc.gamma_min)
    assert _gamma_feedback(sc.i_max, sc) == pytest.approx(sc.gamma_max)


def test_alpha_delta_are_product_rule_slopes(sc_sir_imp, sc_seir_imp):
    # alpha(I) = d/dI [beta(I) I], delta(I) = d/dI [gamma(I) I]
    eps = 1e-7
    for i in (0.02, 0.1, 0.18):
        sc = sc_sir_imp
        num = (
            _beta_feedback(i + eps, sc) * (i + eps)
            - _beta_feedback(i - eps, sc) * (i - eps)
        ) / (2 * eps)
        assert rate_law(sc, None)(i)[1] == pytest.approx(num, abs=1e-6)
    for i in (0.01, 0.05, 0.09):
        sc = sc_seir_imp
        num = (
            _gamma_feedback(i + eps, sc) * (i + eps)
            - _gamma_feedback(i - eps, sc) * (i - eps)
        ) / (2 * eps)
        assert rate_law(sc, None)(i)[3] == pytest.approx(num, abs=1e-6)


def test_adjoint_matrix_is_minus_jacobian_transposed(
    sc_sir, sc_sir_imp, sc_seir, sc_seir_imp
):
    rng = np.random.default_rng(42)
    eps = 1e-6
    for sc in (sc_sir, sc_sir_imp, sc_seir, sc_seir_imp):
        u = _mid_input(sc)
        for _ in range(10):
            x = _random_state(rng, sc.dim, sc.i_max)
            f, rhs = vector_field(sc, u), backward_field(sc, u)
            jac = np.empty((sc.dim, sc.dim))
            for j in range(sc.dim):
                dx = np.zeros(sc.dim)
                dx[j] = eps
                jac[:, j] = (np.array(f(0.0, x + dx)) - np.array(f(0.0, x - dx))) / (2 * eps)
            # backward, the adjoint moves as -A lambda: at the unit e_k, column k of
            # -A, which is row k of the Jacobian where A = -J^T
            minus_a = np.array([rhs(0.0, (*x, *e, 0.0))[sc.dim : -1] for e in np.eye(sc.dim).tolist()]).T
            assert np.max(np.abs(jac.T - minus_a)) <= 1e-5


def test_adjoint_rhs_linearity(sc_seir):
    u = InputVec(beta=0.9, gamma=0.25)
    x = np.array([0.5, 0.1, 0.2])
    l1, l2 = np.array([1.0, -0.5, 0.2]), np.array([0.0, 2.0, -1.0])
    lhs = adjoint_rhs(sc_seir, x, 2.0 * l1 + 3.0 * l2, u)
    rhs = 2.0 * adjoint_rhs(sc_seir, x, l1, u) + 3.0 * adjoint_rhs(sc_seir, x, l2, u)
    assert np.allclose(lhs, rhs)


def test_active_channels():
    assert active_channels(Variant.SIR_PERFECT) == (Channel.BETA,)
    assert active_channels(Variant.SEIR_PERFECT) == (Channel.BETA, Channel.GAMMA)
    assert active_channels(Variant.SIR_IMPERFECT) == (Channel.GAMMA,)
    assert active_channels(Variant.SEIR_IMPERFECT) == (Channel.ETA,)


def test_switch_value_formulas():
    lam = [0.3, -0.4, 0.9]
    assert switch_value(
        Variant.SEIR_PERFECT, SetKind.MRPI, Channel.BETA, lam
    ) == pytest.approx(-0.7)
    assert switch_value(
        Variant.SEIR_PERFECT, SetKind.MRPI, Channel.GAMMA, lam
    ) == pytest.approx(0.9)
    assert switch_value(
        Variant.SEIR_IMPERFECT, SetKind.MRPI, Channel.ETA, lam
    ) == pytest.approx(1.3)
    assert switch_value(
        Variant.SIR_IMPERFECT, SetKind.MRPI, Channel.GAMMA, [0.3, -0.4]
    ) == pytest.approx(-0.4)


def test_switch_value_channel_guards():
    with pytest.raises(BadChannelError):
        switch_value(Variant.SIR_PERFECT, SetKind.MRPI, Channel.GAMMA, [0.0, 1.0])
    with pytest.raises(BadChannelError):
        # imperfect variants have no admissible set
        switch_value(
            Variant.SIR_IMPERFECT, SetKind.ADMISSIBLE, Channel.GAMMA, [0.0, 1.0]
        )


# bang value of each free channel as (scenario field when the switching
# functional is positive, field when negative); every other cell is undefined
_EXTREMAL = {
    (Variant.SIR_PERFECT, SetKind.ADMISSIBLE, Channel.BETA): ("beta_min", "beta_max"),
    (Variant.SIR_PERFECT, SetKind.MRPI, Channel.BETA): ("beta_max", "beta_min"),
    (Variant.SEIR_PERFECT, SetKind.ADMISSIBLE, Channel.BETA): ("beta_min", "beta_max"),
    (Variant.SEIR_PERFECT, SetKind.MRPI, Channel.BETA): ("beta_max", "beta_min"),
    (Variant.SEIR_PERFECT, SetKind.ADMISSIBLE, Channel.GAMMA): ("gamma_max", "gamma_min"),
    (Variant.SEIR_PERFECT, SetKind.MRPI, Channel.GAMMA): ("gamma_min", "gamma_max"),
    (Variant.SIR_IMPERFECT, SetKind.MRPI, Channel.GAMMA): ("gamma_min", "gamma_max"),
    (Variant.SEIR_IMPERFECT, SetKind.MRPI, Channel.ETA): ("eta_max", "eta_min"),
}


def test_extremal_value_table(sc_sir, sc_seir, sc_sir_imp, sc_seir_imp):
    cells = itertools.product(
        (sc_sir, sc_seir, sc_sir_imp, sc_seir_imp), SetKind, Channel, (True, False)
    )
    for sc, set_kind, channel, positive in cells:
        fields = _EXTREMAL.get((sc.variant, set_kind, channel))
        if fields is None:
            with pytest.raises(BadChannelError):
                extremal_value(sc, set_kind, channel, positive)
        else:
            want = getattr(sc, fields[0] if positive else fields[1])
            assert extremal_value(sc, set_kind, channel, positive) == want
    # the worked examples' values
    assert extremal_value(sc_sir, SetKind.ADMISSIBLE, Channel.BETA, True) == 0.6
    assert extremal_value(sc_sir_imp, SetKind.MRPI, Channel.GAMMA, True) == 0.3


def test_lie_derivative_is_i_component(sc_sir, sc_seir):
    u = InputVec(beta=0.7)
    x = [0.8, 0.015]
    assert lie_derivative_g(sc_sir, x, u) == pytest.approx(
        state_rhs(sc_sir, x, u)[-1]
    )
    u = InputVec(beta=0.9, gamma=0.25)
    x = [0.5, 0.1, 0.2]
    assert lie_derivative_g(sc_seir, x, u) == pytest.approx(
        state_rhs(sc_seir, x, u)[-1]
    )


def test_input_box(sc_seir_imp):
    box = input_box(sc_seir_imp)
    assert set(box) == {Channel.ETA}
    assert box[Channel.ETA] == (sc_seir_imp.eta_min, sc_seir_imp.eta_max)


def test_input_vec_get():
    u = InputVec(beta=0.7)
    assert u.get(Channel.BETA) == 0.7
    with pytest.raises(BadChannelError):
        u.get(Channel.GAMMA)
