import pytest

from epibarrier.core import (
    Scenario,
    ScenarioError,
    Tolerances,
    Variant,
    validate_scenario,
)

from conftest import (
    SEIR_IMPERFECT_RAW,
    SEIR_PERFECT_RAW,
    SIR_IMPERFECT_RAW,
    SIR_PERFECT_RAW,
)


def test_accepts_all_reference_configs():
    for raw in (
        SIR_PERFECT_RAW,
        SIR_IMPERFECT_RAW,
        SEIR_PERFECT_RAW,
        SEIR_IMPERFECT_RAW,
    ):
        sc = validate_scenario(raw)
        assert sc.variant is Variant(raw["variant"])
        assert sc.i_max == raw["i_max"]


def test_sir_perfect_fields():
    sc = validate_scenario(SIR_PERFECT_RAW)
    assert sc.beta_min == 0.6 and sc.beta_max == 0.8
    assert sc.gamma == 0.5
    assert sc.gamma_min is None and sc.eta is None
    assert sc.dim == 2


def test_seir_imperfect_fields():
    sc = validate_scenario(SEIR_IMPERFECT_RAW)
    assert sc.eta_min == pytest.approx(1.0 / 7.0)
    assert sc.eta_max == pytest.approx(0.2)
    assert sc.gamma is None and sc.eta is None
    assert sc.dim == 3


def _code(raw):
    with pytest.raises(ScenarioError) as err:
        validate_scenario(raw)
    return err.value.code


def test_reject_unknown_variant():
    assert _code({"variant": "SIRS", "i_max": 0.1}) == "REJECT_FIELDS"
    assert _code({"i_max": 0.1}) == "REJECT_FIELDS"


def test_reject_missing_fields():
    raw = dict(SIR_PERFECT_RAW)
    del raw["gamma"]
    assert _code(raw) == "REJECT_FIELDS"
    raw = dict(SIR_PERFECT_RAW)
    del raw["i_max"]
    assert _code(raw) == "REJECT_FIELDS"


def test_reject_extraneous_fields():
    # eta belongs to SEIR variants only
    assert _code(dict(SIR_PERFECT_RAW, eta=0.2)) == "REJECT_FIELDS"
    assert _code(dict(SIR_PERFECT_RAW, bogus=1.0)) == "REJECT_FIELDS"


def test_reject_scalar_interval_mixups():
    # gamma must be scalar for perfect SIR, interval for imperfect SIR
    assert _code(dict(SIR_PERFECT_RAW, gamma=[0.3, 0.5])) == "REJECT_FIELDS"
    assert _code(dict(SIR_IMPERFECT_RAW, gamma=0.5)) == "REJECT_FIELDS"
    assert _code(dict(SIR_PERFECT_RAW, beta=0.7)) == "REJECT_FIELDS"
    assert _code(dict(SIR_PERFECT_RAW, beta=[0.6, 0.7, 0.8])) == "REJECT_FIELDS"


def test_reject_nonnumeric_and_nonfinite():
    assert _code(dict(SIR_PERFECT_RAW, gamma="half")) == "REJECT_FIELDS"
    assert _code(dict(SIR_PERFECT_RAW, gamma=float("nan"))) == "REJECT_FIELDS"
    assert _code(dict(SIR_PERFECT_RAW, beta=[0.6, float("inf")])) == "REJECT_FIELDS"


def test_reject_bool_and_string_numbers():
    # float() would read True as 1.0 and "0.5" as 0.5
    assert _code(dict(SIR_PERFECT_RAW, beta=[True, True])) == "REJECT_FIELDS"
    assert _code(dict(SIR_PERFECT_RAW, beta=[0.6, "0.8"])) == "REJECT_FIELDS"
    assert _code(dict(SIR_PERFECT_RAW, gamma="0.5")) == "REJECT_FIELDS"
    assert _code(dict(SIR_PERFECT_RAW, gamma=True)) == "REJECT_FIELDS"
    assert _code(dict(SIR_PERFECT_RAW, i_max="0.1")) == "REJECT_FIELDS"
    assert _code(dict(SIR_PERFECT_RAW, i_max=False)) == "REJECT_FIELDS"
    assert _code(dict(SEIR_PERFECT_RAW, eta="0.2")) == "REJECT_FIELDS"


def test_reject_bad_bounds():
    assert _code(dict(SIR_PERFECT_RAW, beta=[0.8, 0.6])) == "REJECT_BOUNDS"
    assert _code(dict(SIR_PERFECT_RAW, gamma=-0.5)) == "REJECT_BOUNDS"
    assert _code(dict(SIR_PERFECT_RAW, gamma=0.0)) == "REJECT_BOUNDS"


def test_reject_bad_cap():
    assert _code(dict(SIR_PERFECT_RAW, i_max=0.0)) == "REJECT_CAP"
    assert _code(dict(SIR_PERFECT_RAW, i_max=1.0)) == "REJECT_CAP"
    assert _code(dict(SIR_PERFECT_RAW, i_max=-0.1)) == "REJECT_CAP"
    assert _code(dict(SIR_PERFECT_RAW, i_max=1.5)) == "REJECT_CAP"


def test_degenerate_interval_allowed():
    sc = validate_scenario(dict(SIR_PERFECT_RAW, beta=[0.7, 0.7]))
    assert sc.beta_min == sc.beta_max == 0.7


def test_tolerances_key_ignored_by_validator():
    sc = validate_scenario(dict(SIR_PERFECT_RAW, tolerances={"step_h": 1e-4}))
    assert isinstance(sc, Scenario)


def test_tolerances_positivity():
    with pytest.raises(ValueError):
        Tolerances(geom_tol=0.0)
    with pytest.raises(ValueError):
        Tolerances(step_h=-1e-3)
    with pytest.raises(ValueError):
        Tolerances(event_time_tol=1e-2, step_h=1e-3)
    tol = Tolerances(step_h=1e-4)
    assert tol.step_h == 1e-4 and tol.geom_tol == 1e-9


@pytest.mark.parametrize("name", ["step_h", "t_back_max", "boundary_layer_eps", "geom_tol"])
def test_tolerances_finite(name):
    for value in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            Tolerances(**{name: value})
