"""Scenario types, validation, and shared numeric conventions.

Everything downstream (dynamics, barrier construction, simulation) is driven
by a single immutable :class:`Scenario`.  States are reduced simplex
coordinates: ``(S, I)`` for SIR variants and ``(S, E, I)`` for SEIR variants;
the removed proportion is reconstructed algebraically.
"""
from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from enum import Enum
from numbers import Real

import numpy as np

__all__ = [
    "Variant",
    "SetKind",
    "Scenario",
    "Tolerances",
    "ScenarioError",
    "validate_scenario",
]


class Variant(Enum):
    """Model variant; fixes state dimension and input/disturbance roles."""

    SIR_PERFECT = "SIR_PERFECT"
    SEIR_PERFECT = "SEIR_PERFECT"
    SIR_IMPERFECT = "SIR_IMPERFECT"
    SEIR_IMPERFECT = "SEIR_IMPERFECT"

    @property
    def dim(self) -> int:
        return 2 if self.is_sir else 3

    # read off the value string: membership asks on every query, and looking
    # up a member as a class attribute costs several times the comparison
    @property
    def is_sir(self) -> bool:
        return self._value_.startswith("SIR_")

    @property
    def is_perfect(self) -> bool:
        return self._value_.endswith("_PERFECT")


class SetKind(Enum):
    ADMISSIBLE = "admissible"
    MRPI = "mrpi"


class ScenarioError(ValueError):
    """Scenario validation failure carrying a machine-readable code."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances, each positive and finite; all overridable per run.

    ``step_h``, default 1e-2, is the one step of every integrator: the curve tracer
    (``integrate_until``), ``simulate``, ``monte_carlo`` and both membership oracles.
    It keeps curve nodes within 1e-8 of ``step_h=1e-3``. A reloaded ``set.json`` keeps
    its ``step_h``.
    """

    geom_tol: float = 1e-9
    event_time_tol: float = 1e-10
    boundary_layer_eps: float = 1e-3
    i_floor: float = 1e-9
    step_h: float = 1e-2
    t_back_max: float = 1000.0

    def __post_init__(self):
        for field in dataclass_fields(self):
            if not 0.0 < getattr(self, field.name) < np.inf:
                raise ValueError(f"tolerance {field.name} must be positive and finite")
        if not self.event_time_tol < self.step_h:
            raise ValueError("event_time_tol must be smaller than step_h")


@dataclass(frozen=True)
class Scenario:
    """Validated model parameters and infection cap for one variant.

    Fields irrelevant to the variant are ``None``; use
    :func:`validate_scenario` to construct from a raw config document.
    """

    variant: Variant
    beta_min: float
    beta_max: float
    i_max: float
    gamma: float | None = None
    gamma_min: float | None = None
    gamma_max: float | None = None
    eta: float | None = None
    eta_min: float | None = None
    eta_max: float | None = None

    @property
    def dim(self) -> int:
        return self.variant.dim


# Per-variant field layout: scalar parameters and [lo, hi] interval parameters
# expected in a raw config document (key "beta" is always an interval).
_SCALARS = {
    Variant.SIR_PERFECT: ("gamma",),
    Variant.SEIR_PERFECT: ("eta",),
    Variant.SIR_IMPERFECT: (),
    Variant.SEIR_IMPERFECT: (),
}
_INTERVALS = {
    Variant.SIR_PERFECT: ("beta",),
    Variant.SEIR_PERFECT: ("beta", "gamma"),
    Variant.SIR_IMPERFECT: ("beta", "gamma"),
    Variant.SEIR_IMPERFECT: ("beta", "gamma", "eta"),
}


def _as_number(value, name: str) -> float:
    # a bool is a Real and float() converts a string, but neither is a number here
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ScenarioError("REJECT_FIELDS", f"field '{name}' is not a number")
    return float(value)


def _as_positive(value, name: str) -> float:
    x = _as_number(value, name)
    if not np.isfinite(x):
        raise ScenarioError("REJECT_FIELDS", f"field '{name}' is not finite")
    if x <= 0.0:
        raise ScenarioError("REJECT_BOUNDS", f"field '{name}' must be positive")
    return x


def validate_scenario(raw: dict) -> Scenario:
    """Validate a raw key-value document into a :class:`Scenario`.

    Raises :class:`ScenarioError` with code REJECT_FIELDS (missing, extraneous
    or ill-typed fields), REJECT_BOUNDS (ordering/positivity violated) or
    REJECT_CAP (infection cap outside the open unit interval).
    """
    if not isinstance(raw, dict):
        raise ScenarioError("REJECT_FIELDS", "config must be a mapping")
    try:
        variant = Variant(raw.get("variant"))
    except ValueError:
        raise ScenarioError(
            "REJECT_FIELDS", f"unknown or missing variant {raw.get('variant')!r}"
        )

    allowed = {"variant", "i_max", "tolerances"}
    allowed |= set(_SCALARS[variant]) | set(_INTERVALS[variant])
    extra = set(raw) - allowed
    if extra:
        raise ScenarioError(
            "REJECT_FIELDS", f"fields {sorted(extra)} not allowed for {variant.value}"
        )
    if "i_max" not in raw:
        raise ScenarioError("REJECT_FIELDS", "missing field 'i_max'")

    fields: dict[str, float] = {}
    for name in _SCALARS[variant]:
        if name not in raw:
            raise ScenarioError("REJECT_FIELDS", f"missing scalar field '{name}'")
        if isinstance(raw[name], (list, tuple)):
            raise ScenarioError(
                "REJECT_FIELDS", f"field '{name}' must be a scalar for {variant.value}"
            )
        fields[name] = _as_positive(raw[name], name)
    for name in _INTERVALS[variant]:
        if name not in raw:
            raise ScenarioError("REJECT_FIELDS", f"missing interval field '{name}'")
        pair = raw[name]
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ScenarioError(
                "REJECT_FIELDS", f"field '{name}' must be a [lo, hi] pair"
            )
        lo = _as_positive(pair[0], f"{name}[0]")
        hi = _as_positive(pair[1], f"{name}[1]")
        if lo > hi:
            raise ScenarioError(
                "REJECT_BOUNDS", f"field '{name}' has lo={lo} > hi={hi}"
            )
        fields[f"{name}_min"] = lo
        fields[f"{name}_max"] = hi

    i_max = _as_number(raw["i_max"], "i_max")
    if not (0.0 < i_max < 1.0):
        raise ScenarioError("REJECT_CAP", f"i_max={i_max} outside (0, 1)")

    return Scenario(variant=variant, i_max=i_max, **fields)
