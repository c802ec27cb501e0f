"""Closed-form set classification, usable parts and ultimate-tangency sets.

All formulas here are exact arithmetic on scenario fields; no integration is
involved.  The barrier module consumes the tangent sets produced here.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .core import Scenario, SetKind, Variant
from .models import BadChannelError

__all__ = [
    "ClassTag",
    "Classification",
    "UsablePart",
    "TangentSet",
    "EmptyTangentError",
    "classify",
    "is_trivial",
    "usable_part",
    "tangent_set",
    "backward_filter",
]


class ClassTag(Enum):
    # perfect variants
    ALL_EQUAL_G = "ALL_EQUAL_G"  # M = A = G_pi
    MRPI_PROPER = "MRPI_PROPER"  # M strictly inside, A = G_pi
    BOTH_PROPER = "BOTH_PROPER"  # M strictly inside A strictly inside G_pi
    # imperfect variants
    M_EQUAL_G = "M_EQUAL_G"
    M_PROPER = "M_PROPER"


@dataclass(frozen=True)
class Classification:
    tag: ClassTag
    witnesses: dict


@dataclass(frozen=True)
class UsablePart:
    """Portion of the face I = I_max where the flow can point inward.

    For SIR a single S-interval [0, s_hi].  For SEIR the region
    S in [0, 1 - I_max], E in [0, min(e_cap_const, 1 - S - I_max)].
    """

    set_kind: SetKind
    i_max: float
    s_hi: float
    e_cap_const: float | None = None  # SEIR only: (gamma*/eta*) * I_max

    def e_cap(self, s: float) -> float:
        if self.e_cap_const is None:
            raise ValueError("e_cap only defined for SEIR usable parts")
        return min(self.e_cap_const, 1.0 - s - self.i_max)

    def contains(self, state, tol: float = 1e-9) -> bool:
        if self.e_cap_const is None:
            s, i = state
            return abs(i - self.i_max) <= tol and -tol <= s <= self.s_hi + tol
        s, e, i = state
        return (
            abs(i - self.i_max) <= tol
            and -tol <= s <= self.s_hi + tol
            and -tol <= e <= self.e_cap(s) + tol
        )


@dataclass(frozen=True)
class TangentSet:
    """Ultimate-tangency points on the face I = I_max.

    SIR: the single point (z1_lo = z1_hi, I_max).  SEIR: the segment
    z1 in [z1_lo, z1_hi] at fixed E = z2_star.
    """

    set_kind: SetKind
    i_max: float
    z1_lo: float
    z1_hi: float
    z2_star: float | None = None

    @property
    def is_sir(self) -> bool:
        return self.z2_star is None

    def point(self, z1: float) -> np.ndarray:
        if self.is_sir:
            return np.array([z1, self.i_max])
        return np.array([z1, self.z2_star, self.i_max])

    def sample(self, n: int) -> np.ndarray:
        """n tangent abscissas, uniform over the range, excluding z1 = 0.

        z1 = 0 is excluded because the non-singularity results require it.
        """
        if self.is_sir:
            return np.array([self.z1_lo])
        lo = self.z1_lo if self.z1_lo > 0.0 else self.z1_hi / n
        return np.linspace(lo, self.z1_hi, n)


class EmptyTangentError(ValueError):
    """Tangent construction vacuous (the set is all of G_pi)."""


def classify(scenario: Scenario) -> Classification:
    """Evaluate the triviality inequalities for the scenario's variant."""
    v, im = scenario.variant, scenario.i_max
    if v is Variant.SIR_PERFECT:
        thr = scenario.gamma / (1.0 - im)
        w = {"threshold": thr, "beta_min": scenario.beta_min, "beta_max": scenario.beta_max}
        if scenario.beta_max <= thr:
            return Classification(ClassTag.ALL_EQUAL_G, w)
        if scenario.beta_min <= thr:
            return Classification(ClassTag.MRPI_PROPER, w)
        return Classification(ClassTag.BOTH_PROPER, w)
    if v is Variant.SIR_IMPERFECT:
        thr = scenario.gamma_min / (1.0 - im)
        w = {"threshold": thr, "beta_min": scenario.beta_min}
        if scenario.beta_min <= thr:
            return Classification(ClassTag.M_EQUAL_G, w)
        return Classification(ClassTag.M_PROPER, w)
    if v is Variant.SEIR_PERFECT:
        lhs_min = scenario.eta * (1.0 - im) - scenario.gamma_min * im
        lhs_max = scenario.eta * (1.0 - im) - scenario.gamma_max * im
        w = {"eta_term_gamma_min": lhs_min, "eta_term_gamma_max": lhs_max}
        if lhs_min <= 0.0:
            return Classification(ClassTag.ALL_EQUAL_G, w)
        if lhs_max <= 0.0:
            return Classification(ClassTag.MRPI_PROPER, w)
        return Classification(ClassTag.BOTH_PROPER, w)
    # SEIR_IMPERFECT
    lhs = scenario.eta_max * (1.0 - im) - scenario.gamma_max * im
    w = {"eta_max_term": lhs}
    if lhs <= 0.0:
        return Classification(ClassTag.M_EQUAL_G, w)
    return Classification(ClassTag.M_PROPER, w)


def is_trivial(scenario: Scenario, set_kind: SetKind) -> bool:
    """True when the requested set equals the whole constrained state space."""
    tag = classify(scenario).tag
    if set_kind is SetKind.ADMISSIBLE:
        if not scenario.variant.is_perfect:
            raise BadChannelError(
                f"{scenario.variant.value} has no controllable input; "
                "admissible set undefined"
            )
        return tag in (ClassTag.ALL_EQUAL_G, ClassTag.MRPI_PROPER)
    return tag in (ClassTag.ALL_EQUAL_G, ClassTag.M_EQUAL_G)


def _rate_pair(scenario: Scenario, set_kind: SetKind) -> tuple[float, float]:
    """(gamma*, beta*) pair entering the usable-part / tangency quotients."""
    v = scenario.variant
    if v is Variant.SIR_PERFECT:
        if set_kind is SetKind.ADMISSIBLE:
            return scenario.gamma, scenario.beta_min
        return scenario.gamma, scenario.beta_max
    if v is Variant.SIR_IMPERFECT:
        # feedback endpoint: the cap-face contact rate is beta_min
        return scenario.gamma_min, scenario.beta_min
    if v is Variant.SEIR_PERFECT:
        if set_kind is SetKind.ADMISSIBLE:
            return scenario.gamma_max, scenario.beta_min
        return scenario.gamma_min, scenario.beta_max
    # SEIR_IMPERFECT (MRPI only)
    return scenario.gamma_max, scenario.beta_min


def _e_rate_pair(scenario: Scenario, set_kind: SetKind) -> tuple[float, float]:
    """(gamma*, eta*) defining the SEIR cap-face E bound and z2*."""
    v = scenario.variant
    if v is Variant.SEIR_PERFECT:
        if set_kind is SetKind.ADMISSIBLE:
            return scenario.gamma_max, scenario.eta
        return scenario.gamma_min, scenario.eta
    if v is Variant.SEIR_IMPERFECT:
        return scenario.gamma_max, scenario.eta_max
    raise ValueError("E-rate pair only defined for SEIR variants")


def usable_part(scenario: Scenario, set_kind: SetKind) -> UsablePart:
    v, im = scenario.variant, scenario.i_max
    if not scenario.variant.is_perfect and set_kind is SetKind.ADMISSIBLE:
        raise BadChannelError(
            f"{v.value} has no controllable input; admissible set undefined"
        )
    if v.is_sir:
        g, b = _rate_pair(scenario, set_kind)
        return UsablePart(set_kind, im, s_hi=min(g / b, 1.0 - im))
    g, e = _e_rate_pair(scenario, set_kind)
    return UsablePart(set_kind, im, s_hi=1.0 - im, e_cap_const=(g / e) * im)


def tangent_set(scenario: Scenario, set_kind: SetKind) -> TangentSet:
    """Ultimate-tangency set before the backward-evolution filter."""
    v, im = scenario.variant, scenario.i_max
    if v.is_sir:
        g, b = _rate_pair(scenario, set_kind)
        z1 = g / b
        if z1 + im > 1.0:
            raise EmptyTangentError(
                f"tangent abscissa {z1} + i_max {im} exceeds 1; set is trivial"
            )
        return TangentSet(set_kind, im, z1_lo=z1, z1_hi=z1)
    g, e = _e_rate_pair(scenario, set_kind)
    z2 = (g / e) * im
    z1_hi = 1.0 - z2 - im
    if z1_hi < 0.0:
        raise EmptyTangentError(
            f"z1 interval empty (z2*={z2}, i_max={im}); set is trivial"
        )
    return TangentSet(set_kind, im, z1_lo=0.0, z1_hi=z1_hi, z2_star=z2)


def backward_filter(
    scenario: Scenario, set_kind: SetKind, tangents: TangentSet
) -> TangentSet:
    """Restrict to tangent points whose barrier curve evolves backwards into G-.

    SIR sets pass through unchanged after verifying the one-sided second
    derivative of the constraint is negative at the tangent point (it always
    is: -gamma* beta* I_max^2 < 0 for positive rates).
    """
    g, b = _rate_pair(scenario, set_kind)
    if not tangents.is_sir:
        return replace(tangents, z1_hi=min(g / b, tangents.z1_hi))
    if not -g * b * scenario.i_max**2 < 0.0:  # unreachable for valid scenarios
        raise EmptyTangentError("tangent point does not evolve backwards into G-")
    return tangents
