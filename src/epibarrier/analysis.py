"""Closed-form set classification, usable parts and ultimate-tangency sets.

All formulas here are exact arithmetic on scenario fields; no integration is
involved.  The barrier module consumes the tangent sets produced here.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .core import Scenario, SetKind, Variant
from .models import InputVec, active_channels, check_set_kind, extremal_value, rate_law

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
    """Tag the sets that are trivial, as :func:`is_trivial` decides, with the paper's terms."""
    v, im = scenario.variant, scenario.i_max
    if v is Variant.SIR_PERFECT:
        thr = scenario.gamma / (1.0 - im)
        w = {"threshold": thr, "beta_min": scenario.beta_min, "beta_max": scenario.beta_max}
    elif v is Variant.SIR_IMPERFECT:
        thr = scenario.gamma_min / (1.0 - im)
        w = {"threshold": thr, "beta_min": scenario.beta_min}
    elif v is Variant.SEIR_PERFECT:
        lhs_min = scenario.eta * (1.0 - im) - scenario.gamma_min * im
        lhs_max = scenario.eta * (1.0 - im) - scenario.gamma_max * im
        w = {"eta_term_gamma_min": lhs_min, "eta_term_gamma_max": lhs_max}
    else:
        w = {"eta_max_term": scenario.eta_max * (1.0 - im) - scenario.gamma_max * im}
    if is_trivial(scenario, SetKind.MRPI):
        return Classification(ClassTag.ALL_EQUAL_G if v.is_perfect else ClassTag.M_EQUAL_G, w)
    if not v.is_perfect:
        return Classification(ClassTag.M_PROPER, w)
    if is_trivial(scenario, SetKind.ADMISSIBLE):
        return Classification(ClassTag.MRPI_PROPER, w)
    return Classification(ClassTag.BOTH_PROPER, w)


def is_trivial(scenario: Scenario, set_kind: SetKind) -> bool:
    """True when the requested set equals the whole constrained state space.

    That is exactly when the ultimate-tangency set is empty: SIR
    ``z1 + I_max >= 1``, SEIR ``z1_hi <= 0`` (at ``z1_hi = 0`` every curve
    would start at the excluded ``z1 = 0``).
    """
    check_set_kind(scenario.variant, set_kind)
    return _tangents(scenario, set_kind) is None


def _cap_rates(scenario: Scenario, set_kind: SetKind) -> tuple:
    """Cap-face rates (beta*, gamma*, eta*) entering the usable-part and tangency quotients.

    They are the rates at I = I_max with every free channel at its bang value
    for a positive switching functional; ``eta*`` is None for SIR.
    """
    u = InputVec(
        **{
            ch.value: extremal_value(scenario, set_kind, ch, True)
            for ch in active_channels(scenario.variant)
        }
    )
    beta, _, gamma, _, eta = rate_law(scenario, u)(scenario.i_max)
    return beta, gamma, eta


def usable_part(scenario: Scenario, set_kind: SetKind) -> UsablePart:
    im = scenario.i_max
    b, g, e = _cap_rates(scenario, set_kind)
    if scenario.variant.is_sir:
        return UsablePart(set_kind, im, s_hi=min(g / b, 1.0 - im))
    return UsablePart(set_kind, im, s_hi=1.0 - im, e_cap_const=(g / e) * im)


def _tangents(scenario: Scenario, set_kind: SetKind) -> TangentSet | None:
    """The ultimate-tangency set, or None when it is empty and the set trivial."""
    im = scenario.i_max
    b, g, e = _cap_rates(scenario, set_kind)
    if scenario.variant.is_sir:
        z1 = g / b
        if z1 + im >= 1.0:
            return None
        return TangentSet(set_kind, im, z1_lo=z1, z1_hi=z1)
    z2 = (g / e) * im
    z1_hi = 1.0 - z2 - im
    if z1_hi <= 0.0:
        return None
    return TangentSet(set_kind, im, z1_lo=0.0, z1_hi=z1_hi, z2_star=z2)


def tangent_set(scenario: Scenario, set_kind: SetKind) -> TangentSet:
    """Ultimate-tangency set before the backward-evolution filter."""
    tangents = _tangents(scenario, set_kind)
    if tangents is None:
        raise EmptyTangentError(
            f"no tangent point on the cap face; {set_kind.value} set is trivial"
        )
    return tangents


def backward_filter(
    scenario: Scenario, set_kind: SetKind, tangents: TangentSet
) -> TangentSet:
    """Restrict to tangent points whose barrier curve evolves backwards into G-.

    SIR sets pass through unchanged: the one-sided second derivative of the
    constraint at the tangent point, -gamma* beta* I_max^2, is always negative.
    """
    b, g, _ = _cap_rates(scenario, set_kind)
    if tangents.is_sir:
        return tangents
    return replace(tangents, z1_hi=min(g / b, tangents.z1_hi))
