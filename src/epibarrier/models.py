"""Vector fields, feedback laws, adjoint systems and switching functionals.

All four model variants share the single state constraint I <= I_max, so the
Lie derivative of the constraint along the flow is simply the I-component of
the vector field.  Imperfect variants run closed loop: the contact rate (and,
for SEIR, the removal rate) is an affine feedback on I, and the only free
input is the disturbance channel.  Every variant's rates, the feedback law
and its slopes are written once, in :func:`rate_law`, which binds them for
one input and returns the law as a function of I; the vector field and the
backward system of a barrier curve, the one home of the adjoint matrix, bind
it once per field.

Which channels are free is written once, in one table: per variant, each
free channel with the adjoint indices of its switching functional.  One bang
rule picks the end of the channel's box, ``(scenario.<channel>_min,
scenario.<channel>_max)``: a positive functional selects the upper end for
gamma on the admissible set and for every other channel on the robust
invariant set.  The cap-face rates beta*, gamma* and eta* of
:mod:`epibarrier.analysis` are :func:`rate_law` at ``I_max`` under that bang
input for a positive functional.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Scenario, SetKind, Variant

__all__ = [
    "InputVec",
    "Channel",
    "BadChannelError",
    "vector_field",
    "backward_field",
    "rate_law",
    "state_rhs",
    "adjoint_matrix",
    "adjoint_rhs",
    "active_channels",
    "check_set_kind",
    "switch_components",
    "switch_value",
    "extremal_value",
    "lie_derivative_g",
    "input_box",
    "check_input",
]


class Channel(Enum):
    BETA = "beta"
    GAMMA = "gamma"
    ETA = "eta"


class BadChannelError(ValueError):
    pass


@dataclass(frozen=True)
class InputVec:
    """Input values for the variant's free channels; unused fields are None."""

    beta: float | None = None
    gamma: float | None = None
    eta: float | None = None

    def get(self, channel: Channel) -> float:
        value = getattr(self, channel.value)
        if value is None:
            raise BadChannelError(f"channel {channel.value} not populated")
        return value


# Enum member lookups such as ``Variant.SIR_PERFECT`` cost about 0.2 us each
# in CPython 3.11, more than a field build's own work, and the switching law
# builds a field on most steps, so builds compare against module-level aliases.
_SIR_PERFECT = Variant.SIR_PERFECT
_SEIR_PERFECT = Variant.SEIR_PERFECT
_SIR_IMPERFECT = Variant.SIR_IMPERFECT


def _input_rates(scenario: Scenario, u: InputVec | None) -> tuple | None:
    """A perfect variant's rates under the input ``u``, or None where the feedback law sets them.

    They do not depend on I, and each is its own slope.
    """
    v = scenario.variant
    if u is None or not (v is _SIR_PERFECT or v is _SEIR_PERFECT):
        return None
    beta = u.beta
    if v is _SIR_PERFECT:
        return beta, beta, scenario.gamma, scenario.gamma, None
    return beta, beta, u.gamma, u.gamma, scenario.eta


def rate_law(scenario: Scenario, u: InputVec | None):
    """The rates ``law(i) -> (beta, alpha, gamma, delta, eta)`` at infective level ``i``.

    ``alpha = d(beta*I)/dI`` and ``delta = d(gamma*I)/dI`` are the slopes the
    adjoint needs; a rate that is an input or a constant is its own slope.
    The variant's free channels take their values from ``u``.  Closed-loop
    rates follow the pre-designed affine feedback on I: beta from beta_max at
    I=0 down to beta_min at I=I_max, gamma from gamma_min up to gamma_max.
    The rates are clamped at their endpoint values outside [0, I_max], where
    breaching trajectories keep integrating; the slopes are those of the
    unclamped law.  ``u=None`` closes the loop on every rate that has an
    interval, which is how :class:`AffineFeedbackPolicy` drives the perfect
    variants' controls.  ``i`` and the fields of ``u`` may also be numpy
    arrays, one entry per trajectory.  Everything but ``i`` is read once, by
    this call; a slope coefficient ``2.0 * (lo - hi) / im`` is what
    ``2.0 * (lo - hi) / im * i`` evaluates first, so it rounds the same.
    """
    fixed = _input_rates(scenario, u)
    if fixed is not None:
        return lambda i: fixed
    im = scenario.i_max
    b_lo, b_hi = scenario.beta_min, scenario.beta_max
    b_slope = 2.0 * (b_lo - b_hi) / im
    # gamma is fixed where SIR's scenario or disturbance sets it, else interpolated
    g = scenario.gamma if u is None else u.gamma
    g_lo, g_hi = scenario.gamma_min, scenario.gamma_max
    g_slope = None if g is not None else 2.0 * (g_hi - g_lo) / im
    e = scenario.eta if u is None else u.eta

    def law(i):
        q = i / im  # clamp to [0, 1], with NaN and -0.0 mapped to 0.0
        try:
            r = 1.0 if q > 1.0 else (q if q > 0.0 else 0.0)
        except ValueError:  # an array of oracle lanes has no truth value
            r = np.clip(q, 0.0, 1.0)
        beta = b_lo * r + b_hi * (1.0 - r)
        alpha = b_slope * i + b_hi
        if g is not None:
            return beta, alpha, g, g, None
        return beta, alpha, g_lo * (1.0 - r) + g_hi * r, g_slope * i + g_lo, e

    return law


def state_rhs(scenario: Scenario, state, u: InputVec) -> np.ndarray:
    """Time derivative of the reduced state under input/disturbance ``u``."""
    return np.array(vector_field(scenario, u)(0.0, state))


def vector_field(scenario: Scenario, u: InputVec | None):
    """The time derivative of the reduced state under ``u``, as ``f(t, y)``.

    ``f`` returns a float tuple for a float-tuple ``y``; ``y`` may also be a
    tuple of equal-length numpy arrays, with arrays in the fields of ``u``,
    one entry per trajectory.  A perfect variant with an input has rates
    that do not depend on the state, read once, here; otherwise the field
    binds :func:`rate_law` once, here, and each evaluation calls the law at
    the state's I.
    """
    v = scenario.variant  # compared with the aliases: simulate builds many fields
    fixed = _input_rates(scenario, u)
    law = None if fixed else rate_law(scenario, u)
    if v is _SIR_PERFECT or v is _SIR_IMPERFECT:

        def f(t, y):
            S, I = y
            beta, _, gamma, _, _ = fixed or law(I)
            flux = beta * S * I
            return -flux, flux - gamma * I

        return f

    def f(t, y):
        S, E, I = y
        beta, _, gamma, _, eta = fixed or law(I)
        flux = beta * S * I
        lat = eta * E
        return -flux, flux - lat, lat - gamma * I

    return f


def backward_field(scenario: Scenario, u: InputVec | None):
    """Backward (state, adjoint, arc length) right-hand side of a barrier curve.

    On float tuples in backward time tau = -t, it returns -f, -A lambda and
    |f|.  It is the one place A, minus the transposed Jacobian of f, is
    written.  ``-f`` is written out, not called: a call costs 25-150% more
    per evaluation (CPython 3.11) of the curve tracer's innermost loop.
    """
    v = scenario.variant
    fixed = _input_rates(scenario, u)
    law = None if fixed else rate_law(scenario, u)
    if v is _SIR_PERFECT or v is _SIR_IMPERFECT:

        def rhs(t, y):
            S, I, l1, l2, _ = y
            b, a, g, dd, _ = fixed or law(I)
            flux = b * S * I
            f0, f1 = -flux, flux - g * I
            return (
                -f0,
                -f1,
                -(b * I * l1 - b * I * l2),
                -(a * S * l1 + (-a * S + dd) * l2),
                math.sqrt(f0 * f0 + f1 * f1),
            )

        return rhs

    def rhs(t, y):
        S, E, I, l1, l2, l3, _ = y
        b, a, g, dd, e = fixed or law(I)
        flux = b * S * I
        lat = e * E
        f0, f1, f2 = -flux, flux - lat, lat - g * I
        return (
            -f0,
            -f1,
            -f2,
            -(b * I * l1 - b * I * l2),
            -(e * l2 - e * l3),
            -(a * S * l1 - a * S * l2 + dd * l3),
            math.sqrt(f0 * f0 + f1 * f1 + f2 * f2),
        )

    return rhs


def adjoint_matrix(scenario: Scenario, state, u: InputVec) -> np.ndarray:
    """Coefficient matrix A of the adjoint system d(lambda)/dt = A lambda.

    Column k is minus the adjoint part of :func:`backward_field` at the unit
    adjoint e_k.
    """
    d, rhs = len(state), backward_field(scenario, u)
    return -np.array([rhs(0.0, (*state, *e, 0.0))[d:-1] for e in np.eye(d).tolist()]).T


def adjoint_rhs(scenario: Scenario, state, adjoint, u: InputVec) -> np.ndarray:
    return adjoint_matrix(scenario, state, u) @ np.asarray(adjoint, dtype=float)


# Free channels per variant (controls for perfect, disturbances for imperfect),
# each with the adjoint indices (plus, minus) of its switching functional
# lam[plus] - lam[minus]; minus is None where the functional is lam[plus] alone.
_CHANNELS = {
    Variant.SIR_PERFECT: {Channel.BETA: (1, 0)},
    Variant.SEIR_PERFECT: {Channel.BETA: (1, 0), Channel.GAMMA: (2, None)},
    Variant.SIR_IMPERFECT: {Channel.GAMMA: (1, None)},
    Variant.SEIR_IMPERFECT: {Channel.ETA: (2, 1)},
}


def active_channels(variant: Variant) -> tuple[Channel, ...]:
    return tuple(_CHANNELS[variant])


def check_set_kind(variant: Variant, set_kind: SetKind) -> None:
    """Raise BadChannelError for an admissible set of an imperfect variant.

    With no controllable input there is no admissible set, only the robust
    invariant one.
    """
    if set_kind is SetKind.ADMISSIBLE and not variant.is_perfect:
        raise BadChannelError(
            f"{variant.value} has no controllable input; admissible set undefined"
        )


def switch_components(
    variant: Variant, set_kind: SetKind, channel: Channel
) -> tuple[int, int | None]:
    """Adjoint indices (plus, minus) of the functional lam[plus] - lam[minus].

    ``minus`` is None where the functional is lam[plus] alone.
    """
    check_set_kind(variant, set_kind)
    if channel not in _CHANNELS[variant]:
        raise BadChannelError(f"channel {channel.value} not free for {variant.value}")
    return _CHANNELS[variant][channel]


def switch_value(variant: Variant, set_kind: SetKind, channel: Channel, adjoint) -> float:
    """Signed switching functional whose sign selects the extremal input."""
    plus, minus = switch_components(variant, set_kind, channel)
    lam = np.asarray(adjoint, dtype=float)
    return float(lam[plus] if minus is None else lam[plus] - lam[minus])


def extremal_value(
    scenario: Scenario, set_kind: SetKind, channel: Channel, positive: bool
) -> float:
    """Bang value of ``channel`` when its switching functional is positive/negative.

    A positive functional selects the upper end of the box for gamma on the
    admissible set, and for every other channel on the robust invariant set.
    """
    switch_components(scenario.variant, set_kind, channel)
    lo, hi = input_box(scenario)[channel]
    upper = (channel is Channel.GAMMA) == (set_kind is SetKind.ADMISSIBLE)
    return hi if upper == positive else lo


def lie_derivative_g(scenario: Scenario, state, u: InputVec) -> float:
    """Lie derivative of g = I - I_max along the flow, i.e. dI/dt."""
    return float(vector_field(scenario, u)(0.0, state)[-1])


def input_box(scenario: Scenario) -> dict[Channel, tuple[float, float]]:
    """Closed interval ``(scenario.<channel>_min, scenario.<channel>_max)`` per free channel."""
    return {
        ch: (getattr(scenario, f"{ch.value}_min"), getattr(scenario, f"{ch.value}_max"))
        for ch in _CHANNELS[scenario.variant]
    }


def check_input(scenario: Scenario, u: InputVec) -> None:
    """Raise BadChannelError unless ``u`` sets every free channel inside its box, and no other."""
    box = input_box(scenario)
    for ch in Channel:
        value = getattr(u, ch.value)
        if ch not in box:
            if value is not None:
                raise BadChannelError(f"channel {ch.value} not free for {scenario.variant.value}")
        elif value is None or not box[ch][0] <= value <= box[ch][1]:  # NaN fails too
            raise BadChannelError(f"{ch.value}={value} outside {list(box[ch])}")
