"""Vector fields, feedback laws, adjoint systems and switching functionals.

All four model variants share the single state constraint I <= I_max, so the
Lie derivative of the constraint along the flow is simply the I-component of
the vector field.  Imperfect variants run closed loop: the contact rate (and,
for SEIR, the removal rate) is an affine feedback on I, and the only free
input is the disturbance channel.  Every variant's rates, the feedback law
and its slopes come from one function, :func:`rates`; the vector field and
the adjoint matrix are built on it.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Scenario, SetKind, Variant

__all__ = [
    "InputVec",
    "Channel",
    "BadChannelError",
    "state_field",
    "state_rhs",
    "adjoint_matrix",
    "adjoint_rhs",
    "active_channels",
    "switch_components",
    "switch_value",
    "extremal_value",
    "lie_derivative_g",
    "input_box",
]


class Channel(Enum):
    BETA = "beta"
    GAMMA = "gamma"
    ETA = "eta"


class BadChannelError(ValueError):
    pass


@dataclass(frozen=True)
class InputVec:
    """Input values for the variant's free channels; unused fields are None.

    Perfect SIR carries beta; perfect SEIR beta and gamma; imperfect SIR the
    disturbance gamma; imperfect SEIR the disturbance eta.
    """

    beta: float | None = None
    gamma: float | None = None
    eta: float | None = None

    def get(self, channel: Channel) -> float:
        value = getattr(self, channel.value)
        if value is None:
            raise BadChannelError(f"channel {channel.value} not populated")
        return value


# Enum member lookups such as ``Variant.SIR_PERFECT`` cost about 0.2 us each
# in CPython 3.11, more than the rate arithmetic, so the per-evaluation rate
# law compares against module-level aliases.
_SIR_PERFECT = Variant.SIR_PERFECT
_SEIR_PERFECT = Variant.SEIR_PERFECT
_SIR_IMPERFECT = Variant.SIR_IMPERFECT


def rates(scenario: Scenario, i: float, u: InputVec | None) -> tuple:
    """Rates ``(beta, alpha, gamma, delta, eta)`` at infective level ``i``.

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
    arrays, one entry per trajectory.
    """
    v = scenario.variant
    if u is not None and (v is _SIR_PERFECT or v is _SEIR_PERFECT):
        beta = u.beta
        if v is _SIR_PERFECT:
            return beta, beta, scenario.gamma, scenario.gamma, None
        return beta, beta, u.gamma, u.gamma, scenario.eta
    im = scenario.i_max
    q = i / im  # clamp to [0, 1], with NaN and -0.0 mapped to 0.0
    try:
        r = 1.0 if q > 1.0 else (q if q > 0.0 else 0.0)
    except ValueError:  # an array of oracle lanes has no truth value
        r = np.clip(q, 0.0, 1.0)
    beta = scenario.beta_min * r + scenario.beta_max * (1.0 - r)
    alpha = 2.0 * (scenario.beta_min - scenario.beta_max) / im * i + scenario.beta_max
    if v is _SIR_PERFECT:
        return beta, alpha, scenario.gamma, scenario.gamma, None
    if v is _SIR_IMPERFECT and u is not None:
        return beta, alpha, u.gamma, u.gamma, None
    gamma = scenario.gamma_min * (1.0 - r) + scenario.gamma_max * r
    delta = 2.0 * (scenario.gamma_max - scenario.gamma_min) / im * i + scenario.gamma_min
    return beta, alpha, gamma, delta, scenario.eta if u is None else u.eta


def state_rhs(scenario: Scenario, state, u: InputVec) -> np.ndarray:
    """Time derivative of the reduced state under input/disturbance ``u``."""
    return np.array(state_field(scenario, state, u))


def state_field(scenario: Scenario, state, u: InputVec) -> tuple:
    """:func:`state_rhs` as a float tuple, the state form the integrator carries."""
    beta, _, gamma, _, eta = rates(scenario, state[-1], u)
    if len(state) == 2:
        S, I = state
        flux = beta * S * I
        return -flux, flux - gamma * I
    S, E, I = state
    flux = beta * S * I
    lat = eta * E
    return -flux, flux - lat, lat - gamma * I


def adjoint_matrix(scenario: Scenario, state, u: InputVec) -> np.ndarray:
    """Coefficient matrix A of the adjoint system d(lambda)/dt = A lambda.

    Equals minus the transposed Jacobian of the (closed-loop, for imperfect
    variants) vector field.
    """
    if len(state) == 2:
        S, I = state
        b, a, _, d, _ = rates(scenario, I, u)
        return np.array([[b * I, -b * I], [a * S, -a * S + d]])
    S, E, I = state
    b, a, _, d, e = rates(scenario, I, u)
    return np.array(
        [
            [b * I, -b * I, 0.0],
            [0.0, e, -e],
            [a * S, -a * S, d],
        ]
    )


def adjoint_rhs(scenario: Scenario, state, adjoint, u: InputVec) -> np.ndarray:
    return adjoint_matrix(scenario, state, u) @ np.asarray(adjoint, dtype=float)


# Free channels per variant (controls for perfect, disturbances for imperfect).
_CHANNELS = {
    Variant.SIR_PERFECT: (Channel.BETA,),
    Variant.SEIR_PERFECT: (Channel.BETA, Channel.GAMMA),
    Variant.SIR_IMPERFECT: (Channel.GAMMA,),
    Variant.SEIR_IMPERFECT: (Channel.ETA,),
}


def active_channels(variant: Variant) -> tuple[Channel, ...]:
    return _CHANNELS[variant]


def _check_channel(variant: Variant, set_kind: SetKind, channel: Channel) -> None:
    if not variant.is_perfect and set_kind is SetKind.ADMISSIBLE:
        raise BadChannelError(
            f"{variant.value} has no controllable input; admissible set undefined"
        )
    if channel not in _CHANNELS[variant]:
        raise BadChannelError(f"channel {channel.value} not free for {variant.value}")


def switch_components(
    variant: Variant, set_kind: SetKind, channel: Channel
) -> tuple[int, int | None]:
    """Adjoint indices (plus, minus) of the functional lam[plus] - lam[minus].

    ``minus`` is None where the functional is lam[plus] alone.
    """
    _check_channel(variant, set_kind, channel)
    if channel is Channel.BETA:
        return 1, 0
    if channel is Channel.GAMMA:
        return (1 if variant is Variant.SIR_IMPERFECT else 2), None
    return 2, 1  # ETA (imperfect SEIR)


def switch_value(variant: Variant, set_kind: SetKind, channel: Channel, adjoint) -> float:
    """Signed switching functional whose sign selects the extremal input."""
    plus, minus = switch_components(variant, set_kind, channel)
    lam = np.asarray(adjoint, dtype=float)
    return float(lam[plus] if minus is None else lam[plus] - lam[minus])


def extremal_value(
    scenario: Scenario, set_kind: SetKind, channel: Channel, positive: bool
) -> float:
    """Bang value of ``channel`` when its switching functional is positive/negative."""
    _check_channel(scenario.variant, set_kind, channel)
    if channel is Channel.BETA:
        lo, hi = scenario.beta_min, scenario.beta_max
        # admissible: beta_min when sigma > 0; MRPI: beta_max when sigma > 0
        if set_kind is SetKind.ADMISSIBLE:
            return lo if positive else hi
        return hi if positive else lo
    if channel is Channel.GAMMA:
        lo, hi = scenario.gamma_min, scenario.gamma_max
        # admissible (perfect SEIR): gamma_max when sigma > 0; MRPI: gamma_min
        if set_kind is SetKind.ADMISSIBLE:
            return hi if positive else lo
        return lo if positive else hi
    lo, hi = scenario.eta_min, scenario.eta_max
    # imperfect SEIR MRPI: eta_max when lambda3 - lambda2 > 0
    return hi if positive else lo


def lie_derivative_g(scenario: Scenario, state, u: InputVec) -> float:
    """Lie derivative of g = I - I_max along the flow, i.e. dI/dt."""
    return float(state_field(scenario, state, u)[-1])


def input_box(scenario: Scenario) -> dict[Channel, tuple[float, float]]:
    """Closed interval per free channel."""
    box: dict[Channel, tuple[float, float]] = {}
    for ch in _CHANNELS[scenario.variant]:
        if ch is Channel.BETA:
            box[ch] = (scenario.beta_min, scenario.beta_max)
        elif ch is Channel.GAMMA:
            box[ch] = (scenario.gamma_min, scenario.gamma_max)
        else:
            box[ch] = (scenario.eta_min, scenario.eta_max)
    return box
