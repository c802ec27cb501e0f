"""Vector fields, feedback laws, adjoint systems and switching functionals.

All four model variants share the single state constraint I <= I_max, so the
Lie derivative of the constraint along the flow is simply the I-component of
the vector field.  Imperfect variants run closed loop: the contact rate (and,
for SEIR, the removal rate) is an affine feedback on I, and the only free
input is the disturbance channel.  Every variant's rates, the feedback law
and its slopes are written once, as source text that :func:`rate_source`
binds for one input; the vector field and the backward system of a barrier
curve, the one home of the adjoint matrix, are source too, and inline it.

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

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Scenario, SetKind, Variant
from .integrate import Source, source_function

__all__ = [
    "InputVec",
    "Channel",
    "BadChannelError",
    "vector_field",
    "forward_source",
    "backward_field",
    "backward_source",
    "rate_source",
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


def _input_rates(scenario: Scenario, u: InputVec | None) -> tuple | None:
    """A perfect variant's rates under the input ``u``, or None where the feedback law sets them.

    They do not depend on I, each is its own slope, and they are :func:`rate_source`'s params.
    """
    if u is None or not scenario.variant.is_perfect:
        return None
    beta = u.beta
    if scenario.variant.is_sir:
        return beta, beta, scenario.gamma, scenario.gamma, None
    return beta, beta, u.gamma, u.gamma, scenario.eta


# The rate law's arithmetic, written once: I/I_max clamped to [0, 1] (NaN and -0.0
# to 0.0; lane arrays, which have no truth value, take np.clip), then the affine
# feedback of beta and, where gamma is not fixed, of gamma, each with its slope.
_LAW = (
    "q = I / im\ntry:\n    r = 1.0 if q > 1.0 else (q if q > 0.0 else 0.0)\n"
    "except ValueError:\n    r = clip(q, 0.0, 1.0)\n"
    "b = b_lo * r + b_hi * (1.0 - r)\na = b_slope * I + b_hi",
    "\ng = g_lo * (1.0 - r) + g_hi * r\ndd = g_slope * I + g_lo",
)
_RATES = ("b", "a", "g", "dd", "e")
_SLOPES = ("a = ", "dd = ")  # the statements of the slopes, which only the adjoint reads


def rate_source(scenario: Scenario, u: InputVec | None) -> Source:
    """The rates ``b, a, g, dd, e`` (beta, alpha, gamma, delta, eta) at the level ``I``, as a Source.

    ``alpha = d(beta*I)/dI`` and ``delta = d(gamma*I)/dI`` are the slopes the
    adjoint needs; a rate that is an input or a constant is its own slope.
    The variant's free channels take their values from ``u``.  Closed-loop
    rates follow the pre-designed affine feedback on I: beta from beta_max at
    I=0 down to beta_min at I=I_max, gamma from gamma_min up to gamma_max.
    The rates are clamped at their endpoint values outside [0, I_max], where
    breaching trajectories keep integrating; the slopes are those of the
    unclamped law.  ``u=None`` closes the loop on every rate that has an
    interval, as :class:`AffineFeedbackPolicy`'s law, :func:`forward_source`'s
    statements, does on the perfect variants.  The statements read ``I``; all
    else is bound here, and a slope coefficient ``2.0 * (lo - hi) / im`` rounds as in ``... * I``.
    """
    fixed = _input_rates(scenario, u)
    if fixed is not None:
        return Source(_RATES, "", dict(zip(_RATES, fixed)))
    im, b_lo, b_hi = scenario.i_max, scenario.beta_min, scenario.beta_max
    e = scenario.eta if u is None else u.eta
    bound = {"clip": np.clip, "im": im, "b_lo": b_lo, "b_hi": b_hi, "e": e,
             "b_slope": 2.0 * (b_lo - b_hi) / im}
    # gamma is fixed where SIR's scenario or disturbance sets it, else interpolated
    g = scenario.gamma if u is None else u.gamma
    if g is not None:
        return Source(_RATES, _LAW[0], {**bound, "g": g, "dd": g})
    g_lo, g_hi = scenario.gamma_min, scenario.gamma_max
    bound.update(g_lo=g_lo, g_hi=g_hi, g_slope=2.0 * (g_hi - g_lo) / im)
    return Source(_RATES, _LAW[0] + _LAW[1], bound)


def rate_law(scenario: Scenario, u: InputVec | None):
    """:func:`rate_source` as ``law(i) -> (beta, alpha, gamma, delta, eta)``, also on lane arrays."""
    src = rate_source(scenario, u)
    f = source_function(src._replace(body=f"I = y[0]\n{src.body}"))
    return lambda i: f(0.0, (i,))


def state_rhs(scenario: Scenario, state, u: InputVec) -> np.ndarray:
    """Time derivative of the reduced state under input/disturbance ``u``."""
    return np.array(vector_field(scenario, u)(0.0, state))


# Per dimension, on the rates of rate_source: the state reads, the vector field f
# (statements, then one value per component) and the adjoint part -A lambda of the
# backward system.  A shared ``b * I`` or ``a * S`` rounds as the product it replaces;
# ``flux = b * S * I`` keeps its grouping.
_MODEL = {
    2: ("S = y[0]\nI = y[1]", "flux = b * S * I", ("-flux", "flux - g * I"),
        ("-(bI * l1 - bI * l2)", "-(aS * l1 + (-aS + dd) * l2)")),
    3: ("S = y[0]\nE = y[1]\nI = y[2]", "flux = b * S * I\nlat = e * E",
        ("-flux", "flux - lat", "lat - g * I"),
        ("-(bI * l1 - bI * l2)", "-(e * l2 - e * l3)", "-(aS * l1 - aS * l2 + dd * l3)")),
}


def forward_source(scenario: Scenario, u: InputVec | None) -> Source:
    """The time derivative of the reduced state under ``u``, as a :class:`Source` with
    :func:`rate_source`'s params; :func:`vector_field` compiles it and ``simulate`` inlines it.
    The field reads no slope, so the statements of ``a`` and ``dd`` are left out."""
    reads, field, out = _MODEL[scenario.dim][:3]
    rates = rate_source(scenario, u)
    law = (s for s in rates.body.split("\n") if not s.startswith(_SLOPES))
    return Source(out, "\n".join(filter(None, (reads, *law, field))), rates.params)


def vector_field(scenario: Scenario, u: InputVec | None):
    """:func:`forward_source` as ``f(t, y)`` of a float tuple, or of a tuple of equal-length
    numpy arrays, one entry per trajectory, with arrays in the fields of ``u``."""
    return source_function(forward_source(scenario, u))


def backward_source(scenario: Scenario, u: InputVec | None) -> Source:
    """The backward (state, adjoint, arc length) system in tau = -t, as a :class:`Source`.

    Its value is -f, -A lambda and |f|.  It is the one place A, minus the
    transposed Jacobian of f, is written; the curve tracer inlines it.
    """
    f, d = forward_source(scenario, u), scenario.dim
    slopes = [s for s in rate_source(scenario, u).body.split("\n") if s.startswith(_SLOPES)]
    reads = [f"l{k + 1} = y[{d + k}]" for k in range(d)]
    fs = [f"f{k}" for k in range(d)]
    field = f"{', '.join(fs)} = {', '.join(f.out)}"
    body = "\n".join([f.body, *slopes, *reads, field, "bI, aS = b * I, a * S"])
    out = (*(f"-{v}" for v in fs), *_MODEL[d][3], f"sqrt({' + '.join(f'{v} * {v}' for v in fs)})")
    return Source(out, body, f.params)


def backward_field(scenario: Scenario, u: InputVec | None):
    """:func:`backward_source` as ``rhs(t, y)`` on float tuples, in backward time tau = -t."""
    return source_function(backward_source(scenario, u))


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
