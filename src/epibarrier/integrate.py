"""Fixed-step RK4 integration with bisection event location.

The integrator is deliberately simple: classic fourth-order Runge-Kutta at a
fixed step, events located by bisecting the sub-step length of a full RK4
step from the last pre-event node.  Between located events the right-hand
side is smooth, so the scheme keeps its full order and the results are
bit-reproducible.

The state is carried as a tuple of Python floats, not a numpy vector: for
the 2- to 7-component systems integrated here, building small arrays costs
many times the arithmetic.  Each stage performs the float operations numpy
would perform on arrays, in the same order, so results are bit-identical to
the vector form.  The one vector reduction, the adjoint norm of the barrier
post-step, stays a BLAS dot product as in ``np.linalg.norm``: the BLAS dot
fuses multiply and add, so a plain-float ``sqrt(a*a + b*b)`` would differ in
the last bit.  Records and results are converted back to numpy arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .core import Tolerances

__all__ = [
    "EventKind",
    "EventSpec",
    "StepRecord",
    "IntegrationResult",
    "NonFiniteError",
    "SingularArcError",
    "rk4_step",
    "integrate_until",
]

SIGMA_TOL = 1e-12
SIGMA_STALL_STEPS = 50


class EventKind(Enum):
    SIGN_CHANGE = "sign_change"
    DOMAIN_EXIT = "domain_exit"
    I_FLOOR = "i_floor"
    HORIZON = "horizon"


@dataclass
class EventSpec:
    """A termination/switch condition monitored during integration.

    ``fn(t, y)`` is a scalar of the float-tuple state: SIGN_CHANGE triggers on
    a sign flip between consecutive steps; DOMAIN_EXIT and I_FLOOR trigger
    once the value exceeds their trigger level (an outward tolerance for
    domain faces, zero for the floor).  HORIZON needs no function.
    """

    kind: EventKind
    label: str
    fn: Callable[[float, tuple], float] | None = None
    refine: bool = True
    trigger_level: float = 0.0


@dataclass
class StepRecord:
    t: float
    y: np.ndarray


@dataclass
class IntegrationResult:
    records: list[StepRecord]
    terminal: EventSpec
    t_end: float
    y_end: np.ndarray
    n_steps: int


class NonFiniteError(ArithmeticError):
    pass


class SingularArcError(RuntimeError):
    """A switching functional stayed at zero for many consecutive steps."""


def rk4_step(rhs, t: float, y: tuple, h: float) -> tuple:
    """One classic RK4 step; raises NonFiniteError on non-finite output.

    ``y`` and ``rhs(t, y)`` are float tuples.  The stages evaluate
    ``y + (0.5*h)*k`` and ``y + (h/6)*(((k1 + 2*k2) + 2*k3) + k4)``
    component-wise, the order numpy uses for the same expressions on arrays.
    """
    if h == 0.0:
        raise ValueError("step size must be nonzero")
    y1 = _rk4_stages(rhs, t, y, h)
    if not all(map(math.isfinite, y1)):
        raise NonFiniteError(f"non-finite state after step at t={t}")
    return y1


def _rk4_stages(rhs, t: float, y: tuple, h: float) -> tuple:
    """The stage arithmetic of :func:`rk4_step`, unchecked.

    The components may also be equal-length numpy arrays, one entry per
    independent trajectory, which is how the forward oracle steps its lanes.
    """
    hh = 0.5 * h
    k1 = rhs(t, y)
    k2 = rhs(t + hh, tuple([a + hh * b for a, b in zip(y, k1)]))
    k3 = rhs(t + hh, tuple([a + hh * b for a, b in zip(y, k2)]))
    k4 = rhs(t + h, tuple([a + h * b for a, b in zip(y, k3)]))
    h6 = h / 6.0
    return tuple(
        [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
    )


_SIGN_CHANGE = EventKind.SIGN_CHANGE  # an Enum member lookup costs ~0.2 us per call


def _triggered(ev: EventSpec, f_prev: float, f_new: float) -> bool:
    if ev.kind is _SIGN_CHANGE:
        return f_prev * f_new < 0.0
    return f_new > ev.trigger_level and f_prev <= ev.trigger_level


def _refine_fraction(rhs, ev, t0, y0, h, f_prev, event_time_tol):
    """Bisect the sub-step fraction at which ``ev`` first triggers.

    Each midpoint is decided by :func:`_triggered` against the step-start
    value ``f_prev``, so a threshold event whose function starts exactly at
    its trigger level is placed at the start of the step.
    """
    lo, hi, y_hi = 0.0, 1.0, None
    while (hi - lo) * abs(h) > event_time_tol:
        mid = 0.5 * (lo + hi)
        y_mid = rk4_step(rhs, t0, y0, mid * h)
        if _triggered(ev, f_prev, ev.fn(t0 + mid * h, y_mid)):
            hi, y_hi = mid, y_mid
        else:
            lo = mid
    y_ev = y_hi if y_hi is not None else rk4_step(rhs, t0, y0, hi * h)
    return hi, y_ev


def integrate_until(
    rhs,
    events: list[EventSpec],
    y0,
    t0: float = 0.0,
    direction: float = 1.0,
    tolerances: Tolerances | None = None,
    *,
    h: float | None = None,
    t_limit: float | None = None,
    record_every: int = 10,
    post_step=None,
) -> IntegrationResult:
    """Step until the first triggered event; always bounded by a horizon.

    ``direction`` is +1 (forward) or -1 (backward).  ``rhs`` and the event
    functions take the state as a float tuple; ``y0`` may be any sequence.
    ``post_step`` maps the state tuple after every accepted step (and after
    event refinement), e.g. to renormalize an adjoint.  Event functions are
    not re-evaluated after it, so it must not change the sign of any event
    function (a positive rescaling of components that only SIGN_CHANGE
    events read qualifies).  Records are emitted at the start, every
    ``record_every``-th step, and at the terminal point, as numpy arrays.
    """
    tol = tolerances or Tolerances()
    step = (h if h is not None else tol.step_h) * (1.0 if direction >= 0 else -1.0)
    limit = t_limit if t_limit is not None else tol.t_back_max
    y = tuple(np.asarray(y0, dtype=float).tolist())
    t = t0

    horizon = next((e for e in events if e.kind is EventKind.HORIZON), None)
    if horizon is None:
        horizon = EventSpec(EventKind.HORIZON, "horizon")
    watched = [e for e in events if e.kind is not EventKind.HORIZON]
    is_sign = [e.kind is EventKind.SIGN_CHANGE for e in watched]

    f_prev = [e.fn(t, y) for e in watched]
    stall = [0] * len(watched)
    records = [StepRecord(t, np.array(y))]
    n_steps = 0

    while True:
        remaining = limit - abs(t - t0)
        if remaining <= tol.event_time_tol:
            return _result(records, horizon, t, y, n_steps)
        h_cur = step if abs(step) <= remaining else math.copysign(remaining, step)
        y_new = rk4_step(rhs, t, y, h_cur)
        t_new = t + h_cur
        f_new = [e.fn(t_new, y_new) for e in watched]

        hit: tuple[float, EventSpec, tuple] | None = None
        for i, ev in enumerate(watched):
            if _triggered(ev, f_prev[i], f_new[i]):
                if ev.refine:
                    frac, y_ev = _refine_fraction(
                        rhs, ev, t, y, h_cur, f_prev[i], tol.event_time_tol
                    )
                else:
                    frac, y_ev = 1.0, y_new
                if hit is None or frac < hit[0]:
                    hit = (frac, ev, y_ev)
            if is_sign[i]:
                stall[i] = stall[i] + 1 if abs(f_new[i]) < SIGMA_TOL else 0
                if stall[i] > SIGMA_STALL_STEPS:
                    raise SingularArcError(
                        f"functional '{ev.label}' stayed below {SIGMA_TOL} "
                        f"for {stall[i]} consecutive steps"
                    )
        if hit is not None:
            frac, ev, y_ev = hit
            t_ev = t + frac * h_cur
            if post_step is not None:
                y_ev = post_step(y_ev)
            return _result(records, ev, t_ev, y_ev, n_steps + 1)

        if post_step is not None:
            y_new = post_step(y_new)
        t, y, f_prev = t_new, y_new, f_new
        n_steps += 1
        if n_steps % record_every == 0:
            records.append(StepRecord(t, np.array(y)))


def _result(records, terminal, t, y, n_steps) -> IntegrationResult:
    if records and records[-1].t == t:
        records.pop()
    records.append(StepRecord(t, np.array(y)))
    return IntegrationResult(records, terminal, t, np.array(y), n_steps)
