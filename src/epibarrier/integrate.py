"""Fixed-step RK4 integration with bisection event location.

The integrator is deliberately simple: classic fourth-order Runge-Kutta at a
fixed step, events located by bisecting the sub-step length of a full RK4
step from the last pre-event node.  Each step screens all watched events with
inline comparisons first; only a step on which one fires runs the per-event
refinement.  Between located events the right-hand side is smooth, so the
scheme keeps its full order and the results are bit-reproducible.

The state is carried as a tuple of Python floats, not a numpy vector: for
the 2- to 7-component systems integrated here, building small arrays costs
many times the arithmetic.  The RK4 stages are one source template, expanded
per state width into straight-line code that builds no iterator or list.
Each component performs the float operations numpy would perform on arrays,
grouped in the same order, so results are bit-identical to the vector form.
The one vector reduction, the adjoint norm of the barrier post-step, stays a
BLAS dot product as in ``np.linalg.norm``: the BLAS dot fuses multiply and
add, so a plain-float ``sqrt(a*a + b*b)`` would differ in the last bit.
Records and results are converted back to numpy arrays once, at the end.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .core import Tolerances

__all__ = [
    "EventKind",
    "EventSpec",
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
    HORIZON = "horizon"


@dataclass
class EventSpec:
    """A termination/switch condition monitored during integration.

    ``fn(t, y)`` is a scalar of the float-tuple state: SIGN_CHANGE triggers on
    a sign flip between consecutive steps; DOMAIN_EXIT triggers once the
    value exceeds its trigger level (an outward tolerance for domain faces,
    zero for the I floor).  HORIZON needs no function.
    """

    kind: EventKind
    label: str
    fn: Callable[[float, tuple], float] | None = None
    trigger_level: float = 0.0


_HORIZON = EventSpec(EventKind.HORIZON, "horizon")


@dataclass
class IntegrationResult:
    t: np.ndarray  # record times
    y: np.ndarray  # one state row per record
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

    ``y`` and ``rhs(t, y)`` are float tuples of the same width.
    """
    if h == 0.0:
        raise ValueError("step size must be nonzero")
    y1 = _rk4_stages(rhs, t, y, h)
    if not all(map(math.isfinite, y1)):
        raise NonFiniteError(f"non-finite state after step at t={t}")
    return y1


def _rk4_stages(rhs, t: float, y: tuple, h: float) -> tuple:
    """Unchecked RK4 stages: :data:`_STAGE_TEMPLATE` expanded for the width of ``y``.

    The components may also be equal-length numpy arrays, one entry per
    independent trajectory, which is how the forward oracle steps its lanes.
    """
    return (_STAGES.get(len(y)) or _generate_stages(len(y)))(rhs, t, y, h)


# Each <...> is repeated per component, # being its index.  Operands group as
# numpy's ``y + hh*k`` and ``y + h6*(((k1 + 2*k2) + 2*k3) + k4)`` on arrays:
# a regrouped sum would round differently and break bit-identity.
_STAGE_TEMPLATE = """\
def stages(rhs, t, y, h):
    hh = 0.5 * h
    <y#>, = y
    <a#>, = rhs(t, y)
    <b#>, = rhs(t + hh, (<y# + hh * a#>,))
    <c#>, = rhs(t + hh, (<y# + hh * b#>,))
    <d#>, = rhs(t + h, (<y# + h * c#>,))
    h6 = h / 6.0
    return (<y# + h6 * (a# + 2.0 * b# + 2.0 * c# + d#)>,)
"""
_STAGES: dict[int, Callable] = {}


def _generate_stages(n: int) -> Callable:
    """Expand :data:`_STAGE_TEMPLATE` for ``n`` components and cache it by ``n``."""
    row = lambda m: ", ".join(m[1].replace("#", str(i)) for i in range(n))
    src = re.sub("<([^>]*)>", row, _STAGE_TEMPLATE)
    scope: dict = {}
    exec(compile(src, f"<rk4 stages, width {n}>", "exec"), scope)
    return _STAGES.setdefault(n, scope["stages"])


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
    while (hi - lo) * h > event_time_tol:
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
    tolerances: Tolerances | None = None,
    *,
    t_limit: float | None = None,
    record_every: int = 10,
    post_step=None,
) -> IntegrationResult:
    """Step forward at ``step_h`` until the first triggered event or ``t0 + t_limit``.

    ``rhs`` and the event functions take the state as a float tuple; ``y0``
    may be any sequence.  ``post_step`` maps the state tuple after every
    accepted step (and after event refinement), e.g. to renormalize an
    adjoint.  Event functions are not re-evaluated after it, so it must not
    change the sign of any event function (a positive rescaling of
    components that only SIGN_CHANGE events read qualifies).  Records are
    emitted at the start, every ``record_every``-th step, and at the
    terminal point, as the arrays ``t`` and ``y`` of the result.
    """
    tol = tolerances or Tolerances()
    step = tol.step_h
    limit = t_limit if t_limit is not None else tol.t_back_max
    y = tuple(np.asarray(y0, dtype=float).tolist())
    t = t0

    fns = [e.fn for e in events]
    signs = [i for i, e in enumerate(events) if e.kind is _SIGN_CHANGE]
    thresholds = [(i, e.trigger_level) for i, e in enumerate(events) if e.kind is not _SIGN_CHANGE]

    f_prev = [fn(t, y) for fn in fns]
    stall = [0] * len(events)
    ts, ys = [t], [y]
    n_steps = 0

    while True:
        remaining = limit - (t - t0)
        if remaining <= tol.event_time_tol:
            return _result(ts, ys, _HORIZON, t, y, n_steps)
        h_cur = step if step <= remaining else remaining
        y_new = rk4_step(rhs, t, y, h_cur)
        t_new = t + h_cur
        f_new = [fn(t_new, y_new) for fn in fns]

        # screen: the conditions of _triggered, inline; stalls raise first
        fired = False
        for i in signs:
            if f_prev[i] * f_new[i] < 0.0:
                fired = True
            stall[i] = stall[i] + 1 if abs(f_new[i]) < SIGMA_TOL else 0
            if stall[i] > SIGMA_STALL_STEPS:
                raise SingularArcError(
                    f"functional '{events[i].label}' stayed below {SIGMA_TOL} "
                    f"for {stall[i]} consecutive steps"
                )
        for i, level in thresholds:
            if f_new[i] > level >= f_prev[i]:
                fired = True
        if fired:  # refine every triggered event; the earliest, then the first listed, wins
            hit: tuple[float, EventSpec, tuple] | None = None
            for i, ev in enumerate(events):
                if _triggered(ev, f_prev[i], f_new[i]):
                    frac, y_ev = _refine_fraction(
                        rhs, ev, t, y, h_cur, f_prev[i], tol.event_time_tol
                    )
                    if hit is None or frac < hit[0]:
                        hit = (frac, ev, y_ev)
            frac, ev, y_ev = hit
            t_ev = t + frac * h_cur
            if post_step is not None:
                y_ev = post_step(y_ev)
            return _result(ts, ys, ev, t_ev, y_ev, n_steps + 1)

        if post_step is not None:
            y_new = post_step(y_new)
        t, y, f_prev = t_new, y_new, f_new
        n_steps += 1
        if n_steps % record_every == 0:
            ts.append(t)
            ys.append(y)


def _result(ts, ys, terminal, t, y, n_steps) -> IntegrationResult:
    if ts[-1] == t:
        ts.pop()
        ys.pop()
    ts.append(t)
    ys.append(y)
    return IntegrationResult(np.array(ts), np.array(ys), terminal, t, np.array(y), n_steps)
