"""Fixed-step RK4 integration with bisection event location.

Classic fourth-order Runge-Kutta at a fixed step; events are located by
bisecting the sub-step length of a full RK4 step from the last pre-event
node.  Each step screens all watched events with inline comparisons first;
only a step on which one fires runs the per-event refinement.  Between
located events the right-hand side is smooth, so the scheme keeps its full
order and the results are bit-reproducible.

The state is a tuple of Python floats: for these 2- to 7-component systems,
small numpy arrays cost many times the arithmetic.  The RK4 stages are one
source template, expanded into straight-line code that does per component
the float operations numpy does on arrays, in the same order, so results are
bit-identical to the vector form.  :func:`integrate_until` expands it into a
whole segment loop, generated once per structure, that inlines the sources of
its right-hand side, events and post-step map; :func:`rk4_step` steps a function.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .core import Tolerances

__all__ = [
    "EventKind",
    "EventSpec",
    "IntegrationResult",
    "NonFiniteError",
    "SingularArcError",
    "Source",
    "rk4_step",
    "integrate_until",
    "source_function",
]

SIGMA_TOL = 1e-12
SIGMA_STALL_STEPS = 50


class EventKind(Enum):
    SIGN_CHANGE = "sign_change"
    DOMAIN_EXIT = "domain_exit"
    HORIZON = "horizon"


class Source(NamedTuple):
    """Straight-line code for generated functions to inline, and its bound values.

    ``body`` (statements, possibly none) runs, then ``out`` is the value: one
    expression for an event, one per component for a right-hand side or
    post-step map.  The code reads component k of the state as ``y[k]``, reads
    no time and no name with a leading underscore; ``sqrt`` and the keys of
    ``params`` are bound, in one namespace per integration: a name has one value.
    """

    out: str | tuple[str, ...]
    body: str = ""
    params: dict | None = None


@dataclass
class EventSpec:
    """A termination/switch condition monitored during integration.

    ``fn`` is a :class:`Source` of one expression, a scalar of the state:
    SIGN_CHANGE triggers on a sign flip between consecutive steps;
    DOMAIN_EXIT triggers once the value exceeds its trigger level (an outward
    tolerance for domain faces, zero for the I floor).  HORIZON needs no
    function.
    """

    kind: EventKind
    label: str
    fn: Source | None = None
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


def _stalled(ev: EventSpec, count: int) -> SingularArcError:
    return SingularArcError(
        f"functional '{ev.label}' stayed below {SIGMA_TOL} for {count} consecutive steps"
    )


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
    """Unchecked RK4 stages; the components of ``y`` may also be equal-length
    numpy arrays, one entry per trajectory, as the forward oracle's lanes are."""
    n = len(y)  # no closure here: a cell variable would cost every call
    return (_STAGES.get(n) or _generated(n, _fill, _LANES_TEMPLATE, n, None))(rhs, t, y, h)


# Each `...` is repeated per component, # being its index: as lines, or joined by
# commas within one.  `k#` = FIELD(time; `x#`) is the right-hand side at x.  Operands
# group as numpy's ``y + hh*k`` and ``y + h6*(((k1 + 2*k2) + 2*k3) + k4)`` on arrays:
# a regrouped sum would round differently and break bit-identity.
_STAGE_TEMPLATE = """\
_hh = 0.5 * _h
`_a#` = FIELD(_t; `_y#`)
`_b#` = FIELD(_t + _hh; `_y# + _hh * _a#`)
`_c#` = FIELD(_t + _hh; `_y# + _hh * _b#`)
`_d#` = FIELD(_t + _h; `_y# + _h * _c#`)
_h6 = _h / 6.0
`_z# = _y# + _h6 * (_a# + 2.0 * _b# + 2.0 * _c# + _d#)`
"""
_LANES_TEMPLATE = "def entry(_rhs, _t, _y, _h):\n    `_y#`, = _y\n    @STAGES\n    return `_z#`,\n"
# Steps until the horizon or a screened event, recording every `_every`-th
# state; a step that fires returns what the refinement needs.
_SEGMENT_TEMPLATE = """\
def entry(_t, _y, _t0, _limit, _step, _tol, _every, _ts, _ys, @PARAMS):
    `_y#`, = _y
    @START
    _n = 0
    while True:
        _rem = _limit - (_t - _t0)
        if _rem <= _tol:
            return _t, (`_y#`,), _n, None, None, None
        _h = _step if _step <= _rem else _rem
        @STAGES
        @FINITE
        @SCREEN
        @POST
        _t = _t + _h
        @ADVANCE
        _n += 1
        if _n % _every == 0:
            _ts.append(_t)
            _ys.append((`_y#`,))
"""
_STAGES: dict = {}  # generated code: one entry per state width or structure


def _generated(key, make_source: Callable[..., str], *args) -> Callable:
    """The function ``entry`` of ``make_source(*args)``, compiled once per ``key``."""
    entry = _STAGES.get(key)
    if entry is None:
        scope = {"sqrt": math.sqrt, "NonFiniteError": NonFiniteError, "_stalled": _stalled}
        exec(compile(make_source(*args), "<generated>", "exec"), scope)
        entry = _STAGES.setdefault(key, scope["entry"])
    return entry


def _each(row: str, n: int) -> list[str]:
    return [row.replace("#", str(i)) for i in range(n)]


def _inline(src: Source, inputs: list[str], targets: list[str]) -> list[str]:
    """Lines running ``src`` on the expressions ``inputs``, its value assigned to ``targets``."""
    outs = [src.out] if isinstance(src.out, str) else src.out
    code = "\n".join([src.body, *(f"{t} = {x}" for t, x in zip(targets, outs))]).strip()
    grouped = [x if x.isidentifier() else f"({x})" for x in inputs]
    return re.sub(r"\by\[(\d+)\]", lambda m: grouped[int(m[1])], code).splitlines()


def _fill(template: str, n: int, field, t: str = "_t", **blocks) -> str:
    """``template`` for ``n`` components, each ``@NAME`` line replaced by ``blocks[NAME]``;
    ``STAGES`` inlines a ``field`` given as a :class:`Source` and calls ``_rhs`` else, and
    ``FINITE`` raises on a non-finite new state ``_z#`` of the step from time ``t``."""
    # zero times finite factors stays zero; an infinite or NaN one makes it NaN
    blocks["FINITE"] = [f"if 0.0 * {' * '.join(_each('_z#', n))} != 0.0:",
                        f'    raise NonFiniteError(f"non-finite state after step at t={{{t}}}")']
    blocks["STAGES"] = stages = []
    for line in _STAGE_TEMPLATE.splitlines():
        m = re.fullmatch(r"`(.*)` = FIELD\((.*); `(.*)`\)", line)
        whole = re.fullmatch("`([^`]*)`", line)
        if m and isinstance(field, Source):
            stages += _inline(field, _each(m[3], n), _each(m[1], n))
        elif m:  # the state tuple _y holds the inputs `_y#` of the first stage
            stages.append(f"`{m[1]}`, = _rhs({m[2]}, {'_y' if m[3] == '_y#' else f'(`{m[3]}`,)'})")
        else:
            stages += _each(whole[1], n) if whole else [line]
    out = []
    for line in template.splitlines():
        pad, name = line[: len(line) - len(line.lstrip())], line.strip()
        rows = blocks[name[1:]] if name.startswith("@") else [name]
        out += [pad + re.sub("`([^`]*)`", lambda m: ", ".join(_each(m[1], n)), r) for r in rows]
    return "\n".join(out) + "\n"


def _segment_source(n: int, field: Source, events: list[EventSpec], post, params: dict) -> str:
    """:data:`_SEGMENT_TEMPLATE` for ``n`` components, these sources and ``params``."""
    start, values, stalls, fired = [], [], [], []
    for i, ev in enumerate(events):
        start += _inline(ev.fn, _each("_y#", n), [f"_F{i}"])
        values += _inline(ev.fn, _each("_z#", n), [f"_G{i}"])
        if ev.kind is _SIGN_CHANGE:
            start.append(f"_s{i} = 0")
            stalls += [f"_s{i} = _s{i} + 1 if {-SIGMA_TOL!r} < _G{i} < {SIGMA_TOL!r} else 0",
                       f"if _s{i} > {SIGMA_STALL_STEPS}:", f"    raise _stalled(_events[{i}], _s{i})"]
            fired.append(f"_F{i} * _G{i} < 0.0")
        else:
            start.append(f"_L{i} = _events[{i}].trigger_level")
            fired.append(f"_G{i} > _L{i} >= _F{i}")
    if fired:  # stalls raise first, even on a step that fires
        f_prev, f_new = ("".join(f"{v}{i}, " for i in range(len(events))) for v in ("_F", "_G"))
        stalls += [f"if {' or '.join(fired)}:", f"    return _t, (`_y#`,), _n, _h, ({f_prev}), ({f_new})"]
    accept = _inline(post, _each("_z#", n), _each("_y#", n)) if post else _each("_y# = _z#", n)
    return _fill(
        _SEGMENT_TEMPLATE.replace("@PARAMS", ", ".join(params)), n, field,
        START=start,
        SCREEN=values + stalls,
        POST=accept,
        ADVANCE=[f"_F{i} = _G{i}" for i in range(len(events))],
    )


def source_function(src: Source) -> Callable:
    """``src`` as a function ``f(t, y)`` of a float tuple ``y``, with its params bound."""
    params = src.params or {}

    def make():
        out = src.out if isinstance(src.out, str) else f"({', '.join(src.out)},)"
        body = "\n        ".join([*src.body.splitlines(), f"return {out}"])
        return f"def entry({', '.join(params)}):\n    def f(t, y):\n        {body}\n    return f\n"

    return _generated(("function", *src[:2], tuple(params)), make)(**params)


_SIGN_CHANGE = EventKind.SIGN_CHANGE  # an Enum member lookup costs ~0.2 us per call


def _triggered(ev: EventSpec, f_prev: float, f_new: float) -> bool:
    if ev.kind is _SIGN_CHANGE:
        return f_prev * f_new < 0.0
    return f_new > ev.trigger_level and f_prev <= ev.trigger_level


def _refine_fraction(rhs: Source, ev: EventSpec, t0, y0, h, f_prev, event_time_tol):
    """Bisect the sub-step fraction at which ``ev`` first triggers, on the compiled sources.

    Each midpoint is decided by :func:`_triggered` against the step-start
    value ``f_prev``, so a threshold event whose function starts exactly at
    its trigger level is placed at the start of the step.
    """
    rhs, fn = source_function(rhs), source_function(ev.fn)
    lo, hi, y_hi = 0.0, 1.0, None
    while (hi - lo) * h > event_time_tol:
        mid = 0.5 * (lo + hi)
        y_mid = rk4_step(rhs, t0, y0, mid * h)
        if _triggered(ev, f_prev, fn(t0 + mid * h, y_mid)):
            hi, y_hi = mid, y_mid
        else:
            lo = mid
    y_ev = y_hi if y_hi is not None else rk4_step(rhs, t0, y0, hi * h)
    return hi, y_ev


def integrate_until(
    rhs: Source,
    events: list[EventSpec],
    y0,
    t0: float = 0.0,
    tolerances: Tolerances | None = None,
    *,
    t_limit: float | None = None,
    record_every: int = 10,
    post_step: Source | None = None,
) -> IntegrationResult:
    """Step forward at ``step_h`` until the first triggered event or ``t0 + t_limit``.

    ``rhs``, each event's ``fn`` and ``post_step`` are :class:`Source` code,
    inlined into one generated step loop, and share one parameter namespace: a
    name bound to values that are neither one object nor equal numbers raises
    ValueError.  ``y0`` may be any sequence.  ``post_step`` maps the state
    after every accepted step (and after event refinement), e.g. to
    renormalize an adjoint.  Event functions are not re-evaluated after it, so
    it must not change the sign of any event function (a positive rescaling
    of components that only SIGN_CHANGE events read qualifies).  Records are
    emitted at the start, every ``record_every``-th step, and at the end.
    """
    tol = tolerances or Tolerances()
    limit = t_limit if t_limit is not None else tol.t_back_max
    y = tuple(np.asarray(y0, dtype=float).tolist())
    sources = [rhs, *(ev.fn for ev in events), post_step]
    params = {"_events": events}
    for src in filter(None, sources):
        for name, value in (src.params or {}).items():
            bound = params.setdefault(name, value)
            numbers = isinstance(bound, (int, float)) and isinstance(value, (int, float))
            if bound is not value and not (numbers and bound == value):
                raise ValueError(f"parameter '{name}' is bound to two values")
    key = ("segment", len(y), *(src and src[:2] for src in sources), *(ev.kind for ev in events),
           tuple(params))
    loop = _generated(key, _segment_source, len(y), rhs, events, post_step, params)

    ts, ys = [t0], [y]
    t, y, n_steps, h, f_prev, f_new = loop(
        t0, y, t0, limit, tol.step_h, tol.event_time_tol, record_every, ts, ys, **params
    )
    if h is None:
        return _result(ts, ys, _HORIZON, t, y, n_steps)
    # refine every triggered event; the earliest, then the first listed, wins
    hit: tuple[float, EventSpec, tuple] | None = None
    for ev, a, b in zip(events, f_prev, f_new):
        if _triggered(ev, a, b):
            frac, y_ev = _refine_fraction(rhs, ev, t, y, h, a, tol.event_time_tol)
            if hit is None or frac < hit[0]:
                hit = (frac, ev, y_ev)
    frac, ev, y_ev = hit
    t_ev = t + frac * h
    if post_step is not None:
        y_ev = source_function(post_step)(t_ev, y_ev)
    return _result(ts, ys, ev, t_ev, y_ev, n_steps + 1)


def _result(ts, ys, terminal, t, y, n_steps) -> IntegrationResult:
    if ts[-1] == t:
        ts.pop()
        ys.pop()
    ts.append(t)
    ys.append(y)
    return IntegrationResult(np.array(ts), np.array(ys), terminal, t, np.array(y), n_steps)
