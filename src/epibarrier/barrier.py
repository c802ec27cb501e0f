"""Barrier curves by backward integration, and queryable computed sets.

A barrier curve starts on the constraint face I = I_max at an
ultimate-tangency point with adjoint (0, ..., 0, 1) and is integrated
backwards in time under the extremal bang-bang input selected by the adjoint's
switching functionals.  Curves are parameterized by backward time tau = -t
(the tangency instant is fixed at t = 0), so the integrator always moves
forward in its own variable, on ``models.backward_field``:

    dx/dtau      = -f(x, u)
    dlambda/dtau = -A(x, u) lambda
    ds/dtau      = |f(x, u)|          (arc length, used for resampling)

For SIR variants the single curve plus the usable part and the invariant
simplex faces stitch into a closed boundary polygon.  Forward in time
S' = -beta*S*I < 0 wherever I > 0, so S rises strictly along the backward
curve and the polygon is the region under a graph, {0 <= I <= phi(S)}: phi is
the cap I_max up to the tangent point and the barrier curve after it.
Membership bisects the polygon's S coordinates once and compares I with phi
interpolated on that edge; the distance from the edge under the query, widened
past rounding, bounds the edges measured.  For SEIR variants a family of curves
is resampled onto an arc-length grid and triangulated; membership is a
vertical-ray parity test against that mesh, whose one tie rule decides a query
on a mesh edge or vertex as it decides the same query perturbed off it.  A
uniform bucket grid over the (S, E) projection of the mesh quads, built on a
set's first query, hands the test only the quads near the query, and the nodes
sorted by S hand the distance only the nodes near it; both answer as a scan of
the whole mesh.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .analysis import (
    UsablePart,
    backward_filter,
    is_trivial,
    tangent_set,
    usable_part,
)
from .core import Scenario, SetKind, Tolerances
from .integrate import (
    SIGMA_TOL,
    EventKind,
    EventSpec,
    SingularArcError,
    Source,
    integrate_until,
)
from .models import (
    Channel,
    InputVec,
    active_channels,
    backward_field,
    backward_source,
    extremal_value,
    input_box,
    switch_components,
    switch_value,
    vector_field,
)

__all__ = [
    "Verdict",
    "Membership",
    "BarrierCurve",
    "ComputedSet",
    "InvariantBreachError",
    "select_extremal_input",
    "compute_barrier_curve",
    "resample_by_arclength",
    "assemble_set",
    "membership",
    "check_sir_graph",
    "check_set_geometry",
]

SWITCH_GAP_MIN_FACTOR = 10.0  # consecutive switches closer than this * event_time_tol => chattering


class Verdict(Enum):
    INSIDE = "INSIDE"
    OUTSIDE = "OUTSIDE"
    BOUNDARY = "BOUNDARY"


# every query returns one of these: module-level aliases skip the Enum member
# lookup, and a named tuple builds in half the time of a frozen dataclass
_INSIDE, _OUTSIDE, _BOUNDARY = Verdict.INSIDE, Verdict.OUTSIDE, Verdict.BOUNDARY


class Membership(NamedTuple):
    verdict: Verdict
    distance_estimate: float


class InvariantBreachError(RuntimeError):
    """A recorded curve sample lies outside the capped simplex."""


@dataclass
class BarrierCurve:
    """One extremal curve, one array row per recorded sample.

    A switch is recorded twice: the last sample of a segment (``is_switch``)
    and the first of the next, at the same ``tau`` and state.
    """

    tangent_point: np.ndarray
    tau: np.ndarray  # (n,) backward time since tangency (t = -tau)
    samples: np.ndarray  # (n, 2d + 1): state, unit adjoint, arc length
    inputs: list[InputVec]  # (n,) the input of each sample's segment
    is_switch: np.ndarray  # (n,) bool
    termination: EventSpec
    switch_times: list[tuple[float, Channel]]
    truncated: bool = False
    step_h: float = 0.0

    @property
    def states(self) -> np.ndarray:
        return self.samples[:, : len(self.tangent_point)]

    @property
    def adjoints(self) -> np.ndarray:
        d = len(self.tangent_point)
        return self.samples[:, d : 2 * d]

    @property
    def arc_length(self) -> float:
        return self.samples[-1, -1]

    def hamiltonian(self, scenario: Scenario) -> np.ndarray:
        """lambda^T f at every sample (zero along an exact extremal curve)."""
        f = _state_derivatives(scenario, self.states, self.inputs)
        return np.array([float(lam @ fx) for lam, fx in zip(self.adjoints, f)])


def _state_derivatives(scenario: Scenario, states: np.ndarray, inputs) -> np.ndarray:
    """f(x, u) per state row, shaped like ``states``; one field per run of one input (a segment)."""
    out, u_prev, f = [], None, None
    for x, u in zip(states.tolist(), inputs):
        if u is not u_prev:
            u_prev, f = u, vector_field(scenario, u)
        out.append(f(0.0, x))
    return np.array(out, dtype=float).reshape(states.shape)


def select_extremal_input(scenario: Scenario, set_kind: SetKind, state, adjoint) -> InputVec:
    """Bang-bang input selected by the signs of the switching functionals.

    At an exact zero of a functional (e.g. at the tangency instant for SEIR
    beta) the sign is taken one-sided in backward time from the analytic
    derivative: sigma just before t=0 has the sign of -d(sigma)/dt.
    """
    variant = scenario.variant
    box = input_box(scenario)
    values: dict[Channel, float] = {}
    pending: list[Channel] = []
    for ch in active_channels(variant):
        sigma = switch_value(variant, set_kind, ch, adjoint)
        if abs(sigma) >= SIGMA_TOL:
            values[ch] = extremal_value(scenario, set_kind, ch, sigma > 0.0)
        else:
            pending.append(ch)
            lo, hi = box[ch]
            values[ch] = 0.5 * (lo + hi)  # placeholder for the derivative probe
    for ch in pending:
        probe = InputVec(**{c.value: v for c, v in values.items()})
        # d(lambda)/dt is minus the adjoint part of the backward field
        lam_back = backward_field(scenario, probe)(0.0, (*state, *adjoint, 0.0))[len(state) : -1]
        sigma_dot = -switch_value(variant, set_kind, ch, lam_back)
        if abs(sigma_dot) < SIGMA_TOL:
            raise SingularArcError(
                f"switching functional for {ch.value} and its derivative both "
                f"vanish at state {np.asarray(state).tolist()}"
            )
        values[ch] = extremal_value(scenario, set_kind, ch, -sigma_dot > 0.0)
    return InputVec(**{c.value: v for c, v in values.items()})


def _segment_events(scenario: Scenario, set_kind: SetKind, tol: Tolerances):
    """Switch and face events on the (state, adjoint, arc length) tuple, as sources."""
    d, geom = scenario.dim, tol.geom_tol
    bound = {"im": scenario.i_max, "i_floor": tol.i_floor}
    events = []
    for ch in active_channels(scenario.variant):
        plus, minus = switch_components(scenario.variant, set_kind, ch)
        sigma = f"y[{d + plus}]" + ("" if minus is None else f" - y[{d + minus}]")
        events.append(EventSpec(EventKind.SIGN_CHANGE, f"sigma_{ch.value}", Source(sigma)))
    # left-to-right sums, the order np.sum uses on so few components
    faces = [("sum_face", " + ".join(f"y[{k}]" for k in range(d)) + " - 1.0"), ("s_floor", "-y[0]")]
    if d == 3:
        faces.append(("e_floor", "-y[1]"))
    faces.append(("cap_face", f"y[{d - 1}] - im"))
    for label, expr in faces:
        events.append(EventSpec(EventKind.DOMAIN_EXIT, label, Source(expr, params=bound), geom))
    events.append(EventSpec(EventKind.DOMAIN_EXIT, "i_floor", Source(f"i_floor - y[{d - 1}]", params=bound)))
    return events


def _unit_adjoint(d: int) -> Source:
    """Post-step map scaling the adjoint part of the state to unit norm, as ``np.linalg.norm``.

    That is ``sqrt`` of a BLAS dot product on a reused buffer: a plain-float
    ``sqrt(a*a + b*b)`` can differ in the last bit where BLAS fuses multiply and add.
    """
    lam = [f"y[{k}]" for k in range(d, 2 * d)]
    buf = np.empty(d)
    body = f"{', '.join(f'buf[{i}]' for i in range(d))} = {', '.join(lam)}\nn = sqrt(dot(buf))"
    out = [f"y[{k}]" for k in range(d)] + [f"{c} / n" for c in lam] + [f"y[{2 * d}]"]
    return Source(tuple(out), body, params={"buf": buf, "dot": buf.dot})


_SIGMA_CHANNEL = {f"sigma_{ch.value}": ch for ch in Channel}


def compute_barrier_curve(
    scenario: Scenario,
    set_kind: SetKind,
    tangent_point,
    tolerances: Tolerances | None = None,
    *,
    record_every: int = 10,
) -> BarrierCurve:
    """Backward extremal curve from a tangency point, traced at ``step_h``.

    The curve ends at its first refined face or floor event (or at
    ``t_back_max``), whose ``tau`` does not depend on the step size.
    """
    tol = tolerances or Tolerances()
    d = scenario.dim
    x0 = np.asarray(tangent_point, dtype=float)
    if x0.shape != (d,):
        raise ValueError(f"tangent point must have {d} components")
    # state, adjoint (0, ..., 0, 1) and arc length as one float tuple
    y = tuple(x0.tolist()) + (0.0,) * (d - 1) + (1.0, 0.0)
    renorm = _unit_adjoint(d)
    events = _segment_events(scenario, set_kind, tol)
    segments = []  # (integration result, input) per segment
    switches: list[tuple[float, Channel]] = []
    tau = 0.0
    truncated = False

    while True:
        u = select_extremal_input(scenario, set_kind, y[:d], y[d : 2 * d])
        res = integrate_until(
            backward_source(scenario, u),
            events,
            y,
            t0=tau,
            tolerances=tol,
            t_limit=tol.t_back_max - tau,
            record_every=record_every,
            post_step=renorm,
        )
        segments.append((res, u))
        term = res.terminal
        if term.kind is EventKind.SIGN_CHANGE:
            gap_ok = not switches or (
                res.t_end - switches[-1][0] > SWITCH_GAP_MIN_FACTOR * tol.event_time_tol
            )
            if not gap_ok:
                truncated = True
                break
            switches.append((res.t_end, _SIGMA_CHANNEL[term.label]))
            tau, y = res.t_end, res.y_end
            continue
        break

    # every segment but the last ends on a switch; a truncated curve's last
    # segment ends on a switch too close to the previous one and flags none
    ends = np.cumsum([len(res.t) for res, _ in segments])
    is_switch = np.zeros(ends[-1], dtype=bool)
    is_switch[ends[:-1] - 1] = True
    curve = BarrierCurve(
        tangent_point=x0,
        tau=np.concatenate([res.t for res, _ in segments]),
        samples=np.concatenate([res.y for res, _ in segments]),
        inputs=[u for res, u in segments for _ in range(len(res.t))],
        is_switch=is_switch,
        termination=term,
        switch_times=switches,
        truncated=truncated,
        step_h=tol.step_h,
    )
    _check_containment(scenario, curve, tol)
    return curve


def _outside_capped_simplex(scenario: Scenario, tol: Tolerances, pts) -> np.ndarray:
    """Mask of the states in ``pts`` (last axis) outside the capped simplex.

    Face events trigger at depth ``geom_tol``, so a refined terminal sample
    may sit up to that deep plus refinement slack; a state counts as outside
    once it is more than twice that beyond a face, or is not finite.
    """
    slack = 2.0 * tol.geom_tol
    # negated, so that NaN and infinite components count as outside
    return ~(
        (np.min(pts, axis=-1) >= -slack)
        & (np.sum(pts, axis=-1) <= 1.0 + slack)
        & (pts[..., -1] <= scenario.i_max + slack)
    )


def _check_containment(scenario: Scenario, curve: BarrierCurve, tol: Tolerances):
    bad = np.flatnonzero(_outside_capped_simplex(scenario, tol, curve.states))
    if len(bad):
        k = bad[0]
        raise InvariantBreachError(
            f"sample at tau={curve.tau[k]} left the capped simplex: {curve.states[k].tolist()}"
        )


# ---------------------------------------------------------------------------
# arc-length resampling (cubic Hermite between recorded samples)
# ---------------------------------------------------------------------------


def _hermite(xa, xb, da, db, dt, theta):
    t2 = theta * theta
    t3 = t2 * theta
    two_t3, three_t2 = 2 * t3, 3 * t2
    return (
        (two_t3 - three_t2 + 1) * xa
        + (t3 - 2 * t2 + theta) * dt * da
        + (three_t2 - two_t3) * xb
        + (t3 - t2) * dt * db
    )


def resample_by_arclength(
    curves: list[BarrierCurve], scenario: Scenario, n_nodes: int
) -> np.ndarray:
    """States at n_nodes equally spaced arc-length stations along each curve.

    Returns ``(len(curves), n_nodes, dim)``. Interpolation is cubic Hermite with
    the exact backward vector field as tangent data, so the curves keep the
    integrator's full order. One ``searchsorted`` on a curve's never-decreasing
    arc lengths brackets its nodes; one 60-step bisection on arrays places the
    nodes of all curves, rounding as a per-node scalar loop would; the speeds
    |f| stay BLAS dots ``f @ f`` (which may fuse multiply and add).
    """
    out = np.empty((len(curves), n_nodes, scenario.dim))
    arcs, n_used = [], 0
    for i, curve in enumerate(curves):
        states, s_vals = curve.states, curve.samples[:, -1]
        targets = np.linspace(0.0, s_vals[-1], n_nodes)[1:-1]
        out[i, 0] = states[0]
        out[i, -1] = states[-1]
        a = np.clip(np.searchsorted(s_vals, targets) - 1, 0, len(s_vals) - 2)
        b = a + 1
        f = _state_derivatives(scenario, states, curve.inputs)
        ds = np.sqrt([fj @ fj for fj in f])
        dt = curve.tau[b] - curve.tau[a]
        dup = (dt <= 0.0) | (s_vals[b] <= s_vals[a])  # duplicated switch node
        out[i, 1:-1][dup] = states[b[dup]]
        (live,) = np.nonzero(~dup)
        # its samples; per live node: global left-sample index, dt, target, row
        arcs.append((s_vals, ds, states, f, n_used + a[live], dt[live], targets[live],
                     i * n_nodes + 1 + live))
        n_used += len(s_vals)
    s_vals, ds, x, f, a, dt, s_t, node = map(np.concatenate, zip(*arcs))
    # invert every curve's monotone arc-length Hermite s(theta) by bisection
    arc = (s_vals[a], s_vals[a + 1], ds[a], ds[a + 1], dt)
    lo, hi = np.zeros_like(s_t), np.ones_like(s_t)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = _hermite(*arc, mid) < s_t
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    theta = 0.5 * (lo[:, None] + hi[:, None])
    del arcs, arc, lo, hi, mid, below  # peak memory: free them before the (lanes, dim) arrays
    rows = out.reshape(-1, scenario.dim)  # a view: out is C-contiguous
    rows[node] = _hermite(x[a], x[a + 1], -f[a], -f[a + 1], dt[:, None], theta)
    return out


# ---------------------------------------------------------------------------
# set assembly
# ---------------------------------------------------------------------------


@dataclass
class ComputedSet:
    """A computed admissible or robust-invariant set with membership queries.

    Every set, assembled, reloaded or built by hand, derives ``dim``, ``trivial``
    and ``usable`` from its scenario and kind, and a non-trivial one is checked by
    :func:`check_set_geometry` when it is made.  Membership only consults the
    geometric fields (boundary polyline for SIR, mesh nodes and usable part
    for SEIR), so a set reloaded from its exported geometry answers
    identically to the freshly assembled one.
    """

    scenario: Scenario
    set_kind: SetKind
    curves: list[BarrierCurve] = field(default_factory=list)
    polyline: np.ndarray | None = None  # SIR: closed boundary polygon (n, 2)
    mesh_nodes: np.ndarray | None = None  # SEIR: (n_curves, n_nodes, 3)
    tolerances: Tolerances = field(default_factory=Tolerances)
    trivial: bool = field(init=False)
    usable: UsablePart | None = field(init=False)
    dim: int = field(init=False)

    def __post_init__(self):
        self.dim = self.scenario.dim
        self.trivial = is_trivial(self.scenario, self.set_kind)
        self.usable = None if self.trivial else usable_part(self.scenario, self.set_kind)
        if not self.trivial:
            check_set_geometry(self)

    @cached_property
    def query_arrays(self):
        """The arrays membership reads, built on the first query."""
        return _sir_edges(self) if self.scenario.variant.is_sir else _seir_arrays(self)


def assemble_set(
    scenario: Scenario,
    set_kind: SetKind,
    n_curves: int = 30,
    tolerances: Tolerances | None = None,
) -> ComputedSet:
    """Compute barrier curves and stitch them with the usable part.

    For a trivial classification the whole constrained simplex is the set and
    no curves are integrated.  A SEIR mesh needs ``n_curves >= 2``.
    """
    if n_curves < 2 and not scenario.variant.is_sir:
        raise ValueError(f"a SEIR mesh needs at least 2 curves, got {n_curves}")
    tol = tolerances or Tolerances()
    curves, poly, mesh = [], None, None
    if not is_trivial(scenario, set_kind):
        tangents = backward_filter(
            scenario, set_kind, tangent_set(scenario, set_kind)
        )
        curves = [
            compute_barrier_curve(scenario, set_kind, tangents.point(z1), tol)
            for z1 in tangents.sample(n_curves)
        ]
        if scenario.variant.is_sir:
            poly = _sir_boundary_polygon(scenario, curves[0])
        else:
            mesh = resample_by_arclength(curves, scenario, 200)
    return ComputedSet(scenario, set_kind, curves, poly, mesh, tol)


def _sir_boundary_polygon(
    scenario: Scenario, curve: BarrierCurve
) -> np.ndarray:
    """Closed boundary: S=0 edge, usable part, barrier, then invariant faces."""
    im = scenario.i_max
    arc = resample_by_arclength([curve], scenario, 400)[0]
    pts = [np.array([0.0, 0.0]), np.array([0.0, im])]
    pts.extend(arc)  # arc[0] is the tangent point (z1, I_max); s_hi = z1 when z1 + I_max < 1
    end = arc[-1]
    if curve.termination.label == "sum_face":
        pts.append(np.array([1.0, 0.0]))
    else:  # i_floor / horizon: drop to the axis below the endpoint
        pts.append(np.array([end[0], 0.0]))
    return np.array(pts)


def check_sir_graph(poly: np.ndarray) -> None:
    """Raise ValueError unless ``poly`` bounds the region under a graph of S.

    Membership reads the polygon as ``{0 <= I <= phi(S)}``, with ``phi``
    linear through ``poly[1:]``: the first vertex must lie on ``I = 0``
    below the second, ``S`` must never decrease along ``poly[1:]``, and the
    last vertex must lie on ``I = 0``.
    """
    if poly.ndim != 2 or poly.shape[1] != 2 or len(poly) < 3:
        raise ValueError(f"SIR boundary polyline has shape {poly.shape}, not (n >= 3, 2)")
    s = poly[1:, 0]
    if not (
        poly[0, 0] == s[0]
        and poly[0, 1] == 0.0
        and poly[-1, 1] == 0.0
        and np.all(np.diff(s) >= 0.0)
    ):
        raise ValueError("SIR boundary polyline is not the graph I = phi(S) over I = 0")


def check_set_geometry(cset: ComputedSet) -> None:
    """Raise ValueError unless membership can read the set's polyline or mesh.

    A SIR polyline must pass :func:`check_sir_graph`, a SEIR mesh must have
    shape ``(n_curves >= 2, n_nodes >= 2, 3)``, and every vertex or node must
    be finite and in the capped simplex, with the slack of curve containment.
    """
    sir = cset.scenario.variant.is_sir
    pts = cset.polyline if sir else cset.mesh_nodes
    if pts is None:
        raise ValueError(f"a non-trivial set needs its {'polyline' if sir else 'mesh_nodes'}")
    if sir:
        check_sir_graph(pts)
    elif pts.ndim != 3 or min(pts.shape[:2]) < 2 or pts.shape[2] != 3:
        raise ValueError(f"SEIR mesh has shape {pts.shape}, not (>= 2, >= 2, 3)")
    if np.any(_outside_capped_simplex(cset.scenario, cset.tolerances, pts)):
        raise ValueError("set geometry is not finite or leaves the capped simplex")


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def _simplex_boundary_distance(scenario: Scenario, c: list[float]) -> float:
    """Distance to the boundary of the constrained simplex."""
    return min(*c, (1.0 - sum(c)) / math.sqrt(len(c)), scenario.i_max - c[-1])


def _in_simplex(scenario: Scenario, c: list[float], tol: float) -> bool:
    # plain floats, summed left to right as np.sum does for so few components
    total = 0.0
    for v in c:
        if not v >= -tol:
            return False
        total += v
    return total <= 1.0 + tol and c[-1] <= scenario.i_max + tol


def _sir_edges(cset: ComputedSet):
    """S, I of the graph vertices and 1/|ab|^2 of its edges j -> j + 1, as float lists; rows
    ax, ay, abx, aby, 1/|ab|^2 of those edges; and each edge off the graph (the closing
    edges, the I = 0 axis and the S = 0 edge) once, as its box s_lo, s_hi, i_lo, i_hi, then
    ax, ay, bx, by, 1/|ab|^2.  An assembled polygon's first edge is the S = 0 edge."""
    poly = cset.polyline
    a = np.vstack([poly, [[0.0, 0.0], [0.0, 0.0]]])
    b = np.vstack([poly[1:], poly[:1], [[1.0, 0.0], [0.0, cset.scenario.i_max]]])
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    inv = np.where(denom > 0.0, 1.0 / np.maximum(denom, 1e-300), 0.0)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    rows = np.column_stack([lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1], a, b, inv])[[0, -3, -2, -1]]
    other = list(dict.fromkeys(map(tuple, rows.tolist())))  # each edge once
    graph = np.vstack([a.T, ab.T, inv])[:, 1:-3].copy()
    return poly[1:, 0].tolist(), poly[1:, 1].tolist(), graph[4].tolist(), graph, other


def membership(cset: ComputedSet, point) -> Membership:
    """Verdict and boundary distance of a finite query state; ValueError otherwise.

    The distance counts the SIR polygon's edges, the whole I = 0 axis and the S = 0 edge
    up to the cap, so the sum face only where a polygon edge lies on it; the SEIR mesh
    nodes, the usable cap face and the S axis; every face of a trivial set's capped simplex.
    """
    x = np.asarray(point, dtype=float)
    scenario, tol, dim = cset.scenario, cset.tolerances, cset.dim
    c = x.tolist()
    if x.shape != (dim,) or not all(map(math.isfinite, c)):
        raise ValueError(f"query point {c} is not a finite state of shape ({dim},)")
    if cset.trivial:
        dist = _simplex_boundary_distance(scenario, c)
        if not _in_simplex(scenario, c, tol.geom_tol):
            return Membership(_OUTSIDE, abs(dist))
        if dist <= tol.boundary_layer_eps:
            return Membership(_BOUNDARY, dist)
        return Membership(_INSIDE, dist)
    if dim == 2:
        px, py = c
        xs, ys = cset.query_arrays[:2]
        k = bisect_right(xs, px)
        dist = _sir_distance(cset, px, py, k)
    else:
        dist = _seir_distance_estimate(cset, *c)
    if dist <= tol.boundary_layer_eps:
        return Membership(_BOUNDARY, dist)
    if dim == 3:
        inside = _in_simplex(scenario, c, tol.geom_tol) and _seir_inside(cset, *c)
        return Membership(_INSIDE if inside else _OUTSIDE, dist)
    # in the simplex, and under the graph: xs[k - 1] <= px < xs[k] past xs[0] and before xs[-1]
    g, s0, i0 = tol.geom_tol, xs[k - 1], ys[k - 1]
    inside = (px >= -g and py >= -g and px + py <= 1.0 + g and py <= scenario.i_max + g
              and xs[0] < px < xs[-1] and 0.0 < py < i0 + (px - s0) * (ys[k] - i0) / (xs[k] - s0))
    return Membership(_INSIDE if inside else _OUTSIDE, dist)


# A wider window is measured in one numpy pass: per window (timeit, 2-core Xeon VM) 24 /
# 32 / 36 / 40 edges took 7.0 / 9.3 / 10.7 / 11.6 us inline and 9.5-10.4 us in numpy.  On
# the query benchmark's SIR points widths 24 to 40 ran within 2% of each other.
_SCAN_EDGES = 32


def _sir_distance(cset: ComputedSet, px: float, py: float, k: int) -> float:
    """Distance from (px, py) to the SIR boundary, measured on the edges that can be nearest.

    ``k`` is ``bisect_right(xs, px)``.  Each edge is measured as the numpy form over all edges
    does, operation by operation, so the bits are the same.  The graph edge under ``px``
    gives a first distance ``d``; ``r`` is ``d`` widened by ``1e-14`` relative and by
    ``1e-14 * (1 + |px| + |py| + |S_0| + |S_last|)`` absolute, far past the rounding of a
    measured distance (a few ``u = 2**-53`` times the coordinates).  An edge whose box lies
    farther than ``r`` from the query along S or along I measures no less than ``d``, so an
    edge off the graph is measured only when its box lies within ``r`` along both.  Then
    ``r`` is widened from the least distance so far; S never decreases along the graph, so
    only the graph edges whose S range lies within ``r`` of ``px`` are measured, one by
    one, or in one numpy pass past ``_SCAN_EDGES``.
    """
    xs, ys, inv, graph, other = cset.query_arrays
    last = len(inv) - 1
    k = min(max(k - 1, 0), last)
    abx, aby, dx, dy = xs[k + 1] - xs[k], ys[k + 1] - ys[k], px - xs[k], py - ys[k]
    t = (dx * abx + dy * aby) * inv[k]
    t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
    ex, ey = dx - t * abx, dy - t * aby
    best = ex * ex + ey * ey
    pad = 1e-14 * (1.0 + abs(px) + abs(py) + abs(xs[0]) + abs(xs[-1]))
    r = math.sqrt(best) * (1.0 + 1e-14) + pad
    for s_lo, s_hi, i_lo, i_hi, ax, ay, bx, by, w in other:
        if s_lo - r <= px <= s_hi + r and i_lo - r <= py <= i_hi + r:
            abx, aby, dx, dy = bx - ax, by - ay, px - ax, py - ay
            t = (dx * abx + dy * aby) * w
            t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
            ex, ey = dx - t * abx, dy - t * aby
            d2 = ex * ex + ey * ey
            best = d2 if d2 < best else best
    r = math.sqrt(best) * (1.0 + 1e-14) + pad
    lo = k if k == 0 or px - xs[k] >= r else max(bisect_right(xs, px - r) - 1, 0)
    hi = k + 1 if k == last or xs[k + 1] - px >= r else min(bisect_left(xs, px + r), last + 1)
    if hi - lo > _SCAN_EDGES:
        ax, ay, abx, aby, w = graph[:, lo:hi]
        dx, dy = px - ax, py - ay
        t = (dx * abx + dy * aby) * w
        np.minimum(np.maximum(t, 0.0, out=t), 1.0, out=t)
        best = min(best, float(((dx - t * abx) ** 2 + (dy - t * aby) ** 2).min()))
    elif hi - lo > 1:
        for j in range(lo, hi):
            abx, aby, dx, dy = xs[j + 1] - xs[j], ys[j + 1] - ys[j], px - xs[j], py - ys[j]
            t = (dx * abx + dy * aby) * inv[j]
            t = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
            ex, ey = dx - t * abx, dy - t * aby
            d2 = ex * ex + ey * ey
            best = d2 if d2 < best else best
    return math.sqrt(best)


def _seir_arrays(cset: ComputedSet):
    """The bucket grid of the mesh quads, the quads and the nodes that SEIR queries read.

    A uniform grid of ``n * n`` cells, ``n`` the ceiling of the square root of
    the quad count, covers the extent of the quads' padded boxes (Ericson,
    *Real-Time Collision Detection*, 7.1).  Each quad is listed, in ascending
    order, in every cell its box overlaps: cell ``k`` holds
    ``ids[offsets[k]:offsets[k + 1]]``.  Box ends and queries take their cell
    from one monotone expression, ``min(int((v - v0) * scale), n - 1)``, so a
    query's cell lies in the cell range of every box that holds it.  The
    boxes and the flat node columns serve the crossing test; the nodes sorted
    by S and their E and I extents serve the distance.  Every buffer is a
    numpy array or a memoryview of one.
    """
    g = cset.mesh_nodes
    boxes = _quad_boxes(g)
    n = math.isqrt(len(boxes[0]) - 1) + 1
    grid, cells = [], []
    for lo, hi in (boxes[:2], boxes[2:]):
        v0, v1 = float(lo.min()), float(hi.max())
        scale = n / (v1 - v0) if v1 > v0 else 0.0  # one cell across a zero-width extent
        grid += [v0, v1, scale]
        cells.append([np.minimum(((v - v0) * scale).astype(np.int32), n - 1) for v in (lo, hi)])
    (ks_lo, ks_hi), (ke_lo, ke_hi) = cells
    # each quad's cells, ks-major: a run of (ks_hi - ks_lo + 1) * (ke_hi - ke_lo + 1)
    n_e = ke_hi - ke_lo + 1
    runs = (ks_hi - ks_lo + 1) * n_e
    quad = np.repeat(np.arange(len(runs), dtype=np.int32), runs)
    starts = np.cumsum(runs, dtype=np.int32) - runs
    at = np.arange(len(quad), dtype=np.int32) - np.repeat(starts, runs)
    n_e = n_e[quad]
    cell = (ks_lo[quad] + at // n_e) * n + ke_lo[quad] + at % n_e
    del at, n_e  # peak memory: free them before the sort
    ids = quad[np.argsort(cell, kind="stable")]  # stable: ascending quads per cell
    offsets = np.zeros(n * n + 1, dtype=np.int32)
    np.cumsum(np.bincount(cell, minlength=n * n), out=offsets[1:])
    flat = g.reshape(-1, 3)
    by_s = flat[np.argsort(flat[:, 0], kind="stable")].T.copy()
    extents = (*map(float, flat[:, 1:].min(axis=0)), *map(float, flat[:, 1:].max(axis=0)))
    return (
        (*grid, n, offsets.data, ids.data),
        (*(b.data for b in boxes), g.shape[1], *(flat[:, k].copy().data for k in range(3))),
        (by_s[0].data, *by_s, *extents),
    )


def _quad_boxes(g: np.ndarray):
    """``s_lo, s_hi, e_lo, e_hi``: the padded (S, E) box of each quad of the mesh.

    Quad (curve c, arc node j) is flattened as ``c * (nn - 1) + j``.  Each box
    is padded by ``1e-8 * diameter + 1e-12``: the three sides of a triangle in
    :func:`_seir_inside` can agree on a query outside it only within the
    rounding of an orient, far inside the pad, so no triangle outside its
    padded box can cover the query; a wider pad only adds candidates.
    """
    corners = np.stack([g[:-1, :-1], g[1:, :-1], g[1:, 1:], g[:-1, 1:]])
    s, e = corners[..., 0], corners[..., 1]
    s_lo, s_hi = s.min(axis=0).ravel(), s.max(axis=0).ravel()
    e_lo, e_hi = e.min(axis=0).ravel(), e.max(axis=0).ravel()
    pad = 1e-8 * np.hypot(s_hi - s_lo, e_hi - e_lo) + 1e-12
    return s_lo - pad, s_hi + pad, e_lo - pad, e_hi + pad


def _cell_quads(grid, s_q: float, e_q: float):
    """The quads listed in the grid cell of (s_q, e_q); none outside the grid."""
    s0, s1, s_scale, e0, e1, e_scale, n, offsets, ids = grid
    if not (s0 <= s_q <= s1 and e0 <= e_q <= e1):
        return ()
    k = min(int((s_q - s0) * s_scale), n - 1) * n + min(int((e_q - e0) * e_scale), n - 1)
    return ids[offsets[k] : offsets[k + 1]]


def _seir_inside(cset: ComputedSet, s_q: float, e_q: float, i_q: float) -> bool:
    """Vertical-ray parity test with one exact tie rule.

    The upward ray from (S, E, I) toward the cap face I = I_max either ends on
    the usable part or not, and each mesh crossing in between flips the side:
    the query is inside iff exactly one of the two holds.  Only the quads of
    the query's grid cell whose padded (S, E) box holds it are tested.

    Each grid edge a -> b, a before b in flat node order, gets one
    ``orient = dS * (E - E_a) - dE * (S - S_a)``, which both its triangles
    read.  An exact zero takes the side of the query perturbed to
    (S + d, E + d^2), d -> 0+: the sign of -dE, then of dS (simulation of
    simplicity; Edelsbrunner & Muecke, ACM TOG 9(1), 1990).  A triangle covers
    the query iff its three traversal-signed sides are equal and nonzero, and
    is crossed iff its height phi, with the same orients as barycentric
    weights, exceeds I.  The usable part is read for the perturbed query too,
    so its far edges are open: the tangent segment lies on its edge E = e_cap.
    """
    up = cset.usable
    inside = 0.0 <= s_q < up.s_hi and 0.0 <= e_q < up.e_cap(s_q)
    grid, (s_lo, s_hi, e_lo, e_hi, nn, S, E, Z), _ = cset.query_arrays
    for q in _cell_quads(grid, s_q, e_q):
        if not (s_lo[q] <= s_q <= s_hi[q] and e_lo[q] <= e_q <= e_hi[q]):
            continue
        # nodes a = (c, j), b = (c + 1, j), c = (c + 1, j + 1), d = (c, j + 1);
        # each orient below is written out, with its tie break t = o or -dE or dS
        a = q + q // (nn - 1)
        sa, ea = S[a], E[a]
        qs, qe = s_q - sa, e_q - ea
        c = a + nn + 1
        sc, ec = S[c], E[c]
        ds, de = sc - sa, ec - ea
        o_ac = ds * qe - de * qs
        t = o_ac or -de or ds
        if not t:  # a zero-length diagonal: neither triangle covers
            continue
        # both triangles read the diagonal a -> c; a covering one has its two
        # other sides, a -> b and b -> c or a -> d and d -> c, of the opposite sign
        flip = -1.0 if t > 0.0 else 1.0
        b = a + nn
        sb, eb = S[b], E[b]
        ds, de = sb - sa, eb - ea
        o_ab = ds * qe - de * qs
        if (o_ab or -de or ds) * flip > 0.0:
            ds, de = sc - sb, ec - eb
            o_bc = ds * (e_q - eb) - de * (s_q - sb)
            if (o_bc or -de or ds) * flip > 0.0:
                inside ^= _height(o_bc, -o_ac, o_ab, Z[a], Z[b], Z[c]) > i_q
        d = a + 1
        sd, ed = S[d], E[d]
        ds, de = sd - sa, ed - ea
        o_ad = ds * qe - de * qs
        if (o_ad or -de or ds) * flip > 0.0:
            ds, de = sc - sd, ec - ed
            o_dc = ds * (e_q - ed) - de * (s_q - sd)
            if (o_dc or -de or ds) * flip > 0.0:
                inside ^= _height(-o_dc, -o_ad, o_ac, Z[a], Z[c], Z[d]) > i_q
    return inside


def _height(w0, w1, w2, h0, h1, h2):
    """Height of a covering triangle at the query, with its sides' orients as weights.

    The weights of a covering triangle are of one sign and not all zero, so
    their sum is not zero.
    """
    return (w0 * h0 + w1 * h1 + w2 * h2) / (w0 + w1 + w2)


def _seir_distance_estimate(cset: ComputedSet, x0: float, x1: float, x2: float) -> float:
    """Least distance to the mesh nodes, the usable cap face and the S axis.

    ``r`` starts as the cap-face and S-axis distances, less any distance to
    the corners of the first quad of the query's grid cell.  Only nodes within
    ``r`` can be nearer: none when the nodes' bounding box lies ``w`` away,
    ``w = r * (1 + 1e-14) + 1e-14 * (1 + |x0|)``, else only those with S in
    ``x0 +- w``.  ``w`` exceeds ``r`` by far more than the rounding of the
    window's ends, of a node's ``dx`` and of its squared sum, so the nodes in
    the window, measured as the numpy form over all nodes measures them, give
    the same least distance.
    """
    # usable part of the cap face: axis-aligned box-ish region at I = I_max
    up = cset.usable
    ds = max(0.0, -x0, x0 - up.s_hi)
    de = max(0.0, -x1, x1 - up.e_cap(min(max(x0, 0.0), up.s_hi)))
    di = cset.scenario.i_max - x2
    # the invariant equilibria E = I = 0, the S axis from 0 to 1, bound every SEIR set
    ex = x0 - min(1.0, max(0.0, x0))
    r = min(math.sqrt(ds * ds + de * de + di * di), math.sqrt(ex * ex + x1 * x1 + x2 * x2))
    grid, (*_, nn, S, E, Z), (s_sorted, ns, ne, ni, e_min, z_min, e_max, z_max) = cset.query_arrays
    for q in _cell_quads(grid, x0, x1)[:1]:
        a = q + q // (nn - 1)
        d2 = []
        for j in (a, a + 1, a + nn, a + nn + 1):
            dx, dy, dz = S[j] - x0, E[j] - x1, Z[j] - x2
            d2.append(dx * dx + dy * dy + dz * dz)
        r = min(r, math.sqrt(min(d2)))
    w = r * (1.0 + 1e-14) + 1e-14 * (1.0 + abs(x0))
    dx = max(0.0, s_sorted[0] - x0, x0 - s_sorted[-1])
    dy = max(0.0, e_min - x1, x1 - e_max)
    dz = max(0.0, z_min - x2, x2 - z_max)
    if dx * dx + dy * dy + dz * dz >= w * w:
        return r
    lo, hi = bisect_left(s_sorted, x0 - w), bisect_right(s_sorted, x0 + w)
    if lo == hi:
        return r
    dx, dy, dz = ns[lo:hi] - x0, ne[lo:hi] - x1, ni[lo:hi] - x2
    return min(math.sqrt((dx * dx + dy * dy + dz * dz).min()), r)
