"""Barrier curves by backward integration, and queryable computed sets.

A barrier curve starts on the constraint face I = I_max at an
ultimate-tangency point with adjoint (0, ..., 0, 1) and is integrated
backwards in time under the extremal bang-bang input selected by the adjoint's
switching functionals.  Curves are parameterized by backward time tau = -t
(the tangency instant is fixed at t = 0), so the integrator always moves
forward in its own variable:

    dx/dtau      = -f(x, u)
    dlambda/dtau = -A(x, u) lambda
    ds/dtau      = |f(x, u)|          (arc length, used for resampling)

For SIR variants the single curve plus the usable part and the invariant
simplex faces stitch into a closed boundary polygon.  Forward in time
S' = -beta*S*I < 0 wherever I > 0, so S rises strictly along the backward
curve and the polygon is the region under a graph, {0 <= I <= phi(S)}: phi is
the cap I_max up to the tangent point and the barrier curve after it.
Membership bisects the polygon's S coordinates and compares I with phi
interpolated on that edge.  For SEIR variants a family of curves is resampled
onto an arc-length grid and triangulated; membership is a vertical-ray parity
test against that mesh, whose one tie rule decides a query on a mesh edge or
vertex as it decides the same query perturbed off it.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum

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
    integrate_until,
)
from .models import (
    Channel,
    InputVec,
    active_channels,
    adjoint_rhs,
    extremal_value,
    input_box,
    rates,
    state_rhs,
    switch_components,
    switch_value,
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


@dataclass(frozen=True)
class Membership:
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
        return np.array(
            [
                float(lam @ state_rhs(scenario, x, u))
                for x, lam, u in zip(self.states, self.adjoints, self.inputs)
            ]
        )


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
        lam_dot = adjoint_rhs(scenario, state, adjoint, probe)
        sigma_dot = switch_value(variant, set_kind, ch, lam_dot)
        if abs(sigma_dot) < SIGMA_TOL:
            raise SingularArcError(
                f"switching functional for {ch.value} and its derivative both "
                f"vanish at state {np.asarray(state).tolist()}"
            )
        values[ch] = extremal_value(scenario, set_kind, ch, -sigma_dot > 0.0)
    return InputVec(**{c.value: v for c, v in values.items()})


def _backward_rhs(scenario: Scenario, u: InputVec, d: int):
    """Coupled backward (state, adjoint, arc-length) right-hand side on float tuples.

    ``-f`` and ``-A lambda`` are written out from the templates of
    ``models.state_field`` and ``models.adjoint_matrix``: this is the
    innermost hot loop and the generic matrix build costs several times the
    arithmetic.  The perfect variants' rates do not depend on the state, so
    they are taken once per segment.
    """
    fixed = rates(scenario, 0.0, u) if scenario.variant.is_perfect else None
    if d == 2:

        def rhs(t, y):
            S, I, l1, l2, _ = y
            b, a, g, dd, _ = fixed or rates(scenario, I, u)
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
        b, a, g, dd, e = fixed or rates(scenario, I, u)
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


def _segment_events(scenario: Scenario, set_kind: SetKind, tol: Tolerances):
    """Switch and face events on the (state, adjoint, arc length) tuple."""
    d, geom = scenario.dim, tol.geom_tol
    events = []
    for ch in active_channels(scenario.variant):
        plus, minus = switch_components(scenario.variant, set_kind, ch)
        if minus is None:
            fn = lambda t, y, p=d + plus: y[p]
        else:
            fn = lambda t, y, p=d + plus, m=d + minus: y[p] - y[m]
        events.append(EventSpec(EventKind.SIGN_CHANGE, f"sigma_{ch.value}", fn=fn))
    # left-to-right sums, the order np.sum uses on so few components
    if d == 2:
        sum_face = lambda t, y: y[0] + y[1] - 1.0
    else:
        sum_face = lambda t, y: y[0] + y[1] + y[2] - 1.0
    faces = [("sum_face", sum_face), ("s_floor", lambda t, y: -y[0])]
    if d == 3:
        faces.append(("e_floor", lambda t, y: -y[1]))
    faces.append(("cap_face", lambda t, y: y[d - 1] - scenario.i_max))
    for label, fn in faces:
        events.append(EventSpec(EventKind.DOMAIN_EXIT, label, fn, trigger_level=geom))
    events.append(EventSpec(EventKind.I_FLOOR, "i_floor", lambda t, y: tol.i_floor - y[d - 1]))
    return events


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
    renorm = _adjoint_renorm(d)
    events = _segment_events(scenario, set_kind, tol)
    segments = []  # (integration result, input) per segment
    switches: list[tuple[float, Channel]] = []
    tau = 0.0
    truncated = False

    while True:
        u = select_extremal_input(scenario, set_kind, y[:d], y[d : 2 * d])
        res = integrate_until(
            _backward_rhs(scenario, u, d),
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


def _adjoint_renorm(d: int):
    """Post-step map scaling the adjoint part of the state tuple to unit norm.

    The norm is ``sqrt(lam . lam)`` with the dot product taken by BLAS on a
    reused buffer, exactly as ``np.linalg.norm`` computes it: a plain-float
    ``sqrt(a*a + b*b)`` can differ in the last bit where the BLAS dot fuses
    multiply and add.  The tuple is unpacked per width, as in
    :func:`_backward_rhs`, and the buffer set item by item: slicing and
    concatenating tuples cost more than the dot product.
    """
    buf = np.empty(d)
    if d == 2:

        def renorm(y):
            S, I, l1, l2, s = y
            buf[0], buf[1] = l1, l2
            n = math.sqrt(buf.dot(buf))
            return (S, I, l1 / n, l2 / n, s)

        return renorm

    def renorm(y):
        S, E, I, l1, l2, l3, s = y
        buf[0], buf[1], buf[2] = l1, l2, l3
        n = math.sqrt(buf.dot(buf))
        return (S, E, I, l1 / n, l2 / n, l3 / n, s)

    return renorm


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
    t2, t3 = theta * theta, theta * theta * theta
    return (
        (2 * t3 - 3 * t2 + 1) * xa
        + (t3 - 2 * t2 + theta) * dt * da
        + (-2 * t3 + 3 * t2) * xb
        + (t3 - t2) * dt * db
    )


def resample_by_arclength(
    curve: BarrierCurve, scenario: Scenario, n_nodes: int
) -> np.ndarray:
    """States at n_nodes equally spaced arc-length stations along the curve.

    Interpolation is cubic Hermite using the exact backward vector field as
    tangent data, so the resampled curve keeps the integrator's full order.
    All nodes are bracketed by one ``searchsorted`` on the never-decreasing
    arc lengths and placed by one 60-step bisection on arrays, which rounds
    as a per-node scalar loop would; the speeds |f| stay BLAS dots ``f @ f``
    (which may fuse multiply and add).
    """
    states, s_vals = curve.states, curve.samples[:, -1]
    targets = np.linspace(0.0, s_vals[-1], n_nodes)[1:-1]
    out = np.empty((n_nodes, scenario.dim))
    out[0] = states[0]
    out[-1] = states[-1]
    k = np.clip(np.searchsorted(s_vals, targets) - 1, 0, len(s_vals) - 2)
    # gather only the samples that bracket a node (a set: np.unique imports
    # numpy.ma), so memory stays O(n_nodes) on curves of 10^4 samples
    used = sorted(set(k.tolist()).union((k + 1).tolist()))
    a = np.searchsorted(used, k)
    b = a + 1  # k + 1 follows k in used
    s_u, tau, x = s_vals[used], curve.tau[used], states[used]
    f = [state_rhs(scenario, states[i], curve.inputs[i]) for i in used]
    ds = np.sqrt([fi @ fi for fi in f])
    f = np.array(f).reshape(-1, scenario.dim)
    dt = tau[b] - tau[a]
    dup = (dt <= 0.0) | (s_u[b] <= s_u[a])  # duplicated switch node
    out[1:-1][dup] = x[b[dup]]
    live = ~dup
    a, b, dt, s_t = a[live], b[live], dt[live], targets[live]
    # invert the monotone arc-length Hermite s(theta) by bisection
    arc = (s_u[a], s_u[b], ds[a], ds[b], dt)
    lo, hi = np.zeros_like(s_t), np.ones_like(s_t)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = _hermite(*arc, mid) < s_t
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    theta = 0.5 * (lo[:, None] + hi[:, None])
    out[1:-1][live] = _hermite(x[a], x[b], -f[a], -f[b], dt[:, None], theta)
    return out


# ---------------------------------------------------------------------------
# set assembly
# ---------------------------------------------------------------------------


@dataclass
class ComputedSet:
    """A computed admissible or robust-invariant set with membership queries.

    Membership only consults the geometric fields (boundary polyline for SIR,
    mesh nodes and usable part for SEIR), so a set reloaded from its exported
    geometry answers identically to the freshly assembled one.
    """

    scenario: Scenario
    set_kind: SetKind
    trivial: bool
    usable: UsablePart | None = None
    curves: list[BarrierCurve] = field(default_factory=list)
    polyline: np.ndarray | None = None  # SIR: closed boundary polygon (n, 2)
    mesh_nodes: np.ndarray | None = None  # SEIR: (n_curves, n_nodes, 3)
    special_segments: list[np.ndarray] = field(default_factory=list)
    tolerances: Tolerances = field(default_factory=Tolerances)


def _sir_special_segments(scenario: Scenario) -> list[np.ndarray]:
    im = scenario.i_max
    return [
        np.array([[0.0, 0.0], [1.0, 0.0]]),  # equilibrium axis I = 0
        np.array([[0.0, 0.0], [0.0, im]]),  # S = 0 edge, flow decays to origin
    ]


def _seir_special_segments(scenario: Scenario) -> list[np.ndarray]:
    return [
        np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),  # equilibria E = I = 0
    ]


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
    if is_trivial(scenario, set_kind):
        return ComputedSet(scenario, set_kind, trivial=True, tolerances=tol)
    up = usable_part(scenario, set_kind)
    tangents = backward_filter(
        scenario, set_kind, tangent_set(scenario, set_kind)
    )
    curves = [
        compute_barrier_curve(scenario, set_kind, tangents.point(z1), tol)
        for z1 in tangents.sample(n_curves)
    ]
    if scenario.variant.is_sir:
        poly = _sir_boundary_polygon(scenario, up, curves[0], tol)
        return ComputedSet(
            scenario,
            set_kind,
            trivial=False,
            usable=up,
            curves=curves,
            polyline=poly,
            special_segments=_sir_special_segments(scenario),
            tolerances=tol,
        )
    nodes = np.stack([resample_by_arclength(c, scenario, 200) for c in curves])
    return ComputedSet(
        scenario,
        set_kind,
        trivial=False,
        usable=up,
        curves=curves,
        mesh_nodes=nodes,
        special_segments=_seir_special_segments(scenario),
        tolerances=tol,
    )


def _sir_boundary_polygon(
    scenario: Scenario, up: UsablePart, curve: BarrierCurve, tol: Tolerances
) -> np.ndarray:
    """Closed boundary: S=0 edge, usable part, barrier, then invariant faces."""
    im = scenario.i_max
    arc = resample_by_arclength(curve, scenario, 400)
    if abs(arc[0, 0] - up.s_hi) > 1e-6 or abs(arc[0, 1] - im) > tol.geom_tol:
        raise ValueError(
            "barrier tangent point does not meet the usable part endpoint"
        )
    pts = [np.array([0.0, 0.0]), np.array([0.0, im])]
    pts.extend(arc)  # arc[0] is the tangent point = usable-part right endpoint
    end = arc[-1]
    if curve.termination.label == "sum_face":
        pts.append(np.array([1.0, 0.0]))
    else:  # i_floor / horizon: drop to the axis below the endpoint
        pts.append(np.array([end[0], 0.0]))
    poly = np.array(pts)
    check_sir_graph(poly)
    return poly


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
    if cset.scenario.variant.is_sir:
        pts = cset.polyline
        check_sir_graph(pts)
    else:
        pts = cset.mesh_nodes
        if pts.ndim != 3 or min(pts.shape[:2]) < 2 or pts.shape[2] != 3:
            raise ValueError(f"SEIR mesh has shape {pts.shape}, not (>= 2, >= 2, 3)")
    if np.any(_outside_capped_simplex(cset.scenario, cset.tolerances, pts)):
        raise ValueError("set geometry is not finite or leaves the capped simplex")


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def _simplex_boundary_distance(scenario: Scenario, x: np.ndarray) -> float:
    """Distance to the boundary of the constrained simplex."""
    d = scenario.dim
    faces = [float(x[j]) for j in range(d)]
    faces.append((1.0 - float(np.sum(x))) / np.sqrt(d))
    faces.append(scenario.i_max - float(x[-1]))
    return min(faces)


def _in_simplex(scenario: Scenario, x: np.ndarray, tol: float) -> bool:
    # plain floats: a numpy reduction of a 3-vector costs many times these
    # comparisons; the sum runs left to right as np.sum does for so few
    # components, and NaN fails as it does under np.min
    c = x.tolist()
    total = 0.0
    for v in c:
        if not v >= -tol:
            return False
        total += v
    return total <= 1.0 + tol and c[-1] <= scenario.i_max + tol


def _sir_edges(cset: ComputedSet):
    """Cached edge arrays for the distance estimate; graph vertices as S, I lists."""
    cached = getattr(cset, "_edge_arrays", None)
    if cached is not None:
        return cached
    poly = cset.polyline
    closed = np.vstack([poly, poly[:1]])
    starts = [closed[:-1]]
    ends = [closed[1:]]
    for seg in cset.special_segments:
        starts.append(seg[:-1])
        ends.append(seg[1:])
    a = np.vstack(starts)
    ab = np.vstack(ends) - a
    denom = np.einsum("ij,ij->i", ab, ab)
    inv = np.where(denom > 0.0, 1.0 / np.maximum(denom, 1e-300), 0.0)
    xs, ys = poly[1:, 0].tolist(), poly[1:, 1].tolist()
    cached = (a[:, 0], a[:, 1], ab[:, 0], ab[:, 1], inv, xs, ys)
    cset._edge_arrays = cached
    return cached


def membership(cset: ComputedSet, point) -> Membership:
    """Verdict and boundary-distance estimate for a query state."""
    x = np.asarray(point, dtype=float)
    scenario, tol = cset.scenario, cset.tolerances
    if x.shape != (scenario.dim,):
        raise ValueError(f"query point has shape {x.shape}, not ({scenario.dim},)")
    if cset.trivial:
        dist = _simplex_boundary_distance(scenario, x)
        if not _in_simplex(scenario, x, tol.geom_tol):
            return Membership(Verdict.OUTSIDE, abs(dist))
        if dist <= tol.boundary_layer_eps:
            return Membership(Verdict.BOUNDARY, dist)
        return Membership(Verdict.INSIDE, dist)
    if scenario.variant.is_sir:
        return _sir_membership(cset, x)
    return _seir_membership(cset, x)


def _sir_membership(cset: ComputedSet, x: np.ndarray) -> Membership:
    tol = cset.tolerances
    ax, ay, abx, aby, inv, xs, ys = _sir_edges(cset)
    px, py = float(x[0]), float(x[1])
    dx, dy = px - ax, py - ay
    t = np.clip((dx * abx + dy * aby) * inv, 0.0, 1.0)
    ex, ey = dx - t * abx, dy - t * aby
    dist = float(np.sqrt(np.min(ex * ex + ey * ey)))
    if dist <= tol.boundary_layer_eps:
        return Membership(Verdict.BOUNDARY, dist)
    if not _in_simplex(cset.scenario, x, tol.geom_tol):
        return Membership(Verdict.OUTSIDE, dist)
    # under the graph: bisect S onto the edge xs[k-1] <= S < xs[k], which has
    # xs[k] > xs[k-1], and interpolate phi on it
    inside = xs[0] < px < xs[-1] and py > 0.0
    if inside:
        k = bisect_right(xs, px)
        s0, i0 = xs[k - 1], ys[k - 1]
        inside = py < i0 + (px - s0) * (ys[k] - i0) / (xs[k] - s0)
    return Membership(Verdict.INSIDE if inside else Verdict.OUTSIDE, dist)


def mesh_triangles(cset: ComputedSet) -> np.ndarray:
    """Triangles (q00, q10, q11) of every grid quad, then (q00, q11, q01), as (n, 3, 3)."""
    g = cset.mesh_nodes
    quads = (g[:-1, :-1], g[1:, :-1], g[1:, 1:], g[:-1, 1:])
    q00, q10, q11, q01 = (q.reshape(-1, 3) for q in quads)
    return np.concatenate(
        [np.stack([q00, q10, q11], axis=1), np.stack([q00, q11, q01], axis=1)]
    )


def _seir_arrays(cset: ComputedSet):
    """Cached flat arrays for SEIR queries.

    ``s_lo, s_hi, e_lo, e_hi`` bound the (S, E) projection of each
    (curve c, arc node j) quad of the mesh, flattened as ``c * (nn - 1) + j``.
    Each box is padded by ``1e-8 * diameter + 1e-12``: the three sides of a
    triangle in :func:`_seir_inside` can agree on a query outside it only
    within the rounding of an orient, far inside the pad, so no triangle
    outside its padded box can cover the query; a wider pad only adds
    candidates.  The node coordinate columns and each special segment's
    (start, direction, squared length) serve the distance estimate.
    """
    cached = getattr(cset, "_seir_cache", None)
    if cached is not None:
        return cached
    g = cset.mesh_nodes
    corners = np.stack([g[:-1, :-1], g[1:, :-1], g[1:, 1:], g[:-1, 1:]])
    s, e = corners[..., 0], corners[..., 1]
    s_lo, s_hi = s.min(axis=0).ravel(), s.max(axis=0).ravel()
    e_lo, e_hi = e.min(axis=0).ravel(), e.max(axis=0).ravel()
    pad = 1e-8 * np.hypot(s_hi - s_lo, e_hi - e_lo) + 1e-12
    segs = []
    for seg in cset.special_segments:
        for a, b in zip(seg[:-1].tolist(), seg[1:].tolist()):
            ab = [q - p for p, q in zip(a, b)]
            segs.append((a, ab, ab[0] * ab[0] + ab[1] * ab[1] + ab[2] * ab[2]))
    columns = tuple(g[..., k].ravel() for k in range(3))
    cached = (s_lo - pad, s_hi + pad, e_lo - pad, e_hi + pad, columns, segs)
    cset._seir_cache = cached
    return cached


# the edges opposite the vertices of triangles (q00, q10, q11) and (q00, q11, q01),
# as rows of _seir_inside's edge list, each signed by the triangle's traversal
_OPPOSITE = np.array([[1, 3], [2, 4], [0, 2]])
_TRAVERSAL = np.array([[1.0, -1.0], [-1.0, -1.0], [1.0, 1.0]])[..., None]


def _seir_inside(cset: ComputedSet, x: np.ndarray) -> bool:
    """Vertical-ray parity test with one exact tie rule.

    The upward ray from (S, E, I) toward the cap face I = I_max either ends on
    the usable part or not, and each mesh crossing in between flips the side:
    the query is inside iff exactly one of the two holds.  Only the quads whose
    padded (S, E) box holds the query are tested.

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
    s_q, e_q, i_q = x.tolist()
    s_lo, s_hi, e_lo, e_hi, (_, _, z), _ = _seir_arrays(cset)
    hits = np.flatnonzero((s_lo <= s_q) & (s_q <= s_hi) & (e_lo <= e_q) & (e_q <= e_hi))
    up = cset.usable
    cap_usable = 0.0 <= s_q < up.s_hi and 0.0 <= e_q < up.e_cap(s_q)
    if not len(hits):  # no triangle to cross
        return cap_usable
    nn = cset.mesh_nodes.shape[1]
    i00 = hits + hits // (nn - 1)  # flat index of each quad's node (c, j)
    i10, i11, i01 = i00 + nn, i00 + nn + 1, i00 + 1
    # edges q00 q10, q10 q11, q00 q11 (the diagonal), q01 q11 and q00 q01
    flat = cset.mesh_nodes.reshape(-1, 3)
    a = flat[np.stack([i00, i10, i00, i01, i00])]
    b = flat[np.stack([i10, i11, i11, i11, i01])]
    ds, de = b[..., 0] - a[..., 0], b[..., 1] - a[..., 1]
    orient = ds * (e_q - a[..., 1]) - de * (s_q - a[..., 0])
    side = np.sign(np.where(orient != 0.0, orient, np.where(de != 0.0, -de, ds)))
    side = side[_OPPOSITE] * _TRAVERSAL
    cover = (side[0] != 0.0) & (side[0] == side[1]) & (side[1] == side[2])
    w = (orient[_OPPOSITE] * _TRAVERSAL)[:, cover]
    h = z[np.array([[i00, i00], [i10, i11], [i11, i01]])][:, cover]
    phi = (w[0] * h[0] + w[1] * h[1] + w[2] * h[2]) / (w[0] + w[1] + w[2])
    return cap_usable != (np.count_nonzero(phi > i_q) % 2 == 1)


def _seir_membership(cset: ComputedSet, x: np.ndarray) -> Membership:
    scenario, tol = cset.scenario, cset.tolerances
    dist = _seir_distance_estimate(cset, x)
    if dist <= tol.boundary_layer_eps:
        return Membership(Verdict.BOUNDARY, dist)
    if not _in_simplex(scenario, x, tol.geom_tol):
        return Membership(Verdict.OUTSIDE, dist)
    return Membership(Verdict.INSIDE if _seir_inside(cset, x) else Verdict.OUTSIDE, dist)


def _seir_distance_estimate(cset: ComputedSet, x: np.ndarray) -> float:
    scenario = cset.scenario
    *_, (nx, ny, nz), segs = _seir_arrays(cset)
    x0, x1, x2 = float(x[0]), float(x[1]), float(x[2])
    dx, dy, dz = nx - x0, ny - x1, nz - x2
    dist = float(np.sqrt(np.min(dx * dx + dy * dy + dz * dz)))
    # usable part of the cap face: axis-aligned box-ish region at I = I_max
    up = cset.usable
    ds = max(0.0, -x[0], x[0] - up.s_hi)
    de = max(0.0, -x[1], x[1] - up.e_cap(min(max(x[0], 0.0), up.s_hi)))
    di = scenario.i_max - x[2]
    dist = min(dist, float(np.sqrt(ds * ds + de * de + di * di)))
    # the one SEIR special segment is the S axis, on which these plain-float
    # products and sums are exact, whatever order a vectorised dot would use
    for (ax, ay, az), (bx, by, bz), denom in segs:
        dot = (x0 - ax) * bx + (x1 - ay) * by + (x2 - az) * bz
        t = min(1.0, max(0.0, dot / denom)) if denom else 0.0
        ex, ey, ez = x0 - (ax + t * bx), x1 - (ay + t * by), x2 - (az + t * bz)
        dist = min(dist, math.sqrt(ex * ex + ey * ey + ez * ez))
    return dist
