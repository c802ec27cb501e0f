import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epibarrier import barrier, cli
from epibarrier.analysis import backward_filter, tangent_set
from epibarrier.barrier import (
    ComputedSet,
    Membership,
    Verdict,
    assemble_set,
    compute_barrier_curve,
    membership,
    resample_by_arclength,
    select_extremal_input,
)
from epibarrier.core import SetKind, Tolerances, validate_scenario
from epibarrier.integrate import EventKind, IntegrationResult, SingularArcError
from epibarrier.policy_sim import grid_membership_oracle
from epibarrier.models import Channel, InputVec, vector_field

from conftest import (
    SEIR_PERFECT_40_RAW,
    SEIR_PERFECT_RAW,
    SIR_IMPERFECT_RAW,
    SIR_PERFECT_15_RAW,
    SIR_PERFECT_30_RAW,
    SIR_PERFECT_RAW,
)

HAM_TOL = 1e-6  # largest |lambda^T f| accepted along a traced curve


def _all_curves(sets):
    for name, cset in sets.items():
        for curve in cset.curves:
            yield name, cset, curve


def test_hamiltonian_invariant(all_proper_sets):
    for name, cset, curve in _all_curves(all_proper_sets):
        ham = np.max(np.abs(curve.hamiltonian(cset.scenario)))
        assert ham <= HAM_TOL, f"{name}: max |H| = {ham}"


def test_tangency_residual(all_proper_sets):
    for name, cset in all_proper_sets.items():
        sc = cset.scenario
        for curve in cset.curves:
            x0 = curve.tangent_point
            lam0 = np.zeros(sc.dim)
            lam0[-1] = 1.0
            u0 = select_extremal_input(sc, cset.set_kind, x0, lam0)
            assert abs(vector_field(sc, u0)(0.0, x0)[-1]) <= 1e-8, name


def test_curve_containment(all_proper_sets):
    for name, cset, curve in _all_curves(all_proper_sets):
        sc, tol = cset.scenario, cset.tolerances
        states = curve.states
        slack = 2.0 * tol.geom_tol
        assert np.all(states[:, -1] <= sc.i_max + slack), name
        assert np.all(states.min(axis=1) >= -slack), name
        assert np.all(states.sum(axis=1) <= 1.0 + slack), name
        # interior samples (away from the refined terminal point) are strict
        interior = states[1:-1]
        assert np.all(interior[:, -1] <= sc.i_max + tol.geom_tol), name


def test_adjoint_stays_unit_norm(all_proper_sets):
    for name, cset, curve in _all_curves(all_proper_sets):
        norms = np.array([np.linalg.norm(lam) for lam in curve.adjoints])
        assert np.max(np.abs(norms - 1.0)) <= 1e-9, name


# max |V - V(0)| over a segment; the worked examples read at most 4.5e-13
# (seir_mrpi_030, 30 curves), 1.8e-14 on SIR, at the default step_h
FIRST_INTEGRAL_DRIFT_MAX = 1e-12


@pytest.mark.parametrize(
    "name", ["adm_sir", "mrpi_sir", "adm_sir15", "mrpi_sir15", "adm_seir", "mrpi_seir", "mrpi_seir40"]
)
def test_first_integral_drift_on_constant_input_segments(request, name):
    # under constant rates a perfect variant conserves V = S + E + I - (gamma/beta) ln S
    # (SIR: S + I - (gamma/beta) ln S), along the backward curve too
    cset = request.getfixturevalue(name)
    sc, worst, segments = cset.scenario, 0.0, 0
    for curve in cset.curves:
        x = curve.states
        starts = [0, *(np.flatnonzero(curve.is_switch) + 1).tolist()]
        for a, b in zip(starts, [*starts[1:], len(x)]):
            u = curve.inputs[a]
            c = (sc.gamma if sc.dim == 2 else u.gamma) / u.beta
            v = x[a:b].sum(axis=1) - c * np.log(x[a:b, 0])
            worst, segments = max(worst, float(np.abs(v - v[0]).max())), segments + 1
    assert segments >= len(cset.curves)
    assert worst <= FIRST_INTEGRAL_DRIFT_MAX


def test_sir_input_saturation(adm_sir, mrpi_sir, mrpi_sir_imp):
    # admissible barrier rides beta_min, MRPI barrier beta_max, no switches
    curve = adm_sir.curves[0]
    assert curve.switch_times == []
    assert all(u.beta == adm_sir.scenario.beta_min for u in curve.inputs)
    curve = mrpi_sir.curves[0]
    assert curve.switch_times == []
    assert all(u.beta == mrpi_sir.scenario.beta_max for u in curve.inputs)
    # imperfect SIR: worst-case removal saturated at gamma_min throughout
    curve = mrpi_sir_imp.curves[0]
    assert curve.switch_times == []
    assert all(u.gamma == mrpi_sir_imp.scenario.gamma_min for u in curve.inputs)


def test_switches_are_isolated(all_proper_sets):
    for name, cset, curve in _all_curves(all_proper_sets):
        assert not curve.truncated, name
        times = [t for t, _ in curve.switch_times]
        gap_min = 10.0 * cset.tolerances.event_time_tol
        assert all(b - a > gap_min for a, b in zip(times, times[1:])), name


def test_seir_imperfect_eta_switch(mrpi_seir_imp):
    # at least one curve shows a single eta switch, eta_max at the tangent end
    sc = mrpi_seir_imp.scenario
    found = False
    for curve in mrpi_seir_imp.curves:
        if len(curve.switch_times) == 1 and curve.switch_times[0][1] is Channel.ETA:
            assert curve.inputs[0].eta == pytest.approx(sc.eta_max)
            assert curve.inputs[-1].eta == pytest.approx(sc.eta_min)
            found = True
    assert found


def test_sir_polygon_closed_and_simple(adm_sir, mrpi_sir, mrpi_sir_imp):
    for cset in (adm_sir, mrpi_sir, mrpi_sir_imp):
        poly = cset.polyline
        assert poly.ndim == 2 and poly.shape[1] == 2
        # starts at the origin, visits the cap corner, returns to the axis
        assert np.allclose(poly[0], [0.0, 0.0])
        assert poly[-1][1] == pytest.approx(0.0, abs=1e-9)
        assert np.max(poly[:, 1]) <= cset.scenario.i_max + 2e-9
        # the graph {0 <= I <= phi(S)}: poly[0] lies below poly[1] on I = 0,
        # S never decreases along poly[1:], and poly[-1] lies on I = 0
        assert poly[0, 0] == poly[1, 0] and poly[0, 1] == 0.0
        assert np.all(np.diff(poly[1:, 0]) >= 0.0)
        assert poly[-1, 1] == 0.0


SIR_SET_RAWS = {
    "adm_sir": SIR_PERFECT_RAW,
    "mrpi_sir": SIR_PERFECT_RAW,
    "adm_sir15": SIR_PERFECT_15_RAW,
    "mrpi_sir15": SIR_PERFECT_15_RAW,
    "mrpi_sir30": SIR_PERFECT_30_RAW,
    "mrpi_sir_imp": SIR_IMPERFECT_RAW,
}


@pytest.mark.parametrize("name", SIR_SET_RAWS)
def test_sir_polyline_starts_with_the_s0_edge(name, request, tmp_path):
    # the SIR distance measures the S = 0 edge only as the chain's first edge: every
    # polyline, assembled or reloaded from set.json, starts (0, 0) -> (0, I_max)
    cset = request.getfixturevalue(name)
    path = tmp_path / "set.json"
    path.write_text(json.dumps(cli._set_document(cset, SIR_SET_RAWS[name], [], {})))
    for poly in (cset.polyline, cli.load_set(str(path)).polyline):
        assert poly[:2].tolist() == [[0.0, 0.0], [0.0, cset.scenario.i_max]], name


@pytest.mark.parametrize("step_h", [1e-2, 1e-1])
def test_s_never_decreases_along_a_backward_curve(all_proper_sets, step_h):
    # backward, dS/dtau = beta*S*I >= 0 while I >= i_floor, so S never falls below its
    # tangent value and the tracer watches no S = 0 face; every step is recorded here
    for name, cset in all_proper_sets.items():
        tol = dataclasses.replace(cset.tolerances, step_h=step_h)
        for curve in cset.curves:
            x0 = curve.tangent_point
            s = compute_barrier_curve(cset.scenario, cset.set_kind, x0, tol, record_every=1).states[:, 0]
            assert s[0] > 0.0 and np.all(np.diff(s) >= 0.0), (name, x0.tolist())


def _crossing_number_inside(poly, p):
    """Reference even-odd test: a rightward ray from p, half-open vertex rule."""
    a, b = poly, np.roll(poly, -1, axis=0)
    straddle = (a[:, 1] > p[1]) != (b[:, 1] > p[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = a[:, 0] + (p[1] - a[:, 1]) * (b[:, 0] - a[:, 0]) / (b[:, 1] - a[:, 1])
    return bool(np.sum(straddle & (p[0] < x_cross)) % 2)


@pytest.mark.parametrize(
    "name", ["adm_sir", "mrpi_sir", "adm_sir15", "mrpi_sir15", "mrpi_sir_imp"]
)
def test_sir_graph_test_matches_crossing_number(name, request):
    fixture = request.getfixturevalue(name)
    poly = fixture.polyline
    # the assembled arc's edges are far shorter than the boundary layer, so
    # only a coarse copy (every 40th arc node) tests the interpolation of phi
    coarse = np.vstack([poly[:2], poly[2:-2:40], poly[-2:]])
    im, eps = fixture.scenario.i_max, fixture.tolerances.boundary_layer_eps
    rng = np.random.default_rng(7)
    for cset in (fixture, dataclasses.replace(fixture, polyline=coarse)):
        poly = cset.polyline
        uniform = rng.uniform([-0.05, -0.1 * im], [1.05, 1.2 * im], size=(3000, 2))
        # just beyond the boundary layer of the polygon's edges
        k = rng.integers(0, len(poly), 3000)
        edge = np.roll(poly, -1, axis=0)[k] - poly[k]
        base = poly[k] + rng.random((3000, 1)) * edge
        angle = rng.uniform(0.0, 2.0 * np.pi, 3000)
        offset = rng.uniform(eps, 3.0 * eps, (3000, 1))
        near = base + offset * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        counts = {Verdict.INSIDE: 0, Verdict.OUTSIDE: 0}
        for p in np.vstack([uniform, near]):
            verdict = membership(cset, p).verdict
            if verdict is Verdict.BOUNDARY:
                continue
            assert (verdict is Verdict.INSIDE) == _crossing_number_inside(poly, p), p
            counts[verdict] += 1
        assert min(counts.values()) >= 500, counts


def test_sir_terminations(adm_sir, mrpi_sir):
    assert adm_sir.curves[0].termination.label == "sum_face"
    assert mrpi_sir.curves[0].termination.label == "i_floor"


def test_select_extremal_input_at_tangency(sc_sir, sc_seir, sc_seir_imp, sc_sir_imp):
    lam2 = np.array([0.0, 1.0])
    u = select_extremal_input(sc_sir, SetKind.ADMISSIBLE, [0.8, 0.02], lam2)
    assert u.beta == sc_sir.beta_min
    u = select_extremal_input(sc_sir, SetKind.MRPI, [0.8, 0.02], lam2)
    assert u.beta == sc_sir.beta_max
    u = select_extremal_input(sc_sir_imp, SetKind.MRPI, [0.5, 0.2], lam2)
    assert u.gamma == sc_sir_imp.gamma_min
    lam3 = np.array([0.0, 0.0, 1.0])
    # beta's functional vanishes at tangency; its backward-time sign comes from
    # the adjoint derivative and still lands on the bang value
    u = select_extremal_input(sc_seir, SetKind.MRPI, [0.2, 0.3, 0.3], lam3)
    assert u.gamma == sc_seir.gamma_min
    assert u.beta == sc_seir.beta_max
    u = select_extremal_input(sc_seir, SetKind.ADMISSIBLE, [0.2, 0.5, 0.3], lam3)
    assert u.gamma == pytest.approx(sc_seir.gamma_max)
    assert u.beta == sc_seir.beta_min
    u = select_extremal_input(sc_seir_imp, SetKind.MRPI, [0.2, 1.0 / 6.0, 0.1], lam3)
    assert u.eta == pytest.approx(sc_seir_imp.eta_max)


def test_resample_by_arclength(adm_sir):
    curve = adm_sir.curves[0]
    pts = resample_by_arclength([curve], adm_sir.scenario, 100)[0]
    assert pts.shape == (100, 2)
    assert np.allclose(pts[0], curve.states[0])
    assert np.allclose(pts[-1], curve.states[-1])
    # chord lengths are close to the uniform arc spacing
    chords = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    target = curve.arc_length / 99.0
    assert np.max(np.abs(chords - target)) < 0.2 * target


def _resample_one_node_at_a_time(curve, scenario, n_nodes):
    """Per-node scalar resampling, the reference for the array bisection."""
    x, s_vals, tau, u = curve.states, curve.samples[:, -1], curve.tau, curve.inputs
    targets = np.linspace(0.0, s_vals[-1], n_nodes)
    out = np.empty((n_nodes, scenario.dim))
    out[0] = x[0]
    out[-1] = x[-1]
    k = 0
    for j in range(1, n_nodes - 1):
        s_t = targets[j]
        while k + 1 < len(s_vals) - 1 and s_vals[k + 1] < s_t:
            k += 1
        a, b = k, k + 1
        dt = tau[b] - tau[a]
        if dt <= 0.0 or s_vals[b] <= s_vals[a]:
            out[j] = x[b]
            continue
        fa = np.array(vector_field(scenario, u[a])(0.0, x[a]))
        fb = np.array(vector_field(scenario, u[b])(0.0, x[b]))
        # speeds: squares summed left to right in plain floats, not a BLAS dot
        dsa, dsb = (math.sqrt(sum(c * c for c in v.tolist())) for v in (fa, fb))
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if barrier._hermite(s_vals[a], s_vals[b], dsa, dsb, dt, mid) < s_t:
                lo = mid
            else:
                hi = mid
        theta = 0.5 * (lo + hi)
        out[j] = barrier._hermite(x[a], x[b], -fa, -fb, dt, theta)
    return out


def test_resample_matches_per_node_reference(all_proper_sets):
    for name, cset in all_proper_sets.items():
        n = 400 if cset.scenario.variant.is_sir else 200
        got = resample_by_arclength(cset.curves, cset.scenario, n)
        assert got.shape == (len(cset.curves), n, cset.scenario.dim), name
        for c, curve in enumerate(cset.curves):
            want = _resample_one_node_at_a_time(curve, cset.scenario, n)
            assert got[c].tobytes() == want.tobytes(), (name, c)


def _take_rows(curve, rows):
    """A copy of ``curve`` whose samples are its sample rows ``rows``, in order."""
    return dataclasses.replace(
        curve,
        tau=curve.tau[rows],
        samples=curve.samples[rows],
        inputs=[curve.inputs[i] for i in rows],
        is_switch=curve.is_switch[rows],
    )


def test_resample_duplicated_switch_samples(mrpi_seir_imp):
    sc = mrpi_seir_imp.scenario
    curve = mrpi_seir_imp.curves[0]
    # a switch sample repeated in the middle of a real curve
    mid = len(curve.samples) // 2
    doubled = _take_rows(curve, [*range(mid + 1), *range(mid, len(curve.samples))])
    doubled.is_switch[mid + 1] = True
    # a zero-length curve: every target is 0, so every node brackets the
    # duplicated first pair and takes its second state
    flat = _take_rows(curve, [0, 0, 0])
    flat.samples[1, : sc.dim] += 1e-9
    flat.is_switch[1] = True
    # a batch mixes curves with and without live lanes; at n = 2, and in the
    # batch of the zero-length curve alone, no curve has one
    for batch in ([curve, doubled, flat], [flat]):
        for n in (2, 3, 57, 200):
            got = resample_by_arclength(batch, sc, n)
            for c, want in zip(got, batch):
                assert c.tobytes() == _resample_one_node_at_a_time(want, sc, n).tobytes()
    assert np.array_equal(resample_by_arclength([flat], sc, 5)[0, 1:-1], np.tile(flat.states[1], (3, 1)))


def test_assemble_set_resamples_all_curves_in_one_bisection(sc_seir, monkeypatch):
    calls = []
    hermite = barrier._hermite

    def counted(*args):
        calls.append(1)
        return hermite(*args)

    monkeypatch.setattr(barrier, "_hermite", counted)
    cset = assemble_set(sc_seir, SetKind.ADMISSIBLE, n_curves=30)
    assert len(cset.curves) == 30
    # 60 bisection steps and one final interpolation for the whole set
    assert len(calls) == 61


def test_set_refuses_a_mesh_node_above_the_cap(mrpi_seir):
    nodes = mrpi_seir.mesh_nodes.copy()
    slack = 2.0 * mrpi_seir.tolerances.geom_tol
    nodes[1, 5, 2] = mrpi_seir.scenario.i_max + 0.5 * slack  # within curve containment
    assert not dataclasses.replace(mrpi_seir, mesh_nodes=nodes).trivial
    nodes[1, 5, 2] = mrpi_seir.scenario.i_max + 2.0 * slack
    with pytest.raises(ValueError, match="capped simplex"):
        dataclasses.replace(mrpi_seir, mesh_nodes=nodes)


@pytest.mark.parametrize(
    "fixture, missing", [("adm_sir", "polyline"), ("mrpi_seir", "mesh_nodes")]
)
def test_set_without_its_geometry_names_it(request, fixture, missing):
    cset = request.getfixturevalue(fixture)
    with pytest.raises(ValueError, match=missing):
        ComputedSet(cset.scenario, cset.set_kind, tolerances=cset.tolerances)


def test_trivial_set_needs_no_geometry(sc_sir40, sc_seir40):
    for sc in (sc_sir40, sc_seir40):
        cset = ComputedSet(sc, SetKind.ADMISSIBLE)
        assert cset.trivial and cset.usable is None


def test_each_set_builds_its_query_arrays_once(all_proper_sets, mrpi_seir, tmp_path, monkeypatch):
    calls = []
    for builder in ("_sir_edges", "_seir_arrays"):
        build = getattr(barrier, builder)
        counted = lambda cset, build=build, builder=builder: calls.append(builder) or build(cset)
        monkeypatch.setattr(barrier, builder, counted)
    rng = np.random.default_rng(23)
    for name, cset in all_proper_sets.items():
        pts = rng.dirichlet(np.ones(cset.scenario.dim + 1), 100)[:, :-1]
        want = [membership(cset, p) for p in pts]
        calls.clear()
        fresh = dataclasses.replace(cset)  # made again, no query arrays yet
        assert [membership(fresh, p) for p in pts] == want, name
        assert calls == ["_sir_edges" if cset.scenario.variant.is_sir else "_seir_arrays"], name
    # a reloaded set builds its index on its first query, not in load_set
    path = tmp_path / "set.json"
    path.write_text(json.dumps(cli._set_document(mrpi_seir, SEIR_PERFECT_RAW, [], {})))
    calls.clear()
    loaded = cli.load_set(str(path))
    assert calls == []
    assert [membership(loaded, p) for p in pts] == [membership(mrpi_seir, p) for p in pts]
    assert calls == ["_seir_arrays"]


def test_sum_face_ends_lie_in_the_capped_simplex(adm_sir15, mrpi_sir15, mrpi_sir30):
    # a curve that ends on the sum face stops up to its face event's depth past S + I = 1,
    # here more than geom_tol; the set's geometry check and membership's simplex test read
    # one slack, so that end vertex lies in the capped simplex for both, and a state 3e-9
    # past the face lies in it for neither
    for cset in (adm_sir15, mrpi_sir15, mrpi_sir30):
        sc, tol = cset.scenario, cset.tolerances
        assert cset.curves[0].termination.label == "sum_face"
        end = cset.polyline[-2]
        assert end.sum() > 1.0 + tol.geom_tol
        assert barrier._in_simplex(sc, end.tolist(), tol)
        assert not barrier._outside_capped_simplex(sc, tol, end)
        past = [end[0], 1.0 + 3e-9 - end[0]]
        assert not barrier._in_simplex(sc, past, tol)
        assert barrier._outside_capped_simplex(sc, tol, np.array(past))


def test_membership_reference_points(adm_sir, mrpi_sir):
    # a state inside the viable region but outside the robust one
    p = np.array([0.8, 0.012])
    assert membership(adm_sir, p).verdict is Verdict.INSIDE
    assert membership(mrpi_sir, p).verdict is Verdict.OUTSIDE
    # far right: no intervention holds the cap
    p = np.array([0.98, 0.019])
    assert membership(adm_sir, p).verdict is Verdict.OUTSIDE
    assert membership(mrpi_sir, p).verdict is Verdict.OUTSIDE
    # disease-free-ish corner is in both
    p = np.array([0.2, 0.005])
    assert membership(adm_sir, p).verdict is Verdict.INSIDE
    assert membership(mrpi_sir, p).verdict is Verdict.INSIDE
    # outside the simplex entirely
    assert membership(adm_sir, [0.99, 0.05]).verdict is Verdict.OUTSIDE


def _clip_form_edges(poly):
    """Ends a, b and 1/|ab|^2 of every edge of the reference: the polygon's chain
    ``poly[0] -> ... -> poly[-1]`` and the invariant I = 0 axis from S = 0 to 1.  The closing
    edge ``poly[-1] -> poly[0]`` lies on the axis."""
    a = np.vstack([poly[:-1], [[0.0, 0.0]]])
    b = np.vstack([poly[1:], [[1.0, 0.0]]])
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    return a, b, np.where(denom > 0.0, 1.0 / np.maximum(denom, 1e-300), 0.0)


def _sir_distance_with_clip(cset, x):
    """The SIR distance over every edge, with ``t`` clamped by ``np.clip``: the reference.

    Its edges come from the polyline itself (:func:`_clip_form_edges`).
    """
    a, b, inv = _clip_form_edges(cset.polyline)
    ab = b - a
    dx, dy = float(x[0]) - a[:, 0], float(x[1]) - a[:, 1]
    t = np.clip((dx * ab[:, 0] + dy * ab[:, 1]) * inv, 0.0, 1.0)
    ex, ey = dx - t * ab[:, 0], dy - t * ab[:, 1]
    return float(np.sqrt(np.min(ex * ex + ey * ey)))


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _nudged(v):
    """``v`` and the floats on either side of it."""
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


def _first_distance(poly, s, i):
    """The distance that the SIR distance widens into its window, up to rounding: to the
    chain edge under ``s`` (in the clip form's operations on plain floats) and the I = 0 axis."""
    k = min(max(int(np.searchsorted(poly[:, 0], s, side="right")) - 1, 0), len(poly) - 2)
    (ax, ay), (bx, by) = poly[k : k + 2].tolist()
    abx, aby, dx, dy = bx - ax, by - ay, s - ax, i - ay
    denom = abx * abx + aby * aby
    t = min(max((dx * abx + dy * aby) * (1.0 / denom if denom > 0.0 else 0.0), 0.0), 1.0)
    axis = (s - min(max(s, 0.0), 1.0)) ** 2 + i * i
    return math.sqrt(min((dx - t * abx) ** 2 + (dy - t * aby) ** 2, axis))


def _tie(f, lo, hi):
    """A float between ``lo`` and ``hi`` at which ``f`` changes sign, by bisection; ``lo`` if none
    or if ``f(lo)`` is zero."""
    f_lo = f(lo)
    if not f_lo or f_lo * f(hi) > 0.0:
        return lo
    while lo < 0.5 * (lo + hi) < hi or hi < 0.5 * (lo + hi) < lo:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        lo, hi, f_lo = (lo, mid, f_lo) if f_lo * f_mid <= 0.0 else (mid, hi, f_mid)
    return lo


def _at_the_prune(poly, im, s, i):
    """Queries at and one float either side of the ends of the faces and the chain (S = 0,
    S_0, S_last, 1; I = 0, I_0, I_max), of the window ``s -+ r``, ``r`` the first distance from
    (s, i), and of the points where such an end lies exactly ``r`` away."""
    s_ends, i_ends = (0.0, poly[0, 0], poly[-1, 0], 1.0), (0.0, poly[1, 1], im)
    r = _first_distance(poly, s, i)
    qs = [(v, i) for e in (*s_ends, s - r, s + r) for v in _nudged(e)]
    qs += [(s, v) for e in i_ends for v in _nudged(e)]
    for e in s_ends:  # an end along S lies r from the query
        for far in (e - 0.5, e + 0.5):
            tie = _tie(lambda x: _first_distance(poly, x, i) - abs(x - e), e, far)
            qs += [(v, i) for v in _nudged(tie)]
    for e in i_ends:  # an end along I lies r from the query
        for far in (e - 0.5, e + 0.5):
            tie = _tie(lambda y: _first_distance(poly, s, y) - abs(y - e), e, far)
            qs += [(s, v) for v in _nudged(tie)]
    return np.array(qs)


def test_sir_membership_matches_the_clip_form(all_proper_sets):
    rng = np.random.default_rng(19)
    for name, cset in all_proper_sets.items():
        if not cset.scenario.variant.is_sir:
            continue
        poly, im = cset.polyline, cset.scenario.i_max
        eps = cset.tolerances.boundary_layer_eps
        uniform = rng.uniform([-0.05, -0.1 * im], [1.05, 1.2 * im], size=(1000, 2))
        near = poly[rng.integers(0, len(poly), 1000)] + rng.normal(0.0, 2.0 * eps, (1000, 2))
        bases = np.vstack([uniform[:8], near[:8], rng.uniform([0.0, 0.0], [1.0, im], (8, 2))])
        prune = [q for s, i in bases for q in _at_the_prune(poly, im, s, i)]
        for p in np.vstack([uniform, near, poly, prune]):
            m = membership(cset, p)
            dist = _sir_distance_with_clip(cset, p)
            assert _same_bits(m.distance_estimate, dist), (name, p)
            # past the boundary layer the verdict does not read the distance
            assert (m.verdict is Verdict.BOUNDARY) == (dist <= eps), (name, p)


def test_sir_query_arrays_hold_the_chain_alone(all_proper_sets):
    # one row per chain edge, poly[j] -> poly[j + 1], and nothing off the graph
    for name, cset in all_proper_sets.items():
        if not cset.scenario.variant.is_sir:
            continue
        poly = cset.polyline
        xs, ys, inv, graph = cset.query_arrays
        a, b, want = _clip_form_edges(poly)
        assert graph.shape == (5, len(poly) - 1) and len(inv) == len(poly) - 1, name
        assert xs == poly[:, 0].tolist() and ys == poly[:, 1].tolist(), name
        assert _same_bits(graph[:2].T, a[:-1]) and _same_bits(graph[2:4].T, (b - a)[:-1]), name
        assert _same_bits(graph[4], want[:-1]) and inv == want[:-1].tolist(), name


@pytest.mark.parametrize("i_max", [0.15, 1e-200])
def test_sir_faces_in_closed_form_match_the_edge_form(i_max):
    # the distance measures the I = 0 axis in closed form; where it is the nearest piece the
    # distance has the bits of the generic edge form, at S < 0, S > 1, I < 0 and I > I_max,
    # and at an I_max whose square underflows; a polyline that starts at S > 0 has no S = 0 edge
    sc = validate_scenario(dict(SIR_PERFECT_15_RAW, i_max=i_max))
    poly = np.array([[0.4, 0.0], [0.4, 0.5 * i_max], [0.6, 0.0]])
    cset = ComputedSet(sc, SetKind.ADMISSIBLE, polyline=poly)
    a, b, inv = _clip_form_edges(poly)
    far = 1e3 * i_max
    ss = (-2.0, -0.3, -1e-300, 0.0, 1e-300, 0.1, 0.9, 1.0, 1.3, 5.0)
    ii = (-far, -i_max, -1e-300, 0.0, 0.5 * i_max, i_max, 1.5 * i_max, far)
    nearest = set()
    for s, i in [(s, i) for s in ss for i in ii]:
        d2 = []
        for (ax, ay), (bx, by), w in zip(a.tolist(), b.tolist(), inv.tolist()):
            abx, aby, dx, dy = bx - ax, by - ay, s - ax, i - ay
            t = min(max((dx * abx + dy * aby) * w, 0.0), 1.0)
            d2.append((dx - t * abx) ** 2 + (dy - t * aby) ** 2)
        assert _same_bits(membership(cset, (s, i)).distance_estimate, math.sqrt(min(d2))), (s, i)
        nearest |= {j - len(d2) for j, v in enumerate(d2) if v == min(d2)}
    assert -1 in nearest  # the axis is a nearest piece somewhere


@pytest.mark.parametrize("name", ["adm_sir", "mrpi_sir_imp", "mrpi_seir", "trivial_sir40"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_membership_refuses_a_non_finite_point(name, bad, request, sc_sir40):
    if name == "trivial_sir40":
        cset = assemble_set(sc_sir40, SetKind.ADMISSIBLE)
    else:
        cset = request.getfixturevalue(name)
    for k in range(cset.scenario.dim):
        point = [0.3, 0.01, 0.01][: cset.scenario.dim]
        point[k] = bad
        with pytest.raises(ValueError, match="not a finite state"):
            membership(cset, point)


# Synthetic SIR graphs: vertical, zero-length and flat edges, and repeated S,
# under the cap of SIR A at i_max 0.15 and inside the simplex
SIR_A15 = validate_scenario(SIR_PERFECT_15_RAW)


@st.composite
def _sir_graph_case(draw):
    """A polyline that passes check_sir_graph, and queries on, near and far from it."""
    im = SIR_A15.i_max
    n = draw(st.integers(2, 60))
    s, i = draw(st.floats(0.0, 0.4)), draw(st.floats(0.0, im))
    verts = []
    for _ in range(n - 1):
        verts.append((s, i))
        move = draw(st.sampled_from(["step", "vertical", "flat", "repeat"]))
        if move in ("step", "flat"):
            s += draw(st.sampled_from([0.0, 2.0**-10]) | st.floats(0.0, 0.005))
        if move in ("step", "vertical"):
            i = draw(st.sampled_from([0.0, im, i]) | st.floats(0.0, im))
    verts.append((s, 0.0))
    poly = np.array([(verts[0][0], 0.0)] + verts)
    queries = []
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(["vertex", "beside", "edge", "outside", "far", "prune", "any"]))
        j = draw(st.integers(1, n - 1))
        if kind == "vertex":  # at a vertex's S, on the vertex or above or below it
            q = (poly[j, 0], draw(st.just(poly[j, 1]) | st.floats(-0.05, 0.3)))
        elif kind == "beside":  # off a vertex in any direction, where a far edge can be nearest
            q = poly[j] + [draw(st.floats(-0.05, 0.05)), draw(st.floats(-0.05, 0.05))]
        elif kind == "edge":  # on the edge or its line, up to rounding
            q = poly[j] + draw(st.integers(-2, 10)) / 8 * (poly[j + 1] - poly[j])
        elif kind == "outside":  # S below 0 or above 1
            q = (draw(st.floats(-1.0, -1e-300) | st.floats(1.0, 2.0)), draw(st.floats(-0.2, 0.5)))
        elif kind == "far":  # far above the cap
            q = (draw(st.floats(-0.5, 1.5)), draw(st.floats(1.0, 1e6)))
        elif kind == "prune":  # at the end of a pruned box or window, or one float off it
            base = (draw(st.floats(-0.1, 1.1)), draw(st.floats(-0.05, 0.3)))
            q = draw(st.sampled_from(list(_at_the_prune(poly, im, *base))))
        else:
            q = (draw(st.floats(-0.1, 1.1)), draw(st.floats(-0.05, 0.3)))
        queries.append(np.array(q, dtype=float))
    return poly, queries


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_sir_graph_case())
def test_sir_distance_matches_the_clip_form_on_synthetic_graphs(case):
    poly, queries = case
    barrier.check_sir_graph(poly)
    cset = ComputedSet(SIR_A15, SetKind.ADMISSIBLE, polyline=poly)
    for q in queries:
        dist = membership(cset, q).distance_estimate
        assert _same_bits(dist, _sir_distance_with_clip(cset, q)), (poly.tolist(), q)


def test_membership_result_is_an_immutable_pair(adm_sir, mrpi_seir):
    for cset, p in ((adm_sir, [0.8, 0.012]), (mrpi_seir, [0.3, 0.01, 0.01])):
        m = membership(cset, p)
        assert m == Membership(Verdict.INSIDE, m.distance_estimate)
        assert m._fields == ("verdict", "distance_estimate")
        with pytest.raises(AttributeError):
            m.verdict = Verdict.OUTSIDE


def test_membership_boundary_layer(adm_sir):
    up = adm_sir.usable
    near = np.array([0.5, adm_sir.scenario.i_max - 1e-4])
    m = membership(adm_sir, near)
    assert m.verdict is Verdict.BOUNDARY
    assert m.distance_estimate <= adm_sir.tolerances.boundary_layer_eps


def test_membership_distance_estimate(adm_sir):
    m = membership(adm_sir, [0.2, 0.005])
    # closest boundary piece is the equilibrium axis I = 0
    assert m.distance_estimate == pytest.approx(0.005, rel=1e-6)


def test_trivial_set_membership(sc_sir40):
    cset = assemble_set(sc_sir40, SetKind.ADMISSIBLE)
    assert cset.trivial and cset.curves == []
    assert membership(cset, [0.5, 0.2]).verdict is Verdict.INSIDE
    assert membership(cset, [0.5, 0.5]).verdict is Verdict.OUTSIDE
    assert membership(cset, [0.5, 0.4 - 1e-5]).verdict is Verdict.BOUNDARY


@pytest.mark.parametrize(
    "raw, kind",
    [
        (dict(SIR_PERFECT_RAW, i_max=0.3), SetKind.ADMISSIBLE),
        (dict(SIR_PERFECT_RAW, i_max=0.4), SetKind.ADMISSIBLE),
        (dict(SIR_PERFECT_RAW, i_max=0.4), SetKind.MRPI),
        (SEIR_PERFECT_40_RAW, SetKind.ADMISSIBLE),
    ],
)
def test_trivial_set_reads_only_its_cap_face(raw, kind):
    # the simplex faces are invariant under every input and separate no state
    # from another, so a trivial set's distance is i_max - I: BOUNDARY within
    # eps of the cap face only, and states within 1e-3 of each other face
    # read INSIDE, as the oracle finds them
    sc = validate_scenario(raw)
    cset = ComputedSet(sc, kind)
    assert cset.trivial
    eps, d, rng = cset.tolerances.boundary_layer_eps, sc.dim, np.random.default_rng(38)
    pts = rng.dirichlet(np.ones(d + 1), 600)[:, :d]
    pts = pts[pts[:, -1] <= sc.i_max]
    for p in pts:
        m = membership(cset, p)
        assert m.distance_estimate == sc.i_max - p[-1]
        assert (m.verdict is Verdict.BOUNDARY) == (sc.i_max - p[-1] <= eps), p
    near = []
    for face in range(d + 1):  # each axis face, then the sum face
        x = rng.dirichlet(np.ones(d + 1), 80)[:, :d]
        if face < d:
            x[:, face] = rng.uniform(0.0, 1e-3, len(x))
        else:
            x *= (1.0 - rng.uniform(0.0, 1e-3, (len(x), 1))) / x.sum(axis=1, keepdims=True)
        near.extend(x[x[:, -1] < sc.i_max - 2 * eps])
    assert len(near) >= 100
    assert all(membership(cset, p).verdict is Verdict.INSIDE for p in near)
    assert grid_membership_oracle(sc, kind, near, n_trials=2).all()
    # a state beyond the sum face, the S = 0 face or the cap reads OUTSIDE at
    # every state nearer than its distance, the clearance the law caches
    x = rng.dirichlet(np.ones(d + 1), 30)[:, :d]
    beyond = [x / x.sum(axis=1, keepdims=True) * rng.uniform(1.02, 1.2, (30, 1)), x.copy(), x]
    beyond[1][:, 0] = -rng.uniform(0.01, 0.1, 30)
    beyond[2][:, -1] = rng.uniform(sc.i_max + 0.01, 1.0, 30)
    for p in np.vstack(beyond):
        m = membership(cset, p)
        assert m.verdict is Verdict.OUTSIDE, p
        for v in rng.normal(size=(8, d)):
            q = p + 0.999 * m.distance_estimate * v / np.linalg.norm(v)
            assert membership(cset, q).verdict is Verdict.OUTSIDE, (p, q)


@pytest.mark.parametrize(
    "name, point",
    [
        ("adm_sir", [0.8, 0.012, 0.015]),
        ("adm_sir", [0.8]),
        ("adm_sir", 0.8),
        ("trivial_sir40", [0.5, 0.2, 0.0]),
        ("mrpi_seir", [0.3, 0.01, 0.01, 0.0]),
        ("mrpi_seir", [0.3, 0.01]),
        ("mrpi_seir", [[0.3, 0.01, 0.01]]),
    ],
)
def test_membership_rejects_a_point_of_the_wrong_shape(name, point, request, sc_sir40):
    if name == "trivial_sir40":
        cset = assemble_set(sc_sir40, SetKind.ADMISSIBLE)
    else:
        cset = request.getfixturevalue(name)
    with pytest.raises(ValueError, match="shape"):
        membership(cset, point)


@pytest.mark.parametrize("n_curves", [1, 0, -3])
def test_assemble_set_needs_two_seir_curves(sc_seir, n_curves):
    with pytest.raises(ValueError, match="at least 2 curves"):
        assemble_set(sc_seir, SetKind.MRPI, n_curves=n_curves)


@pytest.mark.parametrize(
    "scenario, kind",
    [
        ("sc_sir", SetKind.ADMISSIBLE),
        ("sc_sir_imp", SetKind.MRPI),
        ("sc_seir", SetKind.ADMISSIBLE),
        ("sc_seir_imp", SetKind.MRPI),
    ],
)
def test_default_step_keeps_nodes_of_the_fine_step(scenario, kind, request):
    # criterion 11 checks convergence only below 1e-3; this pins the default
    # step itself: every polyline vertex or mesh node stays within 1e-8 of
    # the geometry traced at 1e-3, and every curve ends at the same event
    sc = request.getfixturevalue(scenario)
    coarse = assemble_set(sc, kind, n_curves=8)
    fine = assemble_set(sc, kind, n_curves=8, tolerances=Tolerances(step_h=1e-3))
    assert coarse.tolerances.step_h > fine.tolerances.step_h
    assert [c.termination.label for c in coarse.curves] == [
        c.termination.label for c in fine.curves
    ]
    if sc.variant.is_sir:
        a, b = coarse.polyline, fine.polyline
    else:
        a, b = coarse.mesh_nodes, fine.mesh_nodes
    assert a.shape == b.shape
    move = float(np.max(np.linalg.norm(a - b, axis=-1)))
    assert move <= 1e-8, f"largest node move {move:.2e}"


def test_seir_membership_basic(mrpi_seir):
    sc = mrpi_seir.scenario
    # deep inside: tiny infection, plenty of susceptibles
    assert membership(mrpi_seir, [0.3, 0.01, 0.01]).verdict is Verdict.INSIDE
    # large exposed pool with plenty of susceptibles must overshoot
    assert membership(mrpi_seir, [0.6, 0.3, 0.05]).verdict is Verdict.OUTSIDE
    # above the cap face
    assert membership(mrpi_seir, [0.2, 0.1, 0.35]).verdict is Verdict.OUTSIDE


@pytest.mark.parametrize("name", ["adm_seir", "mrpi_seir", "mrpi_seir_imp"])
def test_seir_query_under_the_tangent_segment(name, request):
    # each curve's first arc node is its tangent point, on the usable part's
    # edge E = e_cap: below the segment between the first and last tangent
    # points a query is inside, on the segment as just beside it
    cset = request.getfixturevalue(name)
    t = cset.mesh_nodes[:, 0]
    for p in np.vstack([t[1:-1], 0.5 * (t[:-1] + t[1:])]):
        for i in (0.25, 0.5, 0.75):
            for de in (0.0, 1e-7, -1e-7):
                x = [p[0], p[1] + de, i * cset.scenario.i_max]
                assert membership(cset, x).verdict is Verdict.INSIDE, x


def test_seir_membership_round_trip_determinism(mrpi_seir):
    p = [0.25, 0.1, 0.05]
    a = membership(mrpi_seir, p)
    b = membership(mrpi_seir, p)
    assert a.verdict is b.verdict
    assert a.distance_estimate == b.distance_estimate


def test_seir_mesh_probe_consistency(mrpi_seir):
    # probing both sides of interior mesh quads must flip the verdict for the
    # overwhelming majority of decisive probes
    grid = mrpi_seir.mesh_nodes
    nc, nn, _ = grid.shape
    rng = np.random.default_rng(11)
    eps = 2.5e-3
    decisive = flipped = 0
    for _ in range(150):
        i = rng.integers(1, nc - 1)
        j = rng.integers(5, nn - 5)
        quad = grid[i - 1 : i + 1, j : j + 2].reshape(4, 3)
        mid = quad.mean(axis=0)
        if mid[2] > mrpi_seir.scenario.i_max - 3.0 * eps:
            # skip the fold where curves return to the cap face: probes there
            # straddle the constraint surface instead of the barrier sheet
            continue
        n_vec = np.cross(quad[1] - quad[0], quad[2] - quad[0])
        norm = np.linalg.norm(n_vec)
        if norm < 1e-12:
            continue
        n_vec /= norm
        va = membership(mrpi_seir, mid + eps * n_vec).verdict
        vb = membership(mrpi_seir, mid - eps * n_vec).verdict
        if {va, vb} <= {Verdict.INSIDE, Verdict.OUTSIDE}:
            decisive += 1
            flipped += va is not vb
    assert decisive >= 30
    assert flipped / decisive >= 0.95


def _full_scan(cset):
    """Reference tie-ruled coverage and height over every mesh triangle.

    Triangles are index triples into the flattened node grid; each traversed
    edge u -> v takes orient(min, max, query), negated when u > v, with an
    exact zero broken by -dE, then dS, of the min -> max edge.  What does not
    depend on the query is built once; the returned ``cover(x)`` gives the
    covering mask and the heights of the covering triangles at ``x``.
    """
    g = cset.mesh_nodes
    nc, nn, _ = g.shape
    flat = g.reshape(-1, 3)
    k = np.arange(nc * nn).reshape(nc, nn)
    q00, q10, q11, q01 = (q.ravel() for q in (k[:-1, :-1], k[1:, :-1], k[1:, 1:], k[:-1, 1:]))
    tris = np.concatenate([np.stack([q00, q10, q11], 1), np.stack([q00, q11, q01], 1)])
    u, v = tris, np.roll(tris, -1, axis=1)  # edge m runs from vertex m to vertex m + 1
    a, b = flat[np.minimum(u, v)], flat[np.maximum(u, v)]
    a_s, a_e = a[..., 0], a[..., 1]
    ds, de = b[..., 0] - a_s, b[..., 1] - a_e
    flip = np.where(u < v, 1.0, -1.0)
    tie_zero = np.sign(np.where(de != 0.0, -de, ds)) * flip  # the tie of an exact zero
    z = flat[tris, 2]

    def cover(x):
        o = (ds * (x[1] - a_e) - de * (x[0] - a_s)) * flip
        tie = np.where(o != 0.0, np.sign(o), tie_zero)
        covered = (tie[:, 0] != 0.0) & (tie[:, 0] == tie[:, 1]) & (tie[:, 1] == tie[:, 2])
        w = np.roll(o[covered], -1, axis=1)  # vertex m weighs by the edge opposite it
        zc = z[covered]
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = (w[:, 0] * zc[:, 0] + w[:, 1] * zc[:, 1] + w[:, 2] * zc[:, 2]) / (
                w[:, 0] + w[:, 1] + w[:, 2]
            )
        return covered, phi

    return cover


def _full_scan_inside(cset, x, cover):
    """Reference parity test over every mesh triangle (no quad-box filter).

    ``cover`` is :func:`_full_scan` of ``cset``.
    """
    _, phi = cover(x)
    crossings = int(np.sum(phi > x[2]))
    # the usable part as the query perturbed to (S + d, E + d^2) sees it
    up = cset.usable
    cap_usable = 0.0 <= x[0] < up.s_hi and 0.0 <= x[1] < up.e_cap(x[0])
    return cap_usable != (crossings % 2 == 1)


def _all_nodes_distance(cset, x):
    """Reference distance estimate: every node, the usable cap, the S axis."""
    grid = cset.mesh_nodes.reshape(-1, 3)
    dist = float(np.min(np.linalg.norm(grid - x, axis=1)))
    up = cset.usable
    ds = max(0.0, -x[0], x[0] - up.s_hi)
    de = max(0.0, -x[1], x[1] - up.e_cap(min(max(x[0], 0.0), up.s_hi)))
    di = cset.scenario.i_max - x[2]
    dist = min(dist, float(np.sqrt(ds * ds + de * de + di * di)))
    for seg in [np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])]:  # equilibria E = I = 0
        a, ab = seg[:-1], seg[1:] - seg[:-1]
        denom = np.einsum("ij,ij->i", ab, ab)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.einsum("ij,ij->i", x - a, ab) / denom
        t = np.clip(np.nan_to_num(t), 0.0, 1.0)
        proj = a + t[:, None] * ab
        dist = min(dist, float(np.min(np.linalg.norm(x - proj, axis=1))))
    return dist


def _grid_line_points(cset, rng, n):
    """Queries whose S or E lies on a cell line of the bucket grid, one float
    to either side of it, on the grid's far edges or one float outside them."""
    s0, s1, s_scale, e0, e1, e_scale, cells = barrier._seir_arrays(cset)[0][:7]
    axes = []
    for v0, v1, scale in ((s0, s1, s_scale), (e0, e1, e_scale)):
        lines = v0 + np.arange(cells + 1) / scale
        ends = [v0, v1, np.nextafter(v0, -np.inf), np.nextafter(v1, np.inf)]
        beside = [np.nextafter(lines, -1.0), np.nextafter(lines, 2.0)]
        axes.append(np.concatenate([lines, *beside, ends]))
    nodes = cset.mesh_nodes.reshape(-1, 3)
    pts = nodes[rng.integers(0, len(nodes), n)]
    pts[:, 2] = rng.uniform(0.0, cset.scenario.i_max, n)
    for k, values in enumerate(axes):  # S on a line for the first half, E for the second
        rows = slice(0, n // 2) if k == 0 else slice(n // 2, n)
        pts[rows, k] = values[rng.integers(0, len(values), len(pts[rows]))]
    pts[: n // 4, 1] = axes[1][rng.integers(0, len(axes[1]), n // 4)]  # both, a quarter
    return pts


@pytest.mark.parametrize("name", ["adm_seir", "mrpi_seir", "mrpi_seir_imp"])
def test_seir_quad_filter_matches_full_scan(name, request, monkeypatch):
    cset = request.getfixturevalue(name)
    nodes = cset.mesh_nodes.reshape(-1, 3)
    lo, hi = nodes.min(axis=0), nodes.max(axis=0)
    span = np.array([hi[0] - lo[0], hi[1] - lo[1], 0.0])
    rng = np.random.default_rng(2024)
    pick = lambda n: nodes[rng.integers(0, len(nodes), n)]
    eps = cset.tolerances.boundary_layer_eps
    groups = [
        rng.uniform(0.0, [1.0, 1.0, cset.scenario.i_max], size=(100, 3)),
        pick(100) + rng.normal(scale=4.0 * eps, size=(100, 3)),
        pick(100),
        # beyond the (S, E) projection of the mesh
        rng.uniform(hi, hi + [0.3, 0.3, 0.0], size=(50, 3)),
    ]
    # nodes nudged off their quads' boxes by less than, at and beyond the pad,
    # along the eight (S, E) compass directions
    compass = [(a, b, 0.0) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0) if a or b]
    for f in (1e-12, 1e-10, 1e-9, 1e-8):
        steps = np.array(compass)[rng.integers(0, len(compass), 200)]
        groups.append(pick(200) + f * span * steps)
    groups.append(_grid_line_points(cset, rng, 400))
    points = np.vstack(groups)

    scan = _full_scan(cset)
    inside = [barrier._seir_inside(cset, *p) for p in points.tolist()]
    assert inside == [_full_scan_inside(cset, p, scan) for p in points]
    dist = [barrier._seir_distance_estimate(cset, *p) for p in points.tolist()]
    assert dist == [_all_nodes_distance(cset, p) for p in points]

    sub = points[::5]
    got = [membership(cset, p) for p in sub]
    monkeypatch.setattr(
        barrier, "_seir_inside", lambda cs, *x: _full_scan_inside(cs, np.array(x), scan)
    )
    monkeypatch.setattr(
        barrier, "_seir_distance_estimate", lambda cs, *x: _all_nodes_distance(cs, np.array(x))
    )
    assert got == [membership(cset, p) for p in sub]


# Synthetic meshes for the tie rule: nodes on a dyadic grid of spacing H with
# jitter in steps of H / 16, and dyadic heights, so that every orient,
# barycentric height and query on an edge or vertex below is an exact float.
# They lie at E > e_cap of SEIR M, where the usable cap face plays no part.
H = 1.0 / 32.0
SEIR_M = validate_scenario(SEIR_PERFECT_RAW)


def _synthetic_set(nodes):
    return ComputedSet(
        SEIR_M,
        SetKind.MRPI,
        mesh_nodes=nodes,
        tolerances=Tolerances(boundary_layer_eps=2.0**-40),
    )


@st.composite
def _jittered_grid(draw, s_col, e_col):
    """(S, E) nodes at (1/16 + s_col * H, 5/16 + e_col * H), each moved by up to H / 8."""
    nc, nn = s_col.shape
    steps = draw(st.lists(st.integers(-2, 2), min_size=2 * nc * nn, max_size=2 * nc * nn))
    jitter = np.array(steps, dtype=float).reshape(nc, nn, 2) * (H / 16)
    return 1 / 16 + s_col * H + jitter[..., 0], 5 / 16 + e_col * H + jitter[..., 1]


def _on_segment(a, b, k):
    return a + (k / 8) * (b - a)


@st.composite
def _planar_case(draw):
    """A mesh on the plane I = 1/8 + ks S + ke E, a query point and its side."""
    nc, nn = draw(st.integers(3, 6)), draw(st.integers(3, 6))
    c, j = np.meshgrid(np.arange(nc), np.arange(nn), indexing="ij")
    s, e = draw(_jittered_grid(c, j))
    ks, ke = draw(st.integers(-2, 2)) / 16, draw(st.integers(-2, 2)) / 16
    plane = lambda s, e: 1 / 8 + ks * s + ke * e
    nodes = np.stack([s, e, plane(s, e)], axis=-1)
    g = nodes[..., :2]
    kind = draw(st.sampled_from(["vertex", "edge", "diagonal", "interior"]))
    k = draw(st.integers(1, 7))
    if kind == "vertex":  # interior nodes only: on the mesh's rim the set ends
        q = g[draw(st.integers(1, nc - 2)), draw(st.integers(1, nn - 2))]
    elif kind == "edge" and draw(st.booleans()):  # from curve c to c + 1
        a, b = draw(st.integers(0, nc - 2)), draw(st.integers(1, nn - 2))
        q = _on_segment(g[a, b], g[a + 1, b], k)
    elif kind == "edge":  # along curve c
        a, b = draw(st.integers(1, nc - 2)), draw(st.integers(0, nn - 2))
        q = _on_segment(g[a, b], g[a, b + 1], k)
    else:
        a, b = draw(st.integers(0, nc - 2)), draw(st.integers(0, nn - 2))
        if kind == "diagonal":
            q = _on_segment(g[a, b], g[a + 1, b + 1], k)
        else:
            w0 = draw(st.integers(1, 6))
            w1 = draw(st.integers(1, 7 - w0))
            third = g[a + 1, b] if draw(st.booleans()) else g[a, b + 1]
            q = (w0 * g[a, b] + w1 * g[a + 1, b + 1] + (8 - w0 - w1) * third) / 8
    below = draw(st.booleans())
    i_q = plane(*q) + (-1 / 64 if below else 1 / 64)
    return nodes, np.array([q[0], q[1], i_q]), below


@settings(max_examples=300, deadline=None)
@given(_planar_case())
def test_tie_rule_on_a_planar_graph(case):
    # on a graph the ray from below crosses exactly one triangle, wherever the
    # query's (S, E) falls on the grid
    nodes, x, below = case
    cset = _synthetic_set(nodes)
    assert membership(cset, x).verdict is (Verdict.INSIDE if below else Verdict.OUTSIDE)
    cover, _ = _full_scan(cset)(x)
    assert np.count_nonzero(cover) == 1


@st.composite
def _fold_case(draw):
    """A mesh folded back over itself along arc node m, and a query on the fold."""
    nc, m = draw(st.integers(3, 5)), draw(st.integers(1, 3))
    nn = 2 * m + draw(st.integers(1, 2))
    c, j = np.meshgrid(np.arange(nc), np.arange(nn), indexing="ij")
    s, e = draw(_jittered_grid(np.where(j <= m, j, 2 * m - j), c))
    kc = draw(st.integers(-2, 2)) / 128
    nodes = np.stack([s, e, 1 / 8 + j / 64 + kc * c], axis=-1)  # the returning sheet is higher
    if draw(st.booleans()):
        a = draw(st.integers(1, nc - 2))
        q = nodes[a, m]
    else:
        a = draw(st.integers(0, nc - 2))
        q = _on_segment(nodes[a, m], nodes[a + 1, m], draw(st.integers(1, 7)))
    below = draw(st.booleans())
    return nodes, q + [0.0, 0.0, -1 / 64 if below else 1 / 64]


@settings(max_examples=300, deadline=None)
@given(_fold_case())
def test_tie_rule_on_a_fold(case):
    # a query on the fold is covered by a triangle of both sheets or of
    # neither, so its parity is that of a point just off the fold on either side
    nodes, x = case
    cset = _synthetic_set(nodes)
    scan = _full_scan(cset)
    cover, _ = scan(x)
    assert np.count_nonzero(cover) in (0, 2)
    verdict = membership(cset, x).verdict
    assert verdict is Verdict.OUTSIDE
    for ds in (-(2.0**-20), 2.0**-20):
        assert membership(cset, x + [ds, 0.0, 0.0]).verdict is verdict
    assert barrier._seir_inside(cset, *x.tolist()) == _full_scan_inside(cset, x, scan)


@pytest.mark.parametrize("name", ["adm_seir", "mrpi_seir", "mrpi_seir_imp"])
def test_seir_bucket_index_lists_each_quad_at_its_box_corners(name, request):
    # the cell of each corner of a padded box lists the quad, so by monotony
    # every cell the box overlaps does, and every cell lists ascending quads
    cset = request.getfixturevalue(name)
    grid, (s_lo, s_hi, e_lo, e_hi, *_), _ = barrier._seir_arrays(cset)
    *_, cells, offsets, ids = grid
    for q in range(len(s_lo)):
        for s in (s_lo[q], s_hi[q]):
            for e in (e_lo[q], e_hi[q]):
                assert q in barrier._cell_quads(grid, s, e), (q, s, e)
    ids = np.asarray(ids)
    assert len(offsets) == cells * cells + 1 and offsets[-1] == len(ids)
    for k in range(cells * cells):
        assert np.all(np.diff(ids[offsets[k] : offsets[k + 1]]) > 0)


@st.composite
def _index_case(draw):
    """A small mesh, flat or folded, with dyadic heights and perhaps one S or E value
    throughout, and queries on its nodes, edges, grid cell lines and extent."""
    nc, nn = draw(st.integers(2, 5)), draw(st.integers(2, 6))
    c, j = np.meshgrid(np.arange(nc), np.arange(nn), indexing="ij")
    if draw(st.booleans()):  # folded back along arc node m, no further than j = -1
        m = draw(st.integers(max(1, (nn - 1) // 2), nn - 1))
        j = np.where(j <= m, j, 2 * m - j)
    s, e = draw(_jittered_grid(j, c))
    flat = draw(st.sampled_from(["", "S", "E"]))
    if flat == "S":
        s = np.full_like(s, s[0, 0])
    elif flat == "E":
        e = np.full_like(e, e[0, 0])
    steps = draw(st.lists(st.integers(0, 8), min_size=nc * nn, max_size=nc * nn))
    nodes = np.stack([s, e, 1 / 8 + np.reshape(steps, (nc, nn)) / 64], axis=-1)
    pick = st.tuples(st.integers(0, 5), st.integers(0, 10**6))
    picks = draw(st.lists(pick, min_size=8, max_size=8))
    return nodes, picks


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_index_case())
def test_seir_bucket_index_matches_full_scan_on_synthetic_meshes(case):
    nodes, picks = case
    cset = _synthetic_set(nodes)
    s0, s1, s_scale, e0, e1, e_scale, cells = barrier._seir_arrays(cset)[0][:7]
    g = nodes.reshape(-1, 3)
    points = []
    for kind, k in picks:
        a, b = g[k % len(g)], g[(k // 7) % len(g)]
        i_q = 1 / 8 + (k % 9) / 64 - 1 / 128
        line = lambda v0, scale: v0 + (k % (cells + 1)) / scale if scale else v0
        s_q, e_q = [
            a[:2],  # a node
            _on_segment(a[:2], b[:2], k % 9),  # on the segment between two nodes
            (line(s0, s_scale), a[1]),  # on a cell line
            (a[0], line(e0, e_scale)),
            ((s0, s1)[k % 2], (e0, e1)[k // 2 % 2]),  # a corner of the grid
            (np.nextafter(s0, -1.0), a[1]) if k % 2 else (a[0], np.nextafter(e1, 2.0)),  # outside
        ][kind]
        points.append([s_q, e_q, i_q])
    scan = _full_scan(cset)
    for x in np.array(points, dtype=float):
        assert barrier._seir_inside(cset, *x.tolist()) == _full_scan_inside(cset, x, scan), x
        assert barrier._seir_distance_estimate(cset, *x.tolist()) == _all_nodes_distance(cset, x), x


def test_compute_barrier_curve_records_arclength(sc_sir):
    tangents = backward_filter(
        sc_sir, SetKind.ADMISSIBLE, tangent_set(sc_sir, SetKind.ADMISSIBLE)
    )
    curve = compute_barrier_curve(sc_sir, SetKind.ADMISSIBLE, tangents.point(tangents.z1_lo))
    arcs = curve.samples[:, -1]
    assert arcs[0] == 0.0
    assert np.all(np.diff(arcs) >= 0.0)
    # arc length is at least the straight-line distance covered
    chord = np.linalg.norm(curve.states[-1] - curve.states[0])
    assert curve.arc_length >= chord - 1e-12


def test_containment_check_refuses_a_sample_outside_the_capped_simplex(adm_sir):
    sc, tol, curve = adm_sir.scenario, adm_sir.tolerances, adm_sir.curves[0]
    barrier._check_containment(sc, curve, tol)
    for k, value in ((1, sc.i_max + 1e-6), (0, -1e-6), (0, math.nan)):
        samples = curve.samples.copy()
        samples[3, k] = value
        bad = dataclasses.replace(curve, samples=samples)
        with pytest.raises(barrier.InvariantBreachError, match="left the capped simplex"):
            barrier._check_containment(sc, bad, tol)


@pytest.mark.parametrize(
    "name, kind, state, adjoint",
    [
        # sigma_beta = lam_I - lam_S and its derivative vanish with the adjoint
        ("sc_sir", SetKind.ADMISSIBLE, [0.5, 0.01], [0.0, 0.0]),
        # sigma_gamma = lam_I, and its derivative beta*S*(lam_S - lam_I) at S = 0
        ("sc_sir_imp", SetKind.MRPI, [0.0, 0.01], [1.0, 0.0]),
    ],
)
def test_extremal_input_refuses_a_singular_arc(request, name, kind, state, adjoint):
    sc = request.getfixturevalue(name)
    with pytest.raises(SingularArcError, match="its derivative both vanish"):
        select_extremal_input(sc, kind, state, adjoint)


def test_barrier_curve_truncates_at_chattering_switches(monkeypatch, sc_sir):
    # two switch events 1e-10 d apart, closer than SWITCH_GAP_MIN_FACTOR *
    # event_time_tol: the curve keeps the first switch, ends at the second and
    # flags itself truncated
    def two_close_switches(source, events, y, *, t0, **kwargs):
        sigma = next(ev for ev in events if ev.kind is EventKind.SIGN_CHANGE)
        t = t0 + 1e-10
        return IntegrationResult(np.array([t0, t]), np.array([y, y]), sigma, t, y, 1)

    monkeypatch.setattr(barrier, "integrate_until", two_close_switches)
    x0 = [0.8, sc_sir.i_max]
    curve = compute_barrier_curve(sc_sir, SetKind.ADMISSIBLE, x0)
    assert curve.truncated and curve.termination.label == "sigma_beta"
    assert [t for t, _ in curve.switch_times] == [1e-10]
    assert curve.is_switch.tolist() == [False, True, False, False]
    assert curve.tau.tolist() == [0.0, 1e-10, 1e-10, 2e-10]


def test_zero_length_diagonal_covers_no_query():
    # a quad whose diagonal a -> c has zero length: both its triangles are
    # segments, so they cover no query and the ray crosses nothing there
    nodes = np.array([
        [[1 / 16, 5 / 16, 1 / 4], [1 / 16, 5 / 16 + H, 1 / 4]],
        [[1 / 16 + H, 5 / 16, 1 / 4], [1 / 16, 5 / 16, 1 / 4]],
    ])
    cset = _synthetic_set(nodes)
    scan = _full_scan(cset)
    for s_q, e_q in ((1 / 16 + H / 4, 5 / 16 + H / 4), (1 / 16 + H / 2, 5 / 16)):
        for i_q in (1 / 8, 3 / 8):
            x = np.array([s_q, e_q, i_q])
            assert not np.any(scan(x)[0])
            assert barrier._seir_inside(cset, *x.tolist()) is False
            assert membership(cset, x).verdict is Verdict.OUTSIDE
