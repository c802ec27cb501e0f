import dataclasses

import numpy as np
import pytest

from epibarrier import barrier
from epibarrier.analysis import backward_filter, tangent_set
from epibarrier.barrier import (
    ComputedSet,
    Verdict,
    assemble_set,
    compute_barrier_curve,
    membership,
    mesh_triangles,
    resample_by_arclength,
    select_extremal_input,
)
from epibarrier.core import SetKind, Tolerances
from epibarrier.models import Channel, InputVec, lie_derivative_g, state_rhs


def _all_curves(sets):
    for name, cset in sets.items():
        for curve in cset.curves:
            yield name, cset, curve


def test_hamiltonian_invariant(all_proper_sets):
    for name, cset, curve in _all_curves(all_proper_sets):
        ham = np.max(np.abs(curve.hamiltonian(cset.scenario)))
        assert ham <= cset.tolerances.ham_tol, f"{name}: max |H| = {ham}"


def test_tangency_residual(all_proper_sets):
    for name, cset in all_proper_sets.items():
        sc = cset.scenario
        for curve in cset.curves:
            x0 = curve.tangent_point
            lam0 = np.zeros(sc.dim)
            lam0[-1] = 1.0
            u0 = select_extremal_input(sc, cset.set_kind, x0, lam0)
            assert abs(lie_derivative_g(sc, x0, u0)) <= 1e-8, name


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
    pts = resample_by_arclength(curve, adm_sir.scenario, 100)
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
        fa = state_rhs(scenario, x[a], u[a])
        fb = state_rhs(scenario, x[b], u[b])
        dsa, dsb = np.sqrt(fa @ fa), np.sqrt(fb @ fb)
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
    for name, cset, curve in _all_curves(all_proper_sets):
        n = 400 if cset.scenario.variant.is_sir else 200
        got = resample_by_arclength(curve, cset.scenario, n)
        want = _resample_one_node_at_a_time(curve, cset.scenario, n)
        assert got.tobytes() == want.tobytes(), name


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
    for c in (doubled, flat):
        for n in (2, 3, 57, 200):
            got = resample_by_arclength(c, sc, n)
            assert got.tobytes() == _resample_one_node_at_a_time(c, sc, n).tobytes()
    assert np.array_equal(resample_by_arclength(flat, sc, 5)[1:-1], np.tile(flat.states[1], (3, 1)))


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


def test_seir_membership_basic(mrpi_seir):
    sc = mrpi_seir.scenario
    # deep inside: tiny infection, plenty of susceptibles
    assert membership(mrpi_seir, [0.3, 0.01, 0.01]).verdict is Verdict.INSIDE
    # large exposed pool with plenty of susceptibles must overshoot
    assert membership(mrpi_seir, [0.6, 0.3, 0.05]).verdict is Verdict.OUTSIDE
    # above the cap face
    assert membership(mrpi_seir, [0.2, 0.1, 0.35]).verdict is Verdict.OUTSIDE


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


def test_mesh_triangles_shape(mrpi_seir):
    tris = mesh_triangles(mrpi_seir)
    nc, nn, _ = mrpi_seir.mesh_nodes.shape
    assert tris.shape == (2 * (nc - 1) * (nn - 1), 3, 3)


def _full_scan_raw_inside(cset, x):
    """Reference parity test over every mesh triangle (no quad-box filter)."""
    s_q, e_q, i_q = x
    tris = mesh_triangles(cset)
    edge_eps = 1e-9
    d = tris[:, :, :2] - np.array([s_q, e_q])
    a1 = d[:, 1, 0] * d[:, 2, 1] - d[:, 1, 1] * d[:, 2, 0]
    a2 = d[:, 2, 0] * d[:, 0, 1] - d[:, 2, 1] * d[:, 0, 0]
    a3 = d[:, 0, 0] * d[:, 1, 1] - d[:, 0, 1] * d[:, 1, 0]
    total = a1 + a2 + a3
    ok = np.abs(total) > 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        b = np.stack([a1, a2, a3], axis=1) / total[:, None]
    lo = np.min(b, axis=1)
    if np.any(ok & (lo >= -edge_eps) & (lo < edge_eps)):
        return None
    interior = ok & (lo >= edge_eps)
    i_star = np.einsum("ij,ij->i", b, tris[:, :, 2])
    if np.any(interior & (np.abs(i_star - i_q) < edge_eps)):
        return None
    crossings = int(np.sum(interior & (i_star > i_q)))
    cap_usable = cset.usable.contains(
        np.array([s_q, e_q, cset.scenario.i_max]), tol=0.0
    )
    return cap_usable != (crossings % 2 == 1)


def _all_nodes_distance(cset, x):
    """Reference distance estimate: every node, the usable cap, the segments."""
    grid = cset.mesh_nodes.reshape(-1, 3)
    dist = float(np.min(np.linalg.norm(grid - x, axis=1)))
    up = cset.usable
    ds = max(0.0, -x[0], x[0] - up.s_hi)
    de = max(0.0, -x[1], x[1] - up.e_cap(min(max(x[0], 0.0), up.s_hi)))
    di = cset.scenario.i_max - x[2]
    dist = min(dist, float(np.sqrt(ds * ds + de * de + di * di)))
    for seg in cset.special_segments:
        a, ab = seg[:-1], seg[1:] - seg[:-1]
        denom = np.einsum("ij,ij->i", ab, ab)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.einsum("ij,ij->i", x - a, ab) / denom
        t = np.clip(np.nan_to_num(t), 0.0, 1.0)
        proj = a + t[:, None] * ab
        dist = min(dist, float(np.min(np.linalg.norm(x - proj, axis=1))))
    return dist


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
    points = np.vstack(groups)

    raw = [barrier._seir_raw_inside(cset, p) for p in points]
    ref_raw = [_full_scan_raw_inside(cset, p) for p in points]
    assert raw == ref_raw
    dist = [barrier._seir_distance_estimate(cset, p) for p in points]
    assert dist == [_all_nodes_distance(cset, p) for p in points]

    sub = points[::5]
    got = [membership(cset, p) for p in sub]
    monkeypatch.setattr(barrier, "_seir_raw_inside", _full_scan_raw_inside)
    monkeypatch.setattr(barrier, "_seir_distance_estimate", _all_nodes_distance)
    assert got == [membership(cset, p) for p in sub]


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
