"""Shared scenario fixtures, cached computed sets and reference loops.

Set assembly is the expensive part of the suite, so every assembled set is a
session-scoped fixture shared across test modules.
"""
import math

import numpy as np
import pytest

from epibarrier import SetKind, assemble_set, policy_sim, validate_scenario
from epibarrier.core import Tolerances
from epibarrier.integrate import EventKind, EventSpec, Source, _refine_fraction, rk4_step
from epibarrier.models import (
    Channel,
    InputVec,
    breach_bound,
    breach_params,
    first_integral,
    forward_source,
    input_box,
    vector_field,
)


SIR_PERFECT_RAW = {
    "variant": "SIR_PERFECT",
    "beta": [0.6, 0.8],
    "gamma": 0.5,
    "i_max": 0.02,
}
SIR_PERFECT_15_RAW = dict(SIR_PERFECT_RAW, i_max=0.15)
SIR_PERFECT_30_RAW = dict(SIR_PERFECT_RAW, i_max=0.3)
SIR_PERFECT_40_RAW = dict(SIR_PERFECT_RAW, i_max=0.4)
SIR_IMPERFECT_RAW = {
    "variant": "SIR_IMPERFECT",
    "beta": [0.6, 0.8],
    "gamma": [0.3, 0.5],
    "i_max": 0.2,
}
SEIR_PERFECT_RAW = {
    "variant": "SEIR_PERFECT",
    "beta": [0.8, 1.0],
    "gamma": [1.0 / 5.0, 1.0 / 3.0],
    "eta": 1.0 / 5.0,
    "i_max": 0.3,
}
SEIR_PERFECT_40_RAW = dict(SEIR_PERFECT_RAW, i_max=0.4)
SEIR_IMPERFECT_RAW = {
    "variant": "SEIR_IMPERFECT",
    "beta": [0.8, 1.0],
    "gamma": [1.0 / 5.0, 1.0 / 3.0],
    "eta": [1.0 / 7.0, 1.0 / 5.0],
    "i_max": 0.1,
}


@pytest.fixture(scope="session")
def sc_sir():
    return validate_scenario(SIR_PERFECT_RAW)


@pytest.fixture(scope="session")
def sc_sir15():
    return validate_scenario(SIR_PERFECT_15_RAW)


@pytest.fixture(scope="session")
def sc_sir40():
    return validate_scenario(SIR_PERFECT_40_RAW)


@pytest.fixture(scope="session")
def sc_sir_imp():
    return validate_scenario(SIR_IMPERFECT_RAW)


@pytest.fixture(scope="session")
def sc_seir():
    return validate_scenario(SEIR_PERFECT_RAW)


@pytest.fixture(scope="session")
def sc_seir40():
    return validate_scenario(SEIR_PERFECT_40_RAW)


@pytest.fixture(scope="session")
def sc_seir_imp():
    return validate_scenario(SEIR_IMPERFECT_RAW)


@pytest.fixture(scope="session")
def adm_sir(sc_sir):
    return assemble_set(sc_sir, SetKind.ADMISSIBLE)


@pytest.fixture(scope="session")
def mrpi_sir(sc_sir):
    return assemble_set(sc_sir, SetKind.MRPI)


@pytest.fixture(scope="session")
def adm_sir15(sc_sir15):
    return assemble_set(sc_sir15, SetKind.ADMISSIBLE)


@pytest.fixture(scope="session")
def mrpi_sir15(sc_sir15):
    return assemble_set(sc_sir15, SetKind.MRPI)


@pytest.fixture(scope="session")
def mrpi_sir30():
    return assemble_set(validate_scenario(SIR_PERFECT_30_RAW), SetKind.MRPI)


@pytest.fixture(scope="session")
def mrpi_sir_imp(sc_sir_imp):
    return assemble_set(sc_sir_imp, SetKind.MRPI)


@pytest.fixture(scope="session")
def adm_seir(sc_seir):
    return assemble_set(sc_seir, SetKind.ADMISSIBLE)


@pytest.fixture(scope="session")
def mrpi_seir(sc_seir):
    return assemble_set(sc_seir, SetKind.MRPI)


@pytest.fixture(scope="session")
def mrpi_seir40(sc_seir40):
    return assemble_set(sc_seir40, SetKind.MRPI)


@pytest.fixture(scope="session")
def mrpi_seir_imp(sc_seir_imp):
    return assemble_set(sc_seir_imp, SetKind.MRPI)


@pytest.fixture(scope="session")
def all_proper_sets(
    adm_sir,
    mrpi_sir,
    adm_sir15,
    mrpi_sir15,
    mrpi_sir_imp,
    adm_seir,
    mrpi_seir,
    mrpi_seir40,
    mrpi_seir_imp,
):
    """Every nontrivial computed set from the worked-example configurations."""
    return {
        "sir_adm_002": adm_sir,
        "sir_mrpi_002": mrpi_sir,
        "sir_adm_015": adm_sir15,
        "sir_mrpi_015": mrpi_sir15,
        "sir_imp_mrpi_020": mrpi_sir_imp,
        "seir_adm_030": adm_seir,
        "seir_mrpi_030": mrpi_seir,
        "seir_mrpi_040": mrpi_seir40,
        "seir_imp_mrpi_010": mrpi_seir_imp,
    }


def set_certificate(scenario, set_kind):
    """The ``(c, s_lo, e*)`` of ``models.breach_bound`` for a set: those of its
    corner for a perfect admissible set (beta_min, and gamma_max in SEIR), which must keep
    the cap, and those of the whole input box for a robust invariant set."""
    box = input_box(scenario)
    if set_kind is SetKind.ADMISSIBLE:
        corner = {ch.value: hi if ch is Channel.GAMMA else lo for ch, (lo, hi) in box.items()}
        return breach_params(scenario, [InputVec(**corner)])
    lo, hi = ({ch.value: ends[k] for ch, ends in box.items()} for k in (0, 1))
    return breach_params(scenario, [InputVec(**lo), InputVec(**hi)])


def phi_sir(scenario, set_kind):
    """The perfect SIR set's boundary ``I = phi(S)``, in closed form: ``I_max`` less the
    ``models.breach_bound`` of ``(S, 0)``.  The constant that decides the set (beta_min for
    the admissible set, beta_max for the robust one) conserves ``models.first_integral``,
    so the bound is its run's exact peak; the set is ``I < phi(S)``.
    """
    cert = set_certificate(scenario, set_kind)

    def phi(s):
        return scenario.i_max - breach_bound((np.asarray(s, dtype=float), 0.0), *cert)

    return phi


def _segment_distance(pts, a, b):
    """Distance from each row of ``pts`` to the segment ``a -> b``."""
    a, ab = np.asarray(a, dtype=float), np.subtract(b, a, dtype=float)
    t = np.clip((pts - a) @ ab / (ab @ ab), 0.0, 1.0)
    return np.hypot(*(pts - a - t[:, None] * ab).T)


def phi_sir_distance(cset, points):
    """Distance from each of ``points`` (rows S, I) to the pieces the SIR distance of the
    perfect set ``cset`` measures, with the graph of :func:`phi_sir` in place of its polyline.

    The pieces: the S = 0 edge up to the cap, the cap from S = 0 to the tangent point
    ``S = c``, the graph ``I = phi(S)`` from ``c`` to the curve's end, the end's edge (along
    the sum face to ``(1, 0)``, or down to the axis from the ``i_floor`` end) and the whole
    I = 0 axis.  The graph's end is exact: ``S = exp((1 - V0)/c)`` on the sum face, and
    ``phi(S) = i_floor`` solved by bisection.  The nearest of 1,000 graph nodes is refined
    by golden-section search between its neighbours.
    """
    sc, tol = cset.scenario, cset.tolerances
    phi, im = phi_sir(sc, cset.set_kind), sc.i_max
    c = set_certificate(sc, cset.set_kind)[0]
    v0 = first_integral((c, im), c)  # at the tangent point
    pts = np.asarray(points, dtype=float)
    if cset.curves[0].termination.label == "sum_face":
        s_end = math.exp((1.0 - v0) / c)
        end = ((s_end, 1.0 - s_end), (1.0, 0.0))
    else:
        lo, hi = c, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if phi(mid) > tol.i_floor else (lo, mid)
        s_end = lo
        end = ((s_end, float(phi(s_end))), (s_end, 0.0))
    grid = np.linspace(c, s_end, 1000)
    d2 = (pts[:, :1] - grid) ** 2 + (pts[:, 1:] - phi(grid)) ** 2
    j = np.argmin(d2, axis=1)
    lo, hi = grid[np.maximum(j - 1, 0)], grid[np.minimum(j + 1, len(grid) - 1)]

    def f(s):
        return (pts[:, 0] - s) ** 2 + (pts[:, 1] - phi(s)) ** 2

    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(60):
        x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        left = f(x1) < f(x2)
        lo, hi = np.where(left, lo, x1), np.where(left, x2, hi)
    graph = np.sqrt(np.minimum(d2[np.arange(len(pts)), j], f(0.5 * (lo + hi))))
    pieces = [((0.0, 0.0), (0.0, im)), ((0.0, im), (c, im)), end, ((0.0, 0.0), (1.0, 0.0))]
    return np.min([graph, *(_segment_distance(pts, a, b) for a, b in pieces)], axis=0)


def seir_points(scenario, n, rng):
    """``n`` states drawn from ``Dirichlet(1,1,1,1)[:3]`` and kept when ``I <= I_max``."""
    pts = []
    while len(pts) < n:
        x = rng.dirichlet(np.ones(4))[:3]
        if x[2] <= scenario.i_max:
            pts.append(x)
    return np.array(pts)


def seir_boundary_points(scenario, set_kind, n, rng):
    """``n`` states of the open simplex under the cap, near the set's boundary, in order:
    half within ``N(0, 2e-3)`` per coordinate of its traced curves (a uniform point of a
    uniform curve segment; the curves lie on the boundary, the mesh only between them), a
    quarter within ``|N(0, 2e-3)|`` under the cap face and a quarter under the sum face.
    """
    sigma = 2e-3
    states = [c.states for c in assemble_set(scenario, set_kind).curves]
    a, b = np.vstack([x[:-1] for x in states]), np.vstack([x[1:] for x in states])
    im = scenario.i_max

    def near_curves(m):
        j, t = rng.integers(0, len(a), m), rng.uniform(0.0, 1.0, (m, 1))
        return a[j] + t * (b[j] - a[j]) + rng.normal(0.0, sigma, (m, 3))

    def near_cap(m):
        i = im - np.abs(rng.normal(0.0, sigma, m))
        return np.column_stack([rng.dirichlet(np.ones(3), m)[:, :2] * (1.0 - i)[:, None], i])

    def near_sum(m):
        return rng.dirichlet(np.ones(3), m) * (1.0 - np.abs(rng.normal(0.0, sigma, (m, 1))))

    out = []
    for draw, m in ((near_curves, n - 2 * (n // 4)), (near_cap, n // 4), (near_sum, n // 4)):
        got = np.empty((0, 3))
        while len(got) < m:
            x = draw(m)
            got = np.vstack([got, x[(x > 0.0).all(axis=1) & (x.sum(axis=1) < 1.0) & (x[:, 2] < im)]])
        out.append(got[:m])
    return np.vstack(out)


def seir_corner_shot(scenario, set_kind, points):
    """Whether one extremal constant keeps the cap from each perfect SEIR point.

    The constant is ``beta_min, gamma_max`` for the admissible set and
    ``beta_max, gamma_min`` for the robust invariant set, run through the
    oracle's lanes over its horizon.
    """
    if set_kind is SetKind.ADMISSIBLE:
        u = InputVec(beta=scenario.beta_min, gamma=scenario.gamma_max)
    else:
        u = InputVec(beta=scenario.beta_max, gamma=scenario.gamma_min)
    trial = policy_sim.ConstantPolicy(scenario, u)
    breach = policy_sim._breach_matrix(
        scenario, np.asarray(points, dtype=float), [trial], policy_sim.ORACLE_T_END, Tolerances()
    )
    return ~breach[:, 0]


def simulate_ref(scenario, policy, x0, t_end, tol, *, record_every, stop_on_breach):
    """``simulate``'s per-step loop: ``policy.u`` called at every step start.

    Step ``k`` starts at ``t = k*h`` and is clipped to ``t_end - t``, as the
    oracle's lanes step.  ``models.vector_field`` is built whenever the policy
    returns a new input object, one ``rk4_step`` taken per step and the cap
    crossing refined on that field's source.  The time after the last step is
    ``min(n*h, t_end)``.
    """
    n_steps = int(np.ceil(t_end / tol.step_h - 1e-12))
    step = tol.step_h
    x = tuple(np.asarray(x0, dtype=float).tolist())
    im = scenario.i_max
    thr = im + tol.geom_tol
    cap = EventSpec(EventKind.DOMAIN_EXIT, "cap_face", Source(f"y[{len(x) - 1}]"), trigger_level=im)
    u = policy.u(0.0, x)
    samples = [(0.0, np.array(x), u)]
    max_i = x[-1]
    breached = max_i > thr
    first_breach = 0.0 if max_i > im else None

    u_rhs = rhs = None
    for k in range(n_steps):
        t = k * step
        hk = min(step, t_end - t)
        u = policy.u(t, x)
        if u is not u_rhs:
            u_rhs = u
            rhs = vector_field(scenario, u)
        x_new = rk4_step(rhs, t, x, hk)
        i_old, i_new = x[-1], x_new[-1]
        if first_breach is None and i_new > im >= i_old:
            src = forward_source(scenario, u)
            frac, _ = _refine_fraction(src, cap, t, x, hk, i_old, tol.event_time_tol)
            first_breach = t + frac * hk
        x = x_new
        last = k == n_steps - 1
        if i_new > max_i:
            max_i = i_new
            breached = breached or i_new > thr
        if (k + 1) % record_every == 0 or last:
            samples.append((min((k + 1) * step, t_end), np.array(x), u))
        if last or breached and stop_on_breach:
            break
    return policy_sim.Trajectory(samples, breached, max_i, first_breach)
