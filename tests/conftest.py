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
from epibarrier.models import InputVec, forward_source, vector_field


SIR_PERFECT_RAW = {
    "variant": "SIR_PERFECT",
    "beta": [0.6, 0.8],
    "gamma": 0.5,
    "i_max": 0.02,
}
SIR_PERFECT_15_RAW = dict(SIR_PERFECT_RAW, i_max=0.15)
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


def phi_sir(scenario, set_kind):
    """The perfect SIR set's boundary ``I = phi(S)``, in closed form.

    Under constant ``beta``, ``V = S + I - c*ln(S)`` with ``c = gamma/beta`` is
    conserved, and the extremal run touches the cap at ``S = c``: so
    ``phi(S) = V0 - S + c*ln(S)`` for ``S >= c``, with ``V0 = c + I_max - c*ln(c)``,
    and ``I_max`` below ``c``.  ``beta`` is ``beta_min`` for the admissible set and
    ``beta_max`` for the robust invariant set; the set is ``I < phi(S)``.
    """
    beta = scenario.beta_min if set_kind is SetKind.ADMISSIBLE else scenario.beta_max
    c = scenario.gamma / beta
    v0 = c + scenario.i_max - c * math.log(c)

    def phi(s):
        s = np.asarray(s, dtype=float)
        return np.where(s >= c, v0 - s + c * np.log(np.maximum(s, c)), scenario.i_max)

    return phi


def seir_points(scenario, n, rng):
    """``n`` states drawn from ``Dirichlet(1,1,1,1)[:3]`` and kept when ``I <= I_max``."""
    pts = []
    while len(pts) < n:
        x = rng.dirichlet(np.ones(4))[:3]
        if x[2] <= scenario.i_max:
            pts.append(x)
    return np.array(pts)


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
