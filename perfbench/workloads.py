"""The build, query and dynamics workloads and their output checks.

Every workload runs in one process and in a closed loop: one caller issues a
call into epibarrier, waits for the result, then issues the next.  Inputs
come only from the seed.  A failed check or a raised exception counts as one
failed operation instead of ending the run.

Sets are always built the way a user builds them: ``epibarrier barrier``
through ``cli.main``, then ``cli.load_set`` on the exported ``set.json``.

Every timed segment is bracketed by reference samples (``speed.py``) and its
time is reported both raw and normalised to the reference speed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import time
import traceback
from dataclasses import dataclass

import numpy as np

from speed import Speed

# Worked-example scenarios (the configs of the package's own test suite).
SCENARIOS = {
    "sir_002": {"variant": "SIR_PERFECT", "beta": [0.6, 0.8], "gamma": 0.5, "i_max": 0.02},
    "sir_015": {"variant": "SIR_PERFECT", "beta": [0.6, 0.8], "gamma": 0.5, "i_max": 0.15},
    "sir_imp_020": {
        "variant": "SIR_IMPERFECT", "beta": [0.6, 0.8], "gamma": [0.3, 0.5], "i_max": 0.2,
    },
    "seir_030": {
        "variant": "SEIR_PERFECT", "beta": [0.8, 1.0], "gamma": [0.2, 1.0 / 3.0],
        "eta": 0.2, "i_max": 0.3,
    },
    "seir_040": {
        "variant": "SEIR_PERFECT", "beta": [0.8, 1.0], "gamma": [0.2, 1.0 / 3.0],
        "eta": 0.2, "i_max": 0.4,
    },
    "seir_imp_010": {
        "variant": "SEIR_IMPERFECT", "beta": [0.8, 1.0], "gamma": [0.2, 1.0 / 3.0],
        "eta": [1.0 / 7.0, 0.2], "i_max": 0.1,
    },
}


@dataclass(frozen=True)
class SetSpec:
    name: str
    scenario: str
    kind: str
    curves: int | None = None  # None: the CLI default (30)


@dataclass(frozen=True)
class Sizes:
    setup_reps: int
    min_passes: int
    build_sets: tuple
    query_sets: tuple
    sir_queries: int  # per SIR set per pass
    seir_queries: int  # per SEIR set per pass
    sim_days: float
    mc_trials: int
    mc_days: float
    grid: int
    probes: int  # reload probes per set


def _build_sets(seir_curves):
    return (
        SetSpec("sir_adm_002", "sir_002", "admissible"),
        SetSpec("sir_mrpi_015", "sir_015", "mrpi"),
        SetSpec("sir_imp_mrpi_020", "sir_imp_020", "mrpi"),
        SetSpec("seir_adm_030", "seir_030", "admissible", seir_curves),
        SetSpec("seir_mrpi_030", "seir_030", "mrpi", seir_curves),
        SetSpec("seir_imp_mrpi_010", "seir_imp_010", "mrpi", seir_curves),
    )


def _query_sets(seir_curves):
    return (
        SetSpec("sir_adm_002", "sir_002", "admissible"),
        SetSpec("sir_imp_mrpi_020", "sir_imp_020", "mrpi"),
        SetSpec("seir_adm_030", "seir_030", "admissible", seir_curves),
        SetSpec("seir_mrpi_040", "seir_040", "mrpi", seir_curves),
    )


DYNAMICS_SETS = (
    SetSpec("sir_adm_002", "sir_002", "admissible"),
    SetSpec("sir_mrpi_002", "sir_002", "mrpi"),
)

FULL = Sizes(
    setup_reps=2, min_passes=3, build_sets=_build_sets(4), query_sets=_query_sets(None),
    sir_queries=512, seir_queries=64, sim_days=20.0, mc_trials=3, mc_days=50.0,
    grid=12, probes=32,
)
SMOKE = Sizes(
    setup_reps=1, min_passes=1, build_sets=_build_sets(2), query_sets=_query_sets(3),
    sir_queries=64, seir_queries=8, sim_days=20.0, mc_trials=1, mc_days=5.0,
    grid=4, probes=8,
)

UNIFORM_SHARE = 0.5  # share of query points uniform over the constrained simplex
BOUNDARY_BAND = 4.0  # other points lie within this many boundary_layer_eps of the boundary
HAM_MAX = 1e-6  # criterion 03
TANGENCY_MAX = 1e-8  # criterion 04
SIM_X0 = (0.8, 0.012)  # criterion 08
SIM_MIN_PEAK = 0.019
MC_X0 = (0.8, 0.1)  # criterion 09
MC_STEP_H = 1e-2
AGREEMENT_MIN = 0.98  # criterion 10
QUERY_CHUNK = 192  # queries between two reference samples (about 0.15 s)


class Run:
    """One benchmark run: package handles, work directory, counters, facts."""

    def __init__(self, eb, workdir, seed, sizes, tracer=None):
        self.eb = eb  # namespace with the epibarrier modules
        self.workdir = workdir
        self.seed = seed
        self.sizes = sizes
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.facts = {"max_hamiltonian": 0.0, "max_tangency": 0.0, "cli_bytes_written": 0}
        self.captured = []  # (ComputedSet, assemble seconds) from cli.assemble_set
        self.speed = Speed()

    # -- accounting ------------------------------------------------------------

    def fail(self, label, detail):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {detail}")

    def check(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.fail(label, detail or "check failed")
        return ok

    def call(self, label, fn, *args, **kwargs):
        """Time one call into the program; an exception is a failed operation."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the run goes on; the failure is counted
            self.fail(label, "".join(traceback.format_exception_only(exc)).strip())
            result = None
        return result, time.perf_counter() - t0

    @contextlib.contextmanager
    def measured(self):
        """Reference samples before and after the block; sets ``seg.scale``."""
        seg = Segment(self.speed.sample())
        try:
            yield seg
        finally:
            seg.scale = Speed.scale(seg.before, self.speed.sample())

    @contextlib.contextmanager
    def untraced(self):
        """Checks run with the tracer paused, so they add no spans."""
        was = self.tracer is not None and self.tracer.active
        if was:
            self.tracer.active = False
        try:
            yield
        finally:
            if was:
                self.tracer.active = True

    def trace_tag(self, tag):
        if self.tracer is not None:
            self.tracer.tag = tag

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0

    # -- capture of the set each barrier command assembles ------------------

    @contextlib.contextmanager
    def capture_assembly(self):
        """Keep each set ``cli.main`` assembles, with its assemble_set time."""
        cli = self.eb.cli
        inner = cli.assemble_set

        def hook(*args, **kwargs):
            t0 = time.perf_counter()
            cset = inner(*args, **kwargs)
            self.captured.append((cset, time.perf_counter() - t0))
            return cset

        cli.assemble_set = hook
        try:
            yield
        finally:
            cli.assemble_set = inner


@dataclass
class Segment:
    before: float  # reference sample taken before the timed work
    scale: float = 1.0  # raw seconds -> seconds at the reference speed


# ---------------------------------------------------------------------------
# building sets through the CLI
# ---------------------------------------------------------------------------


@dataclass
class Built:
    spec: SetSpec
    fresh: object  # the ComputedSet the command assembled
    loaded: object  # the ComputedSet reloaded from set.json
    raw_s: float  # barrier command plus load_set
    assemble_raw_s: float
    scale: float
    csv_digest: str
    bytes_written: int

    @property
    def norm_s(self):
        return self.raw_s * self.scale

    @property
    def assemble_s(self):
        return self.assemble_raw_s * self.scale


def write_configs(run, keys):
    """Validate each scenario and write its config file; returns both by key."""
    paths, scenarios = {}, {}
    cfg_dir = os.path.join(run.workdir, "configs")
    os.makedirs(cfg_dir, exist_ok=True)
    for key in keys:
        raw = SCENARIOS[key]
        scenarios[key], _ = run.call(f"validate {key}", run.eb.core.validate_scenario, raw)
        path = os.path.join(cfg_dir, f"{key}.json")
        with open(path, "w") as fh:
            json.dump(SCENARIOS[key], fh)
        paths[key] = path
    return paths, scenarios


def build_set(run, spec, configs):
    """``epibarrier barrier`` then ``load_set``; returns None on failure."""
    out = os.path.join(run.workdir, "sets", spec.name)
    argv = ["barrier", "--config", configs[spec.scenario], "--set", spec.kind, "--out", out]
    if spec.curves is not None:
        argv += ["--curves", str(spec.curves)]
    run.captured.clear()
    with run.measured() as seg:
        with contextlib.redirect_stdout(io.StringIO()):
            code, command_s = run.call(f"barrier {spec.name}", run.eb.cli.main, argv)
        loaded, load_s = None, 0.0
        if code == 0 and len(run.captured) == 1:
            loaded, load_s = run.call(
                f"load_set {spec.name}", run.eb.cli.load_set, os.path.join(out, "set.json")
            )
        else:
            run.fail(f"barrier {spec.name}", f"exit code {code}")
    if loaded is None:
        return None
    fresh, assemble_s = run.captured[0]
    digest, n_bytes = _export_digest(out)
    return Built(
        spec, fresh, loaded, command_s + load_s, assemble_s, seg.scale, digest, n_bytes
    )


def _export_digest(out):
    """sha256 over the curve CSVs (set.json embeds wall-clock manifest.runtime_s)."""
    h = hashlib.sha256()
    n_bytes = 0
    for fname in sorted(os.listdir(out)):
        path = os.path.join(out, fname)
        n_bytes += os.path.getsize(path)
        if fname.startswith("curve_") and fname.endswith(".csv"):
            h.update(fname.encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest(), n_bytes


def check_built(run, built, rng):
    """Curve invariants of the fresh set, and identical verdicts after reload."""
    eb, cset = run.eb, built.fresh
    sc, kind = cset.scenario, cset.set_kind
    lam0 = np.zeros(sc.dim)
    lam0[-1] = 1.0
    worst_h = worst_t = 0.0
    with run.untraced():
        for curve in cset.curves:
            worst_h = max(worst_h, float(np.max(np.abs(curve.hamiltonian(sc)))))
            u0 = eb.barrier.select_extremal_input(sc, kind, curve.tangent_point, lam0)
            worst_t = max(worst_t, abs(eb.models.lie_derivative_g(sc, curve.tangent_point, u0)))
        run.facts["max_hamiltonian"] = max(run.facts["max_hamiltonian"], worst_h)
        run.facts["max_tangency"] = max(run.facts["max_tangency"], worst_t)
        name = built.spec.name
        run.check(f"hamiltonian {name}", worst_h <= HAM_MAX, f"max |H| = {worst_h:.3g}")
        run.check(f"tangency {name}", worst_t <= TANGENCY_MAX, f"max residual = {worst_t:.3g}")
        probes = sample_points(rng, built.fresh, run.sizes.probes)
        fresh = [eb.barrier.membership(built.fresh, p) for p in probes]
        again = [eb.barrier.membership(built.loaded, p) for p in probes]
        same = sum(a == b for a, b in zip(fresh, again))
        run.check(f"reload {name}", same == len(probes), f"{len(probes) - same} verdicts differ")
        check_boundary(run, name, fresh + again, cset.tolerances.boundary_layer_eps)


def check_boundary(run, label, results, eps):
    bad = sum(
        1 for m in results if m.verdict.value == "BOUNDARY" and not m.distance_estimate <= eps
    )
    run.check(f"boundary {label}", bad == 0, f"{bad} BOUNDARY verdicts farther than {eps}")


def build_all(run, specs, configs, rep, digests):
    """Build every set; check the first build of each, compare later ones."""
    built = {}
    for i, spec in enumerate(specs):
        b = build_set(run, spec, configs)
        if b is None:
            continue
        built[spec.name] = b
        if spec.name not in digests:
            digests[spec.name] = b.csv_digest
            run.facts["cli_bytes_written"] += b.bytes_written
            check_built(run, b, np.random.default_rng([run.seed, 1000 + i]))
        else:
            run.check(
                f"deterministic {spec.name}",
                b.csv_digest == digests[spec.name],
                f"curve CSVs differ in rep {rep}",
            )
    return built


# ---------------------------------------------------------------------------
# seeded query points
# ---------------------------------------------------------------------------


def _clip_to_domain(x, i_max):
    x = np.maximum(x, 0.0)
    x[:, -1] = np.minimum(x[:, -1], i_max)
    total = x.sum(axis=1)
    over = total > 1.0
    if np.any(over):
        rest = x[over, :-1].sum(axis=1)
        x[over, :-1] *= ((1.0 - x[over, -1]) / rest)[:, None]
    return x


def uniform_points(rng, scenario, n):
    """Uniform over {x >= 0, sum(x) <= 1, I <= I_max} by rejection."""
    chunks, have = [], 0
    while have < n:
        x = rng.random((2 * n + 8, scenario.dim))
        x[:, -1] *= scenario.i_max
        x = x[x.sum(axis=1) <= 1.0]
        chunks.append(x)
        have += len(x)
    return np.concatenate(chunks)[:n]


def boundary_points(rng, cset, n):
    """Points within BOUNDARY_BAND boundary layers of the set's boundary."""
    sc = cset.scenario
    if cset.polyline is not None:
        poly = np.vstack([cset.polyline, cset.polyline[:1]])
        a, b = poly[:-1], poly[1:]
        length = np.linalg.norm(b - a, axis=1)
        idx = rng.choice(len(a), size=n, p=length / length.sum())
        t = rng.random(n)[:, None]
        base = a[idx] + t * (b[idx] - a[idx])
    else:
        nodes = cset.mesh_nodes
        nc, nn, _ = nodes.shape
        c = rng.integers(0, nc - 1, n)
        j = rng.integers(0, nn - 1, n)
        u = rng.random(n)[:, None]
        v = rng.random(n)[:, None]
        base = (
            (1 - u) * (1 - v) * nodes[c, j]
            + u * (1 - v) * nodes[c + 1, j]
            + (1 - u) * v * nodes[c, j + 1]
            + u * v * nodes[c + 1, j + 1]
        )
    direction = rng.normal(size=(n, sc.dim))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    eps = cset.tolerances.boundary_layer_eps
    radius = rng.uniform(0.0, BOUNDARY_BAND * eps, n)[:, None]
    return _clip_to_domain(base + radius * direction, sc.i_max)


def sample_points(rng, cset, n):
    n_uniform = int(round(UNIFORM_SHARE * n))
    pts = np.concatenate(
        [uniform_points(rng, cset.scenario, n_uniform), boundary_points(rng, cset, n - n_uniform)]
    )
    return pts[rng.permutation(n)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else float("nan")


def _sum_of_medians(passes, key):
    names = passes[0][key]
    return sum(_median([p[key][n] for p in passes if n in p[key]]) for n in names)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """Set-up (repeated; median reported) and one pass of timed work."""

    name = ""

    def __init__(self, run):
        self.run = run
        self.digests = {}

    def scenario_keys(self):
        return sorted({s.scenario for s in self.set_specs()})

    def set_specs(self):
        return ()

    def setup(self, rep):
        """Validate, write configs and build the sets; returns (seconds, raw seconds)."""
        run = self.run
        with run.measured() as seg:
            t0 = time.perf_counter()
            self.configs, self.scenarios = write_configs(run, self.scenario_keys())
            raw = time.perf_counter() - t0
        norm = raw * seg.scale
        self.sets = build_all(run, self.set_specs(), self.configs, rep, self.digests)
        return (
            norm + sum(b.norm_s for b in self.sets.values()),
            raw + sum(b.raw_s for b in self.sets.values()),
        )

    def run_pass(self, k):
        raise NotImplementedError

    def summarize(self, passes):
        raise NotImplementedError


class Build(Workload):
    """``epibarrier barrier`` + ``load_set`` on the six worked-example set kinds."""

    name = "build"

    def scenario_keys(self):
        return sorted({s.scenario for s in self.run.sizes.build_sets})

    def run_pass(self, k):
        run = self.run
        run.trace_tag(f"build/pass{k}")
        built = build_all(run, run.sizes.build_sets, self.configs, k, self.digests)
        if k == 0:
            self.first = built  # later passes keep no sets, so memory does not grow
        return {
            "pass_s": sum(b.norm_s for b in built.values()),
            "pass_raw_s": sum(b.raw_s for b in built.values()),
            "set_s": {n: b.norm_s for n, b in built.items()},
            "assemble_s": {n: b.assemble_s for n, b in built.items()},
        }

    def summarize(self, passes):
        first = self.first
        curves = [c for b in first.values() for c in b.fresh.curves]
        tol_h = {n: b.fresh.tolerances.step_h for n, b in first.items()}
        fingerprint = {
            "curve_csv_sha256": _sha("".join(self.digests[n] for n in sorted(self.digests))),
            "sets": len(first),
            "curves": len(curves),
            "curve_samples": sum(len(c.samples) for c in curves),
            "curve_retries": sum(
                int(c.step_h < tol_h[n]) for n, b in first.items() for c in b.fresh.curves
            ),
            "curves_truncated": sum(int(c.truncated) for c in curves),
            "switches": sum(len(c.switch_times) for c in curves),
        }
        # a pass is six commands of 0.2-1.5 s; the sum of per-set medians is the
        # typical pass and is not moved by one slow command in an otherwise fast pass
        metrics = {
            "wall_s": _sum_of_medians(passes, "set_s"),
            "assemble_s": _sum_of_medians(passes, "assemble_s"),
        }
        return metrics, fingerprint, {}


class Query(Workload):
    """Seeded single-point ``membership`` stream over two polygons and two meshes."""

    name = "query"

    def set_specs(self):
        return self.run.sizes.query_sets

    def pass_inputs(self, k):
        run, sizes = self.run, self.run.sizes
        stream = []
        for i, spec in enumerate(self.set_specs()):
            cset = self.sets[spec.name].loaded
            n = sizes.sir_queries if cset.scenario.variant.is_sir else sizes.seir_queries
            pts = sample_points(np.random.default_rng([run.seed, k, i]), cset, n)
            stream.extend((cset, p) for p in pts)
        order = np.random.default_rng([run.seed, k]).permutation(len(stream))
        return [stream[j] for j in order]

    def run_pass(self, k):
        run = self.run
        stream = self.pass_inputs(k)
        run.trace_tag(f"query/pass{k}")
        membership = run.eb.barrier.membership
        lat = {True: [], False: []}
        results = []
        pass_s = pass_raw_s = 0.0
        ref = run.speed.sample()
        for start in range(0, len(stream), QUERY_CHUNK):
            chunk = {True: [], False: []}
            t_chunk = time.perf_counter()
            for cset, p in stream[start:start + QUERY_CHUNK]:
                t0 = time.perf_counter()
                try:
                    m = membership(cset, p)
                except Exception as exc:
                    run.fail("membership", repr(exc))
                    m = None
                chunk[cset.scenario.variant.is_sir].append(time.perf_counter() - t0)
                results.append(m)
            raw = time.perf_counter() - t_chunk
            # consecutive chunks share the reference sample between them
            before, ref = ref, run.speed.sample()
            scale = Speed.scale(before, ref)
            pass_raw_s += raw
            pass_s += raw * scale
            for is_sir, xs in chunk.items():
                lat[is_sir].extend(x * scale for x in xs)
        run.attempted += len(stream)
        ok = [m for m in results if m is not None]
        check_boundary(run, f"query pass {k}", ok, stream[0][0].tolerances.boundary_layer_eps)
        verdicts = "".join(m.verdict.value[0] if m else "!" for m in results)
        return {
            "pass_s": pass_s, "pass_raw_s": pass_raw_s,
            "sir": lat[True], "seir": lat[False], "verdicts": verdicts,
        }

    def summarize(self, passes):
        sir = np.array([x for p in passes for x in p["sir"]]) * 1e6
        seir = np.array([x for p in passes for x in p["seir"]]) * 1e6
        first = passes[0]["verdicts"]
        fingerprint = {
            "verdicts_sha256": _sha(first),
            "queries_per_pass": len(first),
            "verdict_counts": {
                v: first.count(v[0]) for v in ("INSIDE", "OUTSIDE", "BOUNDARY", "UNKNOWN")
            },
            "uniform_share": UNIFORM_SHARE,
            "boundary_band_eps": BOUNDARY_BAND,
        }
        metrics = {
            "wall_s": _median([p["pass_s"] for p in passes]),
            "query_sir_p50_us": float(np.percentile(sir, 50)),
            "query_sir_p99_us": float(np.percentile(sir, 99)),
            "query_seir_p50_us": float(np.percentile(seir, 50)),
            "query_seir_p99_us": float(np.percentile(seir, 99)),
        }
        samples = {
            "query_sir_p50_us": len(sir), "query_sir_p99_us": len(sir),
            "query_seir_p50_us": len(seir), "query_seir_p99_us": len(seir),
        }
        return metrics, fingerprint, samples


class Dynamics(Workload):
    """Switching-law simulate, Monte Carlo, and the admissible grid oracle."""

    name = "dynamics"

    def set_specs(self):
        return DYNAMICS_SETS

    def scenario_keys(self):
        return ["sir_002", "sir_imp_020"]  # the second drives monte_carlo

    def run_pass(self, k):
        run, eb, sizes = self.run, self.run.eb, self.run.sizes
        ps = eb.policy_sim
        adm = self.sets["sir_adm_002"].loaded
        mrpi = self.sets["sir_mrpi_002"].loaded
        sc, sci = adm.scenario, self.scenarios["sir_imp_020"]
        axis_s = np.linspace(0.0, 1.0, sizes.grid)
        axis_i = np.linspace(0.0, sc.i_max, sizes.grid)
        pts = np.array([(s, i) for s in axis_s for i in axis_i if s + i <= 1.0])
        run.trace_tag(f"dynamics/pass{k}")

        policy = ps.SwitchingLawPolicy(sc, adm, mrpi)
        with run.measured() as seg_sim:
            traj, sim_raw = run.call(
                "simulate", ps.simulate, sc, policy, list(SIM_X0), sizes.sim_days,
                record_every=10_000,
            )
        with run.measured() as seg_mc:
            trajs, mc_raw = run.call(
                "monte_carlo", ps.monte_carlo, sci, list(MC_X0), sizes.mc_trials,
                seed=[run.seed, k], t_end=sizes.mc_days, h=MC_STEP_H,
            )
        membership = eb.barrier.membership
        with run.measured() as seg_oracle:
            flags, flags_raw = run.call(
                "grid_membership_oracle", ps.grid_membership_oracle, sc,
                eb.core.SetKind.ADMISSIBLE, pts, seed=run.seed,
                admissible_set=adm, mrpi_set=mrpi,
            )
            verdicts, verdicts_raw = run.call(
                "membership", lambda: [membership(adm, p) for p in pts]
            )
        oracle_raw = flags_raw + verdicts_raw
        sim_s, mc_s = sim_raw * seg_sim.scale, mc_raw * seg_mc.scale
        oracle_s = oracle_raw * seg_oracle.scale

        out = {"pass_s": sim_s + mc_s + oracle_s, "pass_raw_s": sim_raw + mc_raw + oracle_raw}
        sim_steps = math.ceil(sizes.sim_days / eb.core.Tolerances().step_h - 1e-12)
        out["sim_steps_per_s"] = sim_steps / sim_s
        out["mc_steps_per_s"] = (
            sizes.mc_trials * math.ceil(sizes.mc_days / MC_STEP_H - 1e-12) / mc_s
        )
        out["oracle_points_per_s"] = len(pts) / oracle_s
        if traj is not None:
            run.check("switching law keeps the cap", not traj.breached, "breached")
            run.check(
                "switching law reaches the cap", traj.max_I >= SIM_MIN_PEAK,
                f"max_I = {traj.max_I}",
            )
            out["sim"] = [list(map(float, traj.samples[-1][1])), traj.max_I]
        if trajs is not None:
            n_breached = sum(bool(t.breached) for t in trajs)
            run.check("monte carlo keeps the cap", n_breached == 0, f"{n_breached} trials breached")
            out["mc"] = [[list(map(float, t.samples[-1][1])), t.max_I] for t in trajs]
        eps = adm.tolerances.boundary_layer_eps
        if flags is not None and verdicts is not None:
            check_boundary(run, f"oracle pass {k}", verdicts, eps)
            n_cmp = n_agree = false_inside = 0
            for m, inside in zip(verdicts, flags):
                v = m.verdict.value
                if v not in ("INSIDE", "OUTSIDE"):
                    continue
                n_cmp += 1
                n_agree += (v == "INSIDE") == bool(inside)
                false_inside += v == "INSIDE" and not inside and m.distance_estimate > 2 * eps
            agreement = n_agree / n_cmp if n_cmp else 1.0
            run.check("oracle agreement", agreement >= AGREEMENT_MIN, f"agreement {agreement}")
            run.check("oracle false INSIDE", false_inside == 0, f"{false_inside} false INSIDE")
            out.update(agreement=agreement, false_inside=false_inside, n_points=len(pts))
            out["flags"] = "".join("1" if f else "0" for f in flags)
        return out

    def summarize(self, passes):
        first = passes[0]
        fingerprint = {
            "simulate_final_state_and_max_I": first.get("sim"),
            "monte_carlo_final_states_and_max_I": first.get("mc"),
            "oracle_flags_sha256": _sha(first.get("flags", "")),
            "oracle_points": first.get("n_points"),
        }
        metrics = {
            "wall_s": _median([p["pass_s"] for p in passes]),
            "sim_steps_per_s": _median([p["sim_steps_per_s"] for p in passes]),
            "mc_steps_per_s": _median([p["mc_steps_per_s"] for p in passes]),
            "oracle_points_per_s": _median([p["oracle_points_per_s"] for p in passes]),
            "oracle_agreement": min(p.get("agreement", 0.0) for p in passes),
            "false_inside": max(p.get("false_inside", 0) for p in passes),
        }
        return metrics, fingerprint, {}


WORKLOADS = {"build": Build, "query": Query, "dynamics": Dynamics}
