"""Every metric the benchmark prints: name, unit, direction and workloads.

``END_TO_END`` lists what a user of epibarrier sees.  The entries marked
``gated`` are reported by every workload and are the ``end_to_end`` metrics
of ``BENCHMARK.json``; the others belong to one workload and are printed in
that workload's report line, each with the bound a later change may not
exceed (``None`` marks a correctness gate that must hold exactly).

``PER_LAYER`` lists the traced-run metrics with the end-to-end metric each
one should move.  A layer that a workload never calls reads 0 there.
"""

WORKLOADS = ("build", "query", "dynamics")
ALL = WORKLOADS

# name, unit, better, bound, workloads, gated
END_TO_END = [
    ("setup_s", "s", "lower", 0.25, ALL, True),
    ("wall_s", "s", "lower", 0.25, ALL, True),
    ("peak_rss_mb", "MB", "lower", 0.1, ALL, True),
    ("assemble_s", "s", "lower", 0.25, ("build",), False),
    ("query_sir_p50_us", "us", "lower", 0.1, ("query",), False),
    ("query_sir_p99_us", "us", "lower", 0.25, ("query",), False),
    ("query_seir_p50_us", "us", "lower", 0.25, ("query",), False),
    ("query_seir_p99_us", "us", "lower", 0.25, ("query",), False),
    ("sim_steps_per_s", "1/s", "higher", 0.1, ("dynamics",), False),
    ("mc_steps_per_s", "1/s", "higher", 0.25, ("dynamics",), False),
    ("oracle_points_per_s", "1/s", "higher", 0.25, ("dynamics",), False),
    ("oracle_agreement", "share", "higher", None, ("dynamics",), False),
    ("false_inside", "count", "lower", None, ("dynamics",), False),
    ("error_rate", "share", "lower", None, ALL, False),
]

# name, unit, better, end-to-end metric it should move (on which workload)
PER_LAYER = [
    ("analysis.self_s", "s", "lower", "assemble_s on build"),
    ("models.state_rhs.calls", "count", "lower", "sim_steps_per_s, mc_steps_per_s on dynamics"),
    ("models.state_rhs.self_s", "s", "lower", "sim_steps_per_s, mc_steps_per_s on dynamics"),
    ("models.switch_value.calls", "count", "lower", "assemble_s on build"),
    ("integrate.integrate_until.calls", "count", "lower", "assemble_s on build"),
    ("integrate.integrate_until.self_s", "s", "lower", "assemble_s on build"),
    ("integrate.steps", "count", "lower", "assemble_s on build"),
    ("integrate.rk4_step.calls", "count", "lower", "assemble_s on build; step rates on dynamics"),
    ("integrate.rk4_step.self_s", "s", "lower", "assemble_s on build; step rates on dynamics"),
    ("integrate.refine_share", "share", "lower", "assemble_s on build"),
    ("barrier.compute_barrier_curve.calls", "count", "lower", "assemble_s on build"),
    ("barrier.compute_barrier_curve.self_s", "s", "lower", "assemble_s on build"),
    ("barrier.curve_samples", "count", "lower", "assemble_s on build"),
    ("barrier.curve_retries", "count", "lower", "assemble_s on build"),
    ("barrier.curves_truncated", "count", "lower", "assemble_s on build"),
    ("barrier.max_hamiltonian", "abs", "lower", "error_rate on all"),
    ("barrier.max_tangency", "abs", "lower", "error_rate on all"),
    ("barrier.resample_by_arclength.calls", "count", "lower", "assemble_s on build"),
    ("barrier.resample_by_arclength.self_s", "s", "lower", "assemble_s on build"),
    ("barrier.assemble_set.self_s", "s", "lower", "assemble_s on build"),
    ("barrier.membership.calls", "count", "lower",
     "query_* on query; sim_steps_per_s on dynamics"),
    ("barrier.membership.sir.self_s", "s", "lower",
     "query_sir_* on query; sim_steps_per_s on dynamics"),
    ("barrier.membership.seir.self_s", "s", "lower", "query_seir_* on query"),
    ("barrier.verdict.boundary_share", "share", "lower",
     "query_* on query; oracle_agreement on dynamics"),
    ("barrier.verdict.unknown_share", "share", "lower",
     "query_* on query; oracle_agreement on dynamics"),
    ("policy_sim.simulate.calls", "count", "lower", "sim_steps_per_s, mc_steps_per_s on dynamics"),
    ("policy_sim.simulate.self_s", "s", "lower", "sim_steps_per_s, mc_steps_per_s on dynamics"),
    ("policy_sim.sim_steps", "count", "lower", "sim_steps_per_s, mc_steps_per_s on dynamics"),
    ("policy_sim.switching_law.evals", "count", "lower", "sim_steps_per_s on dynamics"),
    ("policy_sim.switching_law.miss_share", "share", "lower", "sim_steps_per_s on dynamics"),
    ("policy_sim.grid_membership_oracle.self_s", "s", "lower", "oracle_points_per_s on dynamics"),
    ("policy_sim.oracle.point_schedules", "count", "lower", "oracle_points_per_s on dynamics"),
    ("policy_sim.monte_carlo.self_s", "s", "lower", "mc_steps_per_s on dynamics"),
    ("cli.main.self_s", "s", "lower", "wall_s on build"),
    ("cli.bytes_written", "bytes", "lower", "wall_s on build"),
    ("cli.load_set.self_s", "s", "lower", "wall_s on build"),
]

# Count metrics that must repeat exactly across two traced runs of one seed.
EXACT_COUNTS = [
    name
    for name, unit, _, _ in PER_LAYER
    if name.endswith(".calls")
    or name in ("integrate.steps", "policy_sim.sim_steps", "barrier.curve_retries")
]


def gated():
    """The end-to-end metrics every workload reports (BENCHMARK.json)."""
    return [row for row in END_TO_END if row[5]]


def end_to_end_for(workload):
    return [row for row in END_TO_END if workload in row[4]]
