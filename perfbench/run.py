"""Benchmark entry point for epibarrier.

    python3 perfbench/run.py --workload build|query|dynamics --seed N \\
        --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  With ``--trace 0`` the run sets up several times (the
median is ``setup_s``), then repeats passes of the workload's timed work for
``--seconds`` seconds (at least three) and reports medians.  With
``--trace 1`` it sets up once with the tracer on, then runs pass 0
untraced and traced in turn (three pairs), and reports the per-layer metrics
of the traced set-up and passes and the tracing overhead (median traced over
median untraced pass time).  ``--smoke`` shrinks every size for the benchmark's own tests.

Output: one JSON report line, then, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""
import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # one thread, set before numpy loads its BLAS
    os.environ[_var] = "1"
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import catalog  # noqa: E402
from tracer import Tracer  # noqa: E402

# workloads and speed import numpy, so they load after the timed package import

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
MODULES = ("core", "analysis", "models", "integrate", "barrier", "policy_sim", "cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["build", "query", "dynamics"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="reduced sizes for self-tests")
    return p.parse_args(argv)


def import_package():
    """Import epibarrier from ``src/`` of this checkout; None if it is absent."""
    src = ROOT / "src"
    if not (src / "epibarrier" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("epibarrier")
    if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        return None
    mods = {m: importlib.import_module(f"epibarrier.{m}") for m in MODULES}
    return types.SimpleNamespace(pkg=pkg, **mods)


def machine_facts(load_start):
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model
            )
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_start": list(load_start),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(wl, run, seconds, import_s):
    """Set-up repetitions, then timed passes until ``seconds`` have elapsed."""
    from speed import REF_NOMINAL_S, Speed

    setup_times = [wl.setup(rep) for rep in range(run.sizes.setup_reps)]
    passes = []
    start = time.perf_counter()
    while len(passes) < run.sizes.min_passes or time.perf_counter() - start < seconds:
        passes.append(wl.run_pass(len(passes)))
    values, fingerprint, samples = wl.summarize(passes)
    ref = run.speed.samples[0]  # taken right after the import
    values["setup_s"] = import_s * Speed.scale(ref, ref) + statistics.median(
        t[0] for t in setup_times
    )
    values["peak_rss_mb"] = peak_rss_mb()
    values["error_rate"] = run.error_rate
    refs = run.speed.samples
    extra = {
        "passes": len(passes),
        "pass_s": [p["pass_s"] for p in passes],
        "setup_rep_s": [t[0] for t in setup_times],
        "raw": {
            "setup_s": import_s + statistics.median(t[1] for t in setup_times),
            "wall_s": statistics.median(p["pass_raw_s"] for p in passes),
            "pass_s": [p["pass_raw_s"] for p in passes],
        },
        "reference": {
            "nominal_s": REF_NOMINAL_S, "samples": len(refs), "median_s": statistics.median(refs),
            "min_s": min(refs), "max_s": max(refs),
        },
    }
    rows = [
        {"name": n, "value": values[n], "unit": u, "better": b, "workload": wl.name,
         "bound": bound, "gated": gated, **({"samples": samples[n]} if n in samples else {})}
        for n, u, b, bound, _, gated in catalog.end_to_end_for(wl.name)
    ]
    result = {n: {"value": values[n], "unit": u} for n, u, *_ in catalog.gated()}
    return rows, result, fingerprint, extra


def traced(wl, run, tracer):
    """One traced set-up, then pass 0 alternately untraced and traced."""
    run.tracer = tracer
    tracer.tag = f"{wl.name}/setup"
    tracer.active = True
    wl.setup(0)
    tracer.active = False
    plain, again = [], []
    for _ in range(run.sizes.min_passes):
        plain.append(wl.run_pass(0))
        tracer.active = True
        again.append(wl.run_pass(0))
        tracer.active = False
    untraced_s = statistics.median(p["pass_s"] for p in plain)
    traced_s = statistics.median(p["pass_s"] for p in again)

    _, fingerprint, _ = wl.summarize(plain[:1])
    layer = tracer.per_layer(run.facts)
    fingerprint["exact_counts"] = {k: layer[k] for k in catalog.EXACT_COUNTS}
    (WORK / "traces").mkdir(exist_ok=True)
    trace_path = WORK / "traces" / f"{wl.name}-seed{run.seed}.json"
    tracer.dump(str(trace_path), {"workload": wl.name, "seed": run.seed})
    extra = {
        "tracing": {
            "pairs": len(plain),
            "untraced_wall_s": untraced_s,
            "traced_wall_s": traced_s,
            "overhead": traced_s / untraced_s,
            "spans_kept": len(tracer.spans),
            "spans_dropped": tracer.dropped_spans,
            "file": str(trace_path.relative_to(ROOT)),
        }
    }
    rows = [
        {"name": n, "value": layer[n], "unit": u, "better": b, "workload": wl.name,
         "moves": moves}
        for n, u, b, moves in catalog.PER_LAYER
    ]
    result = {n: {"value": layer[n], "unit": u} for n, u, _, _ in catalog.PER_LAYER}
    return rows, result, fingerprint, extra


def main(argv=None):
    args = parse_args(argv)
    load_start = os.getloadavg()
    t0 = time.perf_counter()
    eb = import_package()
    import_s = time.perf_counter() - t0
    if eb is None:
        print("perfbench: no epibarrier sources under src/ of this checkout", file=sys.stderr)
        return 2

    import workloads

    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    run = workloads.Run(eb, str(workdir), args.seed, sizes)
    run.speed.sample()
    wl = workloads.WORKLOADS[args.workload](run)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "machine": machine_facts(load_start),
    }
    tracer = Tracer()
    try:
        if args.trace:  # before the capture hook, so cli.assemble_set is traced too
            tracer.install(eb.pkg)
        with run.capture_assembly():
            if args.trace:
                rows, result, fingerprint, extra = traced(wl, run, tracer)
            else:
                rows, result, fingerprint, extra = untraced(wl, run, args.seconds, import_s)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    report.update(extra, metrics=rows, fingerprint=fingerprint, failures=run.failures)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
