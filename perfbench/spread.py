"""Run one workload over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload query --seeds 1-10 --seconds 15

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
every end-to-end metric of the workload its median and the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound.  ``--out`` keeps the raw
result lines as JSON.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def summary(values):
    """Median and quartile distance over median, as the acceptance rule takes them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{med:14.6g} {(q3 - q1) / med if med else 0.0:11.4f}"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--out")
    args = p.parse_args(argv)
    runs = []
    for seed in seeds_of(args.seeds):
        report, result = one_run(args.workload, seed, args.seconds)
        runs.append({"seed": seed, "report": report, "result": result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{m['name']}={m['value']:.6g}" for m in report["metrics"]), flush=True)
    print(f"{'metric':22} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for row in runs[0]["report"]["metrics"]:
        values = [next(m["value"] for m in r["report"]["metrics"] if m["name"] == row["name"])
                  for r in runs]
        print(f"{row['name']:22} {summary(values)} {str(row['bound']):>6}")
    for name in ("setup_s", "wall_s"):
        values = [r["report"]["raw"][name] for r in runs]
        print(f"{name + ' (raw)':22} {summary(values)}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))


if __name__ == "__main__":
    main()
