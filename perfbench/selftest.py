"""The benchmark's own tests (kept out of the package's test collection).

    python3 -m pytest -q perfbench/selftest.py

They run the workloads at smoke size, so the whole file takes about a minute.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

import catalog
import run as bench_run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def smoke(workload, trace, seed=3):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", "0.5", "--trace", str(trace), "--smoke",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_benchmark_json_matches_catalog():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(catalog.WORKLOADS)
    assert doc["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound, _, _ in catalog.gated()
    ]
    assert doc["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, _ in catalog.PER_LAYER
    ]


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit_direction_and_workload(workload, trace):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    report, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = doc["per_layer"] if trace else doc["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    rows = {m["name"]: m for m in report["metrics"]}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        row = rows[m["name"]]
        assert (row["unit"], row["better"], row["workload"]) == (m["unit"], m["better"], workload)
    if not trace:
        for name, unit, better, _, owners, _ in catalog.END_TO_END:
            if workload in owners:
                assert (rows[name]["unit"], rows[name]["better"]) == (unit, better)
        assert rows["error_rate"]["value"] == 0.0


def test_traced_counts_repeat_exactly():
    first, _ = smoke("build", 1)
    second, _ = smoke("build", 1)
    counts = first["fingerprint"]["exact_counts"]
    assert counts == second["fingerprint"]["exact_counts"]
    assert counts["integrate.rk4_step.calls"] > 0


def test_corrupted_reload_input_raises_error_rate(tmp_path, monkeypatch):
    eb = bench_run.import_package()
    load_set = eb.cli.load_set

    def corrupting_load_set(path):
        doc = json.loads(Path(path).read_text())
        if "polyline" in doc:
            doc["polyline"] = [[s + 0.05, i] for s, i in doc["polyline"]]
        else:
            doc["mesh_nodes"] = [[[s, e, i * 0.9] for s, e, i in c] for c in doc["mesh_nodes"]]
        Path(path).write_text(json.dumps(doc))
        return load_set(path)

    monkeypatch.setattr(eb.cli, "load_set", corrupting_load_set)
    run = workloads.Run(eb, str(tmp_path), 5, workloads.SMOKE)
    build = workloads.Build(run)
    with run.capture_assembly():
        build.setup(0)
        build.run_pass(0)
    assert run.error_rate > 0.0
    assert any(f.startswith("reload") for f in run.failures)
