import json
import os

import numpy as np
import pytest

from epibarrier import cli
from epibarrier.barrier import assemble_set, membership
from epibarrier.cli import _build_parser, _write_csv, _write_trajectory, load_set, main
from epibarrier.core import SetKind, Tolerances
from epibarrier.policy_sim import monte_carlo

from conftest import (
    SEIR_IMPERFECT_RAW,
    SEIR_PERFECT_RAW,
    SIR_IMPERFECT_RAW,
    SIR_PERFECT_40_RAW,
    SIR_PERFECT_RAW,
)


def _write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_classify_stdout(tmp_path, capsys):
    cfg = _write_config(tmp_path, SIR_PERFECT_RAW)
    assert main(["classify", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tag"] == "BOTH_PROPER"
    assert doc["witnesses"]["beta_min"] == 0.6
    assert "scenario_digest" in doc["manifest"]


def test_classify_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", "--config", str(bad)]) == 2
    assert main(["classify", "--config", str(tmp_path / "missing.json")]) == 2
    cfg = _write_config(tmp_path, dict(SIR_PERFECT_RAW, beta=[0.8, 0.6]))
    assert main(["classify", "--config", cfg]) == 2
    for bad in ({"beta": [True, True]}, {"gamma": "0.5"}, {"i_max": "0.02"}):
        cfg = _write_config(tmp_path, dict(SIR_PERFECT_RAW, **bad))
        assert main(["classify", "--config", cfg]) == 2, bad
        assert "REJECT_FIELDS" in capsys.readouterr().err
    for bad in ([1], "x", []):
        cfg = _write_config(tmp_path, dict(SIR_PERFECT_RAW, tolerances=bad))
        assert main(["classify", "--config", cfg]) == 2, bad
        assert "REJECT_FIELDS" in capsys.readouterr().err


def test_tol_overrides(tmp_path, capsys):
    cfg = _write_config(tmp_path, SIR_PERFECT_RAW)
    assert main(["classify", "--config", cfg, "--tol", "step_h=1e-4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["manifest"]["tolerances"]["step_h"] == 1e-4
    assert main(["classify", "--config", cfg, "--tol", "bogus=1"]) == 2
    assert main(["classify", "--config", cfg, "--tol", "step_h"]) == 2
    assert main(["classify", "--config", cfg, "--tol", "step_h=-1"]) == 2
    for bad in ("step_h=inf", "t_back_max=inf", "boundary_layer_eps=nan"):
        assert main(["classify", "--config", cfg, "--tol", bad]) == 2, bad
    for bad in ({"boundary_layer_eps": 1e400}, {"step_h": True}, {"geom_tol": "1e-9"}):
        cfg = _write_config(tmp_path, dict(SIR_PERFECT_RAW, tolerances=bad))
        assert main(["classify", "--config", cfg]) == 2, bad


def test_barrier_trivial(tmp_path, capsys):
    cfg = _write_config(tmp_path, SIR_PERFECT_40_RAW)
    out = tmp_path / "out"
    assert main(["barrier", "--config", cfg, "--set", "mrpi", "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["trivial"] is True
    doc = json.loads((out / "set.json").read_text())
    assert doc["trivial"] is True
    cset = load_set(str(out / "set.json"))
    assert cset.trivial


def test_barrier_reports_truncations(tmp_path, capsys, sc_seir_imp):
    cfg = _write_config(tmp_path, SEIR_IMPERFECT_RAW)
    argv = ["barrier", "--config", cfg, "--set", "mrpi", "--curves", "8"]
    assert main(argv + ["--tol", "step_h=0.02", "--out", str(tmp_path / "out")]) == 0
    report = json.loads(capsys.readouterr().out)
    tol = Tolerances(step_h=0.02)
    cset = assemble_set(sc_seir_imp, SetKind.MRPI, n_curves=8, tolerances=tol)
    assert report == {
        "trivial": False,
        "n_curves": 8,
        "truncated": sum(c.truncated for c in cset.curves),
    }
    assert report["truncated"] == 0
    # one curve returns to the cap face at tau 0.0118, within a step of 0.02
    # of its tangency point; it ends there like any other cap-face return
    cfg = _write_config(tmp_path, SEIR_PERFECT_RAW, "p.json")
    argv = ["barrier", "--config", cfg, "--set", "mrpi", "--tol", "step_h=0.02"]
    assert main(argv + ["--out", str(tmp_path / "p")]) == 0


def test_bad_set_kind_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path, SIR_IMPERFECT_RAW)
    out = tmp_path / "out"
    rc = main(["barrier", "--config", cfg, "--set", "admissible", "--out", str(out)])
    assert rc == 2


def test_barrier_artifacts_and_round_trip(tmp_path, capsys, mrpi_sir):
    cfg = _write_config(tmp_path, SIR_PERFECT_RAW)
    out = tmp_path / "mrpi"
    assert main(["barrier", "--config", cfg, "--set", "mrpi", "--out", str(out)]) == 0
    capsys.readouterr()
    # curve CSV: header and one switch-flag column, LF endings
    text = (out / "curve_000.csv").read_bytes()
    assert b"\r" not in text
    header = text.decode().splitlines()[0].split(",")
    assert header == ["t", "S", "I", "lambda1", "lambda2", "beta", "switch_flag"]
    # reloaded geometry answers membership identically to the live set
    cset = load_set(str(out / "set.json"))
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(100):
        p = np.array([rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.025)])
        a = membership(cset, p)
        b = membership(mrpi_sir, p)
        assert a.verdict is b.verdict, p
        assert a.distance_estimate == pytest.approx(b.distance_estimate, abs=1e-12)
        checked += 1
    assert checked == 100


def test_load_set_rejects_a_polyline_that_is_not_a_graph(tmp_path, capsys):
    cfg = _write_config(tmp_path, SIR_IMPERFECT_RAW)
    out = tmp_path / "mrpi"
    assert main(["barrier", "--config", cfg, "--set", "mrpi", "--out", str(out)]) == 0
    capsys.readouterr()
    path = out / "set.json"
    doc = json.loads(path.read_text())
    poly = doc["polyline"]
    # two arc vertices swapped: S decreases along the arc
    swapped = dict(doc, polyline=poly[:5] + [poly[6], poly[5]] + poly[7:])
    path.write_text(json.dumps(swapped))
    with pytest.raises(ValueError):
        load_set(str(path))
    # with I scaled by 0.9 the polyline is still a graph in the simplex, so it loads
    lowered = [[s, 0.9 * i] for s, i in poly]
    path.write_text(json.dumps(dict(doc, polyline=lowered)))
    assert load_set(str(path)).polyline.tolist() == lowered
    # shifted by +0.05 in S it is still a graph, but it leaves the simplex
    shifted = [[s + 0.05, i] for s, i in poly]
    path.write_text(json.dumps(dict(doc, polyline=shifted)))
    with pytest.raises(ValueError):
        load_set(str(path))
    nan_vertex = poly[:3] + [[poly[3][0], float("nan")]] + poly[4:]
    path.write_text(json.dumps(dict(doc, polyline=nan_vertex)))
    with pytest.raises(ValueError):
        load_set(str(path))


def test_load_set_rejects_a_corrupted_seir_mesh(tmp_path, capsys):
    cfg = _write_config(tmp_path, SEIR_PERFECT_RAW)
    out = tmp_path / "adm"
    argv = ["barrier", "--config", cfg, "--set", "admissible", "--out", str(out), "--curves"]
    assert main(argv + ["1"]) == 2  # one curve makes no mesh
    assert not out.exists()
    assert main(argv + ["3"]) == 0
    capsys.readouterr()
    path = out / "set.json"
    doc = json.loads(path.read_text())
    mesh = np.array(doc["mesh_nodes"])
    assert mesh.shape == (3, 200, 3)
    i_max = doc["config"]["i_max"]
    nan_node = mesh.copy()
    nan_node[1, 7, 0] = np.nan
    above_cap = mesh.copy()
    above_cap[2, 5, 2] = i_max + 1e-6
    for bad in (nan_node, above_cap, mesh[:1], mesh[:, :, :2], mesh[0]):
        # json writes NaN as a bare token, which json.loads reads back
        path.write_text(json.dumps(dict(doc, mesh_nodes=bad.tolist())))
        with pytest.raises(ValueError):
            load_set(str(path))
    path.write_text(json.dumps(doc))
    assert np.array_equal(load_set(str(path)).mesh_nodes, mesh)


@pytest.fixture(scope="module")
def set_documents(tmp_path_factory):
    """set.json documents of SIR-imperfect M and of SEIR A with two curves."""
    tmp = tmp_path_factory.mktemp("sets")
    docs = {}
    for name, raw, argv in (
        ("sir", SIR_IMPERFECT_RAW, ["--set", "mrpi"]),
        ("seir", SEIR_PERFECT_RAW, ["--set", "admissible", "--curves", "2"]),
    ):
        cfg = _write_config(tmp, raw, f"{name}.json")
        out = tmp / name
        assert main(["barrier", "--config", cfg, "--out", str(out)] + argv) == 0
        docs[name] = json.loads((out / "set.json").read_text())
    return docs


def _drop(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("sir", lambda d: dict(d, tolerances=dict(d["tolerances"], ham_tol=1e-6))),
        ("seir", lambda d: dict(d, tolerances=dict(d["tolerances"], ham_tol=1e-6))),
        ("sir", lambda d: dict(d, tolerances=dict(d["tolerances"], step_h="1e-3"))),
        ("sir", lambda d: dict(d, tolerances=dict(d["tolerances"], geom_tol=True))),
        ("sir", lambda d: dict(d, tolerances=dict(d["tolerances"], step_h=None))),
        ("sir", lambda d: dict(d, tolerances=[1e-3])),
        ("sir", lambda d: _drop(d, "polyline")),
        ("seir", lambda d: _drop(d, "mesh_nodes")),
        ("sir", lambda d: _drop(d, "tolerances")),
        ("sir", lambda d: dict(d, trivial=True)),
        ("seir", lambda d: dict(d, trivial=True)),
        ("sir", lambda d: dict(d, set_kind="admissible", trivial=True)),
    ],
    ids=[
        "unknown-tolerance-sir",
        "unknown-tolerance-seir",
        "string-tolerance",
        "bool-tolerance",
        "null-tolerance",
        "tolerances-list",
        "no-polyline",
        "no-mesh-nodes",
        "no-tolerances",
        "trivial-flag-sir",
        "trivial-flag-seir",
        "admissible-set-of-imperfect",
    ],
)
def test_load_set_rejects_a_malformed_document(set_documents, name, corrupt, tmp_path):
    path = tmp_path / "set.json"
    path.write_text(json.dumps(set_documents[name]))
    load_set(str(path))  # the document as written loads
    path.write_text(json.dumps(corrupt(set_documents[name])))
    with pytest.raises(ValueError):
        load_set(str(path))


def test_load_set_ignores_stored_special_segments(set_documents, tmp_path):
    # the invariant segments are built from the scenario; a stored copy, as
    # older set.json files carry it, is not read
    rng = np.random.default_rng(31)
    path = tmp_path / "set.json"
    nan = float("nan")
    for name, segs in (
        ("sir", [[[nan, nan], [nan, nan]], [[nan, nan], [nan, nan]]]),
        ("seir", [[[nan, nan, nan], [nan, nan, nan]]]),
    ):
        doc = set_documents[name]
        path.write_text(json.dumps(doc))
        fresh = load_set(str(path))
        path.write_text(json.dumps(dict(doc, special_segments=segs)))
        stored = load_set(str(path))
        i_max = fresh.scenario.i_max
        for _ in range(200):
            x = rng.dirichlet(np.ones(fresh.scenario.dim + 1))[:-1]
            x[-1] = min(x[-1], i_max * rng.uniform(0.0, 1.02))
            a, b = membership(fresh, x), membership(stored, x)
            assert a.verdict is b.verdict and a.distance_estimate == b.distance_estimate, x


def test_reused_parser_keeps_no_tolerance_between_calls(tmp_path, capsys):
    cfg = _write_config(tmp_path, SIR_IMPERFECT_RAW)
    argv = ["barrier", "--config", cfg, "--set", "mrpi", "--curves", "2", "--out"]
    assert main(argv + [str(tmp_path / "a"), "--tol", "step_h=0.02"]) == 0
    assert main(argv + [str(tmp_path / "b")]) == 0
    capsys.readouterr()
    steps = [
        json.loads((tmp_path / out / "set.json").read_text())["manifest"]["tolerances"]["step_h"]
        for out in ("a", "b")
    ]
    assert steps == [0.02, Tolerances().step_h]
    assert _build_parser() is _build_parser()


@pytest.mark.parametrize(
    "raw, fixture", [(SIR_PERFECT_RAW, "mrpi_sir"), (SEIR_PERFECT_RAW, "adm_seir")]
)
def test_set_json_is_one_compact_line(raw, fixture, tmp_path, capsys, request):
    fresh = request.getfixturevalue(fixture)
    cfg = _write_config(tmp_path, raw)
    kind = fresh.set_kind.value
    assert main(["barrier", "--config", cfg, "--set", kind, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    text = (tmp_path / "set.json").read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
    stored = load_set(str(tmp_path / "set.json"))
    for name in ("polyline", "mesh_nodes"):
        want, got = getattr(fresh, name), getattr(stored, name)
        assert (got is None) == (want is None), name
        if want is not None:
            assert got.tobytes() == want.tobytes(), name


def test_barrier_set_json_deterministic_bytes(tmp_path, capsys):
    cfg = _write_config(tmp_path, SIR_IMPERFECT_RAW)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    argv = ["barrier", "--config", cfg, "--set", "mrpi", "--out"]
    assert main(argv + [str(out_a)]) == 0
    assert main(argv + [str(out_b)]) == 0
    capsys.readouterr()
    assert (out_a / "set.json").read_bytes() == (out_b / "set.json").read_bytes()

def test_simulate_artifacts(tmp_path, capsys):
    cfg = _write_config(tmp_path, SIR_IMPERFECT_RAW)
    out = tmp_path / "sim"
    rc = main(
        [
            "simulate", "--config", cfg, "--policy", "feedback:gamma=0.4",
            "--x0", "0.8,0.1", "--t-end", "5", "--out", str(out),
        ]
    )
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["breached"] is False
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,S,I,R,gamma"
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(5.0)
    # R column is the reconstructed removed mass
    assert last[3] == pytest.approx(1.0 - last[1] - last[2], abs=1e-12)


def test_simulate_deterministic_bytes(tmp_path, capsys):
    cfg = _write_config(tmp_path, SIR_PERFECT_RAW)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    argv = [
        "simulate", "--config", cfg, "--policy", "constant:beta=0.8",
        "--x0", "0.8,0.012", "--t-end", "20", "--out",
    ]
    assert main(argv + [str(out_a)]) == 0
    assert main(argv + [str(out_b)]) == 0
    capsys.readouterr()
    for name in ("summary.json", "trajectory.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert json.loads((out_a / "summary.json").read_text())["first_breach_time"] > 0.0


def test_simulate_zero_horizon(tmp_path, capsys):
    cfg = _write_config(tmp_path, SIR_PERFECT_RAW)
    out = tmp_path / "sim0"
    rc = main(
        [
            "simulate", "--config", cfg, "--policy", "constant:beta=0.7",
            "--x0", "0.5,0.01", "--t-end", "0", "--out", str(out),
        ]
    )
    assert rc == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 2  # header plus the initial sample


def test_simulate_ends_at_a_horizon_just_past_a_step(tmp_path, capsys):
    # this horizon lies about 1.1e-14 d past step 1,798's end: the count is
    # 1,799 steps, and the last, clipped, ends at the horizon
    cfg = _write_config(tmp_path, SIR_PERFECT_RAW)
    out = tmp_path / "sim"
    rc = main(
        [
            "simulate", "--config", cfg, "--policy", "constant:beta=0.7",
            "--x0", "0.8,0.001", "--t-end", "17.98000000000001", "--out", str(out),
        ]
    )
    assert rc == 0
    last = (out / "trajectory.csv").read_text().splitlines()[-1]
    assert float(last.split(",")[0]) == 17.98000000000001


def test_simulate_input_errors(tmp_path, capsys):
    cfg = _write_config(tmp_path, SIR_PERFECT_RAW)
    base = ["simulate", "--config", cfg, "--out", str(tmp_path / "x")]
    assert main(base + ["--policy", "constant:beta=0.9", "--x0", "0.5,0.01"]) == 2
    assert main(base + ["--policy", "nonsense", "--x0", "0.5,0.01"]) == 2
    assert main(base + ["--policy", "constant:beta=0.7", "--x0", "0.5"]) == 2
    assert main(base + ["--policy", "constant:beta=0.7", "--x0", "0.9,0.3"]) == 2
    for x0 in ("nan,0.01", "0.5,nan", "inf,0.0", "0.5,-inf", "-0.2,0.01", "-inf,0.0"):
        assert main(base + ["--policy", "constant:beta=0.7", "--x0", x0]) == 2, x0
    for t_end in ("inf", "nan", "-5", "10001"):
        argv = ["--policy", "constant:beta=0.7", "--x0", "0.5,0.01", "--t-end", t_end]
        assert main(base + argv) == 2, t_end
    # each free channel set once and inside its box, no other channel set, and
    # no parameter for a perfect variant's feedback policy or for the switching law
    for policy in (
        "constant:beta=0.7,gamma=5", "feedback:beta=5", "feedback:bogus=1", "switching:beta=5",
    ):
        argv = ["--policy", policy, "--x0", "0.5,0.01", "--t-end", "1"]
        assert main(base + argv) == 2, policy
    cfg = _write_config(tmp_path, SIR_IMPERFECT_RAW, "imperfect.json")
    base = ["simulate", "--config", cfg, "--out", str(tmp_path / "x")]
    for policy in (
        "feedback:gamma=99", "feedback:gamma=-1", "feedback", "feedback:beta=0.7",
        "feedback:gamma=0.4,beta=0.7", "constant:gamma=nan", "constant:eta=0.1",
    ):
        argv = ["--policy", policy, "--x0", "0.8,0.1", "--t-end", "1"]
        assert main(base + argv) == 2, policy


@pytest.mark.parametrize(
    "raw, x0", [(SEIR_PERFECT_RAW, "0.7,0.01,0.02"), (SIR_IMPERFECT_RAW, "0.8,0.1")]
)
def test_simulate_switching_refuses_other_variants(raw, x0, tmp_path, capsys, monkeypatch):
    # the switching law is the perfect SIR model's: another variant is an input
    # error, refused before any set is assembled (SEIR perfect built two sets and
    # then exited 3 with a ValueError)
    built = []
    monkeypatch.setattr(cli, "assemble_set", lambda *args, **kwargs: built.append(args[1]))
    cfg = _write_config(tmp_path, raw)
    out = tmp_path / "sw"
    argv = ["simulate", "--config", cfg, "--policy", "switching", "--x0", x0, "--out", str(out)]
    assert main(argv) == 2
    assert "switching" in capsys.readouterr().err
    assert built == [] and not out.exists()


def test_simulate_switching_assembles_only_the_admissible_set(tmp_path, capsys, monkeypatch):
    # the switching law reads the admissible set alone, so no robust set is built for it
    built = []

    def counting_assemble(*args, **kwargs):
        built.append(args[1])
        return assemble_set(*args, **kwargs)

    monkeypatch.setattr(cli, "assemble_set", counting_assemble)
    cfg = _write_config(tmp_path, SIR_PERFECT_RAW)
    out = tmp_path / "sw"
    argv = ["simulate", "--config", cfg, "--policy", "switching", "--x0", "0.8,0.012"]
    assert main(argv + ["--t-end", "20", "--out", str(out)]) == 0
    assert built == [SetKind.ADMISSIBLE]
    assert json.loads((out / "summary.json").read_text())["breached"] is False


def test_montecarlo_deterministic_bytes(tmp_path, capsys):
    cfg = _write_config(tmp_path, SIR_IMPERFECT_RAW)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    argv = [
        "montecarlo", "--config", cfg, "--x0", "0.8,0.1",
        "--n", "3", "--seed", "11", "--t-end", "20",
    ]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    for name in ("trial_000.csv", "trial_001.csv", "trial_002.csv", "aggregate.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    agg = json.loads((out_a / "aggregate.json").read_text())
    assert agg["n_trials"] == 3
    assert isinstance(agg["n_breached"], int)


def test_montecarlo_steps_at_the_tolerance_step(tmp_path, capsys, sc_sir_imp):
    # --tol step_h is the step of every trial, and the manifest records it
    cfg = _write_config(tmp_path, SIR_IMPERFECT_RAW)
    out_d, out_c = tmp_path / "default", tmp_path / "coarse"
    argv = [
        "montecarlo", "--config", cfg, "--x0", "0.8,0.1",
        "--n", "2", "--seed", "11", "--t-end", "5",
    ]
    assert main(argv + ["--out", str(out_d)]) == 0
    assert main(argv + ["--tol", "step_h=0.02", "--out", str(out_c)]) == 0
    capsys.readouterr()
    agg = json.loads((out_c / "aggregate.json").read_text())
    assert agg["manifest"]["tolerances"]["step_h"] == 0.02
    tol = Tolerances(step_h=0.02)
    trajs = monte_carlo(sc_sir_imp, [0.8, 0.1], 2, 11, t_end=5.0, tolerances=tol)
    for idx, traj in enumerate(trajs):
        name, want = f"trial_{idx:03d}.csv", tmp_path / f"want_{idx:03d}.csv"
        _write_trajectory(str(want), sc_sir_imp, traj)
        assert (out_c / name).read_bytes() == want.read_bytes()
        assert (out_c / name).read_bytes() != (out_d / name).read_bytes()


def test_montecarlo_empty_and_guards(tmp_path, capsys):
    cfg = _write_config(tmp_path, SIR_IMPERFECT_RAW)
    out = tmp_path / "mc0"
    argv = [
        "montecarlo", "--config", cfg, "--x0", "0.8,0.1",
        "--n", "0", "--t-end", "5", "--out", str(out),
    ]
    assert main(argv) == 0
    agg = json.loads((out / "aggregate.json").read_text())
    assert agg["n_trials"] == 0 and agg["max_I"] is None
    # perfect variants have no disturbance to sweep
    cfg_p = _write_config(tmp_path, SIR_PERFECT_RAW, "p.json")
    assert (
        main(
            [
                "montecarlo", "--config", cfg_p, "--x0", "0.8,0.01",
                "--n", "2", "--out", str(out),
            ]
        )
        == 2
    )
    for bad in (
        ["--n", "-2"], ["--seed", "-1"], ["--t-end", "inf"], ["--t-end", "nan"], ["--t-end", "-5"]
    ):
        assert main(argv + bad) == 2, bad


def test_oracle_grid_artifacts(tmp_path, capsys):
    cfg = _write_config(tmp_path, SIR_IMPERFECT_RAW)
    out = tmp_path / "oracle"
    rc = main(
        [
            "oracle", "--config", cfg, "--set", "mrpi",
            "--grid", "6", "--out", str(out),
        ]
    )
    assert rc == 0
    summary = json.loads((out / "oracle_summary.json").read_text())
    assert summary["agreement_rate"] >= 0.98
    lines = (out / "oracle_grid.csv").read_text().splitlines()
    assert lines[0] == "S,I,verdict,oracle_agrees"
    assert len(lines) == summary["n_points"] + 1
    # the grid's I = 0 row lies on the boundary; those points are counted,
    # not compared
    n_boundary = sum(line.split(",")[2] == "BOUNDARY" for line in lines[1:])
    assert n_boundary > 0
    assert summary["n_boundary"] == n_boundary
    assert summary["n_compared"] == summary["n_points"] - n_boundary
    printed = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert printed == {"agreement_rate": summary["agreement_rate"], "n_boundary": n_boundary}


def test_oracle_seir_requires_points(tmp_path, capsys):
    cfg = _write_config(tmp_path, SEIR_PERFECT_RAW)
    out = tmp_path / "o3"
    rc = main(["oracle", "--config", cfg, "--set", "mrpi", "--out", str(out)])
    assert rc == 2
    # the grid size is checked before any set is built
    cfg = _write_config(tmp_path, SIR_IMPERFECT_RAW, "sir.json")
    for grid in ("0", "-3"):
        argv = ["oracle", "--config", cfg, "--set", "mrpi", "--grid", grid, "--out", str(out)]
        assert main(argv) == 2, grid


@pytest.mark.parametrize("kind", ["admissible", "mrpi"])
def test_oracle_negative_seed_is_an_input_error(kind, tmp_path, capsys):
    # the mrpi oracle raised in numpy's SeedSequence (exit 3); the perfect SIR
    # admissible oracle draws no seeded signal and recorded seed -1 in its manifest
    cfg = _write_config(tmp_path, SIR_PERFECT_RAW)
    out = tmp_path / "os"
    argv = ["oracle", "--config", cfg, "--set", kind, "--seed", "-1", "--out", str(out)]
    assert main(argv) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_admissible_assembles_only_the_checked_set(tmp_path, capsys, monkeypatch):
    # the oracle judges the admissible set by forward runs alone, so no second
    # set is built for it
    built = []

    def counting_assemble(*args, **kwargs):
        built.append(args[1])
        return assemble_set(*args, **kwargs)

    monkeypatch.setattr(cli, "assemble_set", counting_assemble)
    cfg = _write_config(tmp_path, SIR_PERFECT_RAW)
    out = tmp_path / "oa"
    assert main(["oracle", "--config", cfg, "--set", "admissible", "--out", str(out)]) == 0
    assert built == [SetKind.ADMISSIBLE]
    assert json.loads((out / "oracle_summary.json").read_text())["agreement_rate"] >= 0.98


def test_oracle_points_sir(tmp_path, capsys):
    cfg = _write_config(tmp_path, SIR_IMPERFECT_RAW)
    out = tmp_path / "op"
    argv = ["oracle", "--config", cfg, "--set", "mrpi", "--out", str(out), "--points"]
    assert main(argv + ["0.5,0.002"]) == 0
    lines = (out / "oracle_points.csv").read_text().splitlines()
    assert lines[0] == "S,I,verdict,oracle_agrees"
    assert len(lines) == 2
    assert not (out / "oracle_grid.csv").exists()
    assert json.loads((out / "oracle_summary.json").read_text())["n_points"] == 1
    assert main(argv + ["0.5,0.002,0.0"]) == 2
    for points in (
        "nan,0.01;-0.2,0.01", "0.5,0.002;nan,0.01", "0.5,-0.01", "0.9,0.3", "-0.2,0.01"
    ):
        assert main(argv + [points]) == 2, points


def test_oracle_points_deterministic_bytes(tmp_path, capsys):
    cfg = _write_config(tmp_path, SEIR_IMPERFECT_RAW)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    argv = [
        "oracle", "--config", cfg, "--set", "mrpi",
        "--points", "0.684,0.147,0.044;0.3,0.1,0.02", "--out",
    ]
    assert main(argv + [str(out_a)]) == 0
    assert main(argv + [str(out_b)]) == 0
    capsys.readouterr()
    for name in ("oracle_points.csv", "oracle_summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert json.loads((out_a / "oracle_summary.json").read_text())["n_points"] == 2


def test_barrier_csv_switch_rows(tmp_path, capsys, sc_seir_imp):
    # a curve with one eta switch flags one row, and the row after it repeats
    # that row's time and state under the other extremal eta
    cfg = _write_config(tmp_path, SEIR_IMPERFECT_RAW)
    out = tmp_path / "out"
    argv = ["barrier", "--config", cfg, "--set", "mrpi", "--curves", "4"]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads((out / "set.json").read_text())
    switching = [c["file"] for c in doc["curves"] if len(c["switch_times"]) == 1]
    assert switching
    for fname in switching:
        lines = (out / fname).read_text().splitlines()
        cols = lines[0].split(",")
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        flag, eta = rows[:, cols.index("switch_flag")], rows[:, cols.index("eta")]
        (k,) = np.flatnonzero(flag == 1.0)
        t_state = [cols.index(c) for c in ("t", "S", "E", "I")]
        assert rows[k + 1, t_state].tolist() == rows[k, t_state].tolist()
        assert (eta[k], eta[k + 1]) == (sc_seir_imp.eta_max, sc_seir_imp.eta_min)


def test_write_csv_one_format_matches_per_value_formatting(tmp_path):
    # rows of the first row's types go through one % format; a row of other
    # types (an int where a float was, a float where a str was) falls back to
    # formatting each value; both give %.17g for floats and str() otherwise
    rows = [
        [-0.1, np.float64(1.0 / 3.0), 2, True, "x", None],
        [1e-300, np.float64(-0.0), 0, False, "y,z", None],
        [5, 0.1, 2.5, 1, 0.7, "n"],
        [float("inf"), np.float64(float("nan")), -3, True, "", None],
    ]
    path = tmp_path / "t.csv"
    _write_csv(str(path), ["a", "b", "c", "d", "e", "f"], iter(rows))
    per_value = [
        ",".join("%.17g" % float(v) if isinstance(v, float) else str(v) for v in row)
        for row in rows
    ]
    assert path.read_text() == "\n".join(["a,b,c,d,e,f", *per_value]) + "\n"
    assert per_value[2] == "5,0.10000000000000001,2.5,1,0.69999999999999996,n"
