"""Command-line front end: scenario JSON in, CSV/JSON artifacts out.

Subcommands: classify, barrier, simulate, montecarlo, oracle.  Every command
takes --config pointing at a JSON scenario document and optional --tol
key=value overrides; outputs are written atomically (temp file + rename) with
a run manifest so reruns with identical inputs are bit-reproducible.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .analysis import EmptyTangentError, classify, is_trivial
from .barrier import ComputedSet, Verdict, assemble_set, membership
from .core import Scenario, ScenarioError, SetKind, Tolerances, _as_number, validate_scenario
from .models import BadChannelError, InputVec, active_channels, check_set_kind
from .policy_sim import (
    AffineFeedbackPolicy,
    ConstantPolicy,
    SwitchingLawPolicy,
    T_END_MAX,
    grid_membership_oracle,
    monte_carlo,
    simulate,
)

__all__ = ["main", "load_set"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COMPUTE = 3


class InputError(Exception):
    """User-facing input problem mapped to exit code 2."""


# ---------------------------------------------------------------------------
# io helpers
# ---------------------------------------------------------------------------


def _write_atomic(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: list[str], rows) -> None:
    """Floats as ``%.17g``, other values as ``str``: by one ``%`` format built from
    the first row's column types, or value by value for a row of other types."""
    lines, types = [",".join(header)], None
    for row in rows:
        if types is None:
            types = list(map(type, row))
            fmt = ",".join("%.17g" if issubclass(t, float) else "%s" for t in types)
        if list(map(type, row)) == types:
            lines.append(fmt % tuple(row))
        else:
            lines.append(",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_json(path: str, doc) -> None:
    # compact: without indent, json.dumps runs on the C encoder
    _write_atomic(path, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _manifest(command: str, raw_config: dict, tol: Tolerances, seed) -> dict:
    digest = hashlib.sha256(
        json.dumps(raw_config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    return {
        "command": command,
        "scenario_digest": digest,
        "tolerances": dataclasses.asdict(tol),
        "seed": seed,
        "version": __version__,
    }


def _load_config(args) -> tuple[dict, Scenario, Tolerances]:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"REJECT_FIELDS: config is not valid JSON: {exc}")
    scenario = validate_scenario(raw)
    tol_raw = raw.get("tolerances")
    if not isinstance(tol_raw, (dict, type(None))):
        raise InputError(f"REJECT_FIELDS: tolerances must be an object, got {tol_raw!r}")
    tol_fields = {k: _as_number(v, k) for k, v in (tol_raw or {}).items()}
    for item in args.tol or []:
        if "=" not in item:
            raise InputError(f"--tol expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        tol_fields[key.strip()] = val
    known = {f.name for f in dataclasses.fields(Tolerances)}
    extra = set(tol_fields) - known
    if extra:
        raise InputError(f"unknown tolerance fields: {sorted(extra)}")
    try:
        tol = Tolerances(**{k: float(v) for k, v in tol_fields.items()})
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad tolerance override: {exc}")
    return raw, scenario, tol


def _parse_set_kind(scenario: Scenario, name: str) -> SetKind:
    kind = SetKind(name)
    check_set_kind(scenario.variant, kind)
    return kind


def _parse_state(scenario: Scenario, text: str, flag: str = "--x0") -> np.ndarray:
    try:
        x = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise InputError(f"bad {flag} {text!r}")
    if x.shape != (scenario.dim,):
        raise InputError(
            f"{flag} needs {scenario.dim} components for {scenario.variant.value}"
        )
    # negated, so that NaN and infinite components fail too
    if not (np.min(x) >= 0.0 and np.sum(x) <= 1.0 + 1e-12):
        raise InputError(f"{flag} {text!r} not a finite state in the unit simplex")
    return x


def _check_range(value, flag: str, lo: float, hi: float = np.inf) -> None:
    if not lo <= value <= hi:  # negated, so that NaN fails too
        raise InputError(f"{flag} {value} outside [{lo:g}, {hi:g}]")


def _state_columns(scenario: Scenario) -> list[str]:
    return ["S", "I"] if scenario.variant.is_sir else ["S", "E", "I"]


# ---------------------------------------------------------------------------
# set.json export / import
# ---------------------------------------------------------------------------


def _set_document(cset: ComputedSet, raw_config: dict, curve_files, manifest) -> dict:
    doc = {
        "config": raw_config,
        "set_kind": cset.set_kind.value,
        "trivial": cset.trivial,
        "manifest": manifest,
        "tolerances": dataclasses.asdict(cset.tolerances),
    }
    if cset.trivial:
        return doc
    up = cset.usable
    doc["usable_part"] = {"s_hi": up.s_hi, "e_cap_const": up.e_cap_const}
    doc["curves"] = [
        {
            "file": fname,
            "tangent_point": c.tangent_point.tolist(),
            "termination": c.termination.label,
            "switch_times": [[t, ch.value] for t, ch in c.switch_times],
            "truncated": c.truncated,
        }
        for fname, c in zip(curve_files, cset.curves)
    ]
    if cset.polyline is not None:
        doc["polyline"] = cset.polyline.tolist()
    if cset.mesh_nodes is not None:
        doc["mesh_nodes"] = cset.mesh_nodes.tolist()
    return doc


def load_set(path: str) -> ComputedSet:
    """Rebuild a queryable ComputedSet from set.json; ValueError if it is malformed."""
    with open(path) as fh:
        doc = json.load(fh)
    try:
        scenario = validate_scenario(doc["config"])
        tol = Tolerances(**{k: _as_number(v, k) for k, v in doc["tolerances"].items()})
        kind = SetKind(doc["set_kind"])
        if doc["trivial"] != is_trivial(scenario, kind):
            raise ValueError(f"{path}: 'trivial' disagrees with the classification")
        key = "polyline" if scenario.variant.is_sir else "mesh_nodes"
        geometry = {} if doc["trivial"] else {key: np.array(doc[key], dtype=float)}
        return ComputedSet(scenario, kind, tolerances=tol, **geometry)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path} is not a set document: {type(exc).__name__}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    raw, scenario, tol = _load_config(args)
    result = classify(scenario)
    doc = {
        "tag": result.tag.value,
        "witnesses": result.witnesses,
        "manifest": _manifest("classify", raw, tol, None),
    }
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def _curve_rows(scenario, curve):
    chans = active_channels(scenario.variant)
    columns = (
        curve.tau.tolist(),
        curve.states.tolist(),
        curve.adjoints.tolist(),
        curve.inputs,
        curve.is_switch.tolist(),
    )
    for tau, x, lam, u, switch in zip(*columns):
        yield [-tau, *x, *lam, *(u.get(ch) for ch in chans), int(switch)]


def cmd_barrier(args) -> int:
    raw, scenario, tol = _load_config(args)
    kind = _parse_set_kind(scenario, args.set)
    if args.curves < 2 and not scenario.variant.is_sir:
        raise InputError("--curves must be at least 2 for a SEIR mesh")
    cset = assemble_set(scenario, kind, n_curves=args.curves, tolerances=tol)
    os.makedirs(args.out, exist_ok=True)
    curve_files = []
    lam_cols = [f"lambda{k + 1}" for k in range(scenario.dim)]
    in_cols = [ch.value for ch in active_channels(scenario.variant)]
    header = ["t"] + _state_columns(scenario) + lam_cols + in_cols + ["switch_flag"]
    for idx, curve in enumerate(cset.curves):
        fname = f"curve_{idx:03d}.csv"
        _write_csv(os.path.join(args.out, fname), header, _curve_rows(scenario, curve))
        curve_files.append(fname)
    manifest = _manifest("barrier", raw, tol, None)
    doc = _set_document(cset, raw, curve_files, manifest)
    _write_json(os.path.join(args.out, "set.json"), doc)
    report = {
        "trivial": cset.trivial,
        "n_curves": len(cset.curves),
        "truncated": sum(c.truncated for c in cset.curves),
    }
    print(json.dumps(report))
    return EXIT_OK


def _build_policy(args, scenario, tol):
    spec_text = args.policy
    name, _, rest = spec_text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            try:
                params[key.strip()] = float(val)
            except ValueError:
                raise InputError(f"bad policy parameter {item!r}")
    if name in ("constant", "feedback"):
        try:
            values = InputVec(**params)
        except TypeError as exc:
            raise InputError(f"bad {name} policy: {exc}")
        policy = ConstantPolicy if name == "constant" else AffineFeedbackPolicy
        return policy(scenario, values)
    if name == "switching":
        if params:
            raise InputError("the switching policy takes no parameters")
        adm = assemble_set(scenario, SetKind.ADMISSIBLE, tolerances=tol)
        mrpi = assemble_set(scenario, SetKind.MRPI, tolerances=tol)
        return SwitchingLawPolicy(scenario, adm, mrpi)
    raise InputError(f"unknown policy {name!r}")


def _write_trajectory(path: str, scenario: Scenario, traj) -> None:
    chans = active_channels(scenario.variant)
    header = ["t"] + _state_columns(scenario) + ["R"] + [ch.value for ch in chans]
    rows = (
        [t] + [float(v) for v in x] + [1.0 - float(np.sum(x))] + [u.get(ch) for ch in chans]
        for t, x, u in traj.samples
    )
    _write_csv(path, header, rows)


def cmd_simulate(args) -> int:
    raw, scenario, tol = _load_config(args)
    _check_range(args.t_end, "--t-end", 0.0, T_END_MAX)
    x0 = _parse_state(scenario, args.x0)
    policy = _build_policy(args, scenario, tol)
    traj = simulate(scenario, policy, x0, args.t_end, tol)
    os.makedirs(args.out, exist_ok=True)
    _write_trajectory(os.path.join(args.out, "trajectory.csv"), scenario, traj)
    summary = {
        "breached": traj.breached,
        "max_I": traj.max_I,
        "first_breach_time": traj.first_breach_time,
        "manifest": _manifest("simulate", raw, tol, None),
    }
    _write_json(os.path.join(args.out, "summary.json"), summary)
    print(json.dumps({"breached": traj.breached, "max_I": traj.max_I}))
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    raw, scenario, tol = _load_config(args)
    if scenario.variant.is_perfect:
        raise InputError(
            "montecarlo needs an imperfect variant (uncertain disturbance)"
        )
    _check_range(args.n, "--n", 0)
    _check_range(args.t_end, "--t-end", 0.0, T_END_MAX)
    x0 = _parse_state(scenario, args.x0)
    trajs = monte_carlo(scenario, x0, args.n, args.seed, t_end=args.t_end, tolerances=tol)
    os.makedirs(args.out, exist_ok=True)
    for idx, traj in enumerate(trajs):
        _write_trajectory(os.path.join(args.out, f"trial_{idx:03d}.csv"), scenario, traj)
    aggregate = {
        "n_trials": len(trajs),
        "n_breached": int(sum(bool(t.breached) for t in trajs)),
        "max_I": max((t.max_I for t in trajs), default=None),
        "manifest": _manifest("montecarlo", raw, tol, args.seed),
    }
    _write_json(os.path.join(args.out, "aggregate.json"), aggregate)
    print(json.dumps({"n_breached": aggregate["n_breached"]}))
    return EXIT_OK


def cmd_oracle(args) -> int:
    raw, scenario, tol = _load_config(args)
    kind = _parse_set_kind(scenario, args.set)
    if args.points is not None:
        pts = [
            _parse_state(scenario, chunk, "--points")
            for chunk in args.points.split(";")
            if chunk.strip()
        ]
        pts = np.array(pts, dtype=float).reshape(-1, scenario.dim)
        csv_name = "oracle_points.csv"
    elif scenario.variant.is_sir:
        _check_range(args.grid, "--grid", 1)
        s_axis = np.linspace(0.0, 1.0, args.grid)
        i_axis = np.linspace(0.0, scenario.i_max, args.grid)
        pts = np.array([(s, i) for s in s_axis for i in i_axis if s + i <= 1.0])
        csv_name = "oracle_grid.csv"
    else:
        raise InputError("the grid oracle is two-dimensional; use --points for SEIR")
    cset = assemble_set(scenario, kind, tolerances=tol)
    adm = mrpi = None
    if kind is SetKind.ADMISSIBLE and scenario.variant.is_sir:
        adm = cset
        mrpi = assemble_set(scenario, SetKind.MRPI, tolerances=tol)
    oracle_inside = grid_membership_oracle(
        scenario,
        kind,
        pts,
        seed=args.seed,
        admissible_set=adm,
        mrpi_set=mrpi,
        tolerances=tol,
    )
    results = []
    for p, o_in in zip(pts, oracle_inside):
        verd = membership(cset, p).verdict
        results.append((p, verd, (verd is Verdict.INSIDE) == bool(o_in)))
    return _write_oracle(args, raw, scenario, tol, csv_name, results)


def _write_oracle(args, raw, scenario, tol, csv_name, results) -> int:
    """Write the per-point CSV and oracle_summary.json from (point, verdict, agrees).

    BOUNDARY verdicts claim nothing: they are written as agreeing, left out
    of the agreement rate and counted as ``n_boundary``.
    """
    n_compared = n_agree = 0
    rows = []
    for p, verd, agrees in results:
        if verd in (Verdict.INSIDE, Verdict.OUTSIDE):
            n_compared += 1
            n_agree += agrees
        else:
            agrees = True
        rows.append([float(v) for v in p] + [verd.value, int(agrees)])
    os.makedirs(args.out, exist_ok=True)
    _write_csv(
        os.path.join(args.out, csv_name),
        _state_columns(scenario) + ["verdict", "oracle_agrees"],
        rows,
    )
    rate = 1.0 if n_compared == 0 else n_agree / n_compared
    n_boundary = len(results) - n_compared
    summary = {
        "n_points": len(results),
        "n_compared": n_compared,
        "n_boundary": n_boundary,
        "agreement_rate": rate,
        "manifest": _manifest("oracle", raw, tol, args.seed),
    }
    _write_json(os.path.join(args.out, "oracle_summary.json"), summary)
    print(json.dumps({"agreement_rate": rate, "n_boundary": n_boundary}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epibarrier",
        description="Cap-preserving set computation and simulation for "
        "SIR/SEIR epidemic models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument(
            "--tol",
            action="append",
            metavar="KEY=VALUE",
            help="tolerance override (repeatable)",
        )

    p = sub.add_parser("classify", help="evaluate the triviality inequalities")
    common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("barrier", help="compute set boundary curves")
    common(p)
    p.add_argument("--set", required=True, choices=["admissible", "mrpi"])
    p.add_argument("--curves", type=int, default=30)
    p.add_argument("--out", default=".")
    p.set_defaults(fn=cmd_barrier)

    p = sub.add_parser("simulate", help="forward simulation under a policy")
    common(p)
    p.add_argument("--policy", required=True, help="constant:...|feedback[:...]|switching")
    p.add_argument("--x0", required=True, help="comma-separated initial state")
    p.add_argument("--t-end", type=float, default=500.0, dest="t_end")
    p.add_argument("--out", default=".")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("montecarlo", help="seeded disturbance sweep")
    common(p)
    p.add_argument("--x0", required=True)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t-end", type=float, default=500.0, dest="t_end")
    p.add_argument("--out", default=".")
    p.set_defaults(fn=cmd_montecarlo)

    p = sub.add_parser("oracle", help="brute-force membership cross-check")
    common(p)
    p.add_argument("--set", required=True, choices=["admissible", "mrpi"])
    p.add_argument("--grid", type=int, default=30)
    p.add_argument("--points", help="semicolon-separated states to check instead of the grid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(fn=cmd_oracle)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a separate value that starts with '-' and is not a plain
    # number, such as "--x0 -0.2,0.01", for an option and exits; written as
    # "--x0=-0.2,0.01" it reaches _parse_state, which rejects it with code 2
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] in ("--x0", "--points") and not argv[i + 1].startswith("--"):
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, ScenarioError, BadChannelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EmptyTangentError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except Exception as exc:  # compute failures
        print(f"compute error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
