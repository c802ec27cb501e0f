"""Span tracer wrapped around epibarrier's public functions.

``Tracer.install`` replaces each traced function in every package module
that holds it (including names re-imported elsewhere, such as
``policy_sim.membership`` or ``cli.assemble_set``) by a wrapper that records
a span: name, start, end, parent span and a workload/rep tag.  Self time is
the span's duration minus the time its child spans cover, computed as each
span closes.

Spans are kept in memory and written out by ``Tracer.dump``.  Functions
called once per step or per query (``HOT``) are aggregated per name and
parent instead of being stored one by one, so a traced run holds a few
thousand spans, not millions.
"""
from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

# (module, function) pairs traced; methods are written Class.method
TRACED = [
    ("core", "validate_scenario"),
    ("analysis", "classify"),
    ("analysis", "is_trivial"),
    ("analysis", "usable_part"),
    ("analysis", "tangent_set"),
    ("analysis", "backward_filter"),
    ("models", "state_rhs"),
    ("models", "adjoint_matrix"),
    ("models", "adjoint_rhs"),
    ("models", "switch_value"),
    ("models", "extremal_value"),
    ("models", "lie_derivative_g"),
    ("integrate", "rk4_step"),
    ("integrate", "integrate_until"),
    ("barrier", "select_extremal_input"),
    ("barrier", "compute_barrier_curve"),
    ("barrier", "resample_by_arclength"),
    ("barrier", "assemble_set"),
    ("barrier", "membership"),
    ("policy_sim", "simulate"),
    ("policy_sim", "switching_law"),
    ("policy_sim", "monte_carlo"),
    ("policy_sim", "grid_membership_oracle"),
    ("policy_sim", "membership_oracle"),
    ("policy_sim", "ConstantPolicy.u"),
    ("policy_sim", "AffineFeedbackPolicy.u"),
    ("policy_sim", "SwitchingLawPolicy.u"),
    ("policy_sim", "ExtremalBangPolicy.u"),
    ("cli", "main"),
    ("cli", "load_set"),
]

MODULES = ("core", "analysis", "models", "integrate", "barrier", "policy_sim", "cli")

HOT_PREFIXES = ("models.", "integrate.rk4_step", "barrier.membership", "policy_sim.")
HOT_EXCEPT = (
    "policy_sim.simulate",
    "policy_sim.monte_carlo",
    "policy_sim.grid_membership_oracle",
    "policy_sim.membership_oracle",
)

MAX_SPANS = 100_000


@functools.lru_cache(maxsize=None)
def _is_hot(name: str) -> bool:
    return name.startswith(HOT_PREFIXES) and name not in HOT_EXCEPT


class Tracer:
    """Collects spans and per-name aggregates while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.tag = ""
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.child_calls = Counter()  # (parent name, child name) -> calls
        self.facts = Counter()  # counts read off results (steps, samples, ...)
        self.spans = []  # (id, name, start, end, parent id, tag)
        self.dropped_spans = 0
        self._stack = []  # open frames: [id, name, start, child time]
        self._next_id = 1
        self._restore = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name, name_of=None, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = name_of(args) if name_of else name
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, span, 0.0, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            frame[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._close(frame, parent, end)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped_by_tracer__ = fn
        return wrapper

    def _close(self, frame, parent, end):
        span_id, name, start, child = frame
        dur = end - start
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        if parent is not None:
            parent[3] += dur
            self.child_calls[(parent[1], name)] += 1
        if not _is_hot(name):
            if len(self.spans) < MAX_SPANS:
                pid = parent[0] if parent is not None else 0
                self.spans.append((span_id, name, start, end, pid, self.tag))
            else:
                self.dropped_spans += 1

    # -- installation ----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every TRACED function wherever the package's modules hold it."""
        import importlib

        self.package = package
        mods = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        mods.append(package)
        for mod_name, attr in TRACED:
            home = importlib.import_module(f"{package.__name__}.{mod_name}")
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, name))
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(orig, name, *_HOOKS.get(name, (None, None)))
            for mod in mods:
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapped)
                    self._restore.append((mod, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def dump(self, path: str, meta: dict) -> None:
        doc = {
            "meta": meta,
            "aggregates": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total_s[name],
                    "self_s": self.self_s[name],
                }
                for name in sorted(self.calls)
            },
            "child_calls": [
                [p, c, n] for (p, c), n in sorted(self.child_calls.items())
            ],
            "dropped_spans": self.dropped_spans,
            "span_fields": ["id", "name", "start", "end", "parent", "tag"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)

    # -- derived per-layer metrics ------------------------------------------

    def per_layer(self, facts: dict) -> dict:
        """Per-layer metric values; ``facts`` adds the benchmark's own checks."""
        c, s, kids, f = self.calls, self.self_s, self.child_calls, self.facts
        rk4_in_integrate = kids[("integrate.integrate_until", "integrate.rk4_step")]
        refine = rk4_in_integrate - f["integrate.steps"]
        mem_sir, mem_seir = "barrier.membership.sir", "barrier.membership.seir"
        mem_calls = c[mem_sir] + c[mem_seir]
        law = "policy_sim.SwitchingLawPolicy.u"
        law_mem = kids[(law, mem_sir)] + kids[(law, mem_seir)]
        policy_u = [n for n in c if n.startswith("policy_sim.") and n.endswith(".u")]
        sim_steps = sum(kids[("policy_sim.simulate", n)] for n in policy_u)
        sim_steps -= c["policy_sim.simulate"]  # one evaluation before the loop
        return {
            "analysis.self_s": sum(v for n, v in s.items() if n.startswith("analysis.")),
            "models.state_rhs.calls": c["models.state_rhs"],
            "models.state_rhs.self_s": s["models.state_rhs"],
            "models.switch_value.calls": c["models.switch_value"],
            "integrate.integrate_until.calls": c["integrate.integrate_until"],
            "integrate.integrate_until.self_s": s["integrate.integrate_until"],
            "integrate.steps": f["integrate.steps"],
            "integrate.rk4_step.calls": c["integrate.rk4_step"],
            "integrate.rk4_step.self_s": s["integrate.rk4_step"],
            "integrate.refine_share": _ratio(refine, rk4_in_integrate),
            "barrier.compute_barrier_curve.calls": c["barrier.compute_barrier_curve"],
            "barrier.compute_barrier_curve.self_s": s["barrier.compute_barrier_curve"],
            "barrier.curve_samples": f["barrier.curve_samples"],
            "barrier.curve_retries": f["barrier.curve_retries"],
            "barrier.curves_truncated": f["barrier.curves_truncated"],
            "barrier.max_hamiltonian": facts.get("max_hamiltonian", 0.0),
            "barrier.max_tangency": facts.get("max_tangency", 0.0),
            "barrier.resample_by_arclength.calls": c["barrier.resample_by_arclength"],
            "barrier.resample_by_arclength.self_s": s["barrier.resample_by_arclength"],
            "barrier.assemble_set.self_s": s["barrier.assemble_set"],
            "barrier.membership.calls": mem_calls,
            "barrier.membership.sir.self_s": s[mem_sir],
            "barrier.membership.seir.self_s": s[mem_seir],
            "barrier.verdict.boundary_share": _ratio(f["verdict.BOUNDARY"], mem_calls),
            "barrier.verdict.unknown_share": _ratio(f["verdict.UNKNOWN"], mem_calls),
            "policy_sim.simulate.calls": c["policy_sim.simulate"],
            "policy_sim.simulate.self_s": s["policy_sim.simulate"],
            "policy_sim.sim_steps": sim_steps,
            "policy_sim.switching_law.evals": c[law],
            "policy_sim.switching_law.miss_share": _ratio(law_mem, c[law]),
            "policy_sim.grid_membership_oracle.self_s": s["policy_sim.grid_membership_oracle"],
            "policy_sim.oracle.point_schedules": f["policy_sim.oracle.point_schedules"]
            + kids[("policy_sim.grid_membership_oracle", "policy_sim.simulate")],
            "policy_sim.monte_carlo.self_s": s["policy_sim.monte_carlo"],
            "cli.main.self_s": s["cli.main"],
            "cli.bytes_written": facts.get("cli_bytes_written", 0),
            "cli.load_set.self_s": s["cli.load_set"],
        }


def _ratio(num, den):
    return num / den if den else 0.0


# -- result hooks: counts read off a traced call's return value ---------------


def _after_integrate(tracer, args, kwargs, result):
    tracer.facts["integrate.steps"] += result.n_steps


def _after_curve(tracer, args, kwargs, curve):
    tol = kwargs.get("tolerances") or (args[3] if len(args) > 3 else None)
    step_h = (tol or tracer.package.core.Tolerances()).step_h
    tracer.facts["barrier.curve_samples"] += len(curve.samples)
    tracer.facts["barrier.curve_retries"] += int(curve.step_h < step_h)
    tracer.facts["barrier.curves_truncated"] += int(curve.truncated)


def _membership_name(args):
    is_sir = args[0].scenario.variant.is_sir
    return "barrier.membership.sir" if is_sir else "barrier.membership.seir"


def _after_membership(tracer, args, kwargs, result):
    tracer.facts[f"verdict.{result.verdict.value}"] += 1


def _after_grid_oracle(tracer, args, kwargs, result):
    set_kind = args[1]
    n_trials = kwargs.get("n_trials", 8)
    schedules = 1 if set_kind.value == "admissible" else 2 + n_trials
    tracer.facts["policy_sim.oracle.point_schedules"] += len(result) * schedules


_HOOKS = {
    "integrate.integrate_until": (None, _after_integrate),
    "barrier.compute_barrier_curve": (None, _after_curve),
    "barrier.membership": (_membership_name, _after_membership),
    "policy_sim.grid_membership_oracle": (None, _after_grid_oracle),
}
