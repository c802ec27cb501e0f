"""Static hygiene of the package: no unused imports, no unreferenced private
functions, no unread tolerance fields, one home for the rule that an
imperfect variant has no admissible set, one home for the model's formulas, a
README that names every verdict, every package name and keyword the benchmark
reads, and one step setting, ``Tolerances.step_h``.

The modules are parsed with ``ast``, so no linter is needed.  An imported
name is used when its own module reads it or lists it in ``__all__``; a
module-level private function is used when any module of the package reads
its name; a ``Tolerances`` field is used when a module other than ``core``
reads it as an attribute.
"""
import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

from epibarrier import integrate, models, policy_sim
from epibarrier.barrier import BarrierCurve, Verdict
from epibarrier.core import Tolerances

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "epibarrier"
TREES = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _reads(tree) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


def _exported(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _imported(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_no_unused_imports():
    unused = [
        f"{mod}: {name}"
        for mod, tree in TREES.items()
        for name in _imported(tree)
        if name not in _reads(tree) | _exported(tree)
    ]
    assert unused == []


def test_no_unreferenced_private_functions():
    read_anywhere = set().union(*(_reads(tree) for tree in TREES.values()))
    unreferenced = [
        f"{mod}: {node.name}"
        for mod, tree in TREES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and node.name not in read_anywhere
    ]
    assert unreferenced == []


def test_every_tolerance_field_is_read():
    read_attrs = {
        node.attr
        for mod, tree in TREES.items()
        if mod != "core"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [f.name for f in dataclasses.fields(Tolerances) if f.name not in read_attrs]
    assert unread == []


def _guarded_raises(node, guards=frozenset()):
    """Yield each ``raise`` under ``node`` with the names its enclosing ``if`` tests read."""
    if isinstance(node, ast.Raise):
        yield node, guards
    for child in ast.iter_child_nodes(node):
        inner = guards
        if isinstance(node, ast.If) and child is not node.test:
            inner = guards | {
                n.attr if isinstance(n, ast.Attribute) else n.id
                for n in ast.walk(node.test)
                if isinstance(n, (ast.Attribute, ast.Name))
            }
        yield from _guarded_raises(child, inner)


def test_admissible_set_rule_has_one_home():
    # "an imperfect variant has no admissible set": a raise guarded by a test
    # of both the variant's perfection and the admissible set kind
    homes = [
        f"{mod}:{node.lineno}"
        for mod, tree in TREES.items()
        for node, guards in _guarded_raises(tree)
        if {"is_perfect", "ADMISSIBLE"} <= guards
    ]
    assert len(homes) == 1 and homes[0].startswith("models:"), homes


def test_readme_names_exactly_the_verdicts():
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    sentence = re.search(r"Verdicts are (.*?)\.\s", readme, re.S).group(1)
    named = re.findall(r"`([A-Z_]+)`", sentence)
    assert sorted(named) == sorted(v.value for v in Verdict)


def test_barrier_writes_no_model_formula():
    # the rates, the vector field and the adjoint live in models; barrier
    # reads them through vector_field and backward_field only
    assert _reads(TREES["barrier"]) & {"rates", "state_rhs", "adjoint_rhs"} == set()


def test_names_the_benchmark_reads_exist():
    # perfbench/tracer.py wraps each (module, name) of its TRACED list with
    # getattr, and perfbench/workloads.py reads models.lie_derivative_g and
    # BarrierCurve.step_h: deleting any of them breaks every benchmark run
    tracer = ast.parse((PACKAGE.parent.parent / "perfbench" / "tracer.py").read_text())
    traced = next(
        ast.literal_eval(node.value)
        for node in tracer.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    )
    assert traced
    missing = []
    for mod_name, attr in traced:
        owner = importlib.import_module(f"epibarrier.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{mod_name}.{attr}")
    assert missing == []
    assert callable(models.lie_derivative_g)
    assert "step_h" in {f.name for f in dataclasses.fields(BarrierCurve)}
    # the keywords perfbench/workloads.py passes to the forward runs
    for fn, keywords in (
        (policy_sim.simulate, {"record_every"}),
        (policy_sim.monte_carlo, {"seed", "t_end", "h"}),
        (policy_sim.grid_membership_oracle, {"seed", "admissible_set", "mrpi_set"}),
    ):
        assert keywords <= set(inspect.signature(fn).parameters), fn.__name__


def test_one_step_setting():
    # every integrator steps at Tolerances.step_h; monte_carlo keeps an h
    # keyword only because the benchmark passes it
    for fn in (
        policy_sim.simulate,
        policy_sim.grid_membership_oracle,
        policy_sim.membership_oracle,
        integrate.integrate_until,
    ):
        assert "h" not in inspect.signature(fn).parameters, fn.__name__
    step_constants = [
        f"{mod}: {t.id}"
        for mod, tree in TREES.items()
        for node in tree.body
        if isinstance(node, ast.Assign)
        for t in node.targets
        if isinstance(t, ast.Name) and t.id.endswith("_STEP_H")
    ]
    assert step_constants == []
