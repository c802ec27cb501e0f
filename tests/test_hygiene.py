"""Static hygiene of the package: no unused imports, no unreferenced private
functions, no unread tolerance fields, one home for the rule that an
imperfect variant has no admissible set, one home for the model's formulas,
the feedback law's slopes, the rate law and the switching law, a forward
simulation that steps in its generated loop, an integrator that takes only
``Source`` code, a
README that names every verdict, every package name and keyword the benchmark
reads, one step setting, ``Tolerances.step_h``, and no attribute stored on an
object other than ``self``.

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


def _loads(node, name: str) -> int:
    return sum(
        isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
        for n in ast.walk(node)
    )


def test_switching_law_has_one_home():
    # SwitchingLawPolicy holds the law: switching_law is a single return of a
    # call into it, the policy binds its clamped ends itself (no process-wide
    # cache), and only the policy reads the divide guard
    tree = TREES["policy_sim"]
    top = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    law, policy = top["switching_law"], top["SwitchingLawPolicy"]
    body = law.body[1:] if ast.get_docstring(law) else law.body
    assert len(body) == 1 and isinstance(body[0], ast.Return), ast.unparse(law)
    called = body[0].value.func
    assert isinstance(called, ast.Attribute) and called.attr == "u"
    assert isinstance(called.value, ast.Call) and called.value.func.id == "SwitchingLawPolicy"
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert "lru_cache" not in _reads(tree) | attrs | set(_imported(tree))
    guard = "DIVIDE_GUARD_S"
    assert _loads(policy, guard) == sum(_loads(t, guard) for t in TREES.values()) > 0


def test_readme_names_exactly_the_verdicts():
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    sentence = re.search(r"Verdicts are (.*?)\.\s", readme, re.S).group(1)
    named = re.findall(r"`([A-Z_]+)`", sentence)
    assert sorted(named) == sorted(v.value for v in Verdict)


def test_barrier_writes_no_model_formula():
    # the rates, the vector field and the adjoint live in models; barrier
    # reads them through vector_field and backward_field only
    assert _reads(TREES["barrier"]) & {"rate_law", "state_rhs", "adjoint_rhs"} == set()


def test_feedback_slopes_are_written_once():
    # the slope coefficients 2.0 * (lo - hi) of the affine feedback on I,
    # for beta and for gamma, are written in models.rate_source and nowhere else
    homes = [
        f"{mod}:{fn.name}"
        for mod, tree in TREES.items()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and isinstance(node.left, ast.Constant)
        and node.left.value == 2.0
        and isinstance(node.right, ast.BinOp)
        and isinstance(node.right.op, ast.Sub)
    ]
    assert homes == ["models:rate_source"] * 2


def _is_interpolation(node) -> bool:
    # lo * r + hi * (1.0 - r), or lo * (1.0 - r) + hi * r: a rate between its box ends
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    sides = (node.left, node.right)
    factors = sorted(
        (ast.unparse(side.right) for side in sides if isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)),
        key=len,
    )
    return len(factors) == 2 and factors[1] == f"1.0 - {factors[0]}"


def _code_and_source_text(stmt):
    """The nodes of ``stmt`` and of every string constant in it that parses as Python."""
    for node in ast.walk(stmt):
        yield node
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                yield from ast.walk(ast.parse(node.value))
            except SyntaxError:
                pass


def _rate_law_homes(trees) -> list[str]:
    """The top-level statements that write the rate law's interpolation, as code or as source."""
    return [
        f"{mod}:{getattr(stmt, 'name', None) or ast.unparse(stmt.targets[0])}"
        for mod, tree in trees.items()
        for stmt in tree.body
        if any(map(_is_interpolation, _code_and_source_text(stmt)))
    ]


def test_rate_law_is_written_once():
    # the closed-loop rates' arithmetic is one source text, models._LAW, which
    # every field inlines; a float law written out again anywhere, as code or
    # as a second source text, is a second home
    assert _rate_law_homes(TREES) == ["models:_LAW"]
    law = "def law(r, lo, hi):\n    return lo * r + hi * (1.0 - r)\n"
    for mod, extra in (("policy_sim", law), ("models", law), ("barrier", f"TEXT = {law!r}\n")):
        mutated = dict(TREES, **{mod: ast.parse((PACKAGE / f"{mod}.py").read_text() + extra)})
        assert len(_rate_law_homes(mutated)) == 2, mod


def _simulate_steppers(tree) -> set[str]:
    """The per-step integrators that policy_sim.simulate reads."""
    sim = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "simulate")
    attrs = {n.attr for n in ast.walk(sim) if isinstance(n, ast.Attribute)}
    return (_reads(sim) | attrs) & {"rk4_step", "vector_field"}


def test_simulate_steps_in_its_generated_loop():
    # simulate inlines the field in one generated loop: it calls neither
    # rk4_step nor vector_field (the cap crossing is refined on the compiled source)
    assert _simulate_steppers(TREES["policy_sim"]) == set()
    text = (PACKAGE / "policy_sim.py").read_text()
    end = "    return Trajectory(samples, breached, max_i, first_breach)\n"
    assert text.count(end) == 1
    for call in ("rk4_step(rhs, t, x, h)", "vector_field(scenario, u)", "integrate.rk4_step(rhs, t, x, h)"):
        mutated = ast.parse(text.replace(end, f"    x = {call}\n{end}"))
        assert _simulate_steppers(mutated) == {call.split("(")[0].split(".")[-1]}, call


def _called_code_paths(tree) -> list[str]:
    """Where integrate's loop builder or integrate_until calls code instead of inlining a
    Source: a ``_fn``/``_post`` name in their text, or an ``isinstance(..., Source)`` test."""
    found = []
    names = ("_segment_source", "integrate_until")
    for fn in (f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name in names):
        found += [f"{fn.name}: {m[0]}" for m in re.finditer(r"\b_(fn|post)\b", ast.unparse(fn))]
        found += [
            f"{fn.name}: {ast.unparse(node)}"
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) == "isinstance"
            and "Source" in _reads(node.args[1])
        ]
    return found


def test_integrator_takes_sources_only():
    # the right-hand side, events and post-step map are inlined as sources:
    # no branch calls a plain function from the generated loop
    assert _called_code_paths(TREES["integrate"]) == []
    text = (PACKAGE / "integrate.py").read_text()
    for anchor, line in (
        ("    return _fill(\n", "    accept = ['`_y#`, = _post((`_z#`,))']\n"),
        ("    return _fill(\n", "    start.append(f'_F{i} = _fn{i}(_t, _y)')\n"),
        ("    tol = tolerances or Tolerances()\n", "    inline = isinstance(rhs, Source)\n"),
    ):
        assert text.count(anchor) == 1, anchor
        mutated = ast.parse(text.replace(anchor, line + anchor))
        assert len(_called_code_paths(mutated)) == 1, line


def test_names_the_benchmark_reads_exist():
    # perfbench/tracer.py wraps each (module, name) of its TRACED list with
    # getattr, and each Class.method through its own class's __dict__, so an
    # inherited method raises KeyError there; perfbench/workloads.py reads
    # models.lie_derivative_g and BarrierCurve.step_h: deleting any of them
    # breaks every benchmark run
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
            holder, owner = owner, getattr(owner, part, None)
        if not callable(owner) or part not in vars(holder):
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


def test_attributes_are_stored_on_self_only():
    # state that belongs to an object is made by that object (a cache stored
    # on another object from outside is how two homes for one rule start)
    stores = [
        f"{mod}:{node.lineno} {ast.unparse(node)}"
        for mod, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, (ast.Store, ast.Del))
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]
    setattrs = [
        f"{mod}:{node.lineno}"
        for mod, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("setattr", "delattr")
    ]
    assert stores == [] and setattrs == []
