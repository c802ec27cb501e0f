"""Static hygiene of the package: no unused imports, no unreferenced private
functions, no unread tolerance fields, one home for the rule that an
imperfect variant has no admissible set, one home for the model's formulas,
the feedback law's slopes, the rate law, the switching law and its cap-layer
rate, a forward simulation that steps in its generated loop, calls no
policy per step and keeps time as the step index, an integrator that takes
only ``Source`` code, an oracle that reads no computed set, a policy module
that reads no robust set argument, a README that names every verdict, every package name, keyword
and positional call the benchmark makes, one step setting,
``Tolerances.step_h``, no BLAS product outside the adjoint's matrix form,
one home for the first integral (no logarithm outside
``models.first_integral`` and ``models.breach_bound``), and no attribute
stored on an object other than ``self``.

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


def test_switching_law_has_one_home():
    # SwitchingLawPolicy holds the law: switching_law is a single return of a
    # call into it, the policy binds the box's ends itself (no process-wide
    # cache), and no module keeps a divide guard, since the free region
    # beta_max*S <= gamma holds every S that gamma/S could not be taken at
    tree = TREES["policy_sim"]
    top = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    law = top["switching_law"]
    body = law.body[1:] if ast.get_docstring(law) else law.body
    assert len(body) == 1 and isinstance(body[0], ast.Return), ast.unparse(law)
    called = body[0].value.func
    assert isinstance(called, ast.Attribute) and called.attr == "u"
    assert isinstance(called.value, ast.Call) and called.value.func.id == "SwitchingLawPolicy"
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert "lru_cache" not in _reads(tree) | attrs | set(_imported(tree))
    # no module defines or reads the guard, in Python code or in Source text
    assert [p.stem for p in PACKAGE.glob("*.py") if "DIVIDE_GUARD_S" in p.read_text()] == []


def _cap_layer_code(tree) -> list[str]:
    """Python code, not Source text, that divides gamma or compares with an end of beta's box."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            operands, names = [node.left], {"gamma"}
        elif isinstance(node, ast.Compare):
            operands, names = [node.left, *node.comparators], {"beta_min", "beta_max"}
        else:
            continue
        read = {getattr(n, "attr", getattr(n, "id", None)) for o in operands for n in ast.walk(o)}
        if read & names:
            found.append(ast.unparse(node))
    return found


def test_cap_layer_rate_has_one_home():
    # the cap-holding rate gamma/S and its clamp to beta_min are written once,
    # as the switching law's Source, which simulate inlines and u compiles;
    # the forward loop's template names no policy
    rules = [
        mod
        for mod, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and "gamma / S" in str(node.value)
    ]
    assert rules == ["policy_sim"]
    assert "gamma / S" in policy_sim.SwitchingLawPolicy._RULE
    assert _cap_layer_code(TREES["policy_sim"]) == []
    assert "Switching" not in policy_sim._FORWARD_TEMPLATE
    text = (PACKAGE / "policy_sim.py").read_text()
    anchor = "        return u.beta\n"
    assert text.count(anchor) == 1
    for line in ("rate = self.scenario.gamma / s", "hit = self.scenario.beta_min < rate"):
        mutated = ast.parse(text.replace(anchor, f"        {line}\n{anchor}"))
        assert len(_cap_layer_code(mutated)) == 1, line


def test_readme_names_exactly_the_verdicts():
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    sentence = re.search(r"Verdicts are (.*?)\.\s", readme, re.S).group(1)
    named = re.findall(r"`([A-Z_]+)`", sentence)
    assert sorted(named) == sorted(v.value for v in Verdict)


def test_barrier_writes_no_model_formula():
    # the rates, the vector field and the adjoint live in models; barrier
    # reads them through vector_field and backward_field only
    assert _reads(TREES["barrier"]) & {"rate_law", "state_rhs", "adjoint_rhs"} == set()


_BLAS_NAMES = {"dot", "inner", "vdot", "matmul", "linalg"}


def _blas_products(tree) -> list[str]:
    """``function:line`` of each BLAS-backed product in ``tree``: ``@``, ``.dot(``,
    ``np.dot``, ``np.inner``, ``np.vdot``, ``np.matmul`` or ``np.linalg``."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            names = {getattr(node, "attr", None)}  # x.dot, np.linalg, ...
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                names |= {*node.module.split("."), *(a.name for a in node.names)}
            if isinstance(getattr(node, "op", None), ast.MatMult) or names & _BLAS_NAMES:
                found.append(f"{getattr(top, 'name', '<module>')}:{node.lineno}")
    return found


def test_no_blas_products():
    # a BLAS kernel is picked per CPU at run time and may fuse multiply and add,
    # so its products can differ in the last bit between machines; the package
    # takes none, but models.adjoint_rhs, the matrix form of the adjoint field
    found = [f"{mod}.{where}" for mod, tree in TREES.items() for where in _blas_products(tree)]
    assert len(found) == 1 and found[0].startswith("models.adjoint_rhs:"), found
    text = (PACKAGE / "barrier.py").read_text()
    anchor = "        sq = f * f\n"
    assert text.count(anchor) == 1
    for line in ("sq = f @ f.T", "sq = np.dot(f, f)", "sq = f.dot(f)", "sq = np.linalg.norm(f)",
                 "from numpy import inner"):
        assert len(_blas_products(ast.parse(text.replace(anchor, f"        {line}\n")))) == 1, line


_LOG_NAMES = {"log", "log1p", "log2", "log10"}


def _log_calls(trees) -> list[str]:
    """``module:statement`` of each logarithm in ``trees``, as code or as source text: a call
    of ``log`` (``np.log``, ``math.log``, ...) or an import of one under any name."""
    found = []
    for mod, tree in trees.items():
        for stmt in tree.body:
            for node in _code_and_source_text(stmt):
                call = getattr(node, "func", None)
                names = {getattr(call, "attr", None), getattr(call, "id", None)}
                if isinstance(node, ast.ImportFrom):
                    names |= {a.name for a in node.names}
                if names & _LOG_NAMES:
                    found.append(f"{mod}:{getattr(stmt, 'name', '<module>')}")
    return found


def test_first_integral_has_one_home():
    # the first integral and its breach bound are the package's only logarithms:
    # models.first_integral and models.breach_bound; the oracle and every other
    # reader call them
    homes = ["models:first_integral", "models:breach_bound"]
    assert _log_calls(TREES) == homes
    text = (PACKAGE / "policy_sim.py").read_text()
    anchor = "            done = hit | (breach_bound(y, *bound) <= thr)\n"
    assert text.count(anchor) == 1
    for line in ("s = y[0]\n            done = hit | (y[1] + s - c - c * np.log(s / c) <= thr)",
                 "done = hit | (y[-1] - math.log1p(y[0]) <= thr)",
                 "from numpy import log as ln",
                 "law = Source('v', 'v = S - c * log(S)')"):
        mutated = dict(TREES, policy_sim=ast.parse(text.replace(anchor, f"            {line}\n")))
        assert _log_calls(mutated) == [*homes, "policy_sim:_breach_matrix"], line


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


def test_simulate_calls_no_policy_per_step():
    # simulate takes a signal, called at segment starts, or a law, inlined:
    # its loop neither calls a policy on the state nor rebinds an input's rates
    template = policy_sim._FORWARD_TEMPLATE
    assert "_rebind" not in template and "_pol(_t" not in template
    assert "_CALL_POLICY" not in vars(policy_sim)
    assert "_input_rates" not in set(_imported(TREES["policy_sim"]))


def _running_times(template: str) -> list[str]:
    """Statements of the forward loop generated from ``template`` that add a step length
    (``_h`` or ``_step``) to a running time."""
    code = integrate._fill(template.format(params="b", i=1, u="_u"), 2, None, LAW=[])
    found = []
    for node in ast.walk(ast.parse(code)):
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            value = node.value
        elif (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.BinOp)
            and isinstance(node.value.op, ast.Add)
            and ast.unparse(node.targets[0]) in map(ast.unparse, (node.value.left, node.value.right))
        ):
            value = node.value
        else:
            continue
        if _reads(value) & {"_h", "_step"}:
            found.append(ast.unparse(node))
    return found


def _step_counts(tree) -> list[str]:
    """Divisions of a horizon by a step length outside ``_step_count``, as code or source text."""
    found = []
    for stmt in (s for s in tree.body if getattr(s, "name", None) != "_step_count"):
        for node in _code_and_source_text(stmt):
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Div, ast.FloorDiv)):
                left, right = ({getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(x)}
                               for x in (node.left, node.right))
                if left & {"t_end", "_t_end"} and right & {"h", "step", "step_h", "_h", "_step"}:
                    found.append(ast.unparse(node))
    return found


def test_simulate_keeps_one_clock():
    # step k of a forward run starts at k*h, as the oracle's lanes step:
    # simulate's loop keeps no running time, and only _step_count turns a
    # horizon into a number of steps
    template = policy_sim._FORWARD_TEMPLATE
    assert _running_times(template) == []
    anchor = "        _k += 1\n"
    assert template.count(anchor) == 1
    for line in ("_t = _t + _h", "_t += _h", "_t = _step + _t"):
        mutated = template.replace(anchor, f"        {line}\n{anchor}")
        assert len(_running_times(mutated)) == 1, line
    assert _step_counts(TREES["policy_sim"]) == []
    text = (PACKAGE / "policy_sim.py").read_text()
    end = "    return Trajectory(samples, breached, max_i, first_breach)\n"
    assert text.count(end) == 1
    for line in ("n = int(t_end / step)", "n = round(t_end / tol.step_h)", "n = t_end // h"):
        mutated = ast.parse(text.replace(end, f"    {line}\n{end}"))
        assert len(_step_counts(mutated)) == 1, line


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
        # accepted and unused: no oracle reads a set, but the workloads still pass both
        (policy_sim.grid_membership_oracle, {"seed", "admissible_set", "mrpi_set"}),
    ):
        assert keywords <= set(inspect.signature(fn).parameters), fn.__name__
    # and the positional call it makes, SwitchingLawPolicy(sc, adm, mrpi), the last unused
    inspect.signature(policy_sim.SwitchingLawPolicy).bind("sc", "adm", "mrpi")


def test_the_oracle_reads_no_set():
    # the oracle judges a set by forward runs alone: its path names neither the
    # switching law nor a computed set nor a membership query, and the oracle
    # functions that call it take no set to fall back on
    top = {n.name: n for n in TREES["policy_sim"].body if isinstance(n, ast.FunctionDef)}
    for name in ("_oracle", "_oracle_trials", "_breach_matrix", "_finish_lane"):
        named = {n.id for n in ast.walk(top[name]) if isinstance(n, ast.Name)}
        assert not named & {"SwitchingLawPolicy", "membership", "ComputedSet"}, name
    for fn in (policy_sim._oracle, policy_sim.membership_oracle):
        assert not {"admissible_set", "mrpi_set"} & set(inspect.signature(fn).parameters)


def _mrpi_set_loads(tree) -> list[str]:
    """Every read of a name or attribute ``mrpi_set``: a parameter is not a read."""
    return [
        f"{node.lineno} {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load)
        and getattr(node, "id", getattr(node, "attr", None)) == "mrpi_set"
    ]


def test_policy_sim_reads_no_robust_set_argument():
    # the switching law reads the admissible set alone and the oracle reads no
    # set: mrpi_set stays in two signatures only because the benchmark passes it
    assert _mrpi_set_loads(TREES["policy_sim"]) == []
    text = (PACKAGE / "policy_sim.py").read_text()
    anchor = "        self.admissible_set = admissible_set\n"
    assert text.count(anchor) == 1
    for line in ("        self.robust = mrpi_set\n", "        robust = self.mrpi_set\n"):
        mutated = ast.parse(text.replace(anchor, anchor + line))
        assert len(_mrpi_set_loads(mutated)) == 1, line


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
