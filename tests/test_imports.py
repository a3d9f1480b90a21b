"""What importing the package brings in, and what it leaves running.

A top-level import must be a standard-library module, ``omt2`` itself,
a module of this test directory, or the import name of a distribution
listed in ``pyproject.toml`` (``dependencies`` or the ``test`` extra).
A package that merely happens to be installed does not count.  Neither
the import nor a call leaves a thread behind.  Quadrature nodes have one
builder in the package, so a second panel path cannot come back unseen;
both level-alpha thresholds are solved through one calibration helper;
and a rule's per-coordinate decision parts have one caller besides
``decide_z``.  No module imports another module's underscore name.  Each
error class is raised in the package and has its own exit-code row, so a
class with no outcome of its own cannot come back unseen.
"""

import ast
import importlib.metadata
import os
import pathlib
import re
import subprocess
import sys

import pytest

import omt2.cli
import omt2.errors

tomllib = pytest.importorskip("tomllib")   # standard library from 3.11

ROOT = pathlib.Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"
SOURCES = (ROOT / "src" / "omt2", TESTS)


def top_level_imports(path: pathlib.Path) -> set[str]:
    """First component of each absolute import in one file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _dist_key(name: str) -> str:
    return re.sub(r"[-_.]+", "_", name).lower()


def declared_distributions() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    reqs = project["dependencies"] + project["optional-dependencies"]["test"]
    return {_dist_key(re.match(r"[A-Za-z0-9_.-]+", r).group()) for r in reqs}


def test_every_import_is_declared():
    declared = declared_distributions()
    providers = importlib.metadata.packages_distributions()
    local = {"omt2"} | {p.stem for p in TESTS.rglob("*.py")}
    undeclared = []
    for folder in SOURCES:
        for path in sorted(folder.rglob("*.py")):
            for name in sorted(top_level_imports(path)):
                if name in sys.stdlib_module_names or name in local:
                    continue
                dists = {_dist_key(d) for d in providers.get(name, [name])}
                if not dists & declared:
                    undeclared.append(f"{path.relative_to(ROOT)}: {name}")
    assert undeclared == []


def calls_of(name: str, path: pathlib.Path) -> list[str]:
    """Dotted scope ('module.Class.function') of every call of ``name``,
    plain or as an attribute, in one file."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                if getattr(f, "id", None) == name or getattr(f, "attr", None) == name:
                    found.append(scope)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def callers_in_src(name: str) -> list[str]:
    return [scope for path in sorted((ROOT / "src" / "omt2").rglob("*.py"))
            for scope in calls_of(name, path)]


def test_panel_nodes_has_one_caller():
    assert callers_in_src("panel_nodes") == ["procedures._column_plan"]


def test_both_thresholds_share_one_calibration():
    # one bracket helper and one tolerance-holding root solve for both builds
    assert callers_in_src("bisect") == ["procedures._calibrate"]
    builds = ["procedures.build_bittman", "procedures.build_omt"]
    assert sorted(set(callers_in_src("_bracket_end"))) == builds
    assert sorted(callers_in_src("_calibrate")) == builds


def test_mc_estimate_has_one_caller():
    # one Monte Carlo pass decides every rule and model of a power estimate
    assert callers_in_src("mc_estimate") == ["power_design.mc_powers"]


def test_parts_have_one_caller_besides_decide_z():
    # decide_z is the one decision path; only mc_powers' per-rule event
    # takes a rule's per-coordinate parts apart, to form each vector's
    # parts once
    assert sorted(set(callers_in_src("_parts"))) == [
        "power_design.mc_powers.decide", "procedures.Procedure.decide_z"]


def test_each_error_class_is_raised_and_has_one_exit_row():
    # one error type per outcome: every class is raised, each sits in one
    # exit-code row, and no two that the library raises (all but the CLI's
    # ConfigError) share a row; Omt2Error is the base and the last row
    classes = [c for c in vars(omt2.errors).values() if isinstance(c, type)
               and c.__module__ == "omt2.errors" and c is not omt2.errors.Omt2Error]
    raised = {}     # class name -> modules that raise it
    for path in sorted((ROOT / "src" / "omt2").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                f = node.exc.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                raised.setdefault(name, set()).add(path.stem)
    assert [c.__name__ for c in classes if c.__name__ not in raised] == []
    rows = [types if isinstance(types, tuple) else (types,)
            for types, _, _ in omt2.cli._EXIT_CODES]
    assert {c.__name__: sum(c in row for row in rows) for c in classes} == {
        c.__name__: 1 for c in classes}
    assert rows[-1] == (omt2.errors.Omt2Error,)
    library = [next(i for i, row in enumerate(rows) if c in row) for c in classes
               if raised[c.__name__] - {"cli"}]
    assert len(library) == len(set(library)) == 3


def test_no_module_imports_a_private_name():
    # a name that another module needs is public where it is defined
    private = []
    for path in sorted((ROOT / "src" / "omt2").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                private += [f"{path.name}: {a.name}" for a in node.names
                            if a.name.startswith("_")]
    assert private == []


THREAD_PROBE = """
import threading
counts = [threading.active_count()]
import omt2
counts.append(threading.active_count())
rule, model = omt2.hommel(0.025), omt2.AlternativeModel(-2.0, -2.5)
omt2.evaluate_power(rule, model)
counts.append(threading.active_count())
omt2.mc_power(rule, model, omt2.McConfig(reps=100_000))
counts.append(threading.active_count())
omt2.mc_powers([rule, omt2.bonferroni(0.025)], model, omt2.McConfig(reps=100_000, seed=1))
counts.append(threading.active_count())
print(counts)
"""


def test_no_thread_at_import_or_after_a_call():
    # a fresh interpreter: here omt2 is imported and pytest may hold threads
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[1, 1, 1, 1, 1]"
