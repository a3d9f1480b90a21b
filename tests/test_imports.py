"""What importing the package brings in, and what it leaves running.

A top-level import must be a standard-library module, ``omt2`` itself,
a module of this test directory, or the import name of a distribution
listed in ``pyproject.toml`` (``dependencies`` or the ``test`` extra).
A package that merely happens to be installed does not count.  Neither
the import nor a call leaves a thread behind.  Quadrature nodes have one
builder in the package, so a second panel path cannot come back unseen.
"""

import ast
import importlib.metadata
import os
import pathlib
import re
import subprocess
import sys

import pytest

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


def test_panel_nodes_has_one_caller():
    callers = [scope for path in sorted((ROOT / "src" / "omt2").rglob("*.py"))
               for scope in calls_of("panel_nodes", path)]
    assert callers == ["procedures._column_plan"]


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
print(counts)
"""


def test_no_thread_at_import_or_after_a_call():
    # a fresh interpreter: here omt2 is imported and pytest may hold threads
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[1, 1, 1, 1]"
