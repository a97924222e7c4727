"""Static checks on the source tree, with the standard library only; the
check of the benchmark tracer's names imports the package to resolve them."""

import ast
import importlib
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "benchmark").glob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads.

    A name listed in `__all__` counts as used, as a re-export; `from
    __future__` imports are directives, not names.
    """
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_sees_unused_and_reexported_names():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "import numpy as np\n"
              "from math import pi, tau\n"
              "__all__ = ['tau']\n"
              "print(sys.argv, np.pi)\n")
    assert unused_imports(source) == [(2, "os"), (4, "pi")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_attacks_imports_only_the_standard_library():
    # the attack parameters load without numpy or any other package module
    tree = ast.parse((ROOT / "src" / "twoway_cvqkd" / "attacks.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert modules
    assert [m for m in modules if m.split(".")[0] not in sys.stdlib_module_names] == []


def _defaulted(fn, method: bool) -> list[tuple[int | None, str]]:
    """(position or None if keyword-only, name) of fn's defaulted parameters;
    a method's position does not count `self`."""
    positional = fn.args.posonlyargs + fn.args.args
    offset = 1 if method else 0
    first = len(positional) - len(fn.args.defaults)
    out = [(i - offset, a.arg) for i, a in enumerate(positional) if i >= first]
    out += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if d is not None]
    return out


def unused_knobs(definitions: list[str], callers: list[str]) -> list[str]:
    """`function.parameter` for each defaulted parameter of a function in
    `definitions` that no call in `callers` passes, by keyword or by
    position. Calls are matched on the function or attribute name; a call
    with *args passes every positional parameter, one with **kwargs every
    parameter.
    """
    passed: dict[str, tuple[int, set]] = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            n_pos, keys = passed.get(name, (0, set()))
            if any(isinstance(a, ast.Starred) for a in node.args):
                n_pos = math.inf
            passed[name] = (max(n_pos, len(node.args)),
                            keys | {k.arg for k in node.keywords})
    unused = []
    for source in definitions:
        tree = ast.parse(source)
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)
                   and not any(getattr(d, "id", None) == "staticmethod"
                               for d in f.decorator_list)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            n_pos, keys = passed.get(fn.name, (0, set()))
            for pos, arg in _defaulted(fn, id(fn) in methods):
                if not keys & {arg, None} and (pos is None or pos >= n_pos):
                    unused.append(f"{fn.name}.{arg}")
    return unused


def test_checker_sees_unused_knobs():
    definitions = ("def f(x, a=1, b=2, *, c=3):\n    pass\n"
                   "class K:\n"
                   "    def m(self, t=0.1, u=0.2):\n        pass\n"
                   "    @staticmethod\n"
                   "    def s(t=0.1):\n        pass\n")
    callers = ("f(0, 5)\n"            # passes a by position
               "f(0, c=4)\n"          # passes c by keyword
               "K().m(0.5)\n"         # passes t, not u
               "K.s()\n")
    assert unused_knobs([definitions], [callers]) == ["f.b", "m.u", "s.t"]
    assert unused_knobs([definitions], ["f(*xs)\nK().m(**kw)\nK.s(1)\n"]) == ["f.c"]


def test_no_unused_knobs():
    definitions = [p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))]
    assert unused_knobs(definitions, [p.read_text() for p in CALLERS]) == []


def traced_names(source: str) -> list[tuple[str, str]]:
    """(module, function) of each entry of the `TRACED` list in `source`."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED" for t in node.targets)):
            return [(module, func) for module, func, _ in ast.literal_eval(node.value)]
    raise AssertionError("no TRACED list")


def test_traced_names_resolve():
    # the benchmark's tracer patches these by name and stops at the first
    # one that is missing, in a traced run only
    names = traced_names((ROOT / "benchmark" / "child.py").read_text())
    assert names
    missing = [f"{module}.{func}" for module, func in names
               if not callable(getattr(importlib.import_module(f"twoway_cvqkd.{module}"),
                                       func, None))]
    assert missing == []
