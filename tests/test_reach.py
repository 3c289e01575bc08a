"""Every top-level name in ``src/coarselab`` is reached by a CLI command
or by a benchmark step.

The names a command reaches are followed statically with ``ast``: from
``cli.build_parser`` and ``cli.main``, from the code every module runs on
import, and from every ``coarselab`` import in ``perfbench/*.py``.  A name
reaches every top-level name its definition mentions, directly, through a
``from`` import, or as an attribute of an imported module; a class
reaches everything its body mentions.  Nothing may be left, so a new
dead name fails this test; code that only tests call lives in ``tests/``.

A class can still carry dead methods, so every public method or property
of a class in ``src/coarselab`` must also be named by some attribute
access in ``src/`` or ``perfbench/``.  That is read by name alone, which
is loose (any ``x.name`` counts) but never flags a method that is used.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coarselab"


class _Module:
    """The top-level definitions of one source file, and its imports at
    any depth."""

    def __init__(self, tree: ast.Module):
        self.defs: dict[str, ast.AST] = {}
        self.names: dict[str, tuple[str, str]] = {}  # local -> (module, name)
        self.modules: dict[str, str] = {}  # local -> module
        self.runs: list[ast.AST] = []  # executed on import
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                self._import_from(node)
            elif isinstance(node, ast.Import):
                self._import(node)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and not name.id.startswith("__"):
                            self.defs[name.id] = node
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                self.runs.append(node)

    def _import_from(self, node: ast.ImportFrom) -> None:
        if node.level == 1 and node.module:
            for a in node.names:
                self.names[a.asname or a.name] = (node.module, a.name)
        elif node.level == 1 or node.module == "coarselab":
            for a in node.names:
                self.modules[a.asname or a.name] = a.name
        elif node.module and node.module.startswith("coarselab."):
            for a in node.names:
                self.names[a.asname or a.name] = (node.module.split(".", 1)[1], a.name)

    def _import(self, node: ast.Import) -> None:
        for a in node.names:
            if a.name.startswith("coarselab.") and a.asname:
                self.modules[a.asname] = a.name.split(".", 1)[1]

    def mentions(self, node: ast.AST) -> set[tuple[str, str]]:
        """(module, name) of every package name that ``node`` mentions,
        before following re-exports."""
        out = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if sub.id in self.names:
                    out.add(self.names[sub.id])
                elif sub.id in self.defs:
                    out.add((None, sub.id))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                if sub.value.id in self.modules:
                    out.add((self.modules[sub.value.id], sub.attr))
        return out


def _package(extra: dict[str, str]) -> dict[str, _Module]:
    """Every module of the package, with ``extra[module]`` appended to its
    source."""
    return {
        p.stem: _Module(ast.parse(p.read_text() + extra.get(p.stem, "")))
        for p in sorted(PACKAGE.glob("*.py"))
    }


def _resolve(package: dict[str, _Module], module: str, name: str):
    """The module that defines ``name`` as seen from ``module``, following
    ``from`` imports; None for anything outside the package."""
    while module in package:
        mod = package[module]
        if name in mod.defs:
            return module, name
        if name not in mod.names:
            return None
        module, name = mod.names[name]
    return None


def _roots(package: dict[str, _Module]) -> set[tuple[str, str]]:
    found = {("cli", "build_parser"), ("cli", "main")}
    for module, mod in package.items():
        for node in mod.runs:
            found |= {(m or module, n) for m, n in mod.mentions(node)}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        bench = _Module(tree)
        found |= set(bench.names.values())
        found |= {key for key in bench.mentions(tree) if key[0]}
    return found


def _reached(package: dict[str, _Module], roots) -> set[tuple[str, str]]:
    seen: set[tuple[str, str]] = set()
    todo = [r for r in (_resolve(package, m, n) for m, n in roots) if r]
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        module, name = key
        mod = package[module]
        for m, n in mod.mentions(mod.defs[name]):
            target = _resolve(package, m or module, n)
            if target and target not in seen:
                todo.append(target)
    return seen


def _unreached(extra: Optional[dict[str, str]] = None) -> set[str]:
    package = _package(extra or {})
    reached = _reached(package, _roots(package))
    every = {(m, n) for m, mod in package.items() for n in mod.defs}
    return {f"{m}.{n}" for m, n in every - reached}


def _unnamed_members(extra: Optional[dict[str, str]] = None) -> set[str]:
    """Public methods and properties of the package's classes that no
    attribute access in the package or in ``perfbench/`` names."""
    extra = extra or {}
    trees = {p.stem: ast.parse(p.read_text() + extra.get(p.stem, "")) for p in sorted(PACKAGE.glob("*.py"))}
    bench = [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    named = {
        node.attr for tree in [*trees.values(), *bench] for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }
    return {
        f"{module}.{cls.name}.{f.name}"
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for f in cls.body
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not f.name.startswith("_")
        and f.name not in named
    }


def test_every_top_level_name_is_reached():
    assert sorted(_unreached()) == [], "dead names in src/coarselab"


def test_a_new_dead_name_is_caught():
    dead = "\n\ndef _never_called(g):\n    return girth(g)\n"
    assert _unreached({"graph_core": dead}) == {"graph_core._never_called"}


def test_every_public_method_is_named():
    assert sorted(_unnamed_members()) == [], "dead methods or properties in src/coarselab"


def test_a_new_dead_method_is_caught():
    dead = "\n\nclass _Probe:\n    @property\n    def never_read(self):\n        return 0\n"
    assert _unnamed_members({"graph_core": dead}) == {"graph_core._Probe.never_read"}
