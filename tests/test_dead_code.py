"""Every top-level function and class in src/alert_sift is named by the program.

A definition that only tests call is dead code: the program neither runs it
nor exports it. The program is src/ and the benchmark's non-test modules;
a name counts when it appears there as a name, an attribute, an import
(or its alias) or a string constant, since the benchmark's tracer names the
functions it wraps as strings.
"""

from __future__ import annotations

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "alert_sift"


def _named(tree: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            names.add(node.asname or node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_top_level_definition_in_src_is_named_by_the_program():
    program = sorted(_PACKAGE.glob("*.py")) + [
        p for p in sorted((_ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in program}
    named = set().union(*map(_named, trees.values()))
    dead = [
        f"{path.name}:{node.name}"
        for path, tree in trees.items() if path.parent == _PACKAGE
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in named
    ]
    assert dead == []
