"""The package's import graph: no module imports itself through others, and every import is at
module level, so each dependency is stated once, at the top of the module that has it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kinverify"


def _relative_imports(tree: ast.AST):
    """(node, imported module names) of every ``from .x import`` and ``from . import x``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield node, [node.module] if node.module else [a.name for a in node.names]


def _modules() -> dict[str, ast.AST]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }


def test_package_import_graph_has_no_cycle():
    modules = _modules()
    graph = {
        name: {m for _, names in _relative_imports(tree) for m in names if m in modules}
        for name, tree in modules.items()
    }
    done: set[str] = set()

    def visit(name: str, path: list[str]) -> None:
        if name in path:
            cycle = path[path.index(name) :] + [name]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if name not in done:
            for dep in sorted(graph[name]):
                visit(dep, path + [name])
            done.add(name)

    for name in sorted(graph):
        visit(name, [])


def test_no_package_import_inside_a_function():
    found = []
    for name, tree in _modules().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{name}.{fn.name}" for _ in _relative_imports(fn)]
    assert found == []
