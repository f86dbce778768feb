"""No module imports a name it never uses.

An AST scan over ``src/``, ``tests/`` and ``examples/``: every name a
module binds by ``import`` must be referenced somewhere in that module —
in code, in a string annotation, or in its ``__all__``.  Package
``__init__.py`` files (whose imports are the re-export surface) and
``from __future__`` imports are exempt."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "examples")


def _string_annotations(tree):
    """Names referenced inside quoted annotations (``x: "Span"``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                annotations.append(arg.annotation)
            annotations += [args.vararg and args.vararg.annotation]
            annotations += [args.kwarg and args.kwarg.annotation]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        if annotation is None:
            continue
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    parsed = ast.parse(sub.value, mode="eval")
                except SyntaxError:
                    continue
                yield from (n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            for elt in getattr(node.value, "elts", ()):
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    yield elt.value


def unused_imports(path: Path):
    """``(line, name)`` for every imported name *path* never uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_string_annotations(tree))
    used.update(_exported(tree))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for tree in TREES
        for path in sorted((ROOT / tree).rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path)
    ]
    assert not found, "imported but never used:\n" + "\n".join(found)
