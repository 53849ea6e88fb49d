"""The package's module graph: every import sits at module top, and the
level, term and zoo layers import only the layers below them."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "parlevel"
MODULES = sorted(PACKAGE.glob("*.py"))

# module -> package modules it must not import
FORBIDDEN = {
    "plevels": {"relations", "definability", "terms", "zoo", "suites", "cli"},
    "zoo": {"config", "plevels", "relations", "definability", "terms", "suites"},
    "terms": {"plevels", "relations", "definability", "zoo", "suites", "cli"},
}


def _package_imports(path: Path) -> set[str]:
    """Package modules imported by `from .x import ...` or `from . import x`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_package_modules_found():
    assert {"plevels", "zoo", "relations", "definability"} <= {p.stem for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_function_local_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    local = [
        f"line {inner.lineno}: {ast.unparse(inner)}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert not local, local


@pytest.mark.parametrize("name", sorted(FORBIDDEN))
def test_layer_imports_only_lower_layers(name):
    assert not _package_imports(PACKAGE / f"{name}.py") & FORBIDDEN[name]
