"""Every name a package module imports is used in that module."""

import ast
import pathlib

import pytest

import handopt

MODULES = sorted(pathlib.Path(handopt.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the module's imports that no expression reads; the
    names listed in __all__ count as read, so re-exports pass."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return sorted(set(bound) - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math\nfrom dataclasses import dataclass, field\n"
        "__all__ = ['dataclass']\n"
        "x = math.pi\n"
    )
    assert unused_imports(source) == ["field"]
