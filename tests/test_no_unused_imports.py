"""Every module-level import in ``src/repro`` is used by its module.

Package ``__init__`` modules are skipped: their imports are re-exports.
A name counts as used when the module names it outside a string literal
or lists it in ``__all__``.  A name used only in a quoted annotation is
reported, so write annotations unquoted (``from __future__ import
annotations``).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(path for path in SRC.rglob("*.py") if path.name != "__init__.py")


def _bound_names(tree):
    """(name, line) for every top-level import binding except ``__future__``."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return used


def unused_imports(source: str):
    tree = ast.parse(source)
    used = _used_names(tree)
    return [(name, line) for name, line in _bound_names(tree) if name not in used]


def test_detector_flags_an_unused_import():
    source = "from typing import List, Optional\nimport os.path\n\n__all__ = ['List']\n"
    assert unused_imports(source) == [("Optional", 1), ("os", 2)]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(SRC)))
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
