"""Source hygiene: every name a library module imports is used in that module."""

import ast
import pathlib

import pytest

import respden

SRC = pathlib.Path(respden.__file__).parent

#: (module, name) imports kept although the module never uses them, each with its reason
ALLOWED_UNUSED = {
    # perfbench/tracer.py wraps datasets.read_wav to time WAV decoding
    ("datasets", "read_wav"),
}


def unused_imports(tree: ast.Module) -> set[str]:
    """Names bound by the module's imports that no other node of it reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


# the package's __init__ imports names only to export them
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    unused = unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert unused == {name for module, name in ALLOWED_UNUSED if module == path.stem}


def test_detects_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os\nfrom math import inf, pi\n"
                     "print(os.sep, pi)\n")
    assert unused_imports(tree) == {"inf"}
