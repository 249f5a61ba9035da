"""Source hygiene: every name a library module imports is used in that module,
and the README's Tests table has one row per test file."""

import ast
import pathlib
import re

import pytest

import respden

SRC = pathlib.Path(respden.__file__).parent
TESTS = pathlib.Path(__file__).parent

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


def table_mismatch(readme: str, files: list[str]) -> tuple[set[str], set[str]]:
    """(files without a row, rows without a file) of the README's Tests table,
    whose rows open with a file name in backticks."""
    section = readme.split("\n## Tests\n", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE))
    return set(files) - rows, rows - set(files)


def test_readme_tests_table_names_exactly_the_test_files():
    readme = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    assert table_mismatch(readme, [p.name for p in TESTS.glob("*.py")]) == (set(), set())


def test_detects_a_test_file_without_a_row():
    readme = ("# r\n\n## Tests\n\n| file | what it guards |\n|---|---|\n| `test_a.py` | a |\n\n"
              "## CLI\n\n| `test_b.py` | b |\n")
    assert table_mismatch(readme, ["test_a.py", "test_b.py"]) == ({"test_b.py"}, set())
