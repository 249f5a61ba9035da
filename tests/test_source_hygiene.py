"""Source hygiene: every name a library module imports is used in that module,
every top-level function and class of the library has a caller in the library
or the demos, and the README's Tests table has one row per test file."""

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


#: (module, name) top-level defs kept although no library module or demo calls them
ALLOWED_UNCALLED = {
    # only tests call it, and perfbench/tracer.py wraps it as datasets.read_wav
    ("wavio", "read_wav"),
}


def uncalled_defs(modules: dict[str, ast.Module], callers: list[ast.Module]) -> set[tuple[str, str]]:
    """(module, name) of each top-level function or class of `modules` whose name no
    node of `modules` or `callers` reads. A name counts when read bare or as an
    attribute, so a like-named local elsewhere passes it too."""
    read = set()
    for tree in [*modules.values(), *callers]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return {(module, node.name) for module, tree in modules.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read}


def test_every_top_level_def_has_a_caller():
    # the package's __init__ only re-exports, which does not make a caller
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
               for p in SRC.glob("*.py") if p.name != "__init__.py"}
    demos = [ast.parse(p.read_text(encoding="utf-8")) for p in (TESTS.parent / "demos").glob("*.py")]
    assert uncalled_defs(modules, demos) == ALLOWED_UNCALLED


def test_detects_an_uncalled_def():
    lib = ast.parse("def used():\n    pass\n\ndef orphan():\n    pass\n\n"
                    "class Kept:\n    pass\n\nclass Dropped:\n    pass\n")
    demo = ast.parse("import lib\nlib.used()\nprint(lib.Kept())\n")
    assert uncalled_defs({"lib": lib}, [demo]) == {("lib", "orphan"), ("lib", "Dropped")}


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
