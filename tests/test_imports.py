"""Every name a module of the package imports is used in that module, and
every top-level function and class of the package is run by more than the
tests.

``__init__.py`` is skipped: its imports are the package's API.
"""

import ast
import collections
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "truthcut"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    # [TRIVIAL]
    source = "from __future__ import annotations\nimport os.path\nfrom x import a, b as c\nc()\n"
    assert unused_imports(source) == ["os", "a"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    # [DERIVED] a name left over from deleted code fails here
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _named(node: ast.AST) -> set[str]:
    """The names ``node`` reads, reads as an attribute or imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
    return out


def unreached_definitions(modules: dict[str, str], elsewhere: set[str]) -> list[str]:
    """``module.name`` of each top-level function and class of ``modules``
    (module name -> source) whose name no other top-level statement of
    ``modules`` holds and ``elsewhere`` does not hold.  ``__init__``'s
    imports name the package's API."""
    statements = [(m, stmt) for m, source in modules.items()
                  for stmt in ast.parse(source).body]
    named = [_named(stmt) for _, stmt in statements]
    count = collections.Counter(name for names in named for name in names)
    out = []
    for (m, stmt), names in zip(statements, named):
        if m != "__init__" and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            others = count[stmt.name] - (stmt.name in names)
            if not others and stmt.name not in elsewhere:
                out.append(f"{m}.{stmt.name}")
    return out


def _named_outside_the_package(root: pathlib.Path) -> set[str]:
    """The names ``bench/`` reads and the identifiers in ``README.md``'s
    code spans and code blocks."""
    out = set()
    for path in (root / "bench").glob("*.py"):
        out |= _named(ast.parse(path.read_text(encoding="utf-8")))
    readme = (root / "README.md").read_text(encoding="utf-8")
    for span in re.findall(r"```.*?```|`[^`\n]+`", readme, re.S):
        out.update(re.findall(r"[A-Za-z_]\w*", span))
    return out


def test_the_check_sees_a_definition_only_tests_name():
    # [TRIVIAL]
    modules = {
        "__init__": "from .a import api\n",
        "a": "def api(): return used()\ndef used(): pass\n"
             "def alone(): return alone()\nclass Bench: pass\ndef doc(): pass\n",
        "b": "import a\ndef f(): return a.used\n",
    }
    assert unreached_definitions(modules, {"Bench", "doc"}) == ["a.alone", "b.f"]


def test_package_defines_nothing_only_tests_run():
    # [DERIVED] a helper only tests call belongs in tests/, so the trusted
    # package holds what its verbs, the benchmark and its API run
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unreached_definitions(modules, _named_outside_the_package(ROOT)) == []
