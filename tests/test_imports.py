"""Every name a module of the package imports is used in that module.

``__init__.py`` is skipped: its imports are the package's API.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "truthcut"
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
