"""Every import in the package is used: a stdlib check with `ast`.

The package root re-exports its imports, so it is exempt, and so is an
import whose line carries ``# noqa: F401`` (a deliberate re-export).
"""

import ast
from pathlib import Path

import pytest

import mmmcoh

PACKAGE = Path(mmmcoh.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """``(line, name)`` of each name an import binds and the module never
    reads, outside lines marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import_and_honours_noqa():
    source = (
        "from typing import Dict, List, Sequence\n"
        "import os.path\n"
        "from .linalg import (\n"
        "    rank,  # noqa: F401  (a re-export)\n"
        "    solve,\n"
        ")\n"
        "x: Dict[int, List[int]] = {}\n"
        "print(os.path.sep)\n"
    )
    assert unused_imports(source) == [(1, "Sequence"), (5, "solve")]
