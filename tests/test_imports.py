"""Every import in the package is used: a stdlib check with `ast`.

The package root re-exports its imports, so it is exempt, and so is an
import whose line carries ``# noqa: F401`` (a deliberate re-export); the
root's ``__all__`` lists exactly its public imports instead.  A name
that a module-level assignment binds, such as a constant (``_FLIP``, a
translation table) or an alias of an imported name (``Q = Fraction``), must be read
somewhere under ``src/``, ``tests/`` or ``perfbench/``, dunders
excepted.  Every function,
method, property and class the package defines must be read under
``src/`` or ``perfbench/``: code that only tests read is not kept in the
package, save for the few names of ``TEST_ONLY``.
"""

import ast
from pathlib import Path

import pytest

import mmmcoh

PACKAGE = Path(mmmcoh.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parent.parent
READERS = sorted(p for top in ("src", "tests", "perfbench") for p in (ROOT / top).rglob("*.py"))
PACKAGE_READERS = sorted(p for top in ("src", "perfbench") for p in (ROOT / top).rglob("*.py"))


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


def test_the_root_exports_exactly_its_public_imports():
    # a name that leaves a module must leave the root's imports and
    # ``__all__`` with it
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert [name for name in mmmcoh.__all__ if not hasattr(mmmcoh, name)] == []
    assert len(set(mmmcoh.__all__)) == len(mmmcoh.__all__)
    assert sorted(public - set(mmmcoh.__all__)) == []


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


def module_constants(source: str):
    """``(line, name)`` of each name a module-level ``Assign`` or
    ``AnnAssign`` binds, unpacked targets included, dunders excepted."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not (
                        name.id.startswith("__") and name.id.endswith("__")
                    ):
                        out.append((node.lineno, name.id))
    return out


def read_names(source: str):
    """Every name a source reads: loaded names, attributes and the names
    it imports from a module."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_module_alias_is_read():
    read = set().union(*(read_names(p.read_text()) for p in READERS))
    unread = [
        (path.name, line, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in module_constants(path.read_text())
        if name not in read
    ]
    assert unread == []


def test_the_check_finds_an_unread_alias():
    source = (
        "from fractions import Fraction\n"
        "import os\n"
        "Q = Fraction\n"
        "P = os\n"
        "_ONE = Fraction(1)\n"
        "R = _ONE\n"
        "_SMALL = {i: Fraction(i) for i in range(-2, 3)}\n"
        "LIMIT: int = 3\n"
        "__all__ = ['R']\n"
        "print(P.sep)\n"
    )
    assert module_constants(source) == [
        (3, "Q"), (4, "P"), (5, "_ONE"), (6, "R"), (7, "_SMALL"), (8, "LIMIT"),
    ]
    read = read_names(source)
    assert {"P", "sep", "_ONE"} <= read
    assert [name for _, name in module_constants(source) if name not in read] == [
        "Q", "R", "_SMALL", "LIMIT",
    ]


def definitions(source: str):
    """``(line, qualified name)`` of each function, method, property and
    class a source defines, nested ones included, dunders excepted."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    out.append((child.lineno, prefix + name))
                visit(child, f"{prefix}{name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return out


def package_reads(source: str):
    """`read_names`, plus every string constant: the CLI looks commands up
    by name with ``getattr`` and reads methods with ``methodcaller``."""
    strings = {
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    return read_names(source) | strings


# definitions that only tests read, each with its reason
TEST_ONLY = {
    "GradedModuleMap.of_matrices": "builds a map from matrices, for the module tests' own maps",
    "GradedModuleMap.matrix": "the matrix of a table-held map, for the tests' matrix oracles",
}


def test_every_definition_is_read_by_the_package():
    read = set().union(*(package_reads(p.read_text()) for p in PACKAGE_READERS))
    defined = [
        (path.name, line, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in definitions(path.read_text())
    ]
    unread = [
        (path, line, name)
        for path, line, name in defined
        if name.rsplit(".", 1)[-1] not in read and name not in TEST_ONLY
    ]
    assert unread == []
    # an allowlisted name that is gone leaves the allowlist with it
    assert set(TEST_ONLY) <= {name for _, _, name in defined}


def test_the_check_finds_an_unread_def():
    source = (
        "import operator\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.x = 1\n"
        "    def used(self):\n"
        "        return self.x\n"
        "    def unused(self):\n"
        "        return 0\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "def helper():\n"
        "    return Box().used()\n"
        "def named():\n"
        "    pass\n"
        "TABLE = {'k': 'named'}\n"
        "get_size = operator.methodcaller('size')\n"
    )
    defined = definitions(source)
    assert defined == [
        (2, "Box"), (5, "Box.used"), (7, "Box.unused"), (10, "Box.size"), (12, "helper"),
        (14, "named"),
    ]
    read = package_reads(source)
    assert [name for _, name in defined if name.rsplit(".", 1)[-1] not in read] == [
        "Box.unused",
        "helper",
    ]
