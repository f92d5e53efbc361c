"""Import hygiene of the package modules.

Each module uses every name it imports, imports no module of a later layer,
and reads no other object's privates.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mirrorqed"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the imports of ``source`` that nothing in it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_flags_an_unused_import():
    src = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.ones(1)\n"
    assert unused_imports(src) == ["os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


# lower layers first: a module imports only modules before it
LAYERS = [
    "results", "hilbert", "model", "dde", "lindblad",
    "mcwf", "scattering", "chain", "experiments", "cli",
]


def later_imports(name: str, source: str) -> list:
    """Package modules of a later layer than ``name`` that ``source`` imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            targets = [node.module] if node.module else [a.name for a in node.names]
            found += [t for t in targets if t in LAYERS and LAYERS.index(t) > LAYERS.index(name)]
    return found


def test_scan_flags_a_later_layer():
    src = "from .results import write_csv\nfrom .mcwf import mcwf_evolve\nfrom . import cli\n"
    assert later_imports("lindblad", src) == ["mcwf", "cli"]


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in MODULES) == sorted(LAYERS)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_later_layer(path):
    assert later_imports(path.stem, path.read_text()) == []


def private_reads(source: str) -> list:
    """Each ``x._name`` attribute access in ``source`` where x is not self or cls.

    Dunder names (``object.__setattr__``) are protocol, not private.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
            continue
        if node.attr.startswith("__") and node.attr.endswith("__"):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_scan_flags_a_private_read():
    src = (
        "class A:\n"
        "    def f(self, other):\n"
        "        object.__setattr__(self, 'x', self._x)\n"
        "        return other._y + other.y\n"
    )
    assert private_reads(src) == ["line 4: other._y"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_no_other_objects_privates(path):
    assert private_reads(path.read_text()) == []
