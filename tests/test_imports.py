"""Import hygiene of the package modules.

Each module uses every name it imports, imports no module of a later layer,
and reads no other object's privates.  Importing the package loads no
solver-only scipy submodule.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

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


# scipy submodules only some solvers use; scipy.integrate also loads
# scipy.optimize, and together they were about 0.2 s of the CLI's start-up
SOLVER_MODULES = (
    "scipy.integrate", "scipy.optimize", "scipy.special", "scipy.linalg", "scipy.sparse.linalg",
)
COLD_START = """
import json, sys
import numpy as np

def loaded():
    return [m for m in {modules!r} if m in sys.modules]

import mirrorqed, mirrorqed.cli
at_import = loaded()
code = mirrorqed.cli.main(sys.argv[1:])
after_scattering = loaded()

import scipy.integrate
from mirrorqed import lindblad
A = np.array([[-1.0, 2.0], [-2.0, -1.0]])
args = (lambda t, y: A @ y, (0.0, 1.0), np.array([1.0, 0.0]))
ours, scipys = lindblad.solve_ivp(*args, rtol=1e-9), scipy.integrate.solve_ivp(*args, rtol=1e-9)
print(json.dumps({{
    "at_import": at_import, "after_scattering": after_scattering, "code": code,
    "nfev": [int(ours.nfev), int(scipys.nfev)], "same_y": bool(np.array_equal(ours.y, scipys.y)),
}}))
"""


def test_cold_import_loads_no_solver_submodule(tmp_path):
    config = tmp_path / "c.yaml"
    config.write_text(yaml.safe_dump({
        "experiment": "scattering",
        "model": {"N_A": [1], "max_excitations": 2},
        "solver": {"n_traj": 2, "dt": 0.1, "t_max": 1.0},
    }))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    argv = ["scattering", "--config", str(config), "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START.format(modules=SOLVER_MODULES), *argv],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["at_import"] == []
    assert got["code"] == 0
    assert not {"scipy.integrate", "scipy.optimize"} & set(got["after_scattering"])
    # lindblad.solve_ivp is scipy's, with the RHS count perfbench reads
    assert got["nfev"][0] == got["nfev"][1] > 0 and got["same_y"]
