"""Module-level imports: every name is used, and the numpy-only modules stay so.

An import that nothing reads costs start-up time (the CLI's set-up is
mostly imports) and hides which modules a file really depends on.  The
modules that `decompose`, `dispersion` and `spectrum` load must not
import scipy or the Fock-space stack at module level: scipy alone costs
those commands about 20 MB and 0.2-0.45 s of start-up.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "lvphoton"


def _unused_imports(source):
    """The names bound by the module-level imports of `source` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_guard_finds_an_unused_name():
    source = (
        "import os.path\nimport numpy as np\nfrom dataclasses import dataclass, fields\n"
        "@dataclass\nclass A:\n    x: int = 0\n"
    )
    assert _unused_imports(source) == ["fields", "np", "os"]
    assert _unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


#: Modules that load scipy.sparse, directly or through one another.
FOCK_STACK = {"fock_space", "hamiltonian", "interaction", "lorenz", "checks"}

#: Modules the numpy-only commands load.
NUMPY_ONLY = ("kappa_tensor", "dispersion", "modes", "cli")


def _heavy_imports(source):
    """The module-level imports of `source` that load scipy or a Fock-stack module.

    One entry per import statement that does: the first such module it names.
    """
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names = [base] if node.module else []
            names += [(f"{base}." if node.module else base) + alias.name for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.lstrip(".").split(".")
            package = name.startswith(".") or parts[0] == "lvphoton"
            if parts[0] == "scipy" or (package and FOCK_STACK.intersection(parts)):
                found.append(name)
                break
    return found


def test_the_guard_finds_a_heavy_import():
    source = (
        "import numpy as np\nimport scipy.sparse\nfrom . import dispersion as dp\n"
        "from . import fock_space as fs\nfrom .hamiltonian import build_grouped\n"
        "from lvphoton import lorenz\nfrom scipy.linalg import expm\n"
        "def f():\n    import scipy.special\n"
    )
    assert _heavy_imports(source) == [
        "scipy.sparse", ".fock_space", ".hamiltonian", "lvphoton.lorenz", "scipy.linalg"
    ]
    assert _heavy_imports("import numpy as np\nfrom . import modes as md\n") == []


@pytest.mark.parametrize("name", NUMPY_ONLY)
def test_numpy_only_modules_import_no_scipy_or_fock_stack(name):
    assert _heavy_imports((PACKAGE / f"{name}.py").read_text(encoding="utf-8")) == []
