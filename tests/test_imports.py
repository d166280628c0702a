"""Module-level imports: every name is used, and the numpy-only modules stay so.

An import that nothing reads costs start-up time (the CLI's set-up is
mostly imports) and hides which modules a file really depends on.  The
modules that `decompose`, `dispersion` and `spectrum` load must not
import scipy or the Fock-space stack at module level: scipy alone costs
those commands about 20 MB and 0.2-0.45 s of start-up.  Nor may they do
work at import beyond a reviewed list of calls: every command pays for
it in its start-up, so a constant table is a literal, built inside the
call that uses it.
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


def _import_time_calls(source):
    """The source text of each call expression that runs when `source` is imported.

    Module-level statements, class bodies, decorators and default
    argument values run at import; function and lambda bodies do not.
    A call nested in another is part of the outer call's text.
    """
    found = []

    def visit(node):
        if isinstance(node, ast.Call):
            found.append(ast.unparse(node))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for part in (*getattr(node, "decorator_list", ()), node.args):
                visit(part)
        else:
            for child in ast.iter_child_nodes(node):
                visit(child)

    visit(ast.parse(source))
    return sorted(found)


#: The reviewed calls that run when each numpy-only module is imported.
#: The worker of the benchmark imports `cli` before it reports ready, so
#: work added here lands in every command's start-up; a new table should
#: be a literal, built inside the call that uses it.
IMPORT_TIME_CALLS = {
    "kappa_tensor": (
        "np.diag([1.0, -1.0, -1.0, -1.0])",
        "np.zeros((3, 3, 3))",
        "np.array([1.0, -1.0, -1.0, -1.0])",
        "np.einsum('a,b,c,d->abcd', _INDEX_SIGN, _INDEX_SIGN, _INDEX_SIGN, _INDEX_SIGN)",
        "dataclass(frozen=True, eq=False)",
        *["field(default_factory=lambda: np.zeros((3, 3)))"] * 4,
        "dataclass(frozen=True, eq=False)",
        "_readonly(_tensor_from_blocks(*_unflatten_kappas(np.eye(19))).reshape(19, 256).T.copy())",
        "_readonly(np.linalg.qr(_GENERATOR)[0])",
    ),
    "dispersion": (
        "np.array([1.0, 0.0, 0.0])",
        "np.array([0.0, 1.0, 0.0])",
        "np.array([0.0, 0.0, 1.0])",
        "Z_AXIS.setflags(write=False)",
        "np.outer(np.diag(METRIC), np.diag(METRIC)).ravel()",
        "np.sqrt(0.5)",
        "float(np.sqrt(np.finfo(float).eps))",
        "np.finfo(float)",
        "np.arange(1.0, 5.0)",
        "np.finfo(float)",
        *["np.arange(3)"] * 3,
        "np.array([2, 2, 2, 0, 0, 1])",
        "np.array([0, 1, 10, 2, 11, 11])",
        "np.array([[-1.0], [1.0]])",
        "dataclass(frozen=True, eq=False)",
    ),
    "modes": (
        "dataclass(frozen=True)",
        "tuple((ModeId(d, p) for d in (PLUS_K, MINUS_K) for p in (0, 1, 2, 3)))",
        "tuple((mode.slot for mode in ALL_MODES))",
        "tuple((ModeId(d, r).slot for d in (PLUS_K, MINUS_K) for r in (1, 2)))",
        "math.sqrt(2.0)",
    ),
    "cli": (
        "frozenset({'kappa_e_minus', 'kappa_o_plus', 'kappa_tr', 'kappa_e_plus', "
        "'kappa_o_minus', 'kf_components', 'direction', 'cutoff', 'scales', 'time', "
        "'output', 'command', 'symmetry'})",
        "field(default_factory=kt.KappaSet)",
        "field(default_factory=dp.Z_AXIS.copy)",
        "dataclass(frozen=True, eq=False)",
        "sys.exit(main())",
    ),
}


def test_the_guard_finds_import_time_work():
    source = (PACKAGE / "modes.py").read_text(encoding="utf-8")
    allowed = sorted(IMPORT_TIME_CALLS["modes"])
    assert _import_time_calls(source) == allowed
    for injected in (
        "_TABLE = np.eye(8)\n",
        "class T:\n    table = np.eye(8)\n",
        "def f(table=np.eye(8)):\n    return table\n",
        "@functools.lru_cache(maxsize=None)\ndef f():\n    return np.eye(8)\n",
    ):
        found = _import_time_calls(source + injected)
        assert found != allowed and len(found) == len(allowed) + 1, injected
    # work inside a function or a lambda runs at call time
    assert _import_time_calls("def f():\n    return np.eye(8)\ng = lambda: np.eye(8)\n") == []


@pytest.mark.parametrize("name", NUMPY_ONLY)
def test_numpy_only_modules_do_only_the_reviewed_import_time_work(name):
    source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
    assert _import_time_calls(source) == sorted(IMPORT_TIME_CALLS[name])
