"""Every name a package module imports at module level is used in that module.

An import that nothing reads costs start-up time (the CLI's set-up is
mostly imports) and hides which modules a file really depends on.
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
