"""numpy is the package's only runtime dependency: every absolute import
in src/dialectid is of the standard library or of numpy."""

import ast
import os
import sys

import pytest

PACKAGE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src", "dialectid")
MODULES = sorted(name for name in os.listdir(PACKAGE_DIR) if name.endswith(".py"))


def absolute_imports(path):
    """The top-level package of every absolute import in a source file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_module_is_checked():
    assert "features.py" in MODULES and "cli.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_imports_only_stdlib_and_numpy(module):
    imported = set(absolute_imports(os.path.join(PACKAGE_DIR, module)))
    outside = sorted(name for name in imported
                     if name != "numpy" and name not in sys.stdlib_module_names)
    assert outside == [], f"{module} imports {outside}"
