"""numpy is the package's only runtime dependency: every absolute import
in src/dialectid is of the standard library or of numpy, and of numpy
the commands never load numpy.random (its import costs 14-21 ms and
about 7 MB of RSS; train's epoch order is the package's own)."""

import ast
import os
import subprocess
import sys

import pytest

import dialectid
import synthcorpus

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


def test_commands_leave_numpy_random_unloaded(tmp_path):
    """benchmark, which trains, and predict, run in one fresh
    interpreter, import no module of numpy.random."""
    paths = synthcorpus.write_dialect_corpus(str(tmp_path), seed=3, n_train=6, n_dev=2, n_test=2)
    config = synthcorpus.write_benchmark_config(str(tmp_path), paths, dim=1 << 10)
    out = str(tmp_path / "out")
    benchmark = ["benchmark", config, "--out-dir", out]
    predict = ["predict", "--model", os.path.join(out, "model.bin"),
               "--idf", os.path.join(out, "idf.bin"), "--in", paths["test"],
               "--out", os.path.join(out, "again.csv")]
    script = (
        "import sys\n"
        "from dialectid.cli import main\n"
        f"assert main({benchmark!r}) == 0 and main({predict!r}) == 0\n"
        "print(sorted(name for name in sys.modules if name.startswith('numpy.random')))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(dialectid.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
