"""Byte identity of the benchmark's artifacts.

`dialectid benchmark` runs on each benchmark workload's fixture at
seeds 101 and 7, in a fresh interpreter with OPENBLAS_NUM_THREADS=1,
and every file it writes must hash to its row of
data/artifact_digests.tsv.  On serve, `predict` then runs with the
benchmark's own command line on the written model and must write the
benchmark's submission.csv byte for byte.  A change that alters these
bytes on purpose updates the table in the same change.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import dialectid
import fixtures
from conftest import data_path

WORKLOADS = ("fit-nadi", "grid-wide", "serve")
SEEDS = (101, 7)
FILES = ("model.bin", "idf.bin", "submission.csv", "grid.tsv", "report.txt")
DIGESTS = "artifact_digests.tsv"


def read_digests():
    """{(workload, seed, file): sha256} of the digest table."""
    with open(data_path(DIGESTS), encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh]
    assert rows[0] == ["workload", "seed", "file", "sha256"]
    return {(w, int(s), f): digest for w, s, f, digest in rows[1:]}


def run_cli(*args):
    """Run one dialectid command line in a fresh interpreter on one BLAS
    thread (OpenBLAS reads its thread count when numpy loads it)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dialectid.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "dialectid", *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path,
                                              OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_digest_table_covers_every_artifact():
    assert set(read_digests()) == {
        (w, s, f) for w in WORKLOADS for s in SEEDS for f in FILES
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_artifacts_match_digests(tmp_path, workload, seed):
    fixture = fixtures.write_fixture(workload, seed, str(tmp_path / "data"))
    out = tmp_path / "out"
    run_cli("benchmark", fixture.config_path, "--out-dir", str(out))
    digests = read_digests()
    for name in FILES:
        assert sha256(out / name) == digests[workload, seed, name], (
            f"{name} of {workload} at seed {seed} differs from {DIGESTS}; the "
            f"digests hold for the same numpy build on the same CPU family"
        )
    if workload == "serve":
        served = tmp_path / "served.csv"
        run_cli("--config", fixture.config_path, "predict",
                "--experiment", fixture.experiment,
                "--model", str(out / "model.bin"), "--idf", str(out / "idf.bin"),
                "--in", fixture.paths["test"], "--out", str(served))
        assert served.read_bytes() == (out / "submission.csv").read_bytes(), (
            "predict on the saved serve model wrote other bytes than benchmark's submission.csv"
        )
