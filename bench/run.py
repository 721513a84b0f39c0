"""The dialectid benchmark.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes seeded fixtures for the workload, then runs the workload's
`dialectid` command line in a closed loop, one fresh process at a time,
for about S seconds, and checks every output against figures computed
here.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end figures (medians over the commands, times
rescaled to a reference speed, see `probe`); with --trace 1 untraced
and traced commands alternate, and the metrics are the per-layer
figures of the traced commands plus trace.overhead_s.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import checks
import fixtures
import tracer

STARTED = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INVENTORY = fixtures.COUNTRIES

# The whole run must end within 180 s: no command starts after
# LAST_START_S, and a command still running at KILL_AT_S is killed.
LAST_START_S = 120.0
KILL_AT_S = 170.0
MIN_ROUNDS = 3  # untraced commands per run; a traced run makes at least one pair

# The speed of a shared host drifts by up to 2x from one command to the
# next.  A fixed pure-Python loop, the probe, is timed before the first
# command and after every command; each end-to-end time is rescaled by
# REFERENCE_PROBE_S / (mean of the probes on either side of it), i.e.
# to the speed at which the probe takes REFERENCE_PROBE_S (about an
# unloaded 2-core x86-64 host).  Raw medians go to standard error.
PROBE_ITERATIONS = 2_000_000
REFERENCE_PROBE_S = 0.17


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics that
    BENCHMARK.json, at the checkout root, declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@dataclass
class Sample:
    traced: bool
    exit_code: int
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    failed: int = 0
    whole_file_ok: bool = True
    macro_f1: float = 0.0
    artifact_bytes: int = 0
    layers: dict | None = None
    scale: float = 1.0  # REFERENCE_PROBE_S / probe time around this command


def probe() -> float:
    """Seconds this host takes for a fixed pure-Python loop just now."""
    began = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - began


def launch(work: str, cli_args: list[str], traced: bool) -> Sample:
    """Run one command in a fresh process and time it from launch to exit."""
    probe_path = os.path.join(work, "probe.json")
    trace_path = os.path.join(work, "trace.json")
    for path in (probe_path, trace_path):
        if os.path.exists(path):
            os.remove(path)
    argv = [sys.executable, os.path.join(HERE, "child.py"), probe_path,
            trace_path if traced else "-", *cli_args]
    with open(os.path.join(work, "command.log"), "wb") as log:
        launched = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(1.0, STARTED + KILL_AT_S - launched), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup_s = None
    if proc.returncode == 0:
        with open(probe_path, encoding="utf-8") as fh:
            probe = json.load(fh)
        if "first_normalize" in probe:
            setup_s = probe["first_normalize"] - launched
    sample = Sample(
        traced=traced,
        exit_code=proc.returncode,
        wall_s=ended - launched,
        setup_s=setup_s,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    )
    if traced and proc.returncode == 0:
        with open(trace_path, encoding="utf-8") as fh:
            sample.layers = tracer.summarize(json.load(fh))
    return sample


def _read(path: str) -> bytes:
    """The file's bytes; a missing output reads as empty and fails its checks."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


def _artifact_bytes(directory: str) -> int:
    paths = [os.path.join(directory, name) for name in ("model.bin", "idf.bin")]
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


class Workload:
    """One workload's fixture, command line and output checks."""

    def __init__(self, name: str, seed: int, work: str) -> None:
        self.name = name
        self.spec = fixtures.WORKLOADS[name]
        self.work = work
        self.fx = fixtures.write_fixture(name, seed, os.path.join(work, "data"))
        self.majority_f1 = checks.majority_f1(self.fx.fit_gold, self.fx.test_gold, INVENTORY)
        self.out_dir = os.path.join(work, "out")
        self.reference: list | None = None
        self.first_output: bytes | None = None
        if self.spec.command == "predict":
            self.docs = self.spec.sizes["test"]
            self.model_dir = os.path.join(work, "model")
        else:
            self.docs = sum(self.spec.sizes.values())

    def fit_args(self, out_dir: str) -> list[str]:
        return ["benchmark", self.fx.config_path, "--out-dir", out_dir]

    def args(self) -> list[str]:
        if self.spec.command == "benchmark":
            return self.fit_args(self.out_dir)
        return [
            "--config", self.fx.config_path, "predict",
            "--experiment", self.fx.experiment,
            "--model", os.path.join(self.model_dir, "model.bin"),
            "--idf", os.path.join(self.model_dir, "idf.bin"),
            "--in", self.fx.paths["test"],
            "--out", os.path.join(self.out_dir, "submission.csv"),
        ]

    def set_up(self) -> None:
        """Untimed: on serve, fit the artifacts that predict will read."""
        if self.spec.command != "predict":
            return
        sample = launch(self.work, self.fit_args(self.model_dir), traced=False)
        if sample.exit_code != 0:
            raise RuntimeError(f"set-up run exited with {sample.exit_code}: {self._log_tail()}")
        data = _read(os.path.join(self.model_dir, "submission.csv"))
        self.reference = checks.read_submission(data, self.fx.test_ids, INVENTORY)

    def _log_tail(self) -> str:
        return _read(os.path.join(self.work, "command.log"))[-2000:].decode("utf-8", "replace")

    def run_once(self, traced: bool) -> Sample:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        sample = launch(self.work, self.args(), traced)
        if sample.exit_code != 0:
            print(f"command exited with {sample.exit_code}: {self._log_tail()}", file=sys.stderr)
            sample.failed = len(self.fx.test_ids)
            return sample
        self.judge(sample)
        print(
            f"{self.name}{' traced' if traced else ''}: wall {sample.wall_s:.3f} s, "
            f"setup {sample.setup_s or 0.0:.3f} s, rss {sample.peak_rss_mb:.1f} MB, "
            f"macro_f1 {sample.macro_f1:.4f}, failed {sample.failed}",
            file=sys.stderr,
        )
        return sample

    def judge(self, sample: Sample) -> None:
        data = _read(os.path.join(self.out_dir, "submission.csv"))
        pred = checks.read_submission(data, self.fx.test_ids, INVENTORY)
        sample.failed = checks.failed_predictions(pred, self.reference)
        sample.macro_f1 = checks.macro_f1(self.fx.test_gold, pred, INVENTORY)
        problems = []
        if sample.macro_f1 < self.majority_f1 + checks.MAJORITY_MARGIN:
            problems.append(
                f"macro_f1 {sample.macro_f1:.4f} does not beat the majority class "
                f"({self.majority_f1:.4f}) by {checks.MAJORITY_MARGIN}"
            )
        if self.spec.command == "predict":
            sample.artifact_bytes = _artifact_bytes(self.model_dir)
            if self.first_output is None:
                self.first_output = data
            elif data != self.first_output:
                problems.append("two predict runs gave different bytes")
        else:
            sample.artifact_bytes = _artifact_bytes(self.out_dir)
            report = checks.report_macro_f1(
                _read(os.path.join(self.out_dir, "report.txt")).decode("utf-8", "replace")
            )
            if report is None or abs(report - sample.macro_f1) > checks.REPORT_TOLERANCE:
                problems.append(f"report.txt macro_f1 {report} != recomputed {sample.macro_f1!r}")
            grid = _read(os.path.join(self.out_dir, "grid.tsv")).decode("utf-8", "replace")
            if not checks.grid_selection_ok(grid):
                problems.append("grid.tsv does not mark the best row")
        if problems:
            print("check failed: " + "; ".join(problems), file=sys.stderr)
            sample.whole_file_ok = False
            sample.failed = len(self.fx.test_ids)


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def end_to_end(workload: Workload, samples: list[Sample]) -> dict[str, float]:
    """Medians over the run's untraced commands; times at reference speed."""
    done = [s for s in samples if s.exit_code == 0]
    if not done:
        raise RuntimeError("no command succeeded")
    if any(s.setup_s is None for s in done):
        raise RuntimeError("no document reached normalizer.normalize; set-up end not seen")
    print(
        f"{workload.name} raw medians: wall {_median([s.wall_s for s in done]):.4f} s, "
        f"setup {_median([s.setup_s for s in done]):.4f} s; "
        f"speed scale {_median([s.scale for s in done]):.4f}",
        file=sys.stderr,
    )
    return {
        "setup_s": _median([s.setup_s * s.scale for s in done]),
        "wall_s": _median([s.wall_s * s.scale for s in done]),
        "docs_per_s": _median([workload.docs / ((s.wall_s - s.setup_s) * s.scale) for s in done]),
        "peak_rss_mb": _median([s.peak_rss_mb for s in done]),
        "artifact_bytes": _median([s.artifact_bytes for s in done]),
        "macro_f1": _median([s.macro_f1 for s in done]),
    }


def per_layer(samples: list[Sample]) -> dict[str, float]:
    traced = [s for s in samples if s.traced and s.exit_code == 0]
    plain = [s for s in samples if not s.traced and s.exit_code == 0]
    if not traced or not plain:
        raise RuntimeError("no traced and untraced pair succeeded")
    out = {name: _median([s.layers[name] for s in traced]) for name in traced[0].layers}
    out["trace.overhead_s"] = (
        _median([s.wall_s * s.scale for s in traced]) - _median([s.wall_s * s.scale for s in plain])
    )
    return out


def measure(workload: Workload, seconds: float, trace: bool) -> list[Sample]:
    """Closed loop: rounds of one command (or an untraced/traced pair)
    until the next round would end past `seconds`.  The probe runs
    before the first command and after each one."""
    round_kinds = (False, True) if trace else (False,)
    min_rounds = 1 if trace else MIN_ROUNDS
    samples: list[Sample] = []
    began = time.monotonic()
    rounds = 0
    before = probe()
    while True:
        round_began = time.monotonic()
        for traced in round_kinds:
            sample = workload.run_once(traced)
            after = probe()
            sample.scale = REFERENCE_PROBE_S / ((before + after) / 2)
            print(f"  speed scale {sample.scale:.4f}", file=sys.stderr)
            before = after
            samples.append(sample)
        rounds += 1
        now = time.monotonic()
        if now - STARTED > LAST_START_S:
            break
        if rounds >= min_rounds and now - began + (now - round_began) > seconds:
            break
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(fixtures.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dialectid", "cli.py")):
        print(f"error: no dialectid sources under {ROOT}/src", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        workload = Workload(args.workload, args.seed, work)
        # Compile the package's bytecode and warm the file cache, which a
        # user pays once, not per command.
        launch(work, ["--help"], traced=False)
        workload.set_up()
        samples = measure(workload, args.seconds, bool(args.trace))
        if args.trace:
            values, units = per_layer(samples), metric_units("per_layer")
        else:
            values, units = end_to_end(workload, samples), metric_units("end_to_end")
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it

    result = {
        "correct": all(s.whole_file_ok for s in samples),
        "attempted": len(samples) * len(workload.fx.test_ids),
        "failed": sum(s.failed for s in samples),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
