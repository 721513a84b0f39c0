"""Tests of the benchmark's own code: each output check rejects a
corrupted output, the recomputed macro F1 agrees with the program's,
the tracer's self time, and the fixtures' determinism."""

from __future__ import annotations

import json
import os
import random
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import fixtures  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

INVENTORY = fixtures.COUNTRIES
IDS = [f"test-{i:06d}" for i in range(6)]
LABELS = ["Egypt", "Iraq", "Oman", "Egypt", "Syria", "Yemen"]


def _submission(ids, labels) -> bytes:
    return "".join(f"{i},{label}\n" for i, label in zip(ids, labels)).encode("utf-8")


def test_valid_submission_has_no_failures():
    pred = checks.read_submission(_submission(IDS, LABELS), IDS, INVENTORY)
    assert pred == LABELS
    assert checks.failed_predictions(pred) == 0
    assert checks.failed_predictions(pred, LABELS) == 0


def test_one_changed_label_fails_parity_and_moves_macro_f1():
    changed = list(LABELS)
    changed[2] = "Qatar"
    pred = checks.read_submission(_submission(IDS, changed), IDS, INVENTORY)
    assert checks.failed_predictions(pred) == 0  # still a valid row
    assert checks.failed_predictions(pred, LABELS) == 1
    gold = LABELS
    reported = checks.macro_f1(gold, LABELS, INVENTORY)
    assert abs(checks.macro_f1(gold, pred, INVENTORY) - reported) > checks.REPORT_TOLERANCE


def test_two_swapped_rows_fail():
    ids = list(IDS)
    labels = list(LABELS)
    ids[1], ids[4] = ids[4], ids[1]
    labels[1], labels[4] = labels[4], labels[1]
    pred = checks.read_submission(_submission(ids, labels), IDS, INVENTORY)
    assert checks.failed_predictions(pred) == 2
    assert pred[1] is None and pred[4] is None


def test_label_outside_inventory_fails():
    labels = list(LABELS)
    labels[0] = "Atlantis"
    pred = checks.read_submission(_submission(IDS, labels), IDS, INVENTORY)
    assert checks.failed_predictions(pred) == 1


def test_missing_and_extra_rows_fail():
    short = checks.read_submission(_submission(IDS[:4], LABELS[:4]), IDS, INVENTORY)
    assert checks.failed_predictions(short) == 2
    extra = _submission(IDS, LABELS) + b"test-999999,Egypt\n"
    assert checks.failed_predictions(checks.read_submission(extra, IDS, INVENTORY)) == len(IDS)


def test_macro_f1_matches_program_report():
    from dialectid import evaluation

    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 60)
        gold = [rng.choice(INVENTORY[:5]) for _ in range(n)]
        pred = [rng.choice(INVENTORY[:7]) for _ in range(n)]
        program = evaluation.report(gold, pred, INVENTORY).macro_f1
        assert abs(checks.macro_f1(gold, pred, INVENTORY) - program) <= checks.REPORT_TOLERANCE


def test_report_value_is_read():
    text = "# aggregate\nmacro_precision\t0.5\nmacro_f1\t0.25\naccuracy\t1\n"
    assert checks.report_macro_f1(text) == 0.25
    assert checks.report_macro_f1("# aggregate\naccuracy\t1\n") is None


def test_grid_selection():
    head = "name\tweighted_f1\taccuracy\tmacro_f1\tselected\n"

    def grid(marks):
        scores = ("0.400000", "0.700000", "0.700000")
        return head + "".join(
            f"{name}\t0.5\t0.5\t{score}\t{mark}\n"
            for name, score, mark in zip("abc", scores, marks)
        )

    assert checks.grid_selection_ok(grid("010"))
    assert not checks.grid_selection_ok(grid("001"))  # tie goes to the earliest row
    assert not checks.grid_selection_ok(grid("100"))  # not the best row
    assert not checks.grid_selection_ok(grid("011"))
    assert not checks.grid_selection_ok(head)


def test_majority_baseline():
    gold = ["Egypt", "Iraq", "Egypt"]
    f1 = checks.majority_f1(["Egypt", "Egypt", "Iraq"], gold, INVENTORY)
    assert f1 == checks.macro_f1(gold, ["Egypt"] * 3, INVENTORY)


def test_self_time_subtracts_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["harness.fit_pipeline", 1.0, 9.0, 0],
        ["features.vectorize", 2.0, 5.0, 1],
        ["features.char_ngrams", 2.5, 3.5, 2],
        ["classifier.train", 5.0, 8.0, 1],
    ]
    own, total, calls = tracer.self_times(spans)
    assert own["cli.main"] == 2.0
    assert own["harness.fit_pipeline"] == 2.0
    assert own["features.vectorize"] == 2.0
    assert own["features.char_ngrams"] == 1.0
    assert total["harness.fit_pipeline"] == 8.0
    assert calls["classifier.train"] == 1


def test_tracer_counts_and_skips_missing_functions():
    module = types.ModuleType("dialectid.features")
    module.hash_index = len
    module.vectorize = lambda text: module.hash_index(text)

    trace = tracer.Tracer()
    trace.install({"features": module})  # no char_ngrams, fit_idf, ... here
    assert module.vectorize("abc") == 3
    assert trace.hash_calls == 1
    assert [s[0] for s in trace.spans] == ["features.vectorize"]
    layers = tracer.summarize({"spans": trace.spans, "counters": {
        "features.hash_calls": 1, "features.distinct_grams": 0, "features.nnz": 0,
        "normalizer.distinct_inputs": 0, "normalizer.empty_outputs": 0,
        "classifier.example_epochs": 0, "classifier.final_loss": 0.0,
    }})
    assert layers["features.vectorize_calls"] == 1
    assert layers["classifier.train_calls"] == 0


def test_fixture_is_seeded(tmp_path):
    def splits(seed, name):
        fixtures.write_fixture("fit-nadi", seed, str(tmp_path / name))
        return [(tmp_path / name / f"{s}.tsv").read_bytes() for s in ("train", "dev", "test")]

    first = splits(5, "a")
    assert first == splits(5, "b")
    assert all(a != b for a, b in zip(first, splits(6, "c")))
    counts = fixtures.class_counts(630)
    assert sum(counts.values()) == 630 and set(counts) == set(INVENTORY)
    assert max(counts, key=counts.get) == fixtures.MAJORITY


def test_metrics_match_benchmark_json():
    sample = run.Sample(traced=True, exit_code=0, wall_s=2.0, setup_s=0.5, peak_rss_mb=1.0)
    sample.layers = tracer.summarize({"spans": [], "counters": dict.fromkeys([
        "features.hash_calls", "features.distinct_grams", "features.nnz",
        "normalizer.distinct_inputs", "normalizer.empty_outputs",
        "classifier.example_epochs", "classifier.final_loss",
    ], 0)})
    plain = run.Sample(traced=False, exit_code=0, wall_s=1.0, setup_s=0.5, peak_rss_mb=1.0)
    workload = types.SimpleNamespace(name="w", docs=10)
    assert set(run.end_to_end(workload, [plain])) == set(run.metric_units("end_to_end"))
    assert set(run.per_layer([plain, sample])) == set(run.metric_units("per_layer"))
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        names = sorted(w["name"] for w in json.load(fh)["workloads"])
    assert names == sorted(fixtures.WORKLOADS)


def test_times_are_rescaled_to_reference_speed():
    fast = run.Sample(traced=False, exit_code=0, wall_s=2.0, setup_s=0.5, peak_rss_mb=1.0)
    slow = run.Sample(traced=False, exit_code=0, wall_s=4.0, setup_s=1.0, peak_rss_mb=1.0, scale=0.5)
    workload = types.SimpleNamespace(name="w", docs=30)
    assert run.end_to_end(workload, [fast]) == run.end_to_end(workload, [slow])
    metrics = run.end_to_end(workload, [slow])
    assert (metrics["wall_s"], metrics["setup_s"], metrics["docs_per_s"]) == (2.0, 0.5, 20.0)
