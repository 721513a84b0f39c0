import random

import numpy as np
import pytest

import dialectid.evaluation as evaluation
from dialectid.errors import EmptyMatrix, LengthMismatch, UnknownLabel
from dialectid.evaluation import (
    ConfusionMatrix,
    accuracy,
    confusion,
    per_class_prf,
    render_report,
    report,
    write_report,
)

from file_io import parse_report, read_report

# gold rows, predicted columns: [[1, 1], [0, 1]]
FIXTURE_GOLD = ["A", "A", "B"]
FIXTURE_PRED = ["A", "B", "B"]
FIXTURE_LABELS = ["A", "B"]


class TestFixtureMatrix:
    def test_counts_orientation(self):
        m = confusion(FIXTURE_GOLD, FIXTURE_PRED, FIXTURE_LABELS)
        assert m.counts.tolist() == [[1, 1], [0, 1]]
        assert m.total == 3

    def test_per_class_values(self):
        m = confusion(FIXTURE_GOLD, FIXTURE_PRED, FIXTURE_LABELS)
        a, b = per_class_prf(m)
        assert a.precision == pytest.approx(1.0, abs=1e-12)
        assert a.recall == pytest.approx(0.5, abs=1e-12)
        assert a.f1 == pytest.approx(2 / 3, abs=1e-12)
        assert a.support == 2
        assert b.precision == pytest.approx(0.5, abs=1e-12)
        assert b.recall == pytest.approx(1.0, abs=1e-12)
        assert b.f1 == pytest.approx(2 / 3, abs=1e-12)
        assert b.support == 1

    def test_aggregates(self):
        rep = report(FIXTURE_GOLD, FIXTURE_PRED, FIXTURE_LABELS)
        assert rep.macro_f1 == pytest.approx(2 / 3, abs=1e-12)
        assert rep.weighted_f1 == pytest.approx(2 / 3, abs=1e-12)
        assert rep.accuracy == pytest.approx(2 / 3, abs=1e-12)
        assert rep.macro_precision == pytest.approx(0.75, abs=1e-12)
        assert rep.macro_recall == pytest.approx(0.75, abs=1e-12)
        assert rep.total == 3


class TestZeroDenominators:
    def test_zero_support_class_counts_in_macro(self):
        rep = report(["A", "A"], ["A", "A"], ["A", "B", "C"])
        assert rep.macro_f1 == pytest.approx(1 / 3, abs=1e-12)
        assert rep.weighted_f1 == pytest.approx(1.0, abs=1e-12)
        assert rep.accuracy == 1.0
        zero_classes = [m for m in rep.per_class if m.label != "A"]
        for m in zero_classes:
            assert m.precision == 0.0
            assert m.recall == 0.0
            assert m.f1 == 0.0
            assert m.support == 0

    def test_predicted_only_class(self):
        rep = report(["A"], ["B"], ["A", "B"])
        by_label = {m.label: m for m in rep.per_class}
        assert by_label["A"].recall == 0.0
        assert by_label["A"].f1 == 0.0
        assert by_label["B"].precision == 0.0
        assert by_label["B"].f1 == 0.0
        assert rep.accuracy == 0.0

    def test_empty_matrix_aggregates_raise(self):
        m = ConfusionMatrix(np.zeros((2, 2), dtype=np.int64), ("A", "B"))
        with pytest.raises(EmptyMatrix):
            accuracy(m)
        # Every class has F1 0, so the macro mean is 0, but the
        # support-weighted mean and accuracy have no instances.
        assert [c.f1 for c in per_class_prf(m)] == [0.0, 0.0]
        with pytest.raises(EmptyMatrix):
            report([], [], ["A", "B"])


class TestConfusionValidation:
    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion(["A"], [], ["A"])

    def test_unknown_labels(self):
        with pytest.raises(UnknownLabel, match="gold"):
            confusion(["X"], ["A"], ["A"])
        with pytest.raises(UnknownLabel, match="predicted"):
            confusion(["A"], ["X"], ["A"])

    def test_duplicate_class_labels(self):
        with pytest.raises(ValueError):
            confusion(["A"], ["A"], ["A", "A"])


def oracle_metrics(gold, pred, labels):
    """Metric definitions written out directly from tp/fp/fn counts."""
    per = {}
    for lab in labels:
        tp = sum(1 for g, p in zip(gold, pred) if g == lab and p == lab)
        fp = sum(1 for g, p in zip(gold, pred) if g != lab and p == lab)
        fn = sum(1 for g, p in zip(gold, pred) if g == lab and p != lab)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per[lab] = (prec, rec, f1, tp + fn)
    k = len(labels)
    total = len(gold)
    agg = {
        "macro_precision": sum(v[0] for v in per.values()) / k,
        "macro_recall": sum(v[1] for v in per.values()) / k,
        "macro_f1": sum(v[2] for v in per.values()) / k,
        "weighted_f1": sum(v[2] * v[3] for v in per.values()) / total,
        "accuracy": sum(1 for g, p in zip(gold, pred) if g == p) / total,
    }
    return per, agg


def random_instance(rng):
    k = rng.randint(2, 6)
    labels = [f"L{i}" for i in range(k)]
    n = rng.randint(1, 50)
    gold = [rng.choice(labels) for _ in range(n)]
    pred = [rng.choice(labels) for _ in range(n)]
    return gold, pred, labels


def test_report_matches_brute_force_oracle():
    rng = random.Random(2024)
    for _ in range(60):
        gold, pred, labels = random_instance(rng)
        rep = report(gold, pred, labels)
        per, agg = oracle_metrics(gold, pred, labels)
        for m in rep.per_class:
            prec, rec, f1, support = per[m.label]
            assert abs(m.precision - prec) <= 1e-12
            assert abs(m.recall - rec) <= 1e-12
            assert abs(m.f1 - f1) <= 1e-12
            assert m.support == support
        assert abs(rep.macro_precision - agg["macro_precision"]) <= 1e-12
        assert abs(rep.macro_recall - agg["macro_recall"]) <= 1e-12
        assert abs(rep.macro_f1 - agg["macro_f1"]) <= 1e-12
        assert abs(rep.weighted_f1 - agg["weighted_f1"]) <= 1e-12
        assert abs(rep.accuracy - agg["accuracy"]) <= 1e-12


def test_report_computes_per_class_once_and_averages_it_exactly(monkeypatch):
    rng = random.Random(77)
    cases = [random_instance(rng) for _ in range(40)]
    expected = []
    for gold, pred, labels in cases:
        m = confusion(gold, pred, labels)
        per_class = per_class_prf(m)
        expected.append((
            sum(c.f1 for c in per_class) / len(per_class),
            sum(c.f1 * c.support for c in per_class) / m.total,
            accuracy(m),
        ))
    calls = []
    real = evaluation.per_class_prf
    monkeypatch.setattr(
        evaluation, "per_class_prf", lambda matrix: calls.append(matrix) or real(matrix)
    )
    reports = [report(gold, pred, labels) for gold, pred, labels in cases]
    # == on floats: the aggregates are bit-identical, not just close.
    assert [(r.macro_f1, r.weighted_f1, r.accuracy) for r in reports] == expected
    assert len(calls) == len(cases)
    with pytest.raises(EmptyMatrix):
        report([], [], ["A", "B"])


def test_instance_order_does_not_matter():
    rng = random.Random(5)
    gold, pred, labels = random_instance(rng)
    rep_a = report(gold, pred, labels)
    order = list(range(len(gold)))
    rng.shuffle(order)
    rep_b = report([gold[i] for i in order], [pred[i] for i in order], labels)
    assert rep_a == rep_b


def test_label_order_only_permutes_per_class():
    rng = random.Random(6)
    gold, pred, labels = random_instance(rng)
    rep_a = report(gold, pred, labels)
    rep_b = report(gold, pred, list(reversed(labels)))
    by_a = {m.label: m for m in rep_a.per_class}
    by_b = {m.label: m for m in rep_b.per_class}
    assert by_a == by_b
    assert rep_b.macro_f1 == pytest.approx(rep_a.macro_f1, abs=1e-12)
    assert rep_b.weighted_f1 == pytest.approx(rep_a.weighted_f1, abs=1e-12)
    assert rep_b.accuracy == rep_a.accuracy


class TestReportText:
    def test_render_parse_round_trip_is_bit_exact(self):
        rng = random.Random(7)
        for _ in range(20):
            gold, pred, labels = random_instance(rng)
            rep = report(gold, pred, labels)
            assert parse_report(render_report(rep)) == rep

    def test_rendered_shape(self):
        rep = report(FIXTURE_GOLD, FIXTURE_PRED, FIXTURE_LABELS)
        text = render_report(rep)
        lines = text.splitlines()
        assert lines[0] == "# per-class"
        assert lines[1] == "label\tprecision\trecall\tf1\tsupport"
        assert lines[4] == "# aggregate"
        assert text.endswith("\n")
        assert "total\t3" in lines

    def test_file_round_trip(self, tmp_path):
        rep = report(FIXTURE_GOLD, FIXTURE_PRED, FIXTURE_LABELS)
        path = tmp_path / "report.txt"
        write_report(rep, str(path))
        assert read_report(str(path)) == rep

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_report("stray line\n")
        with pytest.raises(ValueError):
            parse_report("# per-class\nonly\tthree\tcells\n")
        with pytest.raises(ValueError):
            parse_report("# aggregate\nno_tab_here\n")
