"""Classification metrics over a fixed label inventory.

All aggregates are computed from a single confusion matrix whose row is
the gold label and whose column is the prediction.  Macro averages run
over every class in the inventory, zero-support classes included, and
any zero denominator contributes a zero rather than an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyMatrix, LengthMismatch, UnknownLabel


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: np.ndarray
    class_labels: tuple[str, ...]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class ClassMetrics:
    label: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EvaluationReport:
    per_class: tuple[ClassMetrics, ...]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_f1: float
    accuracy: float
    total: int


def confusion(
    gold: Sequence[str], pred: Sequence[str], class_labels: Sequence[str]
) -> ConfusionMatrix:
    """Count (gold, pred) pairs into a matrix ordered by class_labels."""
    if len(gold) != len(pred):
        raise LengthMismatch(f"{len(gold)} gold labels vs {len(pred)} predictions")
    index = {label: i for i, label in enumerate(class_labels)}
    if len(index) != len(class_labels):
        raise ValueError("duplicate label in class_labels")
    counts = np.zeros((len(class_labels), len(class_labels)), dtype=np.int64)
    for g, p in zip(gold, pred):
        if g not in index:
            raise UnknownLabel(f"gold label {g!r} not in class list")
        if p not in index:
            raise UnknownLabel(f"predicted label {p!r} not in class list")
        counts[index[g], index[p]] += 1
    return ConfusionMatrix(counts=counts, class_labels=tuple(class_labels))


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_class_prf(matrix: ConfusionMatrix) -> list[ClassMetrics]:
    """Precision, recall, F1, and support per class, in matrix order."""
    out: list[ClassMetrics] = []
    col_sums = matrix.counts.sum(axis=0)
    row_sums = matrix.counts.sum(axis=1)
    for i, label in enumerate(matrix.class_labels):
        tp = float(matrix.counts[i, i])
        precision = _safe_div(tp, float(col_sums[i]))
        recall = _safe_div(tp, float(row_sums[i]))
        f1 = _safe_div(2.0 * precision * recall, precision + recall)
        out.append(
            ClassMetrics(
                label=label,
                precision=precision,
                recall=recall,
                f1=f1,
                support=int(row_sums[i]),
            )
        )
    return out


def macro_f1(matrix: ConfusionMatrix) -> float:
    """Unweighted mean F1 over every class in the inventory."""
    metrics = per_class_prf(matrix)
    return sum(m.f1 for m in metrics) / len(metrics)


def _support_weighted_f1(metrics: Sequence[ClassMetrics], total: int) -> float:
    if total == 0:
        raise EmptyMatrix("weighted F1 of an empty matrix")
    return sum(m.f1 * m.support for m in metrics) / total


def weighted_f1(matrix: ConfusionMatrix) -> float:
    """Support-weighted mean F1; raises EmptyMatrix on zero instances."""
    return _support_weighted_f1(per_class_prf(matrix), matrix.total)


def accuracy(matrix: ConfusionMatrix) -> float:
    if matrix.total == 0:
        raise EmptyMatrix("accuracy of an empty matrix")
    return float(np.trace(matrix.counts)) / matrix.total


def report(
    gold: Sequence[str], pred: Sequence[str], class_labels: Sequence[str]
) -> EvaluationReport:
    """Full evaluation: per-class table plus the aggregate block."""
    matrix = confusion(gold, pred, class_labels)
    metrics = per_class_prf(matrix)
    k = len(metrics)
    return EvaluationReport(
        per_class=tuple(metrics),
        macro_precision=sum(m.precision for m in metrics) / k,
        macro_recall=sum(m.recall for m in metrics) / k,
        macro_f1=sum(m.f1 for m in metrics) / k,
        weighted_f1=_support_weighted_f1(metrics, matrix.total),
        accuracy=accuracy(matrix),
        total=matrix.total,
    )


def _fmt(value: float) -> str:
    # %.17g round-trips every float64 exactly.
    return format(value, ".17g")


def render_report(rep: EvaluationReport) -> str:
    """Tab-separated text form of a report.

    A `# per-class` section with one label per line, then an
    `# aggregate` section of key/value lines.  The format is exact:
    parse_report recovers every float bit-for-bit.
    """
    lines = ["# per-class", "label\tprecision\trecall\tf1\tsupport"]
    for m in rep.per_class:
        lines.append(
            f"{m.label}\t{_fmt(m.precision)}\t{_fmt(m.recall)}\t{_fmt(m.f1)}\t{m.support}"
        )
    lines.append("# aggregate")
    lines.append(f"macro_precision\t{_fmt(rep.macro_precision)}")
    lines.append(f"macro_recall\t{_fmt(rep.macro_recall)}")
    lines.append(f"macro_f1\t{_fmt(rep.macro_f1)}")
    lines.append(f"weighted_f1\t{_fmt(rep.weighted_f1)}")
    lines.append(f"accuracy\t{_fmt(rep.accuracy)}")
    lines.append(f"total\t{rep.total}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> EvaluationReport:
    per_class: list[ClassMetrics] = []
    aggregates: dict[str, str] = {}
    section = None
    for line in text.splitlines():
        if not line:
            continue
        if line == "# per-class":
            section = "per-class"
            continue
        if line == "# aggregate":
            section = "aggregate"
            continue
        if section == "per-class":
            cells = line.split("\t")
            if cells[0] == "label":
                continue
            if len(cells) != 5:
                raise ValueError(f"bad per-class line: {line!r}")
            per_class.append(
                ClassMetrics(
                    label=cells[0],
                    precision=float(cells[1]),
                    recall=float(cells[2]),
                    f1=float(cells[3]),
                    support=int(cells[4]),
                )
            )
        elif section == "aggregate":
            key, sep, value = line.partition("\t")
            if not sep:
                raise ValueError(f"bad aggregate line: {line!r}")
            aggregates[key] = value
        else:
            raise ValueError(f"line outside any section: {line!r}")
    return EvaluationReport(
        per_class=tuple(per_class),
        macro_precision=float(aggregates["macro_precision"]),
        macro_recall=float(aggregates["macro_recall"]),
        macro_f1=float(aggregates["macro_f1"]),
        weighted_f1=float(aggregates["weighted_f1"]),
        accuracy=float(aggregates["accuracy"]),
        total=int(aggregates["total"]),
    )


def write_report(rep: EvaluationReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_report(rep))
