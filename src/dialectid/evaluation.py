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
    acc = accuracy(matrix)  # raises EmptyMatrix before the weighted mean divides by 0
    return EvaluationReport(
        per_class=tuple(metrics),
        macro_precision=sum(m.precision for m in metrics) / k,
        macro_recall=sum(m.recall for m in metrics) / k,
        macro_f1=sum(m.f1 for m in metrics) / k,
        weighted_f1=sum(m.f1 * m.support for m in metrics) / matrix.total,
        accuracy=acc,
        total=matrix.total,
    )


def _fmt(value: float) -> str:
    # %.17g round-trips every float64 exactly.
    return format(value, ".17g")


def render_report(rep: EvaluationReport) -> str:
    """Tab-separated text form of a report.

    A `# per-class` section with one label per line, then an
    `# aggregate` section of key/value lines.  The format is exact:
    %.17g gives back every float bit-for-bit.
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


def write_report(rep: EvaluationReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_report(rep))
