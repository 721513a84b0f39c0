"""Output checks, computed apart from the program.

One operation is one test prediction.  `read_submission` and
`failed_predictions` judge single predictions; the report, grid and
margin checks judge a whole command, and run.py fails every prediction
of a command that fails one of them.
"""

from __future__ import annotations

from typing import Sequence

# macro F1 must beat the majority-class predictor's by this much (absolute).
MAJORITY_MARGIN = 0.3
REPORT_TOLERANCE = 1e-12


def read_submission(data: bytes, ids: Sequence[str], inventory: Sequence[str]) -> list[str | None]:
    """Predicted label per test row, or None where the row is missing,
    out of order, or labelled outside the inventory.  A file with more
    rows than the test split has no valid row."""
    allowed = set(inventory)
    lines = data.decode("utf-8", errors="replace").splitlines()
    if len(lines) > len(ids):
        return [None] * len(ids)
    out: list[str | None] = []
    for i, rid in enumerate(ids):
        label = None
        if i < len(lines):
            got_id, sep, got_label = lines[i].partition(",")
            if sep and got_id == rid and got_label in allowed:
                label = got_label
        out.append(label)
    return out


def macro_f1(gold: Sequence[str], pred: Sequence[str | None], inventory: Sequence[str]) -> float:
    """Mean per-class F1 over the inventory from a confusion count.

    A None prediction is a miss for its gold class and a hit for none.
    Precision, recall and F1 of a class with an empty denominator are 0.
    """
    tp = {c: 0 for c in inventory}
    gold_n = {c: 0 for c in inventory}
    pred_n = {c: 0 for c in inventory}
    for g, p in zip(gold, pred, strict=True):
        gold_n[g] += 1
        if p is not None:
            pred_n[p] += 1
            if p == g:
                tp[g] += 1
    total = 0.0
    for c in inventory:
        precision = tp[c] / pred_n[c] if pred_n[c] else 0.0
        recall = tp[c] / gold_n[c] if gold_n[c] else 0.0
        total += 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return total / len(inventory)


def majority_f1(fit_gold: Sequence[str], test_gold: Sequence[str], inventory: Sequence[str]) -> float:
    """macro F1 of always predicting the most frequent label of the fit
    data (earliest inventory label on ties)."""
    counts = {c: 0 for c in inventory}
    for g in fit_gold:
        counts[g] += 1
    majority = max(inventory, key=lambda c: (counts[c], -inventory.index(c)))
    return macro_f1(test_gold, [majority] * len(test_gold), inventory)


def report_macro_f1(text: str) -> float | None:
    for line in text.splitlines():
        key, _, value = line.partition("\t")
        if key == "macro_f1":
            try:
                return float(value)
            except ValueError:
                return None
    return None


def grid_selection_ok(text: str) -> bool:
    """grid.tsv marks exactly one row: the highest macro_f1, the earliest
    row on ties."""
    lines = text.splitlines()
    if not lines:
        return False
    header = lines[0].split("\t")
    try:
        metric_col = header.index("macro_f1")
        mark_col = header.index("selected")
        rows = [line.split("\t") for line in lines[1:]]
        scores = [float(r[metric_col]) for r in rows]
        marks = [r[mark_col] for r in rows]
    except (ValueError, IndexError):
        return False
    if not rows or sorted(marks) != ["0"] * (len(rows) - 1) + ["1"]:
        return False
    return marks.index("1") == scores.index(max(scores))


def failed_predictions(
    pred: Sequence[str | None], reference: Sequence[str | None] | None = None
) -> int:
    """Rows that are invalid, or that disagree with a reference run."""
    if reference is None:
        return sum(p is None for p in pred)
    return sum(p is None or p != r for p, r in zip(pred, reference, strict=True))
