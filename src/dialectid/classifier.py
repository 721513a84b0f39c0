"""Multinomial logistic regression over sparse feature rows.

Training and prediction both take a corpus as one SparseRows matrix.
Plain mini-batch SGD from a zero initialization.  Shuffling is rebuilt
per epoch from (rng_seed, epoch), so training is bit-reproducible for a
fixed input order.

The model is sparse: it holds weights only for the K columns (hash
buckets) its training rows touch, as a K x num_classes matrix, and
nothing for the other dim - K columns.  Training runs on those columns
only, and each batch is two matrix products over a dense block of the
batch's distinct columns.  In the dense num_classes x dim model of
per-example SGD (tests/dense_oracle.py) a column no example uses has a
zero gradient on every batch, so it stays 0 * decay - lr * 0 = 0.0
exactly as long as the decay factor 1 - lr * l2 is not negative, which
HyperParams enforces; leaving it out changes no logit.  The touched
weights take the same updates as in dense per-example SGD, summed in
another order: they agree with it to rounding, within rtol 1e-9 in the
tests, and the argmax over the training documents is the same.
Prediction reads a bucket outside the model's columns as weight 0.0,
so its logits are those of the dense model bit for bit.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from typing import BinaryIO, Sequence

import numpy as np

from .binio import read_array, read_exact, read_ids, write_array, written_whole
from .errors import (
    ClassIndexOutOfRange,
    CorruptArtifact,
    DimensionMismatch,
    EmptyTrainingSet,
    LengthMismatch,
)
from .features import SparseRows

MODEL_MAGIC = b"NADIMDL3"

_U64 = 0xFFFFFFFFFFFFFFFF
_BLOCK_ELEMENTS = 1 << 20  # float64s in one dense batch block: 8 MiB


@dataclass(frozen=True, slots=True)
class HyperParams:
    lr: float = 0.1
    max_seq_len: int = 256
    batch_size: int = 40
    epochs: int = 5
    l2: float = 1e-6
    rng_seed: int = 42

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.max_seq_len < 1:
            raise ValueError(f"max_seq_len must be >= 1, got {self.max_seq_len}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not (math.isfinite(self.l2) and self.l2 >= 0):
            raise ValueError(f"l2 must be finite and >= 0, got {self.l2}")
        if self.lr * self.l2 > 1:
            raise ValueError(
                f"lr * l2 must be <= 1 so the weight decay factor 1 - lr * l2 "
                f"is not negative, got lr={self.lr}, l2={self.l2}"
            )


DEFAULT_HP = HyperParams()


@dataclass
class LinearModel:
    """A linear model over dim hash buckets that stores only some of them.

    columns holds the K stored buckets, sorted, and weights their
    weights, K x num_classes; every other bucket weighs 0.0 for every
    class.  A trained model stores the buckets its rows use; one loaded
    from a file written whole stores all dim (see save_model).  bias and
    class_labels are per class, in label order.  fallback_class is the
    class index given to a text with no features: the majority class of
    the training data.  feature_fingerprint is the harness.fingerprint
    of the text preparation and features it was trained on, or "" when
    unknown."""

    columns: np.ndarray
    weights: np.ndarray
    bias: np.ndarray
    dim: int
    class_labels: list[str]
    feature_fingerprint: str = ""
    epoch_losses: list[float] = field(default_factory=list)
    fallback_class: int = 0

    @property
    def num_classes(self) -> int:
        return int(self.weights.shape[1])


def logits(model: LinearModel, rows: SparseRows) -> np.ndarray:
    """The rows x num_classes logits: the bias plus each row's weighted
    sum of its buckets' weights, 0.0 for a bucket outside the model's
    columns.

    The entries' buckets are found in columns with one searchsorted,
    and each class's logits are one np.bincount of that class's weights
    at the entries, so no scratch array is larger than nnz.
    """
    if rows.dim != model.dim:
        raise DimensionMismatch(f"rows dim {rows.dim} != model dim {model.dim}")
    n = len(rows)
    owner = np.repeat(np.arange(n), np.diff(rows.indptr))
    columns = model.columns
    # An entry's bucket is stored when the column searchsorted places
    # it before is that bucket.
    position = np.searchsorted(columns, rows.indices)
    stored = position < columns.size
    stored[stored] = columns[position[stored]] == rows.indices[stored]
    position = position[stored]
    out = np.empty((n, model.num_classes), dtype=np.float64)
    weight = np.zeros(rows.nnz, dtype=np.float64)
    for c in range(model.num_classes):
        weight[stored] = model.weights[position, c]
        out[:, c] = np.bincount(owner, weights=weight * rows.values, minlength=n) + model.bias[c]
    return out


def predict(model: LinearModel, rows: SparseRows) -> np.ndarray:
    """Class index of each row: the argmax of its logits, ties to the
    lowest index, or the model's fallback_class for an empty row."""
    classes = logits(model, rows).argmax(axis=1)
    classes[np.diff(rows.indptr) == 0] = model.fallback_class
    return classes


def train(
    rows: SparseRows,
    y: Sequence[int],
    hp: HyperParams = DEFAULT_HP,
    num_classes: int = 2,
    class_labels: Sequence[str] | None = None,
    feature_fingerprint: str = "",
) -> LinearModel:
    """Fit the model to rows with classes y by mini-batch SGD.

    Per epoch the rows are shuffled by a fresh RNG seeded from
    (rng_seed, epoch) and walked in batches of batch_size (the last
    batch may be short).  Each batch applies the averaged cross-entropy
    gradient plus l2 weight decay.  epochs=0 returns the zero model,
    which predicts uniformly.  The mean loss of every epoch is kept on
    the returned model, and so is the most frequent class of y as its
    fallback_class (ties go to the lowest index).

    The model stores the K distinct columns the rows use and their
    K x num_classes weights, which equal those of dense per-example SGD
    to rounding; the dense model's other columns are exactly 0.0 (see
    the module docstring).
    """
    if not len(rows):
        raise EmptyTrainingSet("no training examples")
    targets = np.asarray(y, dtype=np.int64)
    if targets.shape != (len(rows),):
        raise LengthMismatch(f"{targets.size} classes for {len(rows)} rows")
    if targets.min() < 0 or targets.max() >= num_classes:
        raise ClassIndexOutOfRange(f"a class index is outside [0, {num_classes})")
    if class_labels is None:
        labels = [str(i) for i in range(num_classes)]
    else:
        if len(class_labels) != num_classes:
            raise ValueError(f"{len(class_labels)} labels for {num_classes} classes")
        labels = list(class_labels)

    counts = np.bincount(targets, minlength=num_classes)
    cols, weights, bias, losses = _sgd(rows, targets, hp, num_classes)
    return LinearModel(
        columns=cols,
        weights=weights,
        bias=bias,
        dim=rows.dim,
        class_labels=labels,
        feature_fingerprint=feature_fingerprint,
        epoch_losses=losses,
        fallback_class=int(counts.argmax()),
    )


def _sgd(
    rows: SparseRows, targets: np.ndarray, hp: HyperParams, num_classes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float]]:
    """(cols, weights, bias, epoch_losses) of train's SGD loop.

    The rows' columns are renumbered over their K distinct columns
    cols; weights is K x num_classes, so a batch's rows are contiguous.
    Each batch fills a dense block with its rows over its u distinct
    columns, in slices of rows that keep it within _BLOCK_ELEMENTS; the
    logits are one product with weights[u] and the gradient the sum of
    one product per slice with the block's transpose.
    """
    n = len(rows)
    indptr, values = rows.indptr, rows.values
    nnz = np.diff(indptr)
    cols, indices = np.unique(rows.indices, return_inverse=True)
    width = cols.size
    weights = np.zeros((width, num_classes), dtype=np.float64)
    bias = np.zeros(num_classes, dtype=np.float64)
    # slot[c] is the block column of touched column c in the current batch.
    slot = np.zeros(width, dtype=np.int64)
    decay = 1.0 - hp.lr * hp.l2
    losses: list[float] = []
    for epoch in range(hp.epochs):
        rng = np.random.default_rng((hp.rng_seed & _U64, epoch))
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, hp.batch_size):
            batch = order[start : start + hp.batch_size]
            m = batch.size
            lengths = nnz[batch]
            ends = np.cumsum(lengths)
            starts = ends - lengths
            entries = np.arange(ends[-1]) + np.repeat(indptr[batch] - starts, lengths)
            batch_cols = indices[entries]
            touched = np.zeros(width, dtype=bool)
            touched[batch_cols] = True
            u = np.flatnonzero(touched)
            slot[u] = np.arange(u.size)
            step = max(1, _BLOCK_ELEMENTS // max(1, u.size))
            for lo in range(0, m, step):
                hi = min(lo + step, m)
                part = slice(starts[lo], ends[hi - 1])
                block = np.zeros((hi - lo, u.size), dtype=np.float64)
                flat = np.repeat(np.arange(hi - lo) * u.size, lengths[lo:hi])
                block.ravel()[flat + slot[batch_cols[part]]] = values[entries[part]]

                logits = block @ weights[u] + bias
                top = logits.max(axis=1)
                logsumexp = np.log(np.exp(logits - top[:, None]).sum(axis=1)) + top
                picked = (np.arange(hi - lo), targets[batch[lo:hi]])
                epoch_loss += float((logsumexp - logits[picked]).sum())
                probs = np.exp(logits - logsumexp[:, None])
                probs[picked] -= 1.0
                if lo == 0:
                    grad_w = block.T @ probs
                    grad_b = probs.sum(axis=0)
                else:
                    grad_w += block.T @ probs
                    grad_b += probs.sum(axis=0)
            scale = 1.0 / m
            weights *= decay
            weights[u] -= hp.lr * (grad_w * scale)
            bias -= hp.lr * (grad_b * scale)
            # Freed before the next batch allocates its block: a gradient
            # still alive then pins the heap under the freed blocks, which
            # added up to 9.6 MB (glibc malloc) to fit-nadi's peak RSS.
            del grad_w
        if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
            raise FloatingPointError(f"non-finite parameters after epoch {epoch}")
        losses.append(epoch_loss / n)
    return cols, weights, bias, losses


def save_model(model: LinearModel, path: str) -> None:
    """Binary layout: magic, u32 num_classes, u32 dim, u32 fallback
    class, u32 number W of columns written; per label, then for the
    feature fingerprint, a u32 byte length plus UTF-8 bytes; the W
    sorted column ids as u32, left out when W is dim; the W x
    num_classes weights, row-major, and the biases, as little-endian
    float64.

    A model storing more than a quarter of its columns is written whole
    (W = dim, 0.0 for an unstored column), else sparse (W = K); see
    binio.written_whole.
    """
    columns, weights = model.columns, model.weights
    whole = written_whole(columns.size, model.dim)
    if whole and columns.size < model.dim:
        # At most four times the stored weights (written_whole).
        weights = np.zeros((model.dim, model.num_classes), dtype=np.float64)
        weights[columns] = model.weights
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack(
            "<IIII", model.num_classes, model.dim, model.fallback_class, weights.shape[0]
        ))
        for text in [*model.class_labels, model.feature_fingerprint]:
            raw = text.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        if not whole:
            write_array(fh, columns, "<u4")
        write_array(fh, weights, "<f8")
        write_array(fh, model.bias, "<f8")


def _read_text(fh: BinaryIO, size: int, path: str, what: str) -> str:
    """A u32 byte length and that many UTF-8 bytes, as a string."""
    (length,) = struct.unpack("<I", read_exact(fh, 4, path, f"the length of {what}"))
    if length > size - fh.tell():
        raise CorruptArtifact(f"{path}: file ends inside {what}")
    try:
        return read_exact(fh, length, path, what).decode("utf-8")
    except UnicodeDecodeError:
        raise CorruptArtifact(f"{path}: {what} is not UTF-8") from None


def load_model(path: str) -> LinearModel:
    """Read a file written by save_model; a whole file loads as a model
    storing all dim columns.  Raises CorruptArtifact on a bad magic
    (files of the earlier dense formats included: retrain them), a cut
    header, a fallback class outside the classes, more columns than
    dim, a sparse file with more than a quarter of dim columns (a
    model that full is written whole), a label or fingerprint that is
    not UTF-8, a size that does not match the header, or column ids
    that are not strictly increasing below dim."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(MODEL_MAGIC)) != MODEL_MAGIC:
            raise CorruptArtifact(f"{path}: not a {MODEL_MAGIC.decode()} model file (bad magic)")
        num_classes, dim, fallback, width = struct.unpack(
            "<IIII", read_exact(fh, 16, path, "the header")
        )
        if fallback >= num_classes:
            raise CorruptArtifact(
                f"{path}: fallback class {fallback} outside {num_classes} classes"
            )
        if width > dim:
            raise CorruptArtifact(f"{path}: {width} columns for dim {dim}")
        whole = width == dim
        if not whole and written_whole(width, dim):
            raise CorruptArtifact(
                f"{path}: {width} of {dim} columns listed; a model that full is written whole"
            )
        labels = [_read_text(fh, size, path, f"label {i}") for i in range(num_classes)]
        fingerprint = _read_text(fh, size, path, "the feature fingerprint")
        ids_bytes = 0 if whole else 4 * width
        expected = fh.tell() + ids_bytes + 8 * width * num_classes + 8 * num_classes
        if size != expected:
            raise CorruptArtifact(f"{path}: expected {expected} bytes, found {size}")
        if whole:
            columns = np.arange(dim, dtype=np.int64)
        else:
            columns = read_ids(fh, width, dim, path, "the column ids")
        weights = read_array(fh, "<f8", (width, num_classes), path, "the weights")
        bias = read_array(fh, "<f8", (num_classes,), path, "the biases")
    return LinearModel(
        columns=columns,
        weights=weights,
        bias=bias,
        dim=dim,
        class_labels=labels,
        feature_fingerprint=fingerprint,
        fallback_class=fallback,
    )
