"""Multinomial logistic regression over sparse feature rows.

Training and prediction both take a corpus as one SparseRows matrix.
Plain mini-batch SGD from a zero initialization.  Each epoch walks the
rows in epoch_order(rng_seed, epoch), a splitmix64 stream of the
package's own, so training is bit-reproducible for a fixed input order
on any numpy version (numpy does not promise to keep its generators'
streams), and no command loads numpy.random.

The model is sparse: it holds weights only for the K columns (hash
buckets) its training rows touch, as a K x num_classes matrix, and
nothing for the other dim - K columns.  Training runs on those columns
only, and each batch is two matrix products over a dense block of the
batch's distinct columns.  In the dense num_classes x dim model of
per-example SGD (tests/dense_oracle.py) a column no example uses has a
zero gradient on every batch, so it stays 0 * decay - lr * 0 = 0.0
exactly as long as the decay factor 1 - lr * l2 is not negative, which
HyperParams enforces; leaving it out changes no logit.

Training keeps the weights as a scalar times a matrix, W = s * V
(Shalev-Shwartz et al., "Pegasos", ICML 2007), so the l2 decay of
every weight is one multiply s *= 1 - lr * l2 per batch (Bottou,
"Stochastic Gradient Descent Tricks", 2012), and only the batch's rows
of V are read and written.  When s falls below _FOLD_BELOW (at once
when lr * l2 = 1 makes the decay 0.0), it is folded into V before the
update divides by it, and it is folded once more at the end.  The
touched weights take the same updates as in dense per-example SGD,
summed in another order and scaled: they agree with it to rounding,
within rtol 1e-9 in the tests, and the argmax over the training
documents is the same; they equal those of the batched loop in
tests/dense_oracle.py bit for bit.  Prediction drops the entries on buckets outside the model's columns,
which the dense model weighs 0.0, and its logits are those of the
dense model bit for bit (see logits).
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
_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # splitmix64's increment, 2**64 / golden ratio
_BLOCK_ELEMENTS = 1 << 20  # float64s in one dense batch block: 8 MiB
_FOLD_BELOW = 1e-6  # the weight scale s is folded into V below this


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


def column_table(columns: np.ndarray, dim: int) -> np.ndarray:
    """The dim-sized int32 bucket -> column table of K sorted distinct
    columns: columns[k] maps to k, and every other bucket to K."""
    table = np.full(dim, columns.size, dtype=np.int32)
    table[columns] = np.arange(columns.size, dtype=np.int32)
    return table


def logits(model: LinearModel, rows: SparseRows, table: np.ndarray | None = None) -> np.ndarray:
    """The rows x num_classes logits: the bias plus each row's weighted
    sum of its buckets' weights, 0.0 for a bucket outside the model's
    columns.

    Each entry's column is looked up in table, the model's
    column_table, built here when not given; a caller scoring many
    blocks with one model builds it once.  Entries on unstored buckets
    are dropped: each would add 0.0 * value, a signed zero for a finite
    value, to a sum that starts at +0.0 and so is never -0.0, and such
    a term leaves the sum's bits as they are.  Each class's logits are
    then one np.bincount of its weights at the kept entries, so no
    scratch array is larger than nnz or dim.
    """
    if rows.dim != model.dim:
        raise DimensionMismatch(f"rows dim {rows.dim} != model dim {model.dim}")
    n = len(rows)
    columns = model.columns
    if table is None:
        table = column_table(columns, model.dim)
    position = table[rows.indices]
    stored = position < columns.size
    position = position[stored]
    values = rows.values[stored]
    owner = np.repeat(np.arange(n), np.diff(rows.indptr))[stored]
    out = np.empty((n, model.num_classes), dtype=np.float64)
    for c in range(model.num_classes):
        weighted = model.weights[position, c] * values
        out[:, c] = np.bincount(owner, weights=weighted, minlength=n) + model.bias[c]
    return out


def predict(model: LinearModel, rows: SparseRows, table: np.ndarray | None = None) -> np.ndarray:
    """Class index of each row: the argmax of its logits, ties to the
    lowest index, or the model's fallback_class for an empty row.
    table is as in logits."""
    classes = logits(model, rows, table).argmax(axis=1)
    classes[np.diff(rows.indptr) == 0] = model.fallback_class
    return classes


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64's output function (Steele et al., OOPSLA 2014) on
    uint64 states, mod 2**64; a bijection."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def epoch_order(rng_seed: int, epoch: int, n: int) -> np.ndarray:
    """The order in which train walks n rows in an epoch: a permutation
    of range(n), fixed by (rng_seed, epoch).

    It is the stable argsort of the first n outputs of a splitmix64
    generator, mix(key + (i + 1) * gamma) for row i, started at
    key = mix(mix(seed + gamma) ^ epoch), where seed is rng_seed mod
    2**64 (a negative seed is masked).  mix is a bijection and gamma is
    odd, so the n outputs are distinct.
    """
    seed = np.array([rng_seed & _U64], dtype=np.uint64)
    key = _mix64(_mix64(seed + _GAMMA) ^ np.uint64(epoch))
    steps = np.arange(1, n + 1, dtype=np.uint64) * _GAMMA
    return np.argsort(_mix64(steps + key), kind="stable")


def train(
    rows: SparseRows,
    y: Sequence[int],
    hp: HyperParams = DEFAULT_HP,
    num_classes: int = 2,
    class_labels: Sequence[str] | None = None,
    feature_fingerprint: str = "",
) -> LinearModel:
    """Fit the model to rows with classes y by mini-batch SGD.

    Per epoch the rows are walked in epoch_order(rng_seed, epoch) in
    batches of batch_size (the last batch may be short).  Each batch
    applies the averaged cross-entropy gradient plus l2 weight decay.
    epochs=0 returns the zero model, which predicts uniformly.  The mean
    loss of every epoch is kept on the returned model, and so is the
    most frequent class of y as its fallback_class (ties go to the
    lowest index).

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

    The rows' columns are renumbered over their K distinct columns cols
    through a column_table, freed before the loop.  The weights are
    scale * scaled, scaled K x num_classes (see the module docstring).
    Each batch takes its u distinct rows of scaled once, as vu, and
    writes them back once, as whole rows.  It fills a dense block with
    its rows over those columns, in slices of rows that keep it within
    _BLOCK_ELEMENTS.  Every slice's block is a prefix of one buffer,
    grown when a slice needs more and zeroed again at the slice's own
    entries after use.  The logits are (block @ vu) * scale + bias; the
    gradient, class-major (num_classes x u), is the sum over the slices
    of the transposed probabilities times the block, and is scaled by
    lr / (m * scale) in place and subtracted from vu transposed.
    """
    n = len(rows)
    indptr, values = rows.indptr, rows.values
    nnz = np.diff(indptr)
    present = np.zeros(rows.dim, dtype=bool)
    present[rows.indices] = True
    cols = np.flatnonzero(present)
    del present
    indices = column_table(cols, rows.dim)[rows.indices]
    width = cols.size
    scaled = np.zeros((width, num_classes), dtype=np.float64)
    # One item per row of scaled, so that a batch's rows are set whole.
    row_items = scaled.view(np.dtype((np.void, scaled.itemsize * num_classes))).ravel()
    scale = 1.0
    bias = np.zeros(num_classes, dtype=np.float64)
    # slot[c] is the block column of touched column c in the current batch.
    slot = np.zeros(width, dtype=np.int64)
    # All zeros between slices.
    buffer = np.zeros(0, dtype=np.float64)
    decay = 1.0 - hp.lr * hp.l2
    losses: list[float] = []
    for epoch in range(hp.epochs):
        order = epoch_order(hp.rng_seed, epoch, n)
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
            vu = scaled.take(u, axis=0)
            step = max(1, _BLOCK_ELEMENTS // max(1, u.size))
            for lo in range(0, m, step):
                hi = min(lo + step, m)
                part = slice(starts[lo], ends[hi - 1])
                size = (hi - lo) * u.size
                if buffer.size < size:
                    # The last block is a view of the buffer: drop both,
                    # so the old buffer is freed before the larger one
                    # is allocated.
                    block = buffer = None
                    buffer = np.zeros(size, dtype=np.float64)
                block = buffer[:size].reshape(hi - lo, u.size)
                spots = np.repeat(np.arange(hi - lo) * u.size, lengths[lo:hi])
                spots += slot[batch_cols[part]]
                buffer[spots] = values[entries[part]]

                logits = (block @ vu) * scale + bias
                top = logits.max(axis=1)
                logsumexp = np.log(np.exp(logits - top[:, None]).sum(axis=1)) + top
                picked = (np.arange(hi - lo), targets[batch[lo:hi]])
                epoch_loss += float((logsumexp - logits[picked]).sum())
                probs = np.exp(logits - logsumexp[:, None])
                probs[picked] -= 1.0
                if lo == 0:
                    grad_w = probs.T @ block
                    grad_b = probs.sum(axis=0)
                else:
                    grad_w += probs.T @ block
                    grad_b += probs.sum(axis=0)
                buffer[spots] = 0.0
            scale *= decay
            # Checked before the division below, which scale = 0.0 (the
            # decay of lr * l2 = 1) would make infinite.
            if scale < _FOLD_BELOW:
                scaled *= scale
                vu *= scale
                scale = 1.0
            grad_w *= hp.lr / (m * scale)
            vu -= grad_w.T
            row_items[u] = vu.view(row_items.dtype).ravel()
            bias -= hp.lr * (grad_b * (1.0 / m))
            # Freed before the next batch: a gradient still alive when
            # a larger buffer is allocated pins the heap under the freed
            # one, which added up to 9.6 MB (glibc malloc) to fit-nadi's
            # peak RSS.
            del grad_w
        if not (np.isfinite(scaled).all() and np.isfinite(bias).all()):
            raise FloatingPointError(f"non-finite parameters after epoch {epoch}")
        losses.append(epoch_loss / n)
    scaled *= scale
    return cols, scaled, bias, losses


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
    not UTF-8, a size that does not match the header, column ids
    that are not strictly increasing below dim, or a weight or bias
    that is not finite."""
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
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
        raise CorruptArtifact(f"{path}: a weight or bias is not finite")
    return LinearModel(
        columns=columns,
        weights=weights,
        bias=bias,
        dim=dim,
        class_labels=labels,
        feature_fingerprint=fingerprint,
        fallback_class=fallback,
    )
