"""Multinomial logistic regression over sparse feature rows.

Training and prediction both take a corpus as one SparseRows matrix.
Plain mini-batch SGD from a zero initialization.  Each epoch walks the
rows in epoch_order(rng_seed, epoch), a splitmix64 stream of the
package's own, so training is bit-reproducible for a fixed input order
on any numpy version (numpy does not promise to keep its generators'
streams), and no command loads numpy.random.

The model is sparse: it holds weights only for the K columns (hash
buckets) of its idf table, those its training rows touch, as a K x
num_classes matrix, and nothing for the other dim - K columns.
Training runs on those columns only, and each batch is two matrix
products over a dense block of the batch's distinct columns.  In the
dense num_classes x dim model of per-example SGD
(tests/dense_oracle.py) a column no example uses has a zero gradient
on every batch, so it stays 0 * decay - lr * 0 = 0.0 exactly as long
as the decay factor 1 - lr * l2 is not negative, which HyperParams
enforces; leaving it out changes no logit.

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
tests/dense_oracle.py bit for bit.

A model carries the features.IdfTable it was fitted with, its columns
and dim; training, a batch at a time, and prediction find a bucket's
column in that table's one bucket -> column table, so training holds
nothing corpus-sized beside the rows.  Prediction drops the entries on
buckets outside the model's columns, which the dense model weighs 0.0,
and scores each row with one contiguous gather of its entries' weight
rows, summed in the dense model's order, so its logits are those of the
dense model bit for bit (see logits).

This module alone reads and writes the saved model: save_model writes
a model file and the file of its idf table, and load_model reads the
two back as one LinearModel, or raises CorruptArtifact naming the
file at fault.  Arrays go to disk as little-endian numbers straight
from their memory when they already have that layout, and come back
by readinto into preallocated arrays, so neither direction makes a
second copy of a large array.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from typing import BinaryIO, Sequence

import numpy as np

from .errors import (
    ClassIndexOutOfRange,
    CorruptArtifact,
    DialectIdError,
    DimensionMismatch,
    EmptyTrainingSet,
    LengthMismatch,
    TrainingDiverged,
)
from .features import IdfTable, SparseRows

MODEL_MAGIC = b"NADIMDL3"
IDF_MAGIC = b"NADIIDF2"

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


@dataclass
class LinearModel:
    """A linear model over the buckets of its idf table.

    weights holds the weights of the table's K columns (idf.columns),
    K x num_classes; every other bucket weighs 0.0 for every class.
    bias and class_labels are per class, in label order.
    fallback_class is the class index given to a text with no features:
    the majority class of the training data.  feature_fingerprint is the
    harness.fingerprint of the text preparation and features it was
    trained on, or "" when unknown."""

    weights: np.ndarray
    bias: np.ndarray
    class_labels: list[str]
    idf: IdfTable
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

    Each entry's column is looked up in the model's idf.table.  Entries on
    unstored buckets are dropped: each would add 0.0 * value, a signed
    zero for a finite value, to a sum that starts at +0.0 and so is
    never -0.0, and such a term leaves the sum's bits as they are.

    Each row's kept entries then take their weight rows in one
    contiguous gather, entries x num_classes, scaled by their values,
    and the gather is summed over the entries from +0.0, left to right,
    as the dense model's np.bincount adds them (tests/dense_oracle.py).
    np.add.reduce sums a C-contiguous array along its slow axis that
    way, one class per lane; one class has no other axis, and numpy
    would sum it pairwise, so one class takes the np.bincount itself.
    No scratch array is larger than nnz, dim or one row's gather.
    """
    if rows.dim != model.idf.dim:
        raise DimensionMismatch(f"rows dim {rows.dim} != model dim {model.idf.dim}")
    n = len(rows)
    position = model.idf.table[rows.indices]
    stored = position < model.idf.columns.size
    position = position[stored].astype(np.intp)
    values = rows.values[stored]
    kept = np.concatenate(([0], np.cumsum(stored)))[rows.indptr]
    out = np.empty((n, model.num_classes), dtype=np.float64)
    if model.num_classes == 1:
        owner = np.repeat(np.arange(n), np.diff(kept))
        out[:, 0] = np.bincount(owner, weights=model.weights[position, 0] * values, minlength=n)
    else:
        bounds = kept.tolist()
        for i in range(n):
            lo, hi = bounds[i], bounds[i + 1]
            gathered = model.weights.take(position[lo:hi], axis=0)
            gathered *= values[lo:hi, None]
            np.add.reduce(gathered, axis=0, out=out[i], initial=0.0)
    out += model.bias
    return out


def predict(model: LinearModel, rows: SparseRows) -> np.ndarray:
    """Class index of each row: the argmax of its logits, ties to the
    lowest index, or the model's fallback_class for an empty row."""
    classes = logits(model, rows).argmax(axis=1)
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
    *,
    y: Sequence[int],
    hp: HyperParams,
    class_labels: Sequence[str],
    idf: IdfTable,
    feature_fingerprint: str = "",
) -> LinearModel:
    """Fit the model to rows with classes y, indices into class_labels,
    by mini-batch SGD.

    Per epoch the rows are walked in epoch_order(rng_seed, epoch) in
    batches of batch_size (the last batch may be short).  Each batch
    applies the averaged cross-entropy gradient plus l2 weight decay.
    epochs=0 returns the zero model, which predicts uniformly.  The mean
    loss of every epoch is kept on the returned model, and so is the
    most frequent class of y as its fallback_class (ties go to the
    lowest index).

    The model carries idf, and weighs its columns, which must hold every
    bucket the rows use (as fit_idf of the rows' counts does).  Their
    weights equal those of dense per-example SGD to rounding; the dense
    model's other columns are exactly 0.0 (see the module docstring).
    """
    if not len(rows):
        raise EmptyTrainingSet("no training examples")
    targets = np.asarray(y, dtype=np.int64)
    if targets.shape != (len(rows),):
        raise LengthMismatch(f"{targets.size} classes for {len(rows)} rows")
    num_classes = len(class_labels)
    if targets.min() < 0 or targets.max() >= num_classes:
        raise ClassIndexOutOfRange(f"a class index is outside [0, {num_classes})")
    if rows.dim != idf.dim:
        raise DimensionMismatch(f"rows dim {rows.dim} != idf dim {idf.dim}")
    used = np.zeros(idf.dim, dtype=bool)  # not a corpus-sized copy of the ids
    used[rows.indices] = True
    used[idf.columns] = False
    if used.any():
        raise DimensionMismatch("a row uses a bucket outside the idf table's columns")
    del used

    counts = np.bincount(targets, minlength=num_classes)
    weights, bias, losses = _sgd(rows, idf.table, idf.columns.size, targets, hp, num_classes)
    return LinearModel(
        weights=weights,
        bias=bias,
        class_labels=list(class_labels),
        idf=idf,
        feature_fingerprint=feature_fingerprint,
        epoch_losses=losses,
        fallback_class=int(counts.argmax()),
    )


def _sgd(
    rows: SparseRows, table: np.ndarray, width: int, targets: np.ndarray, hp: HyperParams,
    num_classes: int,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """(weights, bias, epoch_losses) of train's SGD loop over width
    columns, table[b] the column of bucket b (features.column_table).

    The weights are scale * scaled, scaled width x num_classes (see the
    module docstring).  Each batch maps its buckets through table, takes
    its u distinct rows of scaled once, as vu, and writes them back once,
    as whole rows.  It fills a dense block with its rows over those
    columns, in slices of rows within _BLOCK_ELEMENTS, each a prefix of
    one buffer allocated once, at a bound from the row lengths, and
    zeroed again at the slice's own entries after use.  The logits are
    (block @ vu) * scale + bias; the gradient, class-major (num_classes
    x u), is the sum over the slices of the transposed probabilities
    times the block, scaled by lr / (m * scale) in place and subtracted
    from vu transposed.
    """
    n = len(rows)
    indptr, values = rows.indptr, rows.values
    nnz = np.diff(indptr)
    # Every slice fits the buffer, all zeros between slices.  A batch has
    # m <= min(n, batch_size) rows over u <= U = min(width, the entries of
    # the batch_size longest rows) columns, in slices of s = min(m, max(1,
    # _BLOCK_ELEMENTS // u)) rows: s * u <= m * u <= min(n, batch_size) * U,
    # and s * u <= _BLOCK_ELEMENTS if u <= _BLOCK_ELEMENTS, else s = 1 and
    # s * u = u <= U.  It is never regrown: a regrown buffer made fit-nadi's
    # peak RSS hang on glibc's heap layout.
    widest = min(width, int(np.sort(nnz)[-hp.batch_size :].sum()))
    bound = min(min(n, hp.batch_size) * widest, max(_BLOCK_ELEMENTS, widest))
    buffer = np.zeros(bound if hp.epochs else 0, dtype=np.float64)
    scaled = np.zeros((width, num_classes), dtype=np.float64)
    # One item per row of scaled, so that a batch's rows are set whole.
    row_items = scaled.view(np.dtype((np.void, scaled.itemsize * num_classes))).ravel()
    scale = 1.0
    bias = np.zeros(num_classes, dtype=np.float64)
    # slot[c] is the block column of touched column c in the current batch.
    slot = np.zeros(width, dtype=np.int64)
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
            batch_cols = table[rows.indices[entries]]
            touched = np.zeros(width, dtype=bool)
            touched[batch_cols] = True
            u = np.flatnonzero(touched)
            slot[u] = np.arange(u.size)
            vu = scaled.take(u, axis=0)
            step = max(1, _BLOCK_ELEMENTS // max(1, u.size))
            for lo in range(0, m, step):
                hi = min(lo + step, m)
                part = slice(starts[lo], ends[hi - 1])
                block = buffer[: (hi - lo) * u.size].reshape(hi - lo, u.size)
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
            # Freed before the next batch: kept one batch longer, it added
            # up to 9.6 MB (glibc malloc) to fit-nadi's peak RSS.
            del grad_w
        if not (np.isfinite(scaled).all() and np.isfinite(bias).all()):
            raise TrainingDiverged(f"non-finite parameters after epoch {epoch}")
        losses.append(epoch_loss / n)
    scaled *= scale
    return scaled, bias, losses


def _write_array(fh: BinaryIO, array: np.ndarray, dtype: str) -> None:
    """Write array in C order as dtype (e.g. "<f8", "<u4"); no copy when
    it already is one."""
    fh.write(memoryview(np.ascontiguousarray(array, dtype=dtype)))


def _write_table(fh: BinaryIO, columns: np.ndarray, rows: np.ndarray, dtype: str) -> None:
    """Write the table of the K sorted buckets columns: their ids as u32
    and then their K rows as dtype."""
    _write_array(fh, columns, "<u4")
    _write_array(fh, rows, dtype)


def _read_exact(fh: BinaryIO, size: int, path: str, what: str) -> bytes:
    """Read exactly size bytes, or raise CorruptArtifact naming the field
    (what) the file ends in."""
    data = fh.read(size)
    if len(data) != size:
        raise CorruptArtifact(f"{path}: file ends inside {what}")
    return data


def _read_array(
    fh: BinaryIO, dtype: str, shape: tuple[int, ...], path: str, what: str
) -> np.ndarray:
    """Read an array of dtype and the given shape into a fresh array, by
    readinto, so no second copy is made."""
    out = np.empty(shape, dtype=dtype)
    if fh.readinto(memoryview(out)) != out.nbytes:
        raise CorruptArtifact(f"{path}: file ends inside {what}")
    return out


def _read_table(
    fh: BinaryIO, width: int, dim: int, dtype: str, row_shape: tuple[int, ...], path: str,
    what: str,
) -> tuple[np.ndarray, np.ndarray]:
    """The width ids, as int64, and the width rows of dtype of a table
    _write_table wrote.  Raises CorruptArtifact unless the ids are
    strictly increasing below dim."""
    ids = _read_array(fh, "<u4", (width,), path, "the bucket ids").astype(np.int64)
    if width and (ids[-1] >= dim or np.any(ids[1:] <= ids[:-1])):
        raise CorruptArtifact(f"{path}: the bucket ids are not strictly increasing below {dim}")
    return ids, _read_array(fh, dtype, (width, *row_shape), path, what)


def _read_text(fh: BinaryIO, size: int, path: str, what: str) -> str:
    """A u32 byte length and that many UTF-8 bytes, as a string."""
    (length,) = struct.unpack("<I", _read_exact(fh, 4, path, f"the length of {what}"))
    if length > size - fh.tell():
        raise CorruptArtifact(f"{path}: file ends inside {what}")
    try:
        return _read_exact(fh, length, path, what).decode("utf-8")
    except UnicodeDecodeError:
        raise CorruptArtifact(f"{path}: {what} is not UTF-8") from None


def save_model(model: LinearModel, model_path: str, idf_path: str) -> None:
    """Write the model to model_path and its idf table to idf_path.

    Both files are little-endian, and each holds one _write_table table
    over the idf's K columns: the K bucket ids as u32, then K rows.  The
    idf file: IDF_MAGIC, u32 dim, u32 doc_count, u32 K, then the table
    of the document frequencies as u32.  The model file: MODEL_MAGIC,
    u32 num_classes, u32 dim, u32 fallback class, u32 K; per label, then
    for the feature fingerprint, a u32 byte length plus UTF-8 bytes; the
    table of the weights, one row of num_classes float64 per column; and
    the biases as float64.
    """
    idf = model.idf
    width = idf.columns.size
    with open(idf_path, "wb") as fh:
        fh.write(IDF_MAGIC)
        fh.write(struct.pack("<III", idf.dim, idf.doc_count, width))
        _write_table(fh, idf.columns, idf.df, "<u4")
    with open(model_path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<IIII", model.num_classes, idf.dim, model.fallback_class, width))
        for text in [*model.class_labels, model.feature_fingerprint]:
            raw = text.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        _write_table(fh, idf.columns, model.weights, "<f8")
        _write_array(fh, model.bias, "<f8")


def _read_idf(path: str) -> IdfTable:
    """The idf table of a file save_model wrote."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(IDF_MAGIC)) != IDF_MAGIC:
            raise CorruptArtifact(f"{path}: not a {IDF_MAGIC.decode()} idf table (bad magic)")
        dim, doc_count, width = struct.unpack("<III", _read_exact(fh, 12, path, "the header"))
        # The table's bucket -> column table is dim-sized: a dim no
        # FeatureConfig accepts must not allocate one.
        if dim < 2 or dim & (dim - 1):
            raise CorruptArtifact(f"{path}: dim {dim} is not a power of two >= 2")
        if width > dim:
            raise CorruptArtifact(f"{path}: {width} occupied buckets for dim {dim}")
        expected = fh.tell() + (4 + 4) * width
        if size != expected:
            raise CorruptArtifact(f"{path}: expected {expected} bytes, found {size}")
        columns, df = _read_table(fh, width, dim, "<u4", (), path, "the document frequencies")
    if width and df.min() == 0:
        raise CorruptArtifact(f"{path}: a listed bucket has document frequency 0")
    if width and df.max() > doc_count:
        raise CorruptArtifact(f"{path}: a document frequency is above {doc_count}")
    return IdfTable(columns=columns, df=df.astype(np.int64), doc_count=doc_count, dim=dim)


def load_model(model_path: str, idf_path: str) -> LinearModel:
    """Read the idf file and then the model file save_model wrote, as the
    model over that idf table.

    Raises CorruptArtifact, naming the file, on a bad magic (files of
    earlier formats included: retrain them), a cut header, a size that
    does not match the header (a table an earlier version wrote whole,
    without ids, included: retrain it), or ids that are not strictly
    increasing below dim.  In the idf file also on a dim that is not a
    power of two >= 2, more buckets than dim, a listed bucket with
    document frequency 0 or a document frequency above doc_count; in
    the model file on a fallback class outside the classes, more
    columns than dim, a label or fingerprint that is not UTF-8, or a
    weight or bias that is not finite.  Raises DimensionMismatch when
    the two dims differ, and DialectIdError unless the files were
    fitted together: the same ids.
    """
    idf = _read_idf(idf_path)
    path = model_path
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(MODEL_MAGIC)) != MODEL_MAGIC:
            raise CorruptArtifact(f"{path}: not a {MODEL_MAGIC.decode()} model file (bad magic)")
        num_classes, dim, fallback, width = struct.unpack(
            "<IIII", _read_exact(fh, 16, path, "the header")
        )
        if fallback >= num_classes:
            raise CorruptArtifact(
                f"{path}: fallback class {fallback} outside {num_classes} classes"
            )
        if width > dim:
            raise CorruptArtifact(f"{path}: {width} columns for dim {dim}")
        labels = [_read_text(fh, size, path, f"label {i}") for i in range(num_classes)]
        fingerprint = _read_text(fh, size, path, "the feature fingerprint")
        expected = fh.tell() + (4 + 8 * num_classes) * width + 8 * num_classes
        if size != expected:
            raise CorruptArtifact(f"{path}: expected {expected} bytes, found {size}")
        if dim != idf.dim:
            raise DimensionMismatch(f"{path}: model dim {dim} does not match idf dim {idf.dim}")
        columns, weights = _read_table(fh, width, dim, "<f8", (num_classes,), path, "the weights")
        bias = _read_array(fh, "<f8", (num_classes,), path, "the biases")
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
        raise CorruptArtifact(f"{path}: a weight or bias is not finite")
    if not np.array_equal(columns, idf.columns):
        raise DialectIdError(f"{path}: model and idf were not fitted together")
    return LinearModel(
        weights=weights,
        bias=bias,
        class_labels=labels,
        idf=idf,
        feature_fingerprint=fingerprint,
        fallback_class=fallback,
    )
