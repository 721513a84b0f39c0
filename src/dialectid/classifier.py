"""Multinomial logistic regression over sparse feature vectors.

Plain mini-batch SGD from a zero initialization.  Shuffling is rebuilt
per epoch from (rng_seed, epoch), so training is bit-reproducible for a
fixed input order.

Training runs on the columns the corpus touches, not on the full
num_classes x dim matrix.  That gives the same weights bit for bit as
dense training: a column no example uses has a zero gradient on every
batch, so it stays 0 * decay - lr * 0 = 0 as long as the decay factor
1 - lr * l2 is not negative, which HyperParams enforces.  Every other
weight sees the same operations in the same order as in a dense run.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .binio import read_exact, read_f8, write_f8
from .errors import (
    ClassIndexOutOfRange,
    CorruptArtifact,
    DimensionMismatch,
    EmptyTrainingSet,
)
from .features import SparseVector

MODEL_MAGIC = b"NADIMDL2"

_U64 = 0xFFFFFFFFFFFFFFFF


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
    """Weights (num_classes x dim), biases, and the label order.

    fallback_class is the class index given to a text with no features:
    the majority class of the training data."""

    weights: np.ndarray
    bias: np.ndarray
    class_labels: list[str]
    feature_fingerprint: str = ""
    epoch_losses: list[float] = field(default_factory=list)
    fallback_class: int = 0

    @property
    def num_classes(self) -> int:
        return int(self.weights.shape[0])

    @property
    def dim(self) -> int:
        return int(self.weights.shape[1])


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def _logits(weights: np.ndarray, bias: np.ndarray, vector: SparseVector) -> np.ndarray:
    if vector.nnz == 0:
        return bias.copy()
    return weights[:, vector.indices] @ vector.values + bias


def forward(model: LinearModel, vector: SparseVector) -> np.ndarray:
    """Class probabilities for one vector; sums to 1 within 1e-9."""
    if vector.dim != model.dim:
        raise DimensionMismatch(f"vector dim {vector.dim} != model dim {model.dim}")
    return _softmax(_logits(model.weights, model.bias, vector))


def predict(model: LinearModel, vector: SparseVector) -> str:
    """Most probable label; ties resolve to the lowest class index."""
    probs = forward(model, vector)
    return model.class_labels[int(np.argmax(probs))]


def batch_cross_entropy(
    weights: np.ndarray,
    bias: np.ndarray,
    batch: Sequence[tuple[SparseVector, int]],
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy over a batch and its exact gradient.

    Loss per example uses logsumexp(logits) - logits[y], which is the
    negative log probability without an epsilon fudge.  Returns
    (loss, grad_weights, grad_bias); the l2 term is not included here.
    """
    num_classes = weights.shape[0]
    grad_w = np.zeros_like(weights)
    grad_b = np.zeros_like(bias)
    loss = 0.0
    for vector, y in batch:
        logits = _logits(weights, bias, vector)
        shifted = logits - logits.max()
        logsumexp = float(np.log(np.exp(shifted).sum()) + logits.max())
        loss += logsumexp - float(logits[y])
        probs = np.exp(logits - logsumexp)
        probs[y] -= 1.0
        if vector.nnz:
            grad_w[:, vector.indices] += np.outer(probs, vector.values)
        grad_b += probs
    scale = 1.0 / len(batch)
    return loss * scale, grad_w * scale, grad_b * scale


def train(
    examples: Sequence[tuple[SparseVector, int]],
    hp: HyperParams = DEFAULT_HP,
    num_classes: int = 2,
    dim: int = 1 << 18,
    class_labels: Sequence[str] | None = None,
    feature_fingerprint: str = "",
) -> LinearModel:
    """Fit the model with mini-batch SGD.

    Per epoch the examples are shuffled by a fresh RNG seeded from
    (rng_seed, epoch) and walked in batches of batch_size (the last
    batch may be short).  Each batch applies the averaged cross-entropy
    gradient plus l2 weight decay.  epochs=0 returns the zero model,
    which predicts uniformly.  The mean loss of every epoch is kept on
    the returned model, and so is the most frequent class of the
    examples as its fallback_class (ties go to the lowest index).

    The loop runs on a num_classes x K matrix over the K distinct
    columns the examples use, and the result is scattered into the zero
    num_classes x dim model at the end.  Columns outside the corpus
    would only ever receive 0 * decay - lr * 0, so the weights equal
    those of dense training bit for bit (see the module docstring).
    """
    if not examples:
        raise EmptyTrainingSet("no training examples")
    for vector, y in examples:
        if not (0 <= y < num_classes):
            raise ClassIndexOutOfRange(f"class index {y} outside [0, {num_classes})")
        if vector.dim != dim:
            raise DimensionMismatch(f"vector dim {vector.dim} != model dim {dim}")
    if class_labels is None:
        labels = [str(i) for i in range(num_classes)]
    else:
        if len(class_labels) != num_classes:
            raise ValueError(f"{len(class_labels)} labels for {num_classes} classes")
        labels = list(class_labels)

    counts = np.bincount([y for _, y in examples], minlength=num_classes)
    cols = np.unique(np.concatenate([vector.indices for vector, _ in examples]))
    width = cols.size
    local = [
        (SparseVector(np.searchsorted(cols, vector.indices), vector.values, width), y)
        for vector, y in examples
    ]
    weights = np.zeros((num_classes, width), dtype=np.float64)
    bias = np.zeros(num_classes, dtype=np.float64)
    n = len(examples)
    losses: list[float] = []
    for epoch in range(hp.epochs):
        rng = np.random.default_rng((hp.rng_seed & _U64, epoch))
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, hp.batch_size):
            batch = [local[i] for i in order[start : start + hp.batch_size]]
            loss, grad_w, grad_b = batch_cross_entropy(weights, bias, batch)
            epoch_loss += loss * len(batch)
            weights *= 1.0 - hp.lr * hp.l2
            weights -= hp.lr * grad_w
            bias -= hp.lr * grad_b
        if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
            raise FloatingPointError(f"non-finite parameters after epoch {epoch}")
        losses.append(epoch_loss / n)
    dense = np.zeros((num_classes, dim), dtype=np.float64)
    dense[:, cols] = weights
    return LinearModel(
        weights=dense,
        bias=bias,
        class_labels=labels,
        feature_fingerprint=feature_fingerprint,
        epoch_losses=losses,
        fallback_class=int(counts.argmax()),
    )


def save_model(model: LinearModel, path: str) -> None:
    """Binary layout: magic, u32 num_classes, u32 dim, u32 fallback
    class, per label a u32 byte length plus UTF-8 bytes, then row-major
    little-endian float64 weights followed by the biases."""
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<III", model.num_classes, model.dim, model.fallback_class))
        for label in model.class_labels:
            raw = label.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        write_f8(fh, model.weights)
        write_f8(fh, model.bias)


def load_model(path: str) -> LinearModel:
    """Read a file written by save_model.  Raises CorruptArtifact on a
    bad magic, a cut header, a fallback class outside the classes, a
    label that is not UTF-8, or a size that does not match the
    header."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(MODEL_MAGIC)) != MODEL_MAGIC:
            raise CorruptArtifact(f"{path}: not a model file (bad magic)")
        num_classes, dim, fallback = struct.unpack(
            "<III", read_exact(fh, 12, path, "the header")
        )
        if fallback >= num_classes:
            raise CorruptArtifact(
                f"{path}: fallback class {fallback} outside {num_classes} classes"
            )
        labels: list[str] = []
        for i in range(num_classes):
            (length,) = struct.unpack("<I", read_exact(fh, 4, path, f"the length of label {i}"))
            if length > size - fh.tell():
                raise CorruptArtifact(f"{path}: file ends inside label {i}")
            try:
                labels.append(read_exact(fh, length, path, f"label {i}").decode("utf-8"))
            except UnicodeDecodeError:
                raise CorruptArtifact(f"{path}: label {i} is not UTF-8") from None
        expected = fh.tell() + 8 * num_classes * dim + 8 * num_classes
        if size != expected:
            raise CorruptArtifact(f"{path}: expected {expected} bytes, found {size}")
        weights = read_f8(fh, (num_classes, dim), path, "the weights")
        bias = read_f8(fh, (num_classes,), path, "the biases")
    return LinearModel(
        weights=weights, bias=bias, class_labels=labels, fallback_class=fallback
    )
