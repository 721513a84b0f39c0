"""Dense reference trainer and predictor for the classifier tests.

The mini-batch SGD loop as it ran before training was restricted to the
corpus's columns and batched: every batch builds, decays and updates
the full num_classes x dim matrix, one example at a time through
batch_cross_entropy.  classifier.train sums each batch's gradient in
another order, so it must match this to a stated tolerance, store
exactly the columns some example uses (the oracle keeps the others at
0.0), and agree on every training document's argmax.

batched_sgd is classifier._sgd in its plain form: np.unique renumbers
the columns, a fresh zero block per slice, the gradient as block.T @
probs, and the weights as scale * scaled, updated by fancy indexing,
with the same scaling and fold rule.  train runs the same arithmetic,
so it must give the same bits.

Both walk each epoch in classifier.epoch_order.

dense_logits is the per-class gather from a dense num_classes x dim
matrix that classifier.logits ran before the model went sparse; over
to_dense of a sparse model it must give the same bytes.
"""

import numpy as np

from dialectid.classifier import LinearModel, epoch_order, train
from dialectid.features import IdfTable, SparseRows

FOLD_BELOW = 1e-6


def batch_cross_entropy(weights, bias, rows, y):
    """Mean cross-entropy over a batch of rows and its exact gradient.

    Loss per example uses logsumexp(logits) - logits[y], which is the
    negative log probability without an epsilon fudge.  Returns
    (loss, grad_weights, grad_bias); the l2 term is not included here.
    """
    grad_w = np.zeros_like(weights)
    grad_b = np.zeros_like(bias)
    loss = 0.0
    bounds = rows.indptr.tolist()
    for lo, hi, target in zip(bounds[:-1], bounds[1:], y, strict=True):
        indices, values = rows.indices[lo:hi], rows.values[lo:hi]
        logits = weights[:, indices] @ values + bias
        shifted = logits - logits.max()
        logsumexp = float(np.log(np.exp(shifted).sum()) + logits.max())
        loss += logsumexp - float(logits[target])
        probs = np.exp(logits - logsumexp)
        probs[target] -= 1.0
        grad_w[:, indices] += np.outer(probs, values)
        grad_b += probs
    scale = 1.0 / len(rows)
    return loss * scale, grad_w * scale, grad_b * scale


def take_rows(rows, picks):
    """The rows at the positions picks, in that order, as a SparseRows."""
    spans = [range(rows.indptr[i], rows.indptr[i + 1]) for i in picks]
    entries = np.array([e for span in spans for e in span], dtype=np.int64)
    return SparseRows(
        indptr=np.cumsum([0] + [len(span) for span in spans], dtype=np.int64),
        indices=rows.indices[entries],
        values=rows.values[entries],
        dim=rows.dim,
    )


def dense_train(rows, y, hp, num_classes):
    """(weights, bias, epoch_losses) of dense mini-batch SGD."""
    weights = np.zeros((num_classes, rows.dim), dtype=np.float64)
    bias = np.zeros(num_classes, dtype=np.float64)
    n = len(rows)
    losses = []
    for epoch in range(hp.epochs):
        order = epoch_order(hp.rng_seed, epoch, n)
        epoch_loss = 0.0
        for start in range(0, n, hp.batch_size):
            picks = order[start : start + hp.batch_size]
            loss, grad_w, grad_b = batch_cross_entropy(
                weights, bias, take_rows(rows, picks), [y[i] for i in picks]
            )
            epoch_loss += loss * len(picks)
            weights *= 1.0 - hp.lr * hp.l2
            weights -= hp.lr * grad_w
            bias -= hp.lr * grad_b
        if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
            raise FloatingPointError(f"non-finite parameters after epoch {epoch}")
        losses.append(epoch_loss / n)
    return weights, bias, losses


def batched_sgd(rows, targets, hp, num_classes, block_elements):
    """(weights, bias, epoch_losses, sizes) of batched sparse SGD with
    at most block_elements float64s in a slice's block (or one row);
    weights is K x num_classes over the rows' sorted distinct columns,
    and sizes lists each slice's block size in order.  The weights are
    kept as scale * scaled; scale takes the decay, and is folded into
    scaled when it falls below FOLD_BELOW, before the update divides by
    it, and at the end."""
    n = len(rows)
    indptr, values = rows.indptr, rows.values
    nnz = np.diff(indptr)
    cols, indices = np.unique(rows.indices, return_inverse=True)
    width = cols.size
    scaled = np.zeros((width, num_classes), dtype=np.float64)
    scale = 1.0
    bias = np.zeros(num_classes, dtype=np.float64)
    slot = np.zeros(width, dtype=np.int64)
    decay = 1.0 - hp.lr * hp.l2
    losses, sizes = [], []
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
            step = max(1, block_elements // max(1, u.size))
            for lo in range(0, m, step):
                hi = min(lo + step, m)
                part = slice(starts[lo], ends[hi - 1])
                block = np.zeros((hi - lo, u.size), dtype=np.float64)
                sizes.append(block.size)
                flat = np.repeat(np.arange(hi - lo) * u.size, lengths[lo:hi])
                block.ravel()[flat + slot[batch_cols[part]]] = values[entries[part]]
                logits = (block @ scaled[u]) * scale + bias
                top = logits.max(axis=1)
                logsumexp = np.log(np.exp(logits - top[:, None]).sum(axis=1)) + top
                picked = (np.arange(hi - lo), targets[batch[lo:hi]])
                epoch_loss += float((logsumexp - logits[picked]).sum())
                probs = np.exp(logits - logsumexp[:, None])
                probs[picked] -= 1.0
                # probs.T @ block, as train computes it: block.T @ probs
                # has other bits at some BLAS thread counts.
                if lo == 0:
                    grad_w = (probs.T @ block).T
                    grad_b = probs.sum(axis=0)
                else:
                    grad_w += (probs.T @ block).T
                    grad_b += probs.sum(axis=0)
            scale *= decay
            if scale < FOLD_BELOW:
                scaled *= scale
                scale = 1.0
            scaled[u] -= grad_w * (hp.lr / (m * scale))
            bias -= hp.lr * (grad_b * (1.0 / m))
        losses.append(epoch_loss / n)
    scaled *= scale
    return scaled, bias, losses, sizes


def idf_of(columns, dim):
    """An IdfTable over the sorted buckets columns of dim, each in the
    one document of its corpus."""
    columns = np.asarray(columns, dtype=np.int64)
    return IdfTable(columns=columns, df=np.ones(columns.size, dtype=np.int64), doc_count=1,
                    dim=dim)


def train_on(rows, y, hp, class_labels, **fields):
    """classifier.train over the rows' own distinct columns."""
    idf = idf_of(np.unique(rows.indices), rows.dim)
    return train(rows, y=y, hp=hp, class_labels=class_labels, idf=idf, **fields)


def to_dense(model):
    """The num_classes x dim weights of a sparse model: its stored
    columns scattered into zeros."""
    dense = np.zeros((model.num_classes, model.idf.dim), dtype=np.float64)
    dense[:, model.idf.columns] = model.weights.T
    return dense


def from_dense(weights, bias, class_labels, **fields):
    """The LinearModel storing the columns of a num_classes x dim weight
    matrix that hold a nonzero weight."""
    weights = np.asarray(weights, dtype=np.float64)
    columns = np.flatnonzero(np.any(weights != 0.0, axis=0))
    return LinearModel(
        weights=np.ascontiguousarray(weights[:, columns].T),
        bias=np.asarray(bias, dtype=np.float64),
        class_labels=list(class_labels),
        idf=idf_of(columns, weights.shape[1]),
        **fields,
    )


def dense_logits(weights, bias, rows):
    """rows x num_classes logits over a dense num_classes x dim matrix:
    one np.bincount per class of its weights at the rows' entries."""
    n = len(rows)
    owner = np.repeat(np.arange(n), np.diff(rows.indptr))
    logits = np.empty((n, weights.shape[0]), dtype=np.float64)
    for c in range(weights.shape[0]):
        weighted = weights[c, rows.indices] * rows.values
        logits[:, c] = np.bincount(owner, weights=weighted, minlength=n) + bias[c]
    return logits
