"""Dense reference trainer for the classifier tests.

The mini-batch SGD loop as it ran before training was restricted to the
corpus's columns and batched: every batch builds, decays and updates
the full num_classes x dim matrix, one example at a time through
batch_cross_entropy.  classifier.train sums each batch's gradient in
another order, so it must match this to a stated tolerance, keep the
columns no example uses exactly 0.0, and agree on every training
document's argmax.
"""

import numpy as np

from dialectid.classifier import batch_cross_entropy

_U64 = 0xFFFFFFFFFFFFFFFF


def dense_train(examples, hp, num_classes, dim):
    """(weights, bias, epoch_losses) of dense mini-batch SGD."""
    weights = np.zeros((num_classes, dim), dtype=np.float64)
    bias = np.zeros(num_classes, dtype=np.float64)
    n = len(examples)
    losses = []
    for epoch in range(hp.epochs):
        rng = np.random.default_rng((hp.rng_seed & _U64, epoch))
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, hp.batch_size):
            batch = [examples[i] for i in order[start : start + hp.batch_size]]
            loss, grad_w, grad_b = batch_cross_entropy(weights, bias, batch)
            epoch_loss += loss * len(batch)
            weights *= 1.0 - hp.lr * hp.l2
            weights -= hp.lr * grad_w
            bias -= hp.lr * grad_b
        if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
            raise FloatingPointError(f"non-finite parameters after epoch {epoch}")
        losses.append(epoch_loss / n)
    return weights, bias, losses
