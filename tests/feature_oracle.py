"""Per-text reference featurizer for the feature tests.

The featurization as it ran before each text was cut into grams once:
char_ngrams counts into a Counter one gram at a time, hash_index runs
the scalar fnv1a64 on one gram, fit_idf hashes every gram of every
document's Counter to count document frequencies into a dense array
over all dim buckets, idf_weights applies the smoothed idf formula to
every bucket of that array, and vectorize recounts and rehashes the
grams of its text into one (indices, values) pair weighted from the
dense weights.  features.hash_spans, token_buckets, bucket_counts,
fit_idf and vectorize must match it byte for byte, row by row.

join_rows and vectorize_rows are the fit path as it ran before it held
its corpus once: the blocks of bucket_counts concatenated into a new
matrix, and tf-idf values computed out of place while the counts stay
alive.  corpus_counts and the in-place vectorize must give their
indptr, indices and values bit for bit.
"""

from collections import Counter

import numpy as np

from dialectid.errors import EmptyCorpus
from dialectid.features import DEFAULT_FEATURES, SparseRows, fnv1a64


def hash_index(gram, config):
    return fnv1a64(gram.encode("utf-8")) & (config.dim - 1)


def char_ngrams(text, config=DEFAULT_FEATURES):
    grams = Counter()
    pad = config.pad_token
    for token in text.split():
        padded = pad + token + pad
        length = len(padded)
        for n in range(config.n_min, config.n_max + 1):
            if n > length:
                break
            for i in range(length - n + 1):
                grams[padded[i : i + n]] += 1
    return grams


def fit_idf(corpus, config):
    """The document frequency of each of the dim buckets, as a dense
    int64 array; corpus holds one gram Counter per document."""
    if not corpus:
        raise EmptyCorpus("cannot fit idf on zero documents")
    df = np.zeros(config.dim, dtype=np.int64)
    for grams in corpus:
        buckets = {hash_index(g, config) for g in grams}
        if buckets:
            df[list(buckets)] += 1
    return df


def idf_weights(df, doc_count):
    """The smoothed idf weight ln((1 + N) / (1 + df)) + 1 of every
    bucket of a dense df array, df 0 included."""
    return np.log((1.0 + doc_count) / (1.0 + df)) + 1.0


def vectorize(text, config, weights):
    """The text's tf-idf row over the dense weights of idf_weights."""
    if weights.size != config.dim:
        raise ValueError(f"idf weights dim {weights.size} != config dim {config.dim}")
    grams = char_ngrams(text, config)
    if not grams:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    buckets = {}
    for gram, count in grams.items():
        j = hash_index(gram, config)
        buckets[j] = buckets.get(j, 0.0) + float(count)
    indices = np.array(sorted(buckets), dtype=np.int64)
    values = np.array([buckets[int(j)] for j in indices], dtype=np.float64)
    values = values * weights[indices]
    norm = float(np.sqrt(np.dot(values, values)))
    values = values / norm
    return indices, values


def join_rows(blocks, dim):
    """The rows of the blocks, in order, as one new SparseRows of width
    dim, its ids int64."""
    return SparseRows(
        indptr=np.concatenate([[0]] + [np.diff(block.indptr) for block in blocks]).cumsum(),
        indices=np.concatenate([np.zeros(0, np.int64)] + [block.indices for block in blocks]),
        values=np.concatenate([np.zeros(0)] + [block.values for block in blocks]),
        dim=dim,
    )


def vectorize_rows(counts, idf):
    """The tf-idf rows of counts under an IdfTable, as new values; the
    counts are left as they are."""
    values = counts.values * idf.weights[idf.table[counts.indices]]
    bounds = counts.indptr.tolist()
    norms = np.sqrt([np.dot(values[lo:hi], values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])
    return SparseRows(
        indptr=counts.indptr,
        indices=counts.indices,
        values=values / np.repeat(norms, np.diff(counts.indptr)),
        dim=counts.dim,
    )
