"""Per-text reference featurizer for the feature tests.

The featurization as it ran before each text was cut into grams once:
char_ngrams counts into a Counter one gram at a time, hash_index runs
the scalar fnv1a64 on one gram, fit_idf hashes every gram of every
document's Counter to count document frequencies, and vectorize
recounts and rehashes the grams of its text into one (indices, values)
pair.  features.hash_spans, token_buckets, bucket_counts, fit_idf and
vectorize must match it byte for byte, row by row.
"""

from collections import Counter

import numpy as np

from dialectid.errors import EmptyCorpus
from dialectid.features import DEFAULT_FEATURES, IdfTable, fnv1a64

_U64 = (1 << 64) - 1


def hash_index(gram, config):
    return (fnv1a64(gram.encode("utf-8")) ^ (config.seed & _U64)) & (config.dim - 1)


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
    """corpus holds one gram Counter per document."""
    if not corpus:
        raise EmptyCorpus("cannot fit idf on zero documents")
    df = np.zeros(config.dim, dtype=np.int64)
    for grams in corpus:
        buckets = {hash_index(g, config) for g in grams}
        if buckets:
            df[list(buckets)] += 1
    return IdfTable(df=df, doc_count=len(corpus))


def vectorize(text, config, idf):
    if idf.dim != config.dim:
        raise ValueError(f"idf table dim {idf.dim} != config dim {config.dim}")
    grams = char_ngrams(text, config)
    if not grams:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    buckets = {}
    for gram, count in grams.items():
        j = hash_index(gram, config)
        buckets[j] = buckets.get(j, 0.0) + float(count)
    indices = np.array(sorted(buckets), dtype=np.int64)
    values = np.array([buckets[int(j)] for j in indices], dtype=np.float64)
    values = values * idf.weights[indices]
    norm = float(np.sqrt(np.dot(values, values)))
    values = values / norm
    return indices, values
