"""Hashed character n-gram features with IDF weighting.

Grams are drawn from whitespace tokens padded with one boundary marker
on each side, hashed with 64-bit FNV-1a into a power-of-two table, and
weighted by a smoothed inverse document frequency.  Hash collisions are
accepted: colliding grams simply share a bucket and their counts add.

A corpus is one CSR matrix, SparseRows: one row per text, one column
per bucket, and its width dim, which fit_idf and vectorize read from
it; its indptr is int64, its bucket ids int32 (dim is at most 2**31)
and its values float64.  bucket_counts yields the gram counts of the
texts as blocks of rows, and corpus_counts appends those blocks, each
as it comes, to one growing CSR, so a fit holds its counts once.  The
idf table (fit_idf) holds the K occupied buckets, their document
frequencies and K + 1 weights, the last that of a bucket no document
has; vectorize turns counts into tf-idf rows in place, a bounded run
of rows at a time, finding each bucket's weight through the table's
bucket -> column table, so the rows a fit trains on are its counts'
own arrays.  A fit or a predict makes one bucket_counts call.  It
reads the texts in bounded chunks and cuts
and hashes each distinct whitespace token once: a chunk's new padded
tokens are encoded together, each gram is the byte span between two
UTF-8 character starts, and one FNV-1a pass hashes all the spans
(token_buckets); a chunk's block is then one count of its (row,
bucket) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch, EmptyCorpus

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _U64
    return h


@dataclass(frozen=True, slots=True)
class FeatureConfig:
    n_min: int = 2
    n_max: int = 5
    dim: int = 1 << 18
    pad_token: str = "_"

    def __post_init__(self) -> None:
        if not (1 <= self.n_min <= self.n_max <= 8):
            raise ValueError(f"need 1 <= n_min <= n_max <= 8, got [{self.n_min}, {self.n_max}]")
        if self.dim < 2 or self.dim & (self.dim - 1):
            raise ValueError(f"dim must be a power of two >= 2, got {self.dim}")
        if self.dim > 1 << 31:
            raise ValueError(
                f"dim {self.dim} is above 2**31; the model and idf files store dim in 32 bits"
            )
        if len(self.pad_token) != 1:
            raise ValueError("pad_token must be a single character")


DEFAULT_FEATURES = FeatureConfig()


def hash_spans(
    data: np.ndarray, lo: np.ndarray, hi: np.ndarray, config: FeatureConfig
) -> np.ndarray:
    """Bucket of each byte span data[lo[i]:hi[i]] of a uint8 array, as
    int64: FNV-1a of the span masked to the table size.  Byte k of
    every span is folded in at once; uint64 products wrap mod 2**64, as
    the scalar fnv1a64 masks them."""
    widths = hi - lo
    h = np.full(widths.shape, _FNV_OFFSET, dtype=np.uint64)
    for k in range(int(widths.max(initial=0))):
        h = np.where(k < widths, (h ^ data.take(lo + k, mode="clip")) * np.uint64(_FNV_PRIME), h)
    return (h & np.uint64(config.dim - 1)).astype(np.int64)


def _gram_count(chars: int, config: FeatureConfig) -> int:
    """Number of grams token_buckets cuts from a padded token of chars characters."""
    terms = max(min(config.n_max, chars) - config.n_min + 1, 0)  # the n that fit
    return terms * (chars + 1) - (2 * config.n_min + terms - 1) * terms // 2


def token_buckets(tokens: Sequence[str], config: FeatureConfig) -> np.ndarray:
    """The int64 buckets of each token's grams, token by token: the
    n-grams, n in [n_min, n_max], of the token padded with one pad_token
    on each side, shorter grams first, left to right.  Grams never cross
    tokens.  In the joined, encoded padded tokens, the n-gram at
    character c spans the bytes from the start of character c to that of
    c + n; a character starts at each byte not of the form 10xxxxxx."""
    pad = config.pad_token
    data = np.frombuffer("".join(pad + t + pad for t in tokens).encode("utf-8"), dtype=np.uint8)
    starts = np.append(np.flatnonzero((data & 0xC0) != 0x80), data.size)
    chars = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens)) + 2
    ns = np.arange(config.n_min, config.n_max + 1)
    counts = np.maximum(chars[:, None] - ns + 1, 0).ravel()  # grams of each (token, n)
    # The j-th gram of a (token, n) pair starts at the token's first
    # character plus j, and j = its index - the grams of earlier pairs.
    first = np.repeat(np.cumsum(chars) - chars, len(ns)) - np.cumsum(counts) + counts
    at = np.repeat(first, counts) + np.arange(counts.sum())
    ends = at + np.repeat(np.tile(ns, len(tokens)), counts)
    return hash_spans(data, starts[at], starts[ends], config)


@dataclass(frozen=True)
class SparseRows:
    """Sparse rows in CSR form: row i holds the bucket positions
    indices[indptr[i]:indptr[i + 1]], strictly increasing and below
    dim, and the matching nonzero weights in values.  Every producer
    here gives int64 indptr, int32 indices and float64 values."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    dim: int

    def __len__(self) -> int:
        return int(self.indptr.shape[0]) - 1

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])


# A chunk of texts ends after this many texts, or once the grams of the
# tokens it saw first reach this many; those grams are hashed in one
# token_buckets call.  The bounds cap the memory of one call's arrays
# and of the block a chunk counts.
_CHUNK_TEXTS = 64
_CHUNK_GRAMS = 1 << 14


class _Appendable:
    """A 1-D array appended to in place.  When full, its buffer is
    resized (a realloc: glibc moves a large block by remapping its
    pages, and tracemalloc never counts the old and new blocks at once)
    to an eighth more than the needed size, so n appends copy O(n)
    entries at most; array() shrinks it to its entries the same way."""

    def __init__(self, dtype: type, first: Sequence[int] = ()) -> None:
        self.buffer = np.array(first, dtype=dtype)
        self.size = len(first)

    def extend(self, values: np.ndarray) -> None:
        end = self.size + len(values)
        if end > self.buffer.size:
            # No view of the buffer outlives a call, so it may move.
            self.buffer.resize(end + end // 8, refcheck=False)
        self.buffer[self.size : end] = values
        self.size = end

    @property
    def last(self) -> int:
        return int(self.buffer[self.size - 1])

    def array(self) -> np.ndarray:
        """The entries as an array of their own size; nothing may be
        appended after."""
        self.buffer.resize(self.size, refcheck=False)
        return self.buffer


def bucket_counts(
    texts: Iterable[str], config: FeatureConfig = DEFAULT_FEATURES
) -> Iterator[SparseRows]:
    """The bucket -> gram counts of the texts, as blocks of rows in text
    order, one row per text.

    Colliding grams add their counts in the shared bucket.  Grams never
    cross whitespace, so a text's row is the sum of its tokens' buckets:
    each distinct token of the call is numbered, cut and hashed once,
    and the token -> buckets table, in CSR form, lives as long as the
    returned iterator.  The texts are read in bounded chunks; the grams
    of a chunk's new tokens are cut and hashed in one token_buckets
    call, and the chunk's (row, bucket) pairs are counted in one
    np.unique.
    """
    ids: dict[str, int] = {}  # token -> its number, in order of first sight
    buckets = _Appendable(np.int32)  # token i's grams hash to buckets[bounds[i]:bounds[i + 1]]
    bounds = _Appendable(np.int64, [0])
    new: dict[str, int] = {}  # this chunk's new tokens -> their numbers of grams
    pending = 0
    chunk: list[list[str]] = []
    for text in texts:
        tokens = text.split()
        chunk.append(tokens)
        for token in tokens:
            if token not in ids:
                ids[token] = len(ids)
                new[token] = _gram_count(len(token) + 2, config)
                pending += new[token]
        if len(chunk) == _CHUNK_TEXTS or pending >= _CHUNK_GRAMS:
            yield _count_block(chunk, ids, new, buckets, bounds, config)
            chunk, pending = [], 0
    if chunk:
        yield _count_block(chunk, ids, new, buckets, bounds, config)


def _count_block(
    chunk: list[list[str]], ids: dict[str, int], new: dict[str, int],
    buckets: _Appendable, bounds: _Appendable, config: FeatureConfig,
) -> SparseRows:
    """Append the new tokens' buckets to the table, cut and hashed all
    at once, then count each distinct (row, bucket) of the chunk's
    texts from the spans of its token occurrences."""
    buckets.extend(token_buckets(list(new), config))
    bounds.extend(bounds.last + np.cumsum(np.fromiter(new.values(), np.int64, len(new))))
    new.clear()
    lengths = [len(tokens) for tokens in chunk]
    occurrences = np.fromiter(
        map(ids.__getitem__, chain.from_iterable(chunk)), np.int64, sum(lengths)
    )
    lo = bounds.buffer[occurrences]
    sizes = bounds.buffer[occurrences + 1] - lo
    at = np.repeat(lo - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
    rows = np.repeat(np.repeat(np.arange(len(chunk)), lengths), sizes)
    keys, counts = np.unique(rows * config.dim + buckets.buffer[at], return_counts=True)
    return SparseRows(
        indptr=np.searchsorted(keys, np.arange(len(chunk) + 1) * config.dim),
        indices=(keys % config.dim).astype(np.int32),
        values=counts.astype(np.float64),
        dim=config.dim,
    )


def corpus_counts(
    texts: Iterable[str], config: FeatureConfig = DEFAULT_FEATURES
) -> SparseRows:
    """The bucket counts of the texts as one SparseRows, one row per
    text: bucket_counts' blocks appended in order to one growing CSR,
    each dropped once appended, so the corpus is held once."""
    indptr = _Appendable(np.int64, [0])
    indices = _Appendable(np.int32)
    values = _Appendable(np.float64)
    for block in bucket_counts(texts, config):
        indptr.extend(block.indptr[1:] + indices.size)
        indices.extend(block.indices)
        values.extend(block.values)
    return SparseRows(indptr.array(), indices.array(), values.array(), config.dim)


@dataclass(frozen=True)
class IdfTable:
    """The smoothed IDF of a corpus of doc_count documents over dim
    buckets: columns holds the K sorted buckets some document has, df
    their document frequencies (all > 0), and weights the K + 1
    weights ln((1 + N) / (1 + df)) + 1 of the columns and then of df 0,
    that of every other bucket.  table, the column_table of columns, is
    built on first use and kept, so columns must not change after."""

    columns: np.ndarray
    df: np.ndarray
    doc_count: int
    dim: int
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        weights = np.log((1.0 + self.doc_count) / (1.0 + np.append(self.df, 0))) + 1.0
        object.__setattr__(self, "weights", weights)

    @cached_property
    def table(self) -> np.ndarray:
        return column_table(self.columns, self.dim)


def column_table(columns: np.ndarray, dim: int) -> np.ndarray:
    """The dim-sized int32 bucket -> column table of K sorted distinct
    columns: columns[k] maps to k, and every other bucket to K."""
    table = np.full(dim, columns.size, dtype=np.int32)
    table[columns] = np.arange(columns.size, dtype=np.int32)
    return table


def fit_idf(corpus: SparseRows) -> IdfTable:
    """Fit smoothed IDF weights: ln((1 + N) / (1 + df)) + 1, where df
    counts the documents whose row has the bucket.

    corpus holds one row of bucket counts per document (see
    corpus_counts).  Raises EmptyCorpus on an empty corpus, and
    DimensionMismatch on a bucket outside the corpus's dim.
    """
    if not len(corpus):
        raise EmptyCorpus("cannot fit idf on zero documents")
    indices = corpus.indices
    if corpus.nnz:
        low, high = int(indices.min()), int(indices.max())
        if low < 0 or high >= corpus.dim:
            bad = low if low < 0 else high
            raise DimensionMismatch(f"bucket {bad} is outside dim {corpus.dim}")
    # np.add.at takes the int32 ids as they are; np.bincount would copy
    # them all as intp first.
    df = np.zeros(corpus.dim, dtype=np.int64)
    np.add.at(df, indices, 1)
    columns = np.flatnonzero(df)
    return IdfTable(columns=columns, df=df[columns], doc_count=len(corpus), dim=corpus.dim)


# vectorize weighs and normalizes runs of rows of about this many
# entries, so its scratch arrays stay bounded on any corpus.
_SLICE_ENTRIES = 1 << 16


def vectorize(counts: SparseRows, idf: IdfTable) -> SparseRows:
    """Rows of bucket counts (see bucket_counts and corpus_counts),
    IDF-weighted, each row L2 normalized, in place: the weights
    overwrite counts' values, and counts is returned.

    An empty row stays empty.  Raises DimensionMismatch unless idf has
    the rows' dim.
    """
    if idf.dim != counts.dim:
        raise DimensionMismatch(f"idf table dim {idf.dim} != rows dim {counts.dim}")
    indptr, indices, values = counts.indptr, counts.indices, counts.values
    bounds = indptr.tolist()
    # Each run of rows starts at the row that holds a multiple of
    # _SLICE_ENTRIES, so it holds at most that many entries plus a row.
    multiples = np.arange(_SLICE_ENTRIES, counts.nnz, _SLICE_ENTRIES)
    cuts = [0, *(np.searchsorted(indptr, multiples, "right") - 1).tolist(), len(counts)]
    for first, last in zip(cuts, cuts[1:]):
        lo, hi = bounds[first], bounds[last]
        run = values[lo:hi]
        run *= idf.weights[idf.table[indices[lo:hi]]]
        # One np.dot per row keeps each norm bit-identical to that of
        # the row on its own; a segmented sum adds in another order.
        rows = zip(bounds[first:last], bounds[first + 1 : last + 1])
        norms = np.sqrt([np.dot(values[a:b], values[a:b]) for a, b in rows])
        run /= np.repeat(norms, np.diff(indptr[first : last + 1]))
    return counts
