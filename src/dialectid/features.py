"""Hashed character n-gram features with IDF weighting.

Grams are drawn from whitespace tokens padded with one boundary marker
on each side, hashed with 64-bit FNV-1a into a power-of-two table, and
weighted by a smoothed inverse document frequency.  Hash collisions are
accepted: colliding grams simply share a bucket and their counts add.

A corpus is one CSR matrix, SparseRows: one row per text, one column
per bucket.  bucket_counts yields the gram counts of the texts as
blocks of rows; the idf table holds the document frequency of every
bucket (fit_idf) and computes its weights from them, and its file
stores only the occupied buckets unless more than a quarter are
(binio.written_whole); vectorize turns a block of counts into tf-idf
rows.  A fit or a predict makes one bucket_counts call.  It reads the
texts in bounded chunks and cuts and hashes each distinct whitespace
token once: a chunk's new padded tokens are encoded together, each
gram is the byte span between two UTF-8 character starts, and one
FNV-1a pass hashes all the spans (token_buckets); a chunk's block is
then one count of its (row, bucket) pairs.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .binio import read_array, read_exact, read_ids, write_array, written_whole
from .errors import CorruptArtifact, EmptyCorpus

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF

IDF_MAGIC = b"NADIIDF2"


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
    seed: int = 0
    pad_token: str = "_"

    def __post_init__(self) -> None:
        if not (1 <= self.n_min <= self.n_max <= 8):
            raise ValueError(f"need 1 <= n_min <= n_max <= 8, got [{self.n_min}, {self.n_max}]")
        if self.dim < 2 or self.dim & (self.dim - 1):
            raise ValueError(f"dim must be a power of two >= 2, got {self.dim}")
        if self.dim > 1 << 56:  # so that bucket_counts' keys row * dim + bucket fit an int64
            raise ValueError(f"dim must be at most 2**56, got {self.dim}")
        if len(self.pad_token) != 1:
            raise ValueError("pad_token must be a single character")


DEFAULT_FEATURES = FeatureConfig()


def hash_spans(
    data: np.ndarray, lo: np.ndarray, hi: np.ndarray, config: FeatureConfig
) -> np.ndarray:
    """Bucket of each byte span data[lo[i]:hi[i]] of a uint8 array, as
    int64: FNV-1a of the span, xor-folded with the seed, masked to the
    table size.  Byte k of every span is folded in at once; uint64
    products wrap mod 2**64, as the scalar fnv1a64 masks them."""
    widths = hi - lo
    h = np.full(widths.shape, _FNV_OFFSET, dtype=np.uint64)
    for k in range(int(widths.max(initial=0))):
        h = np.where(k < widths, (h ^ data.take(lo + k, mode="clip")) * np.uint64(_FNV_PRIME), h)
    return ((h ^ np.uint64(config.seed & _U64)) & np.uint64(config.dim - 1)).astype(np.int64)


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
    dim, and the matching nonzero weights in values."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    dim: int

    def __len__(self) -> int:
        return int(self.indptr.shape[0]) - 1

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])


def join_rows(blocks: Sequence[SparseRows], dim: int) -> SparseRows:
    """The rows of the blocks, in order, as one SparseRows of width dim."""
    return SparseRows(
        indptr=np.concatenate([[0]] + [np.diff(block.indptr) for block in blocks]).cumsum(),
        indices=np.concatenate([_NO_INDICES] + [block.indices for block in blocks]),
        values=np.concatenate([np.zeros(0)] + [block.values for block in blocks]),
        dim=dim,
    )


_NO_INDICES = np.zeros(0, dtype=np.int64)

# A chunk of texts ends after this many texts, or once the grams of the
# tokens it saw first reach this many; those grams are hashed in one
# token_buckets call.  The bounds cap the memory of one call's arrays
# and of the block a chunk counts.
_CHUNK_TEXTS = 64
_CHUNK_GRAMS = 1 << 14


class _Appendable:
    """An int64 array appended to in place; its buffer is reallocated at
    twice the needed size when full, so n appends copy O(n) entries."""

    def __init__(self, first: Sequence[int] = ()) -> None:
        self.buffer = np.array(first, dtype=np.int64)
        self.size = len(first)

    def extend(self, values: np.ndarray) -> None:
        end = self.size + len(values)
        if end > self.buffer.size:
            grown = np.empty(2 * end, dtype=np.int64)
            grown[: self.size] = self.buffer[: self.size]
            self.buffer = grown
        self.buffer[self.size : end] = values
        self.size = end

    @property
    def last(self) -> int:
        return int(self.buffer[self.size - 1])


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
    buckets = _Appendable()  # token i's grams hash to buckets[bounds[i]:bounds[i + 1]]
    bounds = _Appendable([0])
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
        indices=keys % config.dim,
        values=counts.astype(np.float64),
        dim=config.dim,
    )


@dataclass(frozen=True)
class IdfTable:
    """The document frequency df of each bucket in a corpus of doc_count
    documents, and the smoothed IDF weights ln((1 + N) / (1 + df)) + 1
    computed from them, one per bucket."""

    df: np.ndarray
    doc_count: int
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        weights = np.log((1.0 + self.doc_count) / (1.0 + self.df)) + 1.0
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return int(self.df.shape[0])


def fit_idf(corpus: SparseRows, config: FeatureConfig = DEFAULT_FEATURES) -> IdfTable:
    """Fit smoothed IDF weights: ln((1 + N) / (1 + df)) + 1 per bucket.

    corpus holds one row of bucket counts per document (see
    bucket_counts and join_rows); df counts the documents whose row has
    the bucket.  Raises EmptyCorpus on an empty corpus.
    """
    if not len(corpus):
        raise EmptyCorpus("cannot fit idf on zero documents")
    df = np.bincount(corpus.indices, minlength=config.dim)
    if df.shape[0] != config.dim:
        raise ValueError(f"bucket {int(corpus.indices.max())} is outside dim {config.dim}")
    return IdfTable(df=df, doc_count=len(corpus))


def vectorize(
    counts: SparseRows,
    config: FeatureConfig,
    idf: IdfTable,
) -> SparseRows:
    """Rows of bucket counts (see bucket_counts), IDF-weighted, each
    row L2 normalized.

    An empty row stays empty.
    """
    if idf.dim != config.dim:
        raise ValueError(f"idf table dim {idf.dim} != config dim {config.dim}")
    values = counts.values * idf.weights[counts.indices]
    bounds = counts.indptr.tolist()
    # One np.dot per row keeps each norm bit-identical to that of the
    # row on its own; a segmented sum adds in another order.
    norms = np.sqrt([np.dot(values[lo:hi], values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])
    return replace(counts, values=values / np.repeat(norms, np.diff(counts.indptr)))


def save_idf(table: IdfTable, path: str) -> None:
    """Binary layout: magic, u32 dim, u32 doc_count, u32 number W of
    buckets written; then, sparse, the W occupied buckets' (df > 0)
    sorted ids as u32 and their W document frequencies as u32, or,
    whole (W = dim), the dim document frequencies as u32; all
    little-endian.  A table with more than a quarter of its buckets
    occupied is written whole; see binio.written_whole."""
    occupied = np.flatnonzero(table.df)
    whole = written_whole(occupied.size, table.dim)
    with open(path, "wb") as fh:
        fh.write(IDF_MAGIC)
        fh.write(struct.pack(
            "<III", table.dim, table.doc_count, table.dim if whole else occupied.size
        ))
        if whole:
            write_array(fh, table.df, "<u4")
        else:
            write_array(fh, occupied, "<u4")
            write_array(fh, table.df[occupied], "<u4")


def load_idf(path: str) -> IdfTable:
    """Read a file written by save_idf.  Raises CorruptArtifact on a bad
    magic (files of the earlier dense format included: retrain them), a
    cut header, a dim that is not a power of two >= 2, more buckets
    than dim, a size that does not match the header, bucket ids that
    are not strictly increasing below dim, a listed bucket with
    document frequency 0, a document frequency above doc_count, or a
    layout other than the one save_idf picks for the occupied
    buckets."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(IDF_MAGIC)) != IDF_MAGIC:
            raise CorruptArtifact(f"{path}: not a {IDF_MAGIC.decode()} idf table (bad magic)")
        dim, doc_count, width = struct.unpack("<III", read_exact(fh, 12, path, "the header"))
        # The table is dense in memory: a dim no FeatureConfig accepts
        # must not allocate one.
        if dim < 2 or dim & (dim - 1):
            raise CorruptArtifact(f"{path}: dim {dim} is not a power of two >= 2")
        if width > dim:
            raise CorruptArtifact(f"{path}: {width} occupied buckets for dim {dim}")
        whole = width == dim
        expected = fh.tell() + (4 if whole else 8) * width
        if size != expected:
            raise CorruptArtifact(f"{path}: expected {expected} bytes, found {size}")
        if whole:
            df = read_array(fh, "<u4", (dim,), path, "the document frequencies")
            df = df.astype(np.int64)
        else:
            ids = read_ids(fh, width, dim, path, "the bucket ids")
            counts = read_array(fh, "<u4", (width,), path, "the document frequencies")
            if width and counts.min() == 0:
                raise CorruptArtifact(f"{path}: a listed bucket has document frequency 0")
            df = np.zeros(dim, dtype=np.int64)
            df[ids] = counts
    if df.max() > doc_count:
        raise CorruptArtifact(f"{path}: a document frequency is above {doc_count}")
    occupied = int(np.count_nonzero(df))
    if whole != written_whole(occupied, dim):
        raise CorruptArtifact(
            f"{path}: {occupied} of {dim} buckets occupied in a "
            f"{'whole' if whole else 'sparse'} file; save_idf writes the other layout"
        )
    return IdfTable(df=df, doc_count=doc_count)
