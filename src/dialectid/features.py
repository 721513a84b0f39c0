"""Hashed character n-gram features with IDF weighting.

Grams are drawn from whitespace tokens padded with one boundary marker
on each side, hashed with 64-bit FNV-1a into a power-of-two table, and
weighted by a smoothed inverse document frequency.  Hash collisions are
accepted: colliding grams simply share a bucket and their counts add.

Each text becomes a bucket -> count map (bucket_counts); the idf table
is the document frequency of those buckets (fit_idf), and a document's
tf-idf vector is built from its map (vectorize).  A fit or a predict
makes one bucket_counts call.  It reads the texts in bounded chunks,
cuts each distinct whitespace token of the call into grams once, and
hashes the grams of a chunk's new tokens in one vectorized FNV-1a pass
(hash_grams); a text's map is then the count of its tokens' buckets.
"""

from __future__ import annotations

import os
import struct
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .binio import read_exact, read_f8, write_f8
from .errors import CorruptArtifact, EmptyCorpus

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF

IDF_MAGIC = b"NADIIDF1"


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
        if len(self.pad_token) != 1:
            raise ValueError("pad_token must be a single character")


DEFAULT_FEATURES = FeatureConfig()


def config_fingerprint(config: FeatureConfig) -> str:
    """Stable hex digest of a feature configuration, for pairing a model
    with the featurizer it was trained against."""
    canon = (
        f"n_min={config.n_min};n_max={config.n_max};dim={config.dim};"
        f"seed={config.seed};pad={config.pad_token}"
    )
    return f"{fnv1a64(canon.encode('utf-8')):016x}"


def char_ngrams(text: str, config: FeatureConfig = DEFAULT_FEATURES) -> Counter[str]:
    """Multiset of character n-grams, n in [n_min, n_max].

    Each whitespace token is padded with one pad_token on each side, and
    grams never cross token boundaries.  The empty string yields an
    empty multiset.  Items come in first-occurrence order: token by
    token, shorter grams first, left to right.
    """
    pad = config.pad_token
    n_min, n_max = config.n_min, config.n_max
    return Counter([
        padded[i : i + n]
        for padded in [pad + token + pad for token in text.split()]
        for n in range(n_min, min(n_max, len(padded)) + 1)
        for i in range(len(padded) - n + 1)
    ])


def hash_grams(grams: Sequence[str], config: FeatureConfig = DEFAULT_FEATURES) -> np.ndarray:
    """Bucket index of each gram, as a uint64 array: FNV-1a of its UTF-8
    bytes, xor-folded with the seed, masked to the table size.

    All grams are hashed together.  Their bytes are laid out as the
    zero-padded rows of a uint8 matrix, and FNV-1a folds in one byte
    column at a time, skipping rows that have ended; uint64 products
    wrap mod 2**64, as the scalar fnv1a64 masks them.
    """
    encoded = [gram.encode("utf-8") for gram in grams]
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    width = int(lengths.max(initial=0))
    live = np.arange(width)[:, None] < lengths  # live[k, i]: gram i has a byte k
    columns = np.zeros((width, len(encoded)), dtype=np.uint8)
    # Boolean assignment fills the transposed view row by row, that is
    # gram by gram, in the order the bytes were joined.
    columns.T[live.T] = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    h = np.full(len(encoded), _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for k in range(width):
        h = np.where(live[k], (h ^ columns[k]) * prime, h)
    h ^= np.uint64(config.seed & _U64)
    h &= np.uint64((config.dim - 1) & _U64)
    return h


def hash_index(gram: str, config: FeatureConfig = DEFAULT_FEATURES) -> int:
    """Bucket index of one gram (see hash_grams)."""
    return int(hash_grams([gram], config)[0])


# A chunk of texts ends after this many texts, or once the grams of the
# tokens it saw first reach this many; those grams are hashed in one
# hash_grams call.  The bounds cap the memory of one call's arrays and
# of the maps a chunk holds before it yields them.
_CHUNK_TEXTS = 64
_CHUNK_GRAMS = 1 << 14


def bucket_counts(
    texts: Iterable[str], config: FeatureConfig = DEFAULT_FEATURES
) -> Iterator[dict[int, int]]:
    """The bucket -> gram count map of each text, in order.

    Colliding grams add their counts in the shared bucket.  Grams never
    cross whitespace, so a text's map is the sum of its tokens' maps:
    each distinct token of the call is cut into grams once, its grams
    are hashed once, and the token -> buckets table lives as long as
    the returned iterator.  The texts are read in bounded chunks; the
    grams of a chunk's new tokens are hashed in one hash_grams call,
    then the chunk's maps are yielded one at a time.
    """
    table: dict[str, tuple[int, ...]] = {}  # token -> one bucket per gram occurrence
    new: dict[str, list[str]] = {}  # this chunk's new tokens -> their grams
    pending = 0
    chunk: list[list[str]] = []
    for text in texts:
        tokens = text.split()
        chunk.append(tokens)
        for token in tokens:
            if token not in table and token not in new:
                grams = new[token] = list(char_ngrams(token, config).elements())
                pending += len(grams)
        if len(chunk) == _CHUNK_TEXTS or pending >= _CHUNK_GRAMS:
            _hash_tokens(new, table, config)
            yield from _chunk_maps(chunk, table)
            chunk, pending = [], 0
    _hash_tokens(new, table, config)
    yield from _chunk_maps(chunk, table)


def _hash_tokens(
    new: dict[str, list[str]], table: dict[str, tuple[int, ...]], config: FeatureConfig
) -> None:
    """Move the new tokens into the table, hashing all their grams at once."""
    buckets = hash_grams(list(chain.from_iterable(new.values())), config).tolist()
    start = 0
    for token, grams in new.items():
        table[token] = tuple(buckets[start : start + len(grams)])
        start += len(grams)
    new.clear()


def _chunk_maps(
    chunk: list[list[str]], table: dict[str, tuple[int, ...]]
) -> Iterator[dict[int, int]]:
    for tokens in chunk:
        yield Counter(chain.from_iterable(map(table.__getitem__, tokens)))


@dataclass(frozen=True)
class IdfTable:
    """Per-bucket IDF weights fitted on one corpus."""

    weights: np.ndarray
    doc_count: int

    @property
    def dim(self) -> int:
        return int(self.weights.shape[0])


def fit_idf(
    corpus: Sequence[Mapping[int, int]], config: FeatureConfig = DEFAULT_FEATURES
) -> IdfTable:
    """Fit smoothed IDF weights: ln((1 + N) / (1 + df)) + 1 per bucket.

    corpus holds one bucket -> count map per document (see
    bucket_counts); df counts the documents whose map has the bucket.
    Raises EmptyCorpus on an empty corpus.
    """
    if not corpus:
        raise EmptyCorpus("cannot fit idf on zero documents")
    buckets = np.fromiter(
        chain.from_iterable(corpus), dtype=np.int64, count=sum(map(len, corpus))
    )
    df = np.bincount(buckets, minlength=config.dim)
    if df.shape[0] != config.dim:
        raise ValueError(f"bucket {int(buckets.max())} is outside dim {config.dim}")
    n = len(corpus)
    weights = np.log((1.0 + n) / (1.0 + df)) + 1.0
    return IdfTable(weights=weights, doc_count=n)


@dataclass(frozen=True)
class SparseVector:
    """Sorted sparse vector of one document.

    indices are strictly increasing bucket positions below dim; values
    are the matching nonzero weights.
    """

    indices: np.ndarray
    values: np.ndarray
    dim: int

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])


def empty_vector(dim: int) -> SparseVector:
    return SparseVector(
        indices=np.zeros(0, dtype=np.int64), values=np.zeros(0, dtype=np.float64), dim=dim
    )


def vectorize(
    counts: Mapping[int, int],
    config: FeatureConfig = DEFAULT_FEATURES,
    idf: IdfTable | None = None,
) -> SparseVector:
    """One document's bucket -> count map (see bucket_counts),
    IDF-weighted, L2 normalized.

    With no idf table the raw counts are normalized directly.  An empty
    map yields the empty vector.
    """
    if idf is not None and idf.dim != config.dim:
        raise ValueError(f"idf table dim {idf.dim} != config dim {config.dim}")
    if not counts:
        return empty_vector(config.dim)
    n = len(counts)
    indices = np.fromiter(counts, dtype=np.int64, count=n)
    values = np.fromiter(counts.values(), dtype=np.float64, count=n)
    order = np.argsort(indices)
    indices = indices[order]
    values = values[order]
    if idf is not None:
        values = values * idf.weights[indices]
    norm = float(np.sqrt(np.dot(values, values)))
    values = values / norm
    return SparseVector(indices=indices, values=values, dim=config.dim)


def save_idf(table: IdfTable, path: str) -> None:
    """Binary layout: magic, u32 dim, u64 doc_count, dim little-endian
    float64 weights."""
    with open(path, "wb") as fh:
        fh.write(IDF_MAGIC)
        fh.write(struct.pack("<IQ", table.dim, table.doc_count))
        write_f8(fh, table.weights)


def load_idf(path: str) -> IdfTable:
    """Read a file written by save_idf.  Raises CorruptArtifact on a bad
    magic, a cut header, or a size that does not match the header."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(IDF_MAGIC)) != IDF_MAGIC:
            raise CorruptArtifact(f"{path}: not an idf table (bad magic)")
        dim, doc_count = struct.unpack("<IQ", read_exact(fh, 12, path, "the header"))
        expected = fh.tell() + 8 * dim
        if size != expected:
            raise CorruptArtifact(f"{path}: expected {expected} bytes, found {size}")
        weights = read_f8(fh, (dim,), path, "the weights")
    return IdfTable(weights=weights, doc_count=doc_count)
