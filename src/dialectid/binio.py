"""Reading and writing the binary model and idf files.

Arrays go to disk as little-endian numbers (float64 weights, uint32
bucket ids and counts) straight from their memory when they already
have that layout, and come back by readinto into preallocated arrays,
so neither direction makes a second copy of a large array.  Every short
read raises CorruptArtifact.

A table over dim hash buckets is written whole (every bucket in order,
no ids) when more than a quarter of its buckets are in use, and sparse
(the sorted ids of the buckets in use and their entries) otherwise; see
written_whole.
"""

from __future__ import annotations

from typing import BinaryIO

import numpy as np

from .errors import CorruptArtifact


def write_array(fh: BinaryIO, array: np.ndarray, dtype: str) -> None:
    """Write array in C order as dtype (e.g. "<f8", "<u4"); no copy when
    it already is one."""
    fh.write(memoryview(np.ascontiguousarray(array, dtype=dtype)))


def written_whole(count: int, dim: int) -> bool:
    """Whether a table of dim buckets with count of them in use is
    written whole: when count is more than a quarter of dim.

    A whole file's size depends on dim alone, not on which buckets the
    data happened to fill, and at that fill a sparse file would save
    less than three quarters of it.  A table sized generously for its
    vocabulary (a few percent full at dim 2**18) is written sparse at a
    small fraction of its whole size.
    """
    return 4 * count > dim


def read_exact(fh: BinaryIO, size: int, path: str, what: str) -> bytes:
    """Read exactly size bytes, or raise CorruptArtifact naming the field
    (what) the file ends in."""
    data = fh.read(size)
    if len(data) != size:
        raise CorruptArtifact(f"{path}: file ends inside {what}")
    return data


def read_array(
    fh: BinaryIO, dtype: str, shape: tuple[int, ...], path: str, what: str
) -> np.ndarray:
    """Read an array of dtype and the given shape into a fresh array."""
    out = np.empty(shape, dtype=dtype)
    if fh.readinto(memoryview(out)) != out.nbytes:
        raise CorruptArtifact(f"{path}: file ends inside {what}")
    return out


def read_ids(fh: BinaryIO, count: int, bound: int, path: str, what: str) -> np.ndarray:
    """Read count uint32 bucket ids as int64, or raise CorruptArtifact
    unless they are strictly increasing and below bound."""
    ids = read_array(fh, "<u4", (count,), path, what).astype(np.int64)
    if count and (ids[-1] >= bound or np.any(ids[1:] <= ids[:-1])):
        raise CorruptArtifact(f"{path}: {what} are not strictly increasing below {bound}")
    return ids
