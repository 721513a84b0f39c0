"""Reading and writing the binary model and idf files.

Arrays go to disk as little-endian float64 straight from their memory,
and come back by readinto into preallocated arrays, so neither
direction makes a second copy of a large array.  Every short read
raises CorruptArtifact.
"""

from __future__ import annotations

from typing import BinaryIO

import numpy as np

from .errors import CorruptArtifact


def write_f8(fh: BinaryIO, array: np.ndarray) -> None:
    """Write array in C order as little-endian float64; no copy when it
    already is one."""
    fh.write(memoryview(np.ascontiguousarray(array, dtype="<f8")))


def read_exact(fh: BinaryIO, size: int, path: str, what: str) -> bytes:
    """Read exactly size bytes, or raise CorruptArtifact naming the field
    (what) the file ends in."""
    data = fh.read(size)
    if len(data) != size:
        raise CorruptArtifact(f"{path}: file ends inside {what}")
    return data


def read_f8(fh: BinaryIO, shape: tuple[int, ...], path: str, what: str) -> np.ndarray:
    """Read a little-endian float64 array of the given shape into a
    fresh array."""
    out = np.empty(shape, dtype="<f8")
    if fh.readinto(memoryview(out)) != out.nbytes:
        raise CorruptArtifact(f"{path}: file ends inside {what}")
    return out
