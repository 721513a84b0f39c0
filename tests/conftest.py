import os

import numpy as np
from hypothesis import strategies as st

from dialectid.features import SparseRows

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def data_path(name: str) -> str:
    return os.path.join(DATA_DIR, name)


def csr(maps, dim):
    """SparseRows with one row per {index: value} map, indices sorted."""
    lengths = [len(m) for m in maps]
    return SparseRows(
        indptr=np.cumsum([0] + lengths, dtype=np.int64),
        indices=np.array([i for m in maps for i in sorted(m)], dtype=np.int64),
        values=np.array([m[i] for m in maps for i in sorted(m)], dtype=np.float64),
        dim=dim,
    )


def row_maps(rows):
    """The rows of a SparseRows as {index: value} maps."""
    bounds = rows.indptr.tolist()
    return [
        dict(zip(rows.indices[lo:hi].tolist(), rows.values[lo:hi].tolist()))
        for lo, hi in zip(bounds, bounds[1:])
    ]


def edit_one_place(draw, blob):
    """blob with one byte overwritten, cut at one offset, or extended
    by a few bytes at one offset, as hypothesis draws it."""
    at = draw(st.integers(0, len(blob)))
    edit = draw(st.sampled_from(["byte", "cut", "extend"]))
    if edit == "cut":
        return blob[:at]
    if edit == "extend":
        return blob[:at] + draw(st.binary(min_size=1, max_size=8)) + blob[at:]
    return blob[:at] + bytes([draw(st.integers(0, 255))]) + blob[at + 1:]
