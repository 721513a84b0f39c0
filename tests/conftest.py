import os

import numpy as np

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
