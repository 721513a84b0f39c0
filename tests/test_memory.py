"""Memory guard for the featurizer: one bucket_counts pass over the
benchmark's served test split stays within a fixed allocation peak, so
a table or memo that grows with the split fails here before it shows
in the benchmark's peak RSS."""

import os
import sys
import tracemalloc

from dialectid import features, harness
from dialectid.corpus import Register, load_corpus

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import fixtures  # noqa: E402

# The per-token table, hashed in bounded chunks, peaks at about 2.8e6
# bytes on this split; a gram -> bucket memo kept for the whole call
# peaks at 3.87e6 and fails.
PEAK_BYTES = 3.7e6


def test_bucket_counts_peak_on_serve_split(tmp_path):
    fixture = fixtures.write_fixture("serve", 101, str(tmp_path))
    spec = harness.parse_benchmark_file(fixture.config_path)
    config = next(c for c in spec.experiments if c.name == fixture.experiment)
    texts = harness.prepare_texts(load_corpus(fixture.paths["test"], Register.DA), config)
    tracemalloc.start()
    try:
        maps = sum(1 for _ in features.bucket_counts(texts, config.features))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert maps == len(texts) == 1470
    assert peak <= PEAK_BYTES
