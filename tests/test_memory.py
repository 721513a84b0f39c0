"""Memory guards for the featurizer, the loaders, the predictor and the
trainer: one bucket_counts pass, loading the served model and idf
table, and one predict_texts over the benchmark's served test split,
and classifier.train on the fit-nadi finalize corpus, at the workload's
batch size and in one full batch, stay within fixed allocation peaks,
so a table, memo, scratch block or dense array that outlives or
outgrows its use fails here before it shows in the benchmark's peak
RSS."""

import os
import sys
import tracemalloc
from dataclasses import replace

from dialectid import classifier, features, harness
from dialectid.cli import main
from dialectid.corpus import LabelVocab, Register, concat_splits, load_corpus

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import fixtures  # noqa: E402

# The per-token table, hashed in bounded chunks, peaks at about 2.3e6
# bytes on this split; a gram -> bucket memo kept for the whole call
# peaked at 3.87e6 and failed.  predict_texts peaks at about 3.47e6:
# the model's dim-sized bucket -> column table (1.05e6), built once per
# call and shared by every block, is alive while each chunk is hashed
# (3.09e6 when each block built its own inside logits); a dense
# rows x distinct-columns block per chunk, or one classes x nnz gather
# of the weights, peaks at about 6.6e6 and fails.
PEAK_BYTES = 3.7e6


def serve_split(directory):
    """The serve workload's config and prepared test texts."""
    fixture = fixtures.write_fixture("serve", 101, directory)
    spec = harness.parse_benchmark_file(fixture.config_path)
    config = next(c for c in spec.experiments if c.name == fixture.experiment)
    texts = harness.prepare_texts(load_corpus(fixture.paths["test"], Register.DA), config)
    return fixture, config, texts


def test_bucket_counts_peak_on_serve_split(tmp_path):
    _, config, texts = serve_split(str(tmp_path))
    tracemalloc.start()
    try:
        rows = sum(len(block) for block in features.bucket_counts(texts, config.features))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == len(texts) == 1470
    assert peak <= PEAK_BYTES


# The served model stores 16,644 of 2^18 columns (2.80e6 bytes of
# weights); loading it and the idf table (dense df and weights, 2.10e6
# bytes each) peaks at about 9.43e6 bytes.  The dense 21 x 2^18 model
# and dense idf file loaded at about 46e6.
LOAD_PEAK_BYTES = 10e6


def served_artifacts(tmp_path, capsys):
    """The serve workload's config, prepared test texts and the output
    directory of the benchmark run that wrote its model and idf."""
    fixture, config, texts = serve_split(str(tmp_path))
    out = str(tmp_path / "out")
    assert main(["benchmark", fixture.config_path, "--out-dir", out]) == 0
    capsys.readouterr()
    return config, texts, out


def test_load_peak_on_serve_artifacts(tmp_path, capsys):
    _, _, out = served_artifacts(tmp_path, capsys)
    tracemalloc.start()
    try:
        model = classifier.load_model(os.path.join(out, "model.bin"))
        idf = features.load_idf(os.path.join(out, "idf.bin"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.weights.shape == (16_644, 21)
    assert idf.dim == model.dim == 1 << 18
    assert peak <= LOAD_PEAK_BYTES


def test_predict_texts_peak_on_serve_split(tmp_path, capsys):
    config, texts, out = served_artifacts(tmp_path, capsys)
    model = classifier.load_model(os.path.join(out, "model.bin"))
    idf = features.load_idf(os.path.join(out, "idf.bin"))
    tracemalloc.start()
    try:
        labels = harness.predict_texts(texts, config, model, idf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(os.path.join(out, "submission.csv"), encoding="utf-8") as fh:
        assert [line.rstrip("\n").split(",")[1] for line in fh] == labels
    assert peak <= PEAK_BYTES


# The model stores the corpus's 10,804 columns: 1.82e6 bytes of
# weights, where the dense 21 x 2^18 model was 44.04e6 and train peaked
# at 45.95e6.  At the workload's batch size train peaked at 13.47e6
# while the last block kept the old buffer alive as the larger one was
# allocated, at 11.02e6 without it, and now, with the batch's weight
# rows gathered once and the decay one scalar, at 9.90e6; in one full
# batch, walked in row slices, at 18.24e6 and now 17.54e6.  The trace
# would also count numpy.random's import (about 7 MB of RSS) if train
# loaded it again.
TRAIN_PEAK_BYTES = 14e6
FULL_BATCH_PEAK_BYTES = 24e6


def fit_nadi_finalize_corpus(directory):
    """The fit-nadi finalize run's tf-idf rows, their classes, its
    config and its labels."""
    fixture = fixtures.write_fixture("fit-nadi", 101, directory)
    spec = harness.parse_benchmark_file(fixture.config_path)
    config = spec.experiments[0]
    records = concat_splits(
        load_corpus(fixture.paths["train"], Register.DA),
        load_corpus(fixture.paths["dev"], Register.DA),
    )
    blocks = features.bucket_counts(harness.prepare_texts(records, config), config.features)
    counts = features.join_rows(list(blocks), config.features.dim)
    rows = features.vectorize(counts, config.features, features.fit_idf(counts, config.features))
    level = config.subtask.level
    labels = LabelVocab.countries_only().labels(level)
    y = [labels.index(r.label(level)) for r in records]
    return rows, y, config, labels


def train_peak(rows, y, hp, labels):
    """classifier.train's model and its allocation peak."""
    tracemalloc.start()
    try:
        model = classifier.train(rows, y, hp, num_classes=len(labels))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return model, peak


def test_train_peak_on_fit_nadi_finalize_corpus(tmp_path):
    rows, y, config, labels = fit_nadi_finalize_corpus(str(tmp_path))
    model, peak = train_peak(rows, y, config.hp, labels)
    assert len(rows) == 630
    assert model.weights.shape == (10_804, 21)
    assert peak <= TRAIN_PEAK_BYTES


def test_full_batch_train_peak_on_fit_nadi_finalize_corpus(tmp_path):
    # One block over all 630 examples and their 10,804 columns is
    # 54.4e6 bytes, and train peaked at 114.8e6 when it built it whole.
    # Walked in row slices under a fixed bound (8 MiB), each slice's
    # block a prefix of one reused buffer, it peaks at 17.54e6.
    rows, y, config, labels = fit_nadi_finalize_corpus(str(tmp_path))
    hp = replace(config.hp, batch_size=len(rows))
    model, peak = train_peak(rows, y, hp, labels)
    assert model.weights.shape == (10_804, 21)
    assert peak <= FULL_BATCH_PEAK_BYTES
