"""Memory guards for text preparation, the featurizer, the model files,
the predictor and the trainer: prepare_texts over the benchmark's served
test split with the normalizer's token memos empty, one bucket_counts
pass, loading the served idf table and the model over it, saving and
loading a model over more than a quarter of its buckets, and one
predict_texts over the same split, and classifier.train on the fit-nadi
finalize corpus, at the workload's batch size and in one full batch,
stay within fixed allocation peaks, so a table, memo, scratch block or
dense array that outlives or outgrows its use fails here before it
shows in the benchmark's peak RSS.

A fit's featurization holds its corpus once: corpus_counts appends the
blocks to one CSR whose buffers are resized in place, and vectorize
weighs those counts in place, so fit_pipeline's peak up to train stays
within a fixed multiple of the rows train gets.  train maps each
batch's buckets to columns as it walks the batches, so it holds no
corpus-sized array beside the rows, and allocates its dense block buffer
once, at a bound on every slice worked out from the row lengths, and
never regrows it: each regrowth left glibc a freed block to reuse or
not, which made the benchmark's peak RSS a heap-layout lottery."""

import os
import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dialectid import classifier, features, harness, normalizer
from dialectid.cli import main
from dialectid.corpus import LabelVocab, Level, TweetRecord, concat_splits, load_corpus

import fixtures
from dense_oracle import batched_sgd

# The per-token table, hashed in bounded chunks, peaks at about 2.3e6
# bytes on this split; a gram -> bucket memo kept for the whole call
# peaked at 3.87e6 and failed.  predict_texts peaks at about 3.47e6:
# the idf table's dim-sized bucket -> column table (1.05e6), built on
# the first vectorize and kept for every later block and the model's
# logits, is alive while each chunk is hashed (3.09e6 when each block
# built its own inside logits).  logits gathers one row's entries x
# classes weights at a time, about 40e3 bytes; one gather of a whole
# block's entries peaks at about 4.0e6, and a dense rows x
# distinct-columns block per chunk at about 6.6e6, and both fail.
PEAK_BYTES = 3.7e6


def serve_split(directory):
    """The serve workload's config and prepared test texts."""
    fixture = fixtures.write_fixture("serve", 101, directory)
    spec = harness.parse_benchmark_file(fixture.config_path)
    config = next(c for c in spec.experiments if c.name == fixture.experiment)
    texts = harness.prepare_texts(load_corpus(fixture.paths["test"]), config)
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


# prepare_texts peaks at about 1.75e6 bytes on this split: 0.41e6 of
# prepared texts and 1.33e6 of token memo, whose 6,084 entries (one per
# distinct token) hold the tokens and the cleaned forms of those the
# stages change.  Without the memo it peaked at 0.42e6.
PREPARE_PEAK_BYTES = 2.0e6


def test_prepare_texts_peak_on_serve_split(tmp_path):
    fixture, config, first = serve_split(str(tmp_path))
    records = load_corpus(fixture.paths["test"])
    normalizer._token_memo.cache_clear()
    tracemalloc.start()
    try:
        texts = harness.prepare_texts(records, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert texts == first
    assert normalizer._token_memo(config.norm).cache_info().currsize == 6084
    assert peak <= PREPARE_PEAK_BYTES


# The served model stores 16,644 of 2^18 columns (2.80e6 bytes of
# weights); loading the idf table of those columns and the model over
# it peaks at about 3.68e6 bytes.  With a dense 2^18 df and weight
# array in the idf table (2.10e6 bytes each) it peaked at 9.43e6, and
# the dense 21 x 2^18 model and dense idf file loaded at about 46e6.
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
        model = classifier.load_model(os.path.join(out, "model.bin"), os.path.join(out, "idf.bin"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.weights.shape == (16_644, 21)
    assert model.idf.dim == 1 << 18
    assert peak <= LOAD_PEAK_BYTES


# A model of the shape of grid-wide's seed-101 files: 5,593 of 2^13
# columns, more than a quarter, and 21 classes, 939,624 bytes of
# weights.  Saving it allocates about 28e3 bytes, the ids as u32, and
# loading it peaks at about 1.24e6.  When such a table was written
# whole, save_model built the dim x classes table (1.38e6 bytes), and
# load_model read it and then took the columns' rows (2.46e6).
FULLER_SAVE_PEAK_BYTES = 0.1e6
FULLER_LOAD_PEAK_BYTES = 1.5e6


def fuller_model():
    """A model of random weights over 5,593 of 2^13 buckets, 21 classes."""
    rng = np.random.default_rng(101)
    dim, width, num_classes = 1 << 13, 5_593, 21
    columns = np.sort(rng.choice(dim, size=width, replace=False))
    idf = features.IdfTable(columns=columns, df=np.ones(width, dtype=np.int64), doc_count=1,
                            dim=dim)
    return classifier.LinearModel(
        weights=rng.normal(size=(width, num_classes)),
        bias=rng.normal(size=num_classes),
        class_labels=[str(c) for c in range(num_classes)],
        idf=idf,
    )


def test_save_peak_of_a_fuller_model(tmp_path):
    model = fuller_model()
    paths = str(tmp_path / "model.bin"), str(tmp_path / "idf.bin")
    tracemalloc.start()
    try:
        classifier.save_model(model, *paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.weights.nbytes == 939_624
    assert peak <= FULLER_SAVE_PEAK_BYTES


def test_load_peak_of_a_fuller_model(tmp_path):
    model = fuller_model()
    paths = str(tmp_path / "model.bin"), str(tmp_path / "idf.bin")
    classifier.save_model(model, *paths)
    tracemalloc.start()
    try:
        loaded = classifier.load_model(*paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.weights.tobytes() == model.weights.tobytes()
    assert peak <= FULLER_LOAD_PEAK_BYTES


def test_predict_texts_peak_on_serve_split(tmp_path, capsys):
    config, texts, out = served_artifacts(tmp_path, capsys)
    model = classifier.load_model(os.path.join(out, "model.bin"), os.path.join(out, "idf.bin"))
    tracemalloc.start()
    try:
        labels = harness.predict_texts(texts, config, model)
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
# allocated, at 11.02e6 without it, with the batch's weight rows
# gathered once and the decay one scalar at 9.90e6, renumbered through
# the idf table's bucket -> column table at 9.81e6, and now at 12.59e6:
# its block buffer takes the bound on any slice, 8.39e6 bytes, where the
# largest slice takes 5.25e6; in one full batch, walked in row slices,
# at 18.24e6, 17.54e6, 17.45e6 and now 17.09e6.  The trace would also
# count numpy.random's import (about 7 MB of RSS) if train loaded it
# again.
TRAIN_PEAK_BYTES = 14e6
FULL_BATCH_PEAK_BYTES = 24e6


def fit_nadi_finalize_corpus(directory):
    """The fit-nadi finalize run's tf-idf rows, their classes, its
    config, its labels and its idf table."""
    fixture = fixtures.write_fixture("fit-nadi", 101, directory)
    spec = harness.parse_benchmark_file(fixture.config_path)
    config = spec.experiments[0]
    records = concat_splits(
        load_corpus(fixture.paths["train"]),
        load_corpus(fixture.paths["dev"]),
    )
    counts = features.corpus_counts(harness.prepare_texts(records, config), config.features)
    idf = features.fit_idf(counts)
    rows = features.vectorize(counts, idf)
    level = spec.level
    labels = LabelVocab.countries_only().labels(level)
    y = [labels.index(r.label(level)) for r in records]
    return rows, y, config, labels, idf


def train_peak(rows, y, hp, labels, idf):
    """classifier.train's model and its allocation peak."""
    tracemalloc.start()
    try:
        model = classifier.train(rows, y=y, hp=hp, class_labels=labels, idf=idf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return model, peak


def test_train_peak_on_fit_nadi_finalize_corpus(tmp_path):
    rows, y, config, labels, idf = fit_nadi_finalize_corpus(str(tmp_path))
    model, peak = train_peak(rows, y, config.hp, labels, idf)
    assert len(rows) == 630
    assert model.weights.shape == (10_804, 21)
    assert peak <= TRAIN_PEAK_BYTES


def test_full_batch_train_peak_on_fit_nadi_finalize_corpus(tmp_path):
    # One block over all 630 examples and their 10,804 columns is
    # 54.4e6 bytes, and train peaked at 114.8e6 when it built it whole.
    # Walked in row slices under a fixed bound (8 MiB), each slice's
    # block a prefix of one reused buffer, it peaks at 17.09e6.
    rows, y, config, labels, idf = fit_nadi_finalize_corpus(str(tmp_path))
    hp = replace(config.hp, batch_size=len(rows))
    model, peak = train_peak(rows, y, hp, labels, idf)
    assert model.weights.shape == (10_804, 21)
    assert peak <= FULL_BATCH_PEAK_BYTES


class AllocationLog:
    """numpy as classifier sees it, logging the shape of every float64
    array that zeros or empty allocates."""

    def __init__(self):
        self.float_shapes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def _logged(self, out):
        if out.dtype == np.float64:
            self.float_shapes.append(out.shape)
        return out

    def zeros(self, *args, **kwargs):
        return self._logged(np.zeros(*args, **kwargs))

    def empty(self, *args, **kwargs):
        return self._logged(np.empty(*args, **kwargs))


@pytest.mark.parametrize("case", ["batches", "full batch", "tiny blocks", "no epochs"])
def test_train_allocates_its_block_buffer_once(tmp_path, monkeypatch, case):
    """train's float64 allocations are its weights, its biases and one
    block buffer of min(min(n, batch_size) * U, max(_BLOCK_ELEMENTS, U))
    float64s (none with no epochs), which holds the largest slice block
    that the batched oracle fills; a buffer grown batch by batch
    allocates more."""
    rows, y, config, labels, idf = fit_nadi_finalize_corpus(str(tmp_path))
    hp = config.hp
    if case == "full batch":
        hp = replace(hp, batch_size=len(rows))
    elif case == "tiny blocks":
        monkeypatch.setattr(classifier, "_BLOCK_ELEMENTS", 16)
    elif case == "no epochs":
        hp = replace(hp, epochs=0)
    block = classifier._BLOCK_ELEMENTS
    *_, sizes = batched_sgd(rows, np.asarray(y), hp, len(labels), block)
    # U: no batch has more distinct columns.
    longest = sorted(np.diff(rows.indptr).tolist(), reverse=True)[: hp.batch_size]
    u = min(idf.columns.size, sum(longest))
    bound = min(min(len(rows), hp.batch_size) * u, max(block, u)) if hp.epochs else 0
    assert bound >= max(sizes, default=0)
    if case == "tiny blocks":
        # Every slice is one row, and the bound is U.
        assert bound == u == idf.columns.size > max(sizes)
    log = AllocationLog()
    monkeypatch.setattr(classifier, "np", log)
    model = classifier.train(rows, y=y, hp=hp, class_labels=labels, idf=idf)
    assert model.weights.shape == (10_804, 21)
    assert sorted(log.float_shapes) == sorted([(bound,), (10_804, 21), (21,)])


def test_train_holds_no_corpus_sized_array():
    """train on rows whose int32 ids outweigh its weights and its block
    buffer's bound several times over peaks well under the ids' bytes,
    so it holds no copy of them (such as their columns, mapped through
    the idf table all at once)."""
    n, length, width, dim = 2_000, 1_000, 4_096, 1 << 16
    # Row i has the columns (37 i + 3 j) mod width, j < length: distinct,
    # as 3 and width are coprime.
    cols = np.sort((37 * np.arange(n)[:, None] + 3 * np.arange(length)) % width, axis=1)
    rows = features.SparseRows(
        indptr=np.arange(0, n * length + 1, length, dtype=np.int64),
        indices=(cols.ravel() * (dim // width)).astype(np.int32),
        values=np.full(n * length, length**-0.5),
        dim=dim,
    )
    idf = features.fit_idf(rows)
    hp = classifier.HyperParams(batch_size=8, epochs=1)
    bound = min(hp.batch_size * width, max(classifier._BLOCK_ELEMENTS, width))
    assert rows.indices.nbytes > 4 * (width * 2 + bound) * 8
    assert idf.table.size == dim  # built before the trace: the model keeps it
    # train peaks at about 0.86e6 bytes here; a copy of the ids alone is
    # 8e6, and with one and the sizing pass train peaked at 49.2e6.
    model, peak = train_peak(rows, np.arange(n) % 2, hp, ["a", "b"], idf)
    assert model.weights.shape == (width, 2)
    assert peak <= rows.indices.nbytes / 4


# fit_pipeline's featurization of 5,000 noisy benchmark tweets: at its
# peak before train it held 2.61x the bytes of the rows train got (48.9e6
# for 18.7e6 of int64-id rows) when the fit kept bucket_counts' blocks,
# their join_rows copy and vectorize's new values at once; it now peaks
# at about 1.24x (17.4e6 for 14.0e6 of int32-id rows), most of the
# margin the token table and the growing buffers' last eighth.
FIT_FEATURES_PEAK_RATIO = 1.5


class _Stop(Exception):
    pass


def noisy_records(count, seed):
    """count noisy benchmark tweets in NADI proportions, 2% of them
    emoji-only and labeled with the majority country."""
    rng = random.Random(f"noisy:{seed}")
    lexicon = fixtures.Lexicon(rng)
    n_emoji = round(count * fixtures.NOISY.emoji_only_rate)
    labels = [(c, False) for c, n in fixtures.class_counts(count - n_emoji).items()
              for _ in range(n)]
    labels += [(fixtures.MAJORITY, True)] * n_emoji
    rng.shuffle(labels)
    return [
        TweetRecord(id=str(i), text=fixtures.tweet(rng, lexicon, c, fixtures.NOISY, emoji),
                    country=c)
        for i, (c, emoji) in enumerate(labels)
    ]


def test_fit_featurization_peak_on_noisy_tweets(monkeypatch):
    records = noisy_records(5_000, 101)
    config = harness.ExperimentConfig(name="noisy")
    texts = harness.prepare_texts(records, config)
    vocab = LabelVocab.countries_only()
    y = vocab.classes(records, Level.COUNTRY)
    seen = {}

    def stop(rows, **kwargs):
        seen["peak"] = tracemalloc.get_traced_memory()[1]
        seen["rows"] = rows
        raise _Stop

    monkeypatch.setattr(classifier, "train", stop)
    tracemalloc.start()
    try:
        with pytest.raises(_Stop):
            harness.fit_pipeline(texts, y, vocab.labels(Level.COUNTRY), config,
                                 normalizer.DEFAULT_LEXICON)
    finally:
        tracemalloc.stop()
    rows = seen["rows"]
    nbytes = rows.indptr.nbytes + rows.indices.nbytes + rows.values.nbytes
    assert len(rows) == 5_000 and nbytes > 10e6
    assert seen["peak"] <= FIT_FEATURES_PEAK_RATIO * nbytes
