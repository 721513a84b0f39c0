"""The benchmark's per-layer tracer, installed in-process, still sees
the featurizer and the classifier: one vectorize span per fit and per
predict block, one classifier.predict span per predict block, one
fit_idf and one fit_pipeline span per fit, the nnz of the rows
vectorize returns, and the example-epochs of every train call.

The tracer also lists features.char_ngrams, which the package does
not have: bucket_counts cuts and hashes whole chunks of tokens in
token_buckets.  The tracer skips a missing attribute, so
features.char_ngrams_s and features.distinct_grams read zero; there
is no per-gram hash function to count either."""

import json

from dialectid import classifier, corpus, evaluation, features, harness, normalizer
from dialectid.corpus import LabelVocab, load_corpus

import synthcorpus
import tracer


PACKAGE = {
    "corpus": corpus, "normalizer": normalizer, "features": features,
    "classifier": classifier, "evaluation": evaluation, "harness": harness,
}


def test_tracer_sees_the_featurizer(tmp_path, monkeypatch):
    paths = synthcorpus.write_dialect_corpus(
        str(tmp_path), seed=3, n_train=12, n_dev=4, n_test=4
    )
    spec = harness.parse_benchmark_file(
        synthcorpus.write_benchmark_config(str(tmp_path), paths, dim=1 << 12)
    )
    vocab = LabelVocab.from_file(paths["vocab"])
    train, dev, test = (
        load_corpus(paths[split], vocab=vocab) for split in ("train", "dev", "test")
    )
    experiments = list(spec.experiments)

    def one_call(records, cfg):
        """The number of blocks of one bucket_counts call."""
        texts = harness.prepare_texts(records, cfg)
        return sum(1 for _ in features.bucket_counts(texts, cfg.features))

    # Each fit and each predict is one bucket_counts call.
    grid_calls = [(one_call(train, cfg), one_call(dev, cfg)) for cfg in experiments]
    final_calls = {cfg.name: (one_call(train + dev, cfg), one_call(test, cfg)) for cfg in experiments}

    # monkeypatch puts back every attribute the tracer replaces.
    for module_name, attr in tracer.SPANNED:
        module = PACKAGE.get(module_name)
        if hasattr(module, attr):
            monkeypatch.setattr(module, attr, getattr(module, attr))
    trace = tracer.Tracer()
    trace.install(PACKAGE)

    splits = harness.Splits(spec.level, vocab, train, dev, test)
    grid = harness.run_grid(splits, experiments, spec.selection)
    selected = grid.selected
    harness.finalize(splits, selected, str(tmp_path / "sub.csv"))

    trace.dump(str(tmp_path / "trace.json"))
    with open(tmp_path / "trace.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    _, _, calls = tracer.self_times(doc["spans"])
    fit_and_predict = grid_calls + [final_calls[selected.name]]
    # A fit vectorizes its joined blocks once; a predict vectorizes and
    # classifies block by block.
    predict_blocks = sum(blocks for _, blocks in fit_and_predict)
    assert calls["features.vectorize"] == len(fit_and_predict) + predict_blocks
    assert calls["classifier.predict"] == predict_blocks
    assert calls["features.fit_idf"] == len(experiments) + 1
    # Every fit, the grid's and finalize's, goes through fit_pipeline.
    assert calls["harness.fit_pipeline"] == len(experiments) + 1
    assert "features.char_ngrams" not in calls
    assert doc["counters"]["features.nnz"] > 0
    epochs = sum(cfg.hp.epochs for cfg in experiments) * len(train) + selected.hp.epochs * (
        len(train) + len(dev)
    )
    assert doc["counters"]["classifier.example_epochs"] == epochs > 0
    layers = tracer.summarize(doc)
    assert layers["features.vectorize_calls"] == calls["features.vectorize"]
    assert layers["features.nnz_per_doc"] > 0
    assert layers["features.char_ngrams_s"] == 0
    assert layers["features.distinct_grams"] == 0
    assert layers["features.hash_calls"] == 0
