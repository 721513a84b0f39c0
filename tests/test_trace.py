"""The benchmark's per-layer tracer, installed in-process, still sees
the featurizer: one vectorize span per featurized document, one fit_idf
span per fit, one char_ngrams span per distinct token of each fit or
predict, and the nnz of the vectors it returns."""

import json
import os
import sys

from dialectid import classifier, corpus, evaluation, features, harness, normalizer
from dialectid.corpus import LabelVocab, Register, load_corpus

import synthcorpus

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import tracer  # noqa: E402

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
        load_corpus(paths[split], Register.DA, vocab=vocab) for split in ("train", "dev", "test")
    )
    experiments = list(spec.experiments)

    def one_call(records, cfg):
        """Distinct tokens and their grams in one bucket_counts call."""
        tokens = {tok for text in harness.prepare_texts(records, cfg) for tok in text.split()}
        grams = set().union(*(features.char_ngrams(tok, cfg.features) for tok in tokens))
        return tokens, grams

    # Each fit and each predict is one bucket_counts call, which cuts
    # each distinct token of its texts into grams once.
    grid_calls = [one_call(split, cfg) for cfg in experiments for split in (train, dev)]
    final_calls = {
        cfg.name: [one_call(split, cfg) for split in (train + dev, test)] for cfg in experiments
    }

    # monkeypatch puts back every attribute the tracer replaces.
    for module_name, attr in tracer.SPANNED + (("features", "hash_index"),):
        if module_name in PACKAGE:
            module = PACKAGE[module_name]
            monkeypatch.setattr(module, attr, getattr(module, attr))
    trace = tracer.Tracer()
    trace.install(PACKAGE)

    splits = harness.Splits(train, dev, test)
    grid = harness.run_grid(splits, experiments, vocab, spec.selection)
    selected = next(c for c in experiments if c.name == grid.selected)
    harness.finalize(splits, selected, vocab, str(tmp_path / "sub.csv"))

    trace.dump(str(tmp_path / "trace.json"))
    with open(tmp_path / "trace.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    _, _, calls = tracer.self_times(doc["spans"])
    featurized = len(experiments) * (len(train) + len(dev)) + len(train) + len(dev) + len(test)
    assert calls["features.vectorize"] == featurized
    assert calls["features.fit_idf"] == len(experiments) + 1
    # Every fit, the grid's and finalize's, goes through fit_pipeline.
    assert calls["harness.fit_pipeline"] == len(experiments) + 1
    featurize_calls = grid_calls + final_calls[grid.selected]
    assert calls["features.char_ngrams"] == sum(len(tokens) for tokens, _ in featurize_calls)
    assert doc["counters"]["features.nnz"] > 0
    layers = tracer.summarize(doc)
    assert layers["features.vectorize_calls"] == featurized
    assert layers["features.nnz_per_doc"] > 0
    distinct_grams = set().union(*(grams for _, grams in featurize_calls))
    assert layers["features.distinct_grams"] == len(distinct_grams) > 0
    # The tracer counts per-gram hash_index calls; featurization hashes
    # its grams in batches through hash_grams instead.
    assert layers["features.hash_calls"] == 0
