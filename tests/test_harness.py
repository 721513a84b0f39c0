import random
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

import dialectid.classifier
import dialectid.features
import dialectid.normalizer
from dialectid.classifier import HyperParams
from dialectid.corpus import (
    LabelVocab,
    Level,
    TweetRecord,
    concat_splits,
    read_submission,
)
from dialectid.errors import (
    ConfigError,
    DuplicateId,
    LengthMismatch,
    SubtaskMismatch,
    UnknownLabel,
)
from dialectid.features import FeatureConfig
from dialectid.harness import (
    ExperimentConfig,
    GridRow,
    SelectionMetric,
    Splits,
    finalize,
    fingerprint,
    fit_pipeline,
    override_seed,
    parse_benchmark_file,
    predict_texts,
    prepare_texts,
    render_grid,
    run_grid,
    write_grid_tsv,
)
from dialectid.normalizer import DEFAULT_LEXICON, NormConfig, SegmentLexicon

import feature_oracle

VOCAB = LabelVocab(countries=("Atlantis", "Borealia"))
CHARS = {"Atlantis": "ابت", "Borealia": "جحخ"}


def word(rng, country):
    return "".join(rng.choice(CHARS[country]) for _ in range(rng.randint(2, 5)))


def make_split(prefix, n_per_class, seed):
    rng = random.Random(seed)
    records = []
    for country in VOCAB.countries:
        for k in range(n_per_class):
            text = " ".join(word(rng, country) for _ in range(rng.randint(2, 4)))
            records.append(
                TweetRecord(id=f"{prefix}{country[0]}{k}", text=text, country=country)
            )
    return records


TRAIN = make_split("tr", 20, 1)
DEV = make_split("dv", 6, 2)
TEST = make_split("te", 6, 3)

SMALL_FEATURES = FeatureConfig(dim=1 << 12)


def config(name, epochs=3, **hp_kwargs):
    return ExperimentConfig(
        name=name,
        features=SMALL_FEATURES,
        hp=HyperParams(epochs=epochs, **hp_kwargs),
    )


def test_experiment_config_requires_name():
    with pytest.raises(ConfigError):
        ExperimentConfig(name="")


def test_grid_row_metric_mapping():
    row = GridRow(name="x", weighted_f1=0.1, accuracy=0.2, macro_f1=0.3)
    assert row.metric(SelectionMetric.WEIGHTED_F1) == 0.1
    assert row.metric(SelectionMetric.ACCURACY) == 0.2
    assert row.metric(SelectionMetric.MACRO_F1) == 0.3


def test_fingerprint_covers_text_preparation_and_features():
    base = config("a")
    digest = fingerprint(base)
    assert len(digest) == 16 and int(digest, 16) >= 0
    # The name and the training settings but max_seq_len are not covered.
    assert fingerprint(config("b", epochs=1, lr=0.5, rng_seed=4)) == digest
    norm_changes = [
        {f.name: not value if isinstance(value, bool) else value + 1}
        for f in fields(NormConfig)
        for value in [getattr(base.norm, f.name)]
    ]
    variants = [replace(base, norm=replace(base.norm, **change)) for change in norm_changes]
    variants.append(replace(base, hp=replace(base.hp, max_seq_len=base.hp.max_seq_len + 1)))
    variants += [
        replace(base, features=replace(base.features, **change))
        for change in ({"n_min": 3}, {"n_max": 6}, {"dim": 1 << 13}, {"pad_token": "#"})
    ]
    assert len({fingerprint(c) for c in [base] + variants}) == len(variants) + 1


def test_fingerprint_covers_the_lexicon_of_a_segmenting_experiment():
    base = config("a")
    segmenting = replace(base, norm=replace(base.norm, segment=True))
    default = dialectid.normalizer.DEFAULT_LEXICON
    other = replace(default, prefixes=default.prefixes[1:])
    # Without segmentation no lexicon is read, and the default lexicon
    # leaves every fingerprint as it was before the lexicon was covered.
    assert fingerprint(base, other) == fingerprint(base)
    assert fingerprint(segmenting, default) == fingerprint(segmenting)
    lexicons = [
        other,
        replace(default, suffixes=default.suffixes + ("هن",)),
        replace(default, min_stem_len=3),
        replace(default, overrides={"فقالها": "ف+قال+ها"}),
        replace(default, overrides={"فقالها": "ف+قالها"}),
    ]
    digests = {fingerprint(segmenting)} | {fingerprint(segmenting, lex) for lex in lexicons}
    assert len(digests) == len(lexicons) + 1
    # Lexicons that segment every token alike share a fingerprint: the
    # entries in another order, or one listed twice.
    reordered = SegmentLexicon(prefixes=default.prefixes[::-1],
                               suffixes=default.suffixes + default.suffixes[:1])
    assert fingerprint(segmenting, reordered) == fingerprint(segmenting)
    assert fingerprint(segmenting, replace(other, prefixes=other.prefixes[::-1])) == fingerprint(
        segmenting, other
    )
    # The overrides are covered as a sorted table, not in insertion order.
    pairs = [("وكتب", "و+كتب"), ("بالبيت", "ب+ال+بيت")]
    assert fingerprint(segmenting, replace(default, overrides=dict(pairs))) == fingerprint(
        segmenting, replace(default, overrides=dict(pairs[::-1]))
    )


class TestRunGridValidation:
    def test_empty_grid(self):
        with pytest.raises(ConfigError):
            run_grid(Splits(Level.COUNTRY, VOCAB, TRAIN, DEV), [])

    def test_duplicate_names(self):
        with pytest.raises(ConfigError, match="duplicate"):
            run_grid(Splits(Level.COUNTRY, VOCAB, TRAIN, DEV), [config("a"), config("a")])

    def test_province_needs_province_vocab(self):
        with pytest.raises(SubtaskMismatch, match="province"):
            Splits(Level.PROVINCE, VOCAB, TRAIN, DEV)

    def test_unlabeled_train_record_rejected(self):
        broken = TRAIN + [TweetRecord(id="naked", text="ابت")]
        with pytest.raises(SubtaskMismatch, match="^record 'naked' has no country label$"):
            Splits(Level.COUNTRY, VOCAB, broken, DEV)


class TestRunGrid:
    def test_trained_beats_untrained_and_is_selected(self):
        result = run_grid(
            Splits(Level.COUNTRY, VOCAB, TRAIN, DEV),
            [config("zero", epochs=0), config("five", epochs=5)],
        )
        by_name = {row.name: row for row in result.rows}
        assert by_name["five"].weighted_f1 > by_name["zero"].weighted_f1
        assert result.selected == "five"
        assert result.selection_metric is SelectionMetric.WEIGHTED_F1
        assert [row.name for row in result.rows] == ["zero", "five"]

    def test_tie_goes_to_earliest_row(self):
        result = run_grid(
            Splits(Level.COUNTRY, VOCAB, TRAIN, DEV), [config("first"), config("second")]
        )
        assert result.rows[0].weighted_f1 == result.rows[1].weighted_f1
        assert result.selected == "first"

    def test_selection_metric_recorded(self):
        result = run_grid(
            Splits(Level.COUNTRY, VOCAB, TRAIN, DEV),
            [config("only")],
            selection=SelectionMetric.ACCURACY,
        )
        assert result.selection_metric is SelectionMetric.ACCURACY

    def test_dev_never_reaches_fitting(self, monkeypatch):
        idf_sizes = []
        train_sizes = []
        real_fit = dialectid.features.fit_idf
        real_train = dialectid.classifier.train

        def spy_fit(corpus):
            idf_sizes.append(len(corpus))
            return real_fit(corpus)

        def spy_train(examples, *args, **kwargs):
            train_sizes.append(len(examples))
            return real_train(examples, *args, **kwargs)

        monkeypatch.setattr(dialectid.features, "fit_idf", spy_fit)
        monkeypatch.setattr(dialectid.classifier, "train", spy_train)
        run_grid(Splits(Level.COUNTRY, VOCAB, TRAIN, DEV), [config("a"), config("b", epochs=1)])
        assert idf_sizes == [len(TRAIN), len(TRAIN)]
        assert train_sizes == [len(TRAIN), len(TRAIN)]

    @pytest.mark.parametrize(
        "configs,preparations",
        [
            ([config("a"), config("b", epochs=1), config("c", l2=1e-3)], 1),
            (
                [
                    config("a"),
                    replace(config("b"), norm=NormConfig(max_repeat=1)),
                    config("c", max_seq_len=8),
                    config("d", epochs=1),
                ],
                3,
            ),
        ],
    )
    def test_texts_prepared_once_per_preparation(self, monkeypatch, configs, preparations):
        separate = [
            run_grid(Splits(Level.COUNTRY, VOCAB, TRAIN, DEV), [c]).rows[0] for c in configs
        ]
        inputs = []
        real_normalize = dialectid.normalizer.normalize

        def spy_normalize(text, *args, **kwargs):
            inputs.append(text)
            return real_normalize(text, *args, **kwargs)

        monkeypatch.setattr(dialectid.normalizer, "normalize", spy_normalize)
        result = run_grid(Splits(Level.COUNTRY, VOCAB, TRAIN, DEV), configs)
        assert len(inputs) == preparations * (len(TRAIN) + len(DEV))
        assert list(result.rows) == separate


class TestPrepareTexts:
    def texts(self, *texts, max_seq_len):
        records = [TweetRecord(id=str(i), text=t) for i, t in enumerate(texts)]
        return prepare_texts(records, config("p", max_seq_len=max_seq_len))

    def test_cuts_to_max_seq_len(self):
        assert self.texts("abcdef", max_seq_len=3) == ["abc"]
        assert self.texts("اب", max_seq_len=5) == ["اب"]
        assert self.texts("", max_seq_len=4) == [""]

    def test_counts_unicode_scalar_values(self):
        # The normalizer drops emoji as noise unless remove_noise is off.
        # Each emoji is one scalar value, not two UTF-16 code units.
        records = [TweetRecord(id="e", text="😂" * 10)]
        cfg = replace(
            config("p", max_seq_len=3), norm=NormConfig(remove_noise=False)
        )
        assert prepare_texts(records, cfg) == ["😂😂😂"]

    def test_normalizes_before_cutting(self):
        # "ههههه" shrinks to "هه" first, so the cut keeps the space and "ب".
        assert self.texts("ههههه بب", max_seq_len=4) == ["هه ب"]


class TestSplits:
    def test_checks_train_and_dev_labels_but_not_test(self):
        naked = TweetRecord(id="naked", text="ابت")
        with pytest.raises(SubtaskMismatch, match="^record 'naked' has no country label$"):
            Splits(Level.COUNTRY, VOCAB, TRAIN, DEV + [naked])
        splits = Splits(Level.COUNTRY, VOCAB, TRAIN, DEV, TEST + [naked])
        assert (splits.level, splits.vocab) == (Level.COUNTRY, VOCAB)

    def test_rejects_labels_outside_the_vocab_before_any_fit(self):
        stray = TweetRecord(id="stray", text="ابت", country="Ruritania")
        for train, dev in [(TRAIN + [stray], DEV), (TRAIN, DEV + [stray])]:
            with pytest.raises(UnknownLabel, match="^record 'stray': label 'Ruritania' not in vocab$"):
                Splits(Level.COUNTRY, VOCAB, train, dev)
        Splits(Level.COUNTRY, VOCAB, TRAIN, DEV, TEST + [stray])

    def test_rejects_ids_in_train_and_dev(self):
        with pytest.raises(DuplicateId, match=f"^id {TRAIN[0].id!r} appears in both splits$"):
            Splits(Level.COUNTRY, VOCAB, TRAIN, DEV + TRAIN[:1])

    def test_texts_are_normalized_with_the_lexicon_and_its_overrides(self):
        cfg = replace(config("s"), norm=NormConfig(segment=True))
        lexicon = replace(
            dialectid.normalizer.DEFAULT_LEXICON, overrides={TRAIN[0].text.split()[0]: "x+ y"}
        )
        plain = Splits(Level.COUNTRY, VOCAB, TRAIN, DEV).texts("train", cfg)
        texts = Splits(Level.COUNTRY, VOCAB, TRAIN, DEV, lexicon=lexicon).texts("train", cfg)
        assert texts == prepare_texts(TRAIN, cfg, lexicon)
        assert texts[0].startswith("x+ y") and not plain[0].startswith("x+ y")

    def test_each_split_is_prepared_once_per_preparation(self, monkeypatch, tmp_path):
        splits = Splits(Level.COUNTRY, VOCAB, TRAIN, DEV, TEST)
        inputs = []
        real_normalize = dialectid.normalizer.normalize

        def spy_normalize(text, *args, **kwargs):
            inputs.append(text)
            return real_normalize(text, *args, **kwargs)

        monkeypatch.setattr(dialectid.normalizer, "normalize", spy_normalize)
        run_grid(splits, [config("a"), config("b", epochs=1)])
        finalize(splits, config("a"), str(tmp_path / "s.csv"))
        assert len(inputs) == len(TRAIN) + len(DEV) + len(TEST)
        assert splits.texts("train", config("c")) is splits.texts("train", config("d"))
        other = replace(config("e"), norm=NormConfig(max_repeat=1))
        texts = splits.texts("train", other)
        assert len(inputs) == 2 * len(TRAIN) + len(DEV) + len(TEST)
        assert texts == prepare_texts(TRAIN, other)

    def test_finalize_fits_on_the_preparation_of_train_plus_dev(self, tmp_path):
        cfg = config("f")
        splits = Splits(Level.COUNTRY, VOCAB, TRAIN, DEV, TEST)
        combined = concat_splits(TRAIN, DEV)
        texts = prepare_texts(combined, cfg)
        assert splits.texts("train", cfg) + splits.texts("dev", cfg) == texts
        model = fit_pipeline(texts, combined, cfg, VOCAB, Level.COUNTRY, DEFAULT_LEXICON)
        result = finalize(splits, cfg, str(tmp_path / "s.csv"))
        assert np.array_equal(result.model.weights, model.weights)
        assert np.array_equal(result.model.idf.columns, model.idf.columns)
        assert np.array_equal(result.model.idf.weights, model.idf.weights)

    def test_finalize_rejects_ids_in_train_and_dev(self, tmp_path):
        with pytest.raises(DuplicateId):
            finalize(
                Splits(Level.COUNTRY, VOCAB, TRAIN, DEV + TRAIN[:1], TEST),
                config("f"),
                str(tmp_path / "s.csv"),
            )


class TestFitPipeline:
    def test_texts_and_records_must_pair_up(self):
        cfg = config("m")
        with pytest.raises(LengthMismatch):
            fit_pipeline(
                prepare_texts(TRAIN, cfg)[1:], TRAIN, cfg, VOCAB, Level.COUNTRY, DEFAULT_LEXICON
            )

    def test_record_without_the_level_label(self):
        records = TRAIN + [TweetRecord(id="naked", text="ابت")]
        cfg = config("m")
        with pytest.raises(SubtaskMismatch, match="^record 'naked' has no country label$"):
            fit_pipeline(
                prepare_texts(records, cfg), records, cfg, VOCAB, Level.COUNTRY, DEFAULT_LEXICON
            )

    def test_returns_majority_of_fitted_split(self):
        lopsided = TRAIN + make_split("extra", 3, 9)[:3]
        cfg = config("m")
        model = fit_pipeline(
            prepare_texts(lopsided, cfg), lopsided, cfg, VOCAB, Level.COUNTRY, DEFAULT_LEXICON
        )
        assert model.class_labels[model.fallback_class] == "Atlantis"
        assert model.idf.doc_count == len(lopsided)
        assert model.class_labels == list(VOCAB.countries)

    def test_majority_tie_takes_earliest_vocab_label(self):
        cfg = config("m")
        model = fit_pipeline(
            prepare_texts(TRAIN, cfg), TRAIN, cfg, VOCAB, Level.COUNTRY, DEFAULT_LEXICON
        )
        assert model.fallback_class == 0


class TestPredictTexts:
    def test_empty_text_gets_the_fallback_not_argmax_bias(self):
        # Borealia is the majority but the zero model's argmax is class 0.
        lopsided = make_split("b", 4, 5)[4:] + make_split("extra", 2, 9)[2:]
        assert [r.country for r in lopsided].count("Borealia") == 6
        cfg = config("z", epochs=0)
        model = fit_pipeline(
            prepare_texts(lopsided, cfg), lopsided, cfg, VOCAB, Level.COUNTRY, DEFAULT_LEXICON
        )
        blank = TweetRecord(id="blank", text="😂😂")
        word_only = TweetRecord(id="w", text="ابت")
        texts = prepare_texts([blank, word_only], cfg)
        assert predict_texts(texts, cfg, model) == [
            "Borealia",
            "Atlantis",
        ]

    def test_classifies_through_module_attributes(self, monkeypatch):
        cfg = config("m")
        model = fit_pipeline(
            prepare_texts(TRAIN, cfg), TRAIN, cfg, VOCAB, Level.COUNTRY, DEFAULT_LEXICON
        )
        calls = []
        real_predict = dialectid.classifier.predict

        def spy_predict(m, rows):
            calls.append(len(rows))
            return real_predict(m, rows)

        monkeypatch.setattr(dialectid.classifier, "predict", spy_predict)
        predictions = predict_texts(prepare_texts(TEST, cfg), cfg, model)
        # One call per block of texts, and TEST fits in one block.
        assert calls == [len(TEST)]
        assert predictions == [r.country for r in TEST]

    def test_builds_the_column_table_once_for_all_blocks(self, monkeypatch):
        cfg = config("m")
        model = fit_pipeline(
            prepare_texts(TRAIN, cfg), TRAIN, cfg, VOCAB, Level.COUNTRY, DEFAULT_LEXICON
        )
        texts = prepare_texts(TEST, cfg)
        expected = predict_texts(texts, cfg, model)
        # A copy of the idf table, which has built no lookup table yet.
        model = replace(model, idf=replace(model.idf))
        built, tables = [], []
        real_table = dialectid.features.column_table
        real_predict = dialectid.classifier.predict

        def spy_table(columns, dim):
            built.append(real_table(columns, dim))
            return built[-1]

        def spy_predict(m, rows):
            classes = real_predict(m, rows)
            tables.append(m.idf.table)
            return classes

        monkeypatch.setattr(dialectid.features, "column_table", spy_table)
        monkeypatch.setattr(dialectid.classifier, "predict", spy_predict)
        monkeypatch.setattr(dialectid.features, "_CHUNK_TEXTS", 2)
        # One model scored by two predict_texts calls builds one table,
        # which vectorize and logits share.
        assert predict_texts(texts, cfg, model) == expected
        assert predict_texts(texts, cfg, model) == expected
        assert len(built) == 1
        assert len(tables) == 2 * -(-len(TEST) // 2) > 2
        assert all(table is built[0] for table in tables)


class TestFeaturizeOnce:
    """One fit or one predict cuts each distinct token of its texts
    into grams once, and hashes those grams once."""

    def distinct_tokens(self, records, cfg):
        return {token for text in prepare_texts(records, cfg) for token in text.split()}

    def spy(self, monkeypatch):
        """Record the tokens of every token_buckets call and the buckets
        it returns."""
        seen = {"tokens": [], "buckets": Counter()}
        real = dialectid.features.token_buckets

        def cut_and_hash(tokens, config):
            buckets = real(tokens, config)
            seen["tokens"].extend(tokens)
            seen["buckets"].update(buckets.tolist())
            return buckets

        monkeypatch.setattr(dialectid.features, "token_buckets", cut_and_hash)
        return seen

    def check(self, seen, tokens, cfg):
        assert sorted(seen["tokens"]) == sorted(tokens)
        buckets = Counter()
        for token in tokens:
            for gram, count in feature_oracle.char_ngrams(token, cfg.features).items():
                buckets[feature_oracle.hash_index(gram, cfg.features)] += count
        assert seen["buckets"] == buckets

    def test_fit_pipeline(self, monkeypatch):
        cfg = config("once")
        tokens = self.distinct_tokens(TRAIN, cfg)
        texts = prepare_texts(TRAIN, cfg)
        seen = self.spy(monkeypatch)
        fit_pipeline(texts, TRAIN, cfg, VOCAB, Level.COUNTRY, DEFAULT_LEXICON)
        self.check(seen, tokens, cfg)

    def test_predict_texts(self, monkeypatch):
        cfg = config("once")
        model = fit_pipeline(
            prepare_texts(TRAIN, cfg), TRAIN, cfg, VOCAB, Level.COUNTRY, DEFAULT_LEXICON
        )
        tokens = self.distinct_tokens(TEST, cfg)
        texts = prepare_texts(TEST, cfg)
        seen = self.spy(monkeypatch)
        predict_texts(texts, cfg, model)
        self.check(seen, tokens, cfg)


class TestFinalize:
    def test_refits_on_train_plus_dev(self, monkeypatch, tmp_path):
        idf_sizes = []
        real_fit = dialectid.features.fit_idf

        def spy_fit(corpus):
            idf_sizes.append(len(corpus))
            return real_fit(corpus)

        monkeypatch.setattr(dialectid.features, "fit_idf", spy_fit)
        finalize(
            Splits(Level.COUNTRY, VOCAB, TRAIN, DEV, TEST), config("f"), str(tmp_path / "sub.csv")
        )
        assert idf_sizes == [len(TRAIN) + len(DEV)]

    def test_submission_and_report(self, tmp_path):
        path = tmp_path / "sub.csv"
        splits = Splits(Level.COUNTRY, VOCAB, TRAIN, DEV, TEST)
        result = finalize(splits, config("f", epochs=10), str(path))
        assert len(result.predictions) == len(TEST)
        pairs = read_submission(str(path))
        assert [rid for rid, _ in pairs] == [r.id for r in TEST]
        assert [label for _, label in pairs] == list(result.predictions)
        assert result.report is not None
        assert result.report.accuracy == 1.0
        assert result.report.total == len(TEST)

    def test_unlabeled_test_gets_no_report(self, tmp_path):
        blind = [TweetRecord(id=r.id, text=r.text) for r in TEST]
        result = finalize(
            Splits(Level.COUNTRY, VOCAB, TRAIN, DEV, blind), config("f"), str(tmp_path / "s.csv")
        )
        assert result.report is None
        assert len(result.predictions) == len(blind)

    def test_empty_text_falls_back_to_majority(self, tmp_path):
        blank = TweetRecord(id="blank", text="😂😂")
        result = finalize(
            Splits(Level.COUNTRY, VOCAB, TRAIN, DEV, [blank] + TEST),
            config("f"),
            str(tmp_path / "s.csv"),
        )
        # train plus dev is balanced, so the tie resolves to the first
        # vocab label
        assert result.predictions[0] == VOCAB.countries[0]

    def test_two_runs_are_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        first = finalize(Splits(Level.COUNTRY, VOCAB, TRAIN, DEV, TEST), config("f"), str(a))
        second = finalize(Splits(Level.COUNTRY, VOCAB, TRAIN, DEV, TEST), config("f"), str(b))
        assert first.predictions == second.predictions
        assert a.read_bytes() == b.read_bytes()


class TestGridRendering:
    def result(self):
        splits = Splits(Level.COUNTRY, VOCAB, TRAIN, DEV)
        return run_grid(splits, [config("zero", epochs=0), config("one")])

    def test_render_grid_marks_selected(self):
        text = render_grid(self.result())
        lines = text.splitlines()
        assert lines[0].split() == ["name", "weighted_f1", "accuracy", "macro_f1"]
        starred = [l for l in lines if l.rstrip().endswith("*")]
        assert len(starred) == 1 and starred[0].startswith("one")
        assert lines[-1].startswith("selected: one (by weighted_f1)")

    def test_grid_tsv_layout(self, tmp_path):
        path = tmp_path / "grid.tsv"
        result = self.result()
        write_grid_tsv(result, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "name\tweighted_f1\taccuracy\tmacro_f1\tselected"
        cells = [line.split("\t") for line in lines[1:]]
        assert [c[0] for c in cells] == ["zero", "one"]
        assert [c[4] for c in cells] == ["0", "1"]
        for row in cells:
            for value in row[1:4]:
                assert len(value.split(".")[1]) == 6


BASE_CONFIG = """\
# benchmark over the toy splits
format=1

[data]
train = {train}
dev = {dev}
test = {test}
vocab = {vocab}
level = province
register = msa
selection = macro_f1

[experiment base]
epochs = 3
learning_rate = 0.05
seed = 9
dim = 1024
n_min = 1
n_max = 3
max_repeat = 3
segment = true
insert_spacing = 0
pad_token = #
"""


class TestBenchmarkParsing:
    def write(self, tmp_path, text):
        path = tmp_path / "bench.cfg"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_full_config(self, tmp_path):
        path = self.write(
            tmp_path,
            BASE_CONFIG.format(train="t.tsv", dev="d.tsv", test="x.tsv", vocab="v.tsv"),
        )
        spec = parse_benchmark_file(path)
        assert spec.train_path == "t.tsv"
        assert spec.vocab_path == "v.tsv"
        assert spec.level is Level.PROVINCE
        assert spec.selection is SelectionMetric.MACRO_F1
        (exp,) = spec.experiments
        assert exp.name == "base"
        assert exp.hp.epochs == 3
        assert exp.hp.lr == 0.05
        assert exp.hp.rng_seed == 9
        assert exp.features.dim == 1024
        assert exp.features.n_min == 1
        assert exp.features.n_max == 3
        assert exp.features.pad_token == "#"
        assert exp.norm.segment is True
        assert exp.norm.insert_spacing is False
        assert exp.norm.max_repeat == 3

    def test_leading_bom(self, tmp_path):
        text = BASE_CONFIG.format(train="t.tsv", dev="d.tsv", test="x.tsv", vocab="v.tsv")
        plain = parse_benchmark_file(self.write(tmp_path, text))
        (tmp_path / "bom").mkdir()
        assert parse_benchmark_file(self.write(tmp_path / "bom", "\ufeff" + text)) == plain

    def test_defaults_when_keys_absent(self, tmp_path):
        path = self.write(
            tmp_path,
            "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\n"
            "register=da\n[experiment e]\nepochs=1\n",
        )
        spec = parse_benchmark_file(path)
        assert spec.vocab_path is None
        assert spec.selection is SelectionMetric.WEIGHTED_F1
        (exp,) = spec.experiments
        assert exp.features.dim == 1 << 18
        assert exp.hp.lr == 0.1
        assert exp.norm == NormConfig()

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "format=1"),
            ("format=2\n", "format=1"),
            ("format=1\nkey=value\n", "outside"),
            ("format=1\n[data]\nbroken line\n", "key=value"),
            ("format=1\n[data]\ntrain=a\ntrain=b\n", "duplicate"),
            (
                "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
                "[data]\ntrain=z\n",
                "data",
            ),
            ("format=1\n[mystery]\nx=1\n", "unknown section"),
            ("format=1\n[experiment]\nx=1\n", "without a name"),
            # The word experiment, whitespace, then the name.
            (
                "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
                "[experimental run]\nepochs=1\n",
                "unknown section \\[experimental run\\]",
            ),
            (
                "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
                "[experiment_b]\nepochs=1\n",
                "unknown section \\[experiment_b\\]",
            ),
            ("format=1\n[data]\ntrain=a\ndev=b\nlevel=country\nregister=da\n[experiment e]\n", "test"),
            (
                "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
                "bogus=1\n[experiment e]\n",
                "unknown",
            ),
            (
                "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=city\nregister=da\n"
                "[experiment e]\n",
                "city",
            ),
            # The register is not kept, but it is still checked.
            (
                "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=pidgin\n"
                "[experiment e]\n",
                "pidgin",
            ),
            (
                "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
                "selection=best\n[experiment e]\n",
                "selection",
            ),
            (
                "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
                "[experiment e]\nwarp=9\n",
                "unknown experiment key",
            ),
            (
                "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
                "[experiment e]\nadam_epsilon=1e-8\n",
                "unknown experiment key",
            ),
            (
                "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
                "[experiment e]\nlearning_rate=30\nl2=0.05\n",
                "lr \\* l2 must be <= 1",
            ),
            (
                "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
                "[experiment e]\nlearning_rate=nan\n",
                "lr must be positive and finite",
            ),
            (
                "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
                "[experiment e]\nlearning_rate=inf\nl2=0\n",
                "lr must be positive and finite",
            ),
            (
                "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
                "[experiment e]\nl2=nan\n",
                "l2 must be finite",
            ),
            (
                "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
                "[experiment e]\nepochs=abc\n",
                "integer",
            ),
            (
                "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
                "[experiment e]\nepochs=-1\n",
                "epochs",
            ),
            (
                "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
                "[experiment e]\nsegment=maybe\n",
                "boolean",
            ),
            (
                "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
                "[experiment e]\nepochs=1\n[experiment e]\nepochs=2\n",
                "duplicate experiment",
            ),
            (
                "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
                "[experiment e]\ndim=4294967296\n",
                "dim 4294967296 is above 2\\*\\*31",
            ),
            # Three fields go by other names in the file; their own
            # names are not keys.
            (
                "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
                "[experiment e]\nlr = 0.1\n",
                "unknown experiment key 'lr'",
            ),
            (
                "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
                "[experiment e]\nrng_seed = 3\n",
                "unknown experiment key 'rng_seed'",
            ),
            (
                "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
                "[experiment e]\nfeatures.seed = 3\n",
                "unknown experiment key 'features.seed'",
            ),
            (
                "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
                "[experiment e]\nl2=small\n",
                "l2: expected a number",
            ),
            # re refuses a repetition count of 2**32 - 1 or more.
            (
                "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
                "[experiment e]\nmax_repeat=100000000000\n",
                "max_repeat must be >= 1 and below 2\\*\\*32 - 1",
            ),
            # The features' bucket seed only renamed buckets, and is gone.
            (
                "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
                "[experiment e]\nhash_seed=7\n",
                "unknown experiment key 'hash_seed'",
            ),
        ],
    )
    def test_rejects_malformed_configs(self, tmp_path, text, fragment):
        path = self.write(tmp_path, text)
        with pytest.raises(ConfigError, match=fragment):
            parse_benchmark_file(path)

    def test_missing_experiments(self, tmp_path):
        path = self.write(
            tmp_path,
            "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n",
        )
        with pytest.raises(ConfigError, match="experiment"):
            parse_benchmark_file(path)


def test_override_seed(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text(
        "format=1\n[data]\ntrain=a\ndev=b\ntest=c\nlevel=country\nregister=da\n"
        "[experiment one]\nepochs=1\nseed=5\n[experiment two]\nepochs=2\n",
        encoding="utf-8",
    )
    spec = parse_benchmark_file(str(path))
    bumped = override_seed(spec, 99)
    assert [e.hp.rng_seed for e in bumped.experiments] == [99, 99]
    assert [e.hp.epochs for e in bumped.experiments] == [1, 2]
    assert [e.hp.rng_seed for e in spec.experiments] == [5, 42]
