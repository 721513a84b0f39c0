import random
from dataclasses import replace

import pytest

import dialectid.classifier
import dialectid.features
from dialectid.classifier import HyperParams
from dialectid.corpus import (
    LabelVocab,
    Level,
    Register,
    Subtask,
    TweetRecord,
    read_submission,
)
from dialectid.errors import ConfigError, SubtaskMismatch
from dialectid.features import FeatureConfig
from dialectid.harness import (
    ExperimentConfig,
    GridRow,
    SelectionMetric,
    finalize,
    fit_pipeline,
    override_seed,
    parse_benchmark_file,
    predict_records,
    prepare_texts,
    render_grid,
    run_grid,
    write_grid_tsv,
)
from dialectid.normalizer import NormConfig

COUNTRY_SUBTASK = Subtask(Level.COUNTRY, Register.DA)
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
        subtask=COUNTRY_SUBTASK,
        features=SMALL_FEATURES,
        hp=HyperParams(epochs=epochs, **hp_kwargs),
    )


def test_experiment_config_requires_name():
    with pytest.raises(ConfigError):
        ExperimentConfig(name="", subtask=COUNTRY_SUBTASK)


def test_grid_row_metric_mapping():
    row = GridRow(name="x", weighted_f1=0.1, accuracy=0.2, macro_f1=0.3)
    assert row.metric(SelectionMetric.WEIGHTED_F1) == 0.1
    assert row.metric(SelectionMetric.ACCURACY) == 0.2
    assert row.metric(SelectionMetric.MACRO_F1) == 0.3


class TestRunGridValidation:
    def test_empty_grid(self):
        with pytest.raises(ConfigError):
            run_grid(TRAIN, DEV, [], VOCAB)

    def test_duplicate_names(self):
        with pytest.raises(ConfigError, match="duplicate"):
            run_grid(TRAIN, DEV, [config("a"), config("a")], VOCAB)

    def test_mixed_subtasks(self):
        other = ExperimentConfig(
            name="b", subtask=Subtask(Level.COUNTRY, Register.MSA)
        )
        with pytest.raises(ConfigError, match="subtask"):
            run_grid(TRAIN, DEV, [config("a"), other], VOCAB)

    def test_province_needs_province_vocab(self):
        cfg = ExperimentConfig(
            name="p",
            subtask=Subtask(Level.PROVINCE, Register.DA),
            features=SMALL_FEATURES,
        )
        with pytest.raises(SubtaskMismatch):
            run_grid(TRAIN, DEV, [cfg], VOCAB)

    def test_register_mismatch_rejected_before_training(self):
        msa = Subtask(Level.COUNTRY, Register.MSA)
        cfg = ExperimentConfig(name="m", subtask=msa, features=SMALL_FEATURES)
        with pytest.raises(SubtaskMismatch, match="tr"):
            run_grid(TRAIN, DEV, [cfg], VOCAB)

    def test_unlabeled_train_record_rejected(self):
        broken = TRAIN + [TweetRecord(id="naked", text="ابت")]
        with pytest.raises(SubtaskMismatch, match="naked"):
            run_grid(broken, DEV, [config("a")], VOCAB)


class TestRunGrid:
    def test_trained_beats_untrained_and_is_selected(self):
        result = run_grid(
            TRAIN, DEV, [config("zero", epochs=0), config("five", epochs=5)], VOCAB
        )
        by_name = {row.name: row for row in result.rows}
        assert by_name["five"].weighted_f1 > by_name["zero"].weighted_f1
        assert result.selected == "five"
        assert result.selection_metric is SelectionMetric.WEIGHTED_F1
        assert [row.name for row in result.rows] == ["zero", "five"]

    def test_tie_goes_to_earliest_row(self):
        result = run_grid(
            TRAIN, DEV, [config("first"), config("second")], VOCAB
        )
        assert result.rows[0].weighted_f1 == result.rows[1].weighted_f1
        assert result.selected == "first"

    def test_selection_metric_recorded(self):
        result = run_grid(
            TRAIN, DEV, [config("only")], VOCAB, selection=SelectionMetric.ACCURACY
        )
        assert result.selection_metric is SelectionMetric.ACCURACY

    def test_dev_never_reaches_fitting(self, monkeypatch):
        idf_sizes = []
        train_sizes = []
        real_fit = dialectid.features.fit_idf
        real_train = dialectid.classifier.train

        def spy_fit(corpus, config):
            idf_sizes.append(len(corpus))
            return real_fit(corpus, config)

        def spy_train(examples, *args, **kwargs):
            train_sizes.append(len(examples))
            return real_train(examples, *args, **kwargs)

        monkeypatch.setattr(dialectid.features, "fit_idf", spy_fit)
        monkeypatch.setattr(dialectid.classifier, "train", spy_train)
        run_grid(TRAIN, DEV, [config("a"), config("b", epochs=1)], VOCAB)
        assert idf_sizes == [len(TRAIN), len(TRAIN)]
        assert train_sizes == [len(TRAIN), len(TRAIN)]


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


class TestFitPipeline:
    def test_returns_majority_of_fitted_split(self):
        lopsided = TRAIN + make_split("extra", 3, 9)[:3]
        model, idf = fit_pipeline(lopsided, config("m"), VOCAB)
        assert model.class_labels[model.fallback_class] == "Atlantis"
        assert idf.doc_count == len(lopsided)
        assert model.class_labels == list(VOCAB.countries)

    def test_majority_tie_takes_earliest_vocab_label(self):
        model, idf = fit_pipeline(TRAIN, config("m"), VOCAB)
        assert model.fallback_class == 0


class TestPredictRecords:
    def test_empty_text_gets_the_fallback_not_argmax_bias(self):
        # Borealia is the majority but the zero model's argmax is class 0.
        lopsided = make_split("b", 4, 5)[4:] + make_split("extra", 2, 9)[2:]
        assert [r.country for r in lopsided].count("Borealia") == 6
        cfg = config("z", epochs=0)
        model, idf = fit_pipeline(lopsided, cfg, VOCAB)
        blank = TweetRecord(id="blank", text="😂😂")
        word_only = TweetRecord(id="w", text="ابت")
        assert predict_records([blank, word_only], cfg, model, idf) == [
            "Borealia",
            "Atlantis",
        ]

    def test_classifies_through_module_attributes(self, monkeypatch):
        model, idf = fit_pipeline(TRAIN, config("m"), VOCAB)
        calls = []
        real_predict = dialectid.classifier.predict

        def spy_predict(m, vector):
            calls.append(vector.nnz)
            return real_predict(m, vector)

        monkeypatch.setattr(dialectid.classifier, "predict", spy_predict)
        predictions = predict_records(TEST, config("m"), model, idf)
        assert len(calls) == len(TEST) and all(calls)
        assert predictions == [r.country for r in TEST]


class TestFinalize:
    def test_refits_on_train_plus_dev(self, monkeypatch, tmp_path):
        idf_sizes = []
        real_fit = dialectid.features.fit_idf

        def spy_fit(corpus, config):
            idf_sizes.append(len(corpus))
            return real_fit(corpus, config)

        monkeypatch.setattr(dialectid.features, "fit_idf", spy_fit)
        finalize(
            TRAIN, DEV, TEST, config("f"), VOCAB, str(tmp_path / "sub.csv")
        )
        assert idf_sizes == [len(TRAIN) + len(DEV)]

    def test_submission_and_report(self, tmp_path):
        path = tmp_path / "sub.csv"
        result = finalize(TRAIN, DEV, TEST, config("f", epochs=10), VOCAB, str(path))
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
            TRAIN, DEV, blind, config("f"), VOCAB, str(tmp_path / "s.csv")
        )
        assert result.report is None
        assert len(result.predictions) == len(blind)

    def test_empty_text_falls_back_to_majority(self, tmp_path):
        blank = TweetRecord(id="blank", text="😂😂")
        result = finalize(
            TRAIN,
            DEV,
            [blank] + TEST,
            config("f"),
            VOCAB,
            str(tmp_path / "s.csv"),
        )
        # train plus dev is balanced, so the tie resolves to the first
        # vocab label
        assert result.predictions[0] == VOCAB.countries[0]

    def test_two_runs_are_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        first = finalize(TRAIN, DEV, TEST, config("f"), VOCAB, str(a))
        second = finalize(TRAIN, DEV, TEST, config("f"), VOCAB, str(b))
        assert first.predictions == second.predictions
        assert a.read_bytes() == b.read_bytes()


class TestGridRendering:
    def result(self):
        return run_grid(TRAIN, DEV, [config("zero", epochs=0), config("one")], VOCAB)

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
hash_seed = 77
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
        assert spec.subtask == Subtask(Level.PROVINCE, Register.MSA)
        assert spec.selection is SelectionMetric.MACRO_F1
        (exp,) = spec.experiments
        assert exp.name == "base"
        assert exp.hp.epochs == 3
        assert exp.hp.lr == 0.05
        assert exp.hp.rng_seed == 9
        assert exp.features.seed == 77
        assert exp.features.dim == 1024
        assert exp.features.n_min == 1
        assert exp.features.n_max == 3
        assert exp.features.pad_token == "#"
        assert exp.norm.segment is True
        assert exp.norm.insert_spacing is False
        assert exp.norm.max_repeat == 3

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
