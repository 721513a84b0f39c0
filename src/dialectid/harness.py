"""Experiment orchestration.

grid_row fits one configuration on the train split and scores it on
dev; dev never reaches idf fitting or the gradient updates.  No row
depends on another, so rows may be computed in any order or apart, and
select_row then chooses the experiment from the rows in configuration
order.  run_grid does both, row by row, and returns every row's report
and the chosen experiment.  A fit (fit_pipeline) takes prepared texts
and their class ids, as classifier.train does, and returns one
LinearModel, which carries the idf table it was fitted with, so
predict_texts featurizes and scores with the model alone.  finalize
refits the chosen configuration on train plus dev and writes the test
submission.  Both take a Splits, which holds every input of a run but
the experiments: the label level and vocab, the records, and the
lexicon their texts are normalized with.  It checks the train and dev
labels once and keeps their class ids, and it prepares each split's
texts once per text preparation, so the grid and finalize share both.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Sequence

from . import classifier, corpus, evaluation, features, normalizer
from .classifier import HyperParams, LinearModel
from .corpus import LabelVocab, Level, Register, TweetRecord
from .errors import ConfigError
from .evaluation import EvaluationReport
from .features import FeatureConfig
from .normalizer import DEFAULT_LEXICON, NormConfig, SegmentLexicon


class SelectionMetric(Enum):
    WEIGHTED_F1 = "weighted_f1"
    MACRO_F1 = "macro_f1"
    ACCURACY = "accuracy"


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    norm: NormConfig = field(default_factory=NormConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    hp: HyperParams = field(default_factory=HyperParams)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("experiment name must be non-empty")


@dataclass(frozen=True)
class GridRow:
    config: ExperimentConfig
    report: EvaluationReport


@dataclass(frozen=True)
class GridResult:
    rows: tuple[GridRow, ...]
    selected: ExperimentConfig
    selection_metric: SelectionMetric


@dataclass(frozen=True)
class FinalizeResult:
    model: LinearModel
    predictions: tuple[str, ...]
    report: EvaluationReport | None


def prepare_texts(
    records: Sequence[TweetRecord],
    config: ExperimentConfig,
    lexicon: SegmentLexicon = DEFAULT_LEXICON,
) -> list[str]:
    """The text each record is featurized from, for training and serving
    alike: normalized, then cut to max_seq_len Unicode scalar values."""
    limit = config.hp.max_seq_len
    return [normalizer.normalize(r.text, config.norm, lexicon)[:limit] for r in records]


def fingerprint(config: ExperimentConfig, lexicon: SegmentLexicon = DEFAULT_LEXICON) -> str:
    """Stable 16-hex-digit digest of what turns a record into features:
    every NormConfig field, max_seq_len and every FeatureConfig field,
    and, when the experiment segments with a lexicon other than the
    default one, an FNV-1a digest of that lexicon's prefixes, suffixes,
    min_stem_len and sorted overrides.  A model carries the fingerprint
    of its experiment and lexicon, and predict refuses an experiment or
    lexicon with another one."""
    settings = [(f.name, getattr(config.norm, f.name)) for f in fields(NormConfig)]
    settings.append(("max_seq_len", config.hp.max_seq_len))
    settings += [(f.name, getattr(config.features, f.name)) for f in fields(FeatureConfig)]
    if config.norm.segment and lexicon != DEFAULT_LEXICON:
        entries = (lexicon.prefixes, lexicon.suffixes, lexicon.min_stem_len,
                   sorted(lexicon.overrides.items()))
        settings.append(("lexicon", f"{features.fnv1a64(repr(entries).encode('utf-8')):016x}"))
    canon = ";".join(f"{name}={value}" for name, value in settings)
    return f"{features.fnv1a64(canon.encode('utf-8')):016x}"


def fit_pipeline(
    texts: Sequence[str],
    y: Sequence[int],
    class_labels: Sequence[str],
    config: ExperimentConfig,
    lexicon: SegmentLexicon,
) -> LinearModel:
    """Fit the idf table and the model that carries it on prepared texts
    and their classes y, indices into class_labels, as train takes them.
    lexicon, the one the texts were normalized with, enters the model's
    fingerprint."""
    counts = features.corpus_counts(texts, config.features)
    idf = features.fit_idf(counts)
    # vectorize weighs the counts in place: train gets their arrays.
    return classifier.train(
        features.vectorize(counts, idf),
        y=y,
        hp=config.hp,
        class_labels=class_labels,
        idf=idf,
        feature_fingerprint=fingerprint(config, lexicon),
    )


def predict_texts(
    texts: Sequence[str], config: ExperimentConfig, model: LinearModel
) -> list[str]:
    """Label prepared texts in order, one block of texts at a time.

    A text that normalizes to nothing has no features and gets the
    model's fallback class, the majority class of the data it was
    fitted on.
    """
    labels = model.class_labels
    out: list[str] = []
    for counts in features.bucket_counts(texts, config.features):
        rows = features.vectorize(counts, model.idf)
        out.extend(labels[c] for c in classifier.predict(model, rows).tolist())
    return out


@dataclass
class Splits:
    """A run's label level and vocab, its train, dev and test records,
    and the lexicon their texts are normalized with.  Train and dev
    must share no id (DuplicateId); classes holds the class ids that
    vocab.classes gives their records at the level, train then dev.
    Test records may be unlabeled."""

    level: Level
    vocab: LabelVocab
    train: Sequence[TweetRecord]
    dev: Sequence[TweetRecord]
    test: Sequence[TweetRecord] = ()
    lexicon: SegmentLexicon = DEFAULT_LEXICON
    classes: list[int] = field(init=False, repr=False)
    _prepared: dict[tuple[str, NormConfig, int], list[str]] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        self.classes = self.vocab.classes(corpus.concat_splits(self.train, self.dev), self.level)

    def texts(self, split: str, config: ExperimentConfig) -> list[str]:
        """prepare_texts of the split named "train", "dev" or "test",
        run once per (NormConfig, max_seq_len) and then shared."""
        key = (split, config.norm, config.hp.max_seq_len)
        if key not in self._prepared:
            records = getattr(self, split)
            self._prepared[key] = prepare_texts(records, config, self.lexicon)
        return self._prepared[key]


def grid_row(splits: Splits, config: ExperimentConfig) -> GridRow:
    """Fit config on train, to the train slice of splits.classes, and
    score it on dev; the idf table and the model see train only."""
    labels = splits.vocab.labels(splits.level)
    y = splits.classes[: len(splits.train)]
    gold = [labels[c] for c in splits.classes[len(splits.train) :]]
    model = fit_pipeline(splits.texts("train", config), y, labels, config, splits.lexicon)
    pred = predict_texts(splits.texts("dev", config), config, model)
    return GridRow(config, evaluation.report(gold, pred, labels))


def select_row(rows: Sequence[GridRow], selection: SelectionMetric) -> GridResult:
    """The grid of rows, in order, with the configuration of the row
    best by the selection metric; ties go to the earliest row."""
    # max keeps the first of equal rows.
    best = max(rows, key=lambda row: getattr(row.report, selection.value))
    return GridResult(rows=tuple(rows), selected=best.config, selection_metric=selection)


def run_grid(
    splits: Splits,
    configs: Sequence[ExperimentConfig],
    selection: SelectionMetric = SelectionMetric.WEIGHTED_F1,
) -> GridResult:
    """The grid_row of every configuration, in order, and the one
    select_row chooses.  All configurations must carry unique names."""
    if not configs:
        raise ConfigError("grid needs at least one experiment")
    names = [c.name for c in configs]
    if len(set(names)) != len(names):
        raise ConfigError("duplicate experiment name in grid")
    return select_row([grid_row(splits, config) for config in configs], selection)


def finalize(
    splits: Splits,
    config: ExperimentConfig,
    submission_path: str,
) -> FinalizeResult:
    """Refit on train plus dev, to all of splits.classes, predict test in
    order, and write the submission.

    When every test record is labeled at the splits' level the returned
    result also carries an evaluation report.
    """
    level = splits.level
    labels = splits.vocab.labels(level)
    # prepare_texts works record by record, so this is the preparation
    # of train followed by dev, the order of splits.classes.
    texts = splits.texts("train", config) + splits.texts("dev", config)
    model = fit_pipeline(texts, splits.classes, labels, config, splits.lexicon)
    test = splits.test
    predictions = predict_texts(splits.texts("test", config), config, model)
    corpus.write_submission([r.id for r in test], predictions, submission_path)
    rep = None
    if test and all(r.label(level) is not None for r in test):
        gold = [r.label(level) for r in test]
        rep = evaluation.report(gold, predictions, labels)
    return FinalizeResult(model=model, predictions=tuple(predictions), report=rep)


def _grid_cells(row: GridRow) -> tuple[str, str, str, str]:
    rep = row.report
    return (row.config.name, f"{rep.weighted_f1:.6f}", f"{rep.accuracy:.6f}",
            f"{rep.macro_f1:.6f}")


def render_grid(result: GridResult) -> str:
    """Aligned text table of a grid, selected row marked with *."""
    headers = ["name", "weighted_f1", "accuracy", "macro_f1", ""]
    body = [
        [*_grid_cells(row), "*" if row.config == result.selected else ""]
        for row in result.rows
    ]
    widths = [max(len(r[i]) for r in [headers] + body) for i in range(len(headers))]
    lines = []
    for cells in [headers] + body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip())
    lines.append(f"selected: {result.selected.name} (by {result.selection_metric.value})")
    return "\n".join(lines) + "\n"


def write_grid_tsv(result: GridResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("name\tweighted_f1\taccuracy\tmacro_f1\tselected\n")
        for row in result.rows:
            mark = "1" if row.config == result.selected else "0"
            fh.write("\t".join([*_grid_cells(row), mark]) + "\n")


@dataclass(frozen=True)
class BenchmarkSpec:
    """Everything a benchmark run needs, parsed from one config file."""

    train_path: str
    dev_path: str
    test_path: str
    level: Level
    experiments: tuple[ExperimentConfig, ...]
    vocab_path: str | None = None
    selection: SelectionMetric = SelectionMetric.WEIGHTED_F1


_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False}


def _parse_bool(key: str, value: str) -> bool:
    if value.lower() not in _BOOL_VALUES:
        raise ConfigError(f"{key}: expected a boolean, got {value!r}")
    return _BOOL_VALUES[value.lower()]


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


_PARSERS = {
    bool: _parse_bool,
    int: _parse_int,
    float: _parse_float,
    str: lambda key, value: value,
}
# Config keys are the field names of the three configs, but for these.
_KEY_NAMES = {
    (HyperParams, "lr"): "learning_rate",
    (HyperParams, "rng_seed"): "seed",
}
# config key -> (config class, field name, parser of the field's type)
_EXPERIMENT_KEYS = {
    _KEY_NAMES.get((cls, f.name), f.name): (cls, f.name, _PARSERS[type(f.default)])
    for cls in (NormConfig, FeatureConfig, HyperParams)
    for f in fields(cls)
}


def _experiment_from_items(name: str, items: dict[str, str]) -> ExperimentConfig:
    kwargs: dict[type, dict] = {NormConfig: {}, FeatureConfig: {}, HyperParams: {}}
    for key, value in items.items():
        if key not in _EXPERIMENT_KEYS:
            raise ConfigError(f"unknown experiment key {key!r}")
        cls, attr, parse = _EXPERIMENT_KEYS[key]
        kwargs[cls][attr] = parse(key, value)
    try:
        return ExperimentConfig(
            name=name,
            norm=NormConfig(**kwargs[NormConfig]),
            features=FeatureConfig(**kwargs[FeatureConfig]),
            hp=HyperParams(**kwargs[HyperParams]),
        )
    except ValueError as exc:
        raise ConfigError(f"experiment {name!r}: {exc}") from None


def parse_benchmark_file(path: str) -> BenchmarkSpec:
    """Parse the benchmark config format.

    The first significant line must be `format=1`.  A `[data]` section
    names the split files, the label level, and the register, which is
    checked but not kept; each `[experiment NAME]` section overrides
    pipeline defaults.  Lines starting with # are comments.
    """
    preamble, sections = corpus.read_sections(path)
    if not preamble and not sections:
        raise ConfigError(f"{path}: empty config, missing format=1")
    if not preamble or preamble[0][1] != "format=1":
        lineno = preamble[0][0] if preamble else sections[0][0]
        raise ConfigError(f"{path}:{lineno}: first line must be format=1")
    if len(preamble) > 1:
        raise ConfigError(f"{path}:{preamble[1][0]}: key outside any section")
    data: dict[str, str] | None = None
    experiments: list[tuple[str, dict[str, str]]] = []
    for _, header, lines in sections:
        items: dict[str, str] = {}
        for lineno, line in lines:
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key = key.strip()
            if key in items:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            items[key] = value.strip()
        if header == "data":
            if data is not None:
                raise ConfigError(f"{path}: more than one [data] section")
            data = items
        elif header.split(maxsplit=1)[:1] == ["experiment"]:
            name = header[len("experiment"):].strip()
            if not name:
                raise ConfigError(f"{path}: experiment section without a name")
            experiments.append((name, items))
        else:
            raise ConfigError(f"{path}: unknown section [{header}]")
    if data is None:
        raise ConfigError(f"{path}: missing [data] section")
    if not experiments:
        raise ConfigError(f"{path}: no [experiment NAME] sections")

    for required in ("train", "dev", "test", "level", "register"):
        if required not in data:
            raise ConfigError(f"{path}: [data] is missing {required!r}")
    extra = set(data) - {"train", "dev", "test", "vocab", "level", "register", "selection"}
    if extra:
        raise ConfigError(f"{path}: unknown [data] keys {sorted(extra)}")
    try:
        level = Level(data["level"])
        Register(data["register"])  # checked, but nothing reads it
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    selection = SelectionMetric.WEIGHTED_F1
    if "selection" in data:
        try:
            selection = SelectionMetric(data["selection"])
        except ValueError:
            raise ConfigError(f"{path}: unknown selection metric {data['selection']!r}") from None
    configs = tuple(_experiment_from_items(name, items) for name, items in experiments)
    names = [c.name for c in configs]
    if len(set(names)) != len(names):
        raise ConfigError(f"{path}: duplicate experiment name")
    return BenchmarkSpec(
        train_path=data["train"],
        dev_path=data["dev"],
        test_path=data["test"],
        vocab_path=data.get("vocab"),
        level=level,
        experiments=configs,
        selection=selection,
    )


def with_seed(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    """Rebuild an experiment with its RNG seed replaced."""
    return replace(config, hp=replace(config.hp, rng_seed=seed))


def override_seed(spec: BenchmarkSpec, seed: int) -> BenchmarkSpec:
    """Rebuild a spec with every experiment's RNG seed replaced."""
    return replace(spec, experiments=tuple(with_seed(c, seed) for c in spec.experiments))
