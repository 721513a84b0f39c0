"""Experiment orchestration.

run_grid trains one model per configuration on the train split, scores
it on dev, and selects the best row; dev never reaches idf fitting or
the gradient updates.  finalize refits the chosen configuration on
train plus dev and writes the test submission.  Both take a Splits,
which prepares each split's texts once per text preparation, so the
grid and finalize share them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Mapping, Sequence

from . import classifier, corpus, evaluation, features, normalizer
from .classifier import HyperParams, LinearModel
from .corpus import LabelVocab, Level, Register, Subtask, TweetRecord
from .errors import ConfigError, LengthMismatch, SubtaskMismatch, UnknownLabel
from .evaluation import EvaluationReport
from .features import FeatureConfig, IdfTable
from .normalizer import NormConfig, SegmentLexicon


class SelectionMetric(Enum):
    WEIGHTED_F1 = "weighted_f1"
    MACRO_F1 = "macro_f1"
    ACCURACY = "accuracy"


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    subtask: Subtask
    norm: NormConfig = field(default_factory=NormConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    hp: HyperParams = field(default_factory=HyperParams)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("experiment name must be non-empty")


@dataclass(frozen=True)
class GridRow:
    name: str
    weighted_f1: float
    accuracy: float
    macro_f1: float

    def metric(self, which: SelectionMetric) -> float:
        if which is SelectionMetric.WEIGHTED_F1:
            return self.weighted_f1
        if which is SelectionMetric.MACRO_F1:
            return self.macro_f1
        return self.accuracy


@dataclass(frozen=True)
class GridResult:
    rows: tuple[GridRow, ...]
    selected: str
    selection_metric: SelectionMetric


@dataclass(frozen=True)
class FinalizeResult:
    model: LinearModel
    idf: IdfTable
    predictions: tuple[str, ...]
    submission_path: str
    report: EvaluationReport | None


def _require_labels(splits: Splits, subtask: Subtask, vocab: LabelVocab) -> None:
    """The vocab and every train and dev record must fit the subtask."""
    if subtask.level is Level.PROVINCE and not vocab.provinces:
        raise SubtaskMismatch("province subtask needs a vocab with provinces")
    for split in ("train", "dev"):
        for record in getattr(splits, split):
            if record.register is not subtask.register:
                raise SubtaskMismatch(
                    f"{split} record {record.id!r} is {record.register.value}, "
                    f"subtask wants {subtask.register.value}"
                )
            if record.label(subtask.level) is None:
                raise SubtaskMismatch(
                    f"{split} record {record.id!r} has no {subtask.level.value} label"
                )


def prepare_texts(
    records: Sequence[TweetRecord],
    config: ExperimentConfig,
    lexicon: SegmentLexicon | None = None,
    overrides: Mapping[str, str] | None = None,
) -> list[str]:
    """The text each record is featurized from, for training and serving
    alike: normalized, then cut to max_seq_len Unicode scalar values."""
    limit = config.hp.max_seq_len
    return [
        normalizer.normalize(r.text, config.norm, lexicon, overrides)[:limit]
        for r in records
    ]


def fingerprint(config: ExperimentConfig) -> str:
    """Stable 16-hex-digit digest of what turns a record into features:
    every NormConfig field, max_seq_len and every FeatureConfig field.
    A model carries the fingerprint of its experiment, and predict
    refuses an experiment with another one."""
    settings = [(f.name, getattr(config.norm, f.name)) for f in fields(NormConfig)]
    settings.append(("max_seq_len", config.hp.max_seq_len))
    settings += [(f.name, getattr(config.features, f.name)) for f in fields(FeatureConfig)]
    canon = ";".join(f"{name}={value}" for name, value in settings)
    return f"{features.fnv1a64(canon.encode('utf-8')):016x}"


def _class_indices(
    records: Sequence[TweetRecord], level: Level, labels: Sequence[str]
) -> list[int]:
    index = {label: i for i, label in enumerate(labels)}
    out = []
    for record in records:
        label = record.label(level)
        if label not in index:
            raise UnknownLabel(f"record {record.id!r}: label {label!r} not in vocab")
        out.append(index[label])
    return out


def fit_pipeline(
    texts: Sequence[str],
    records: Sequence[TweetRecord],
    config: ExperimentConfig,
    vocab: LabelVocab,
) -> tuple[LinearModel, IdfTable]:
    """Fit the idf table and the model on one split: texts are the
    prepared texts of records, in the same order."""
    if len(texts) != len(records):
        raise LengthMismatch(f"{len(texts)} texts for {len(records)} records")
    labels = vocab.labels(config.subtask.level)
    counts = features.join_rows(
        list(features.bucket_counts(texts, config.features)), config.features.dim
    )
    idf = features.fit_idf(counts, config.features)
    rows = features.vectorize(counts, config.features, idf)
    # Only rows is positional, so bench/tracer.py finds hp by keyword.
    model = classifier.train(
        rows,
        y=_class_indices(records, config.subtask.level, labels),
        hp=config.hp,
        num_classes=len(labels),
        class_labels=labels,
        feature_fingerprint=fingerprint(config),
    )
    return model, idf


def predict_texts(
    texts: Sequence[str], config: ExperimentConfig, model: LinearModel, idf: IdfTable
) -> list[str]:
    """Label prepared texts in order, one block of texts at a time.

    A text that normalizes to nothing has no features and gets the
    model's fallback class, the majority class of the data it was
    fitted on.  The model's bucket -> column table is built once and
    shared by every block.
    """
    labels = model.class_labels
    table = classifier.column_table(model.columns, model.dim)
    out: list[str] = []
    for counts in features.bucket_counts(texts, config.features):
        rows = features.vectorize(counts, config.features, idf)
        out.extend(labels[c] for c in classifier.predict(model, rows, table).tolist())
    return out


@dataclass
class Splits:
    """A run's train, dev and test records, and the lexicon and overrides
    their texts are normalized with."""

    train: Sequence[TweetRecord]
    dev: Sequence[TweetRecord]
    test: Sequence[TweetRecord] = ()
    lexicon: SegmentLexicon | None = None
    overrides: Mapping[str, str] | None = None
    _prepared: dict[tuple[str, NormConfig, int], list[str]] = field(
        default_factory=dict, init=False, repr=False
    )

    def texts(self, split: str, config: ExperimentConfig) -> list[str]:
        """prepare_texts of the split named "train", "dev" or "test",
        run once per (NormConfig, max_seq_len) and then shared."""
        key = (split, config.norm, config.hp.max_seq_len)
        if key not in self._prepared:
            records = getattr(self, split)
            self._prepared[key] = prepare_texts(records, config, self.lexicon, self.overrides)
        return self._prepared[key]


def run_grid(
    splits: Splits,
    configs: Sequence[ExperimentConfig],
    vocab: LabelVocab,
    selection: SelectionMetric = SelectionMetric.WEIGHTED_F1,
) -> GridResult:
    """Score every configuration on dev and pick the best row.

    All configurations must target the same subtask and carry unique
    names.  Ties on the selection metric go to the earliest row.  The
    idf table and the model of each row are fitted on train only.
    """
    if not configs:
        raise ConfigError("grid needs at least one experiment")
    names = [c.name for c in configs]
    if len(set(names)) != len(names):
        raise ConfigError("duplicate experiment name in grid")
    subtask = configs[0].subtask
    if any(c.subtask != subtask for c in configs):
        raise ConfigError("all experiments in a grid must share one subtask")
    _require_labels(splits, subtask, vocab)
    labels = vocab.labels(subtask.level)
    gold = [r.label(subtask.level) for r in splits.dev]
    rows: list[GridRow] = []
    for config in configs:
        model, idf = fit_pipeline(splits.texts("train", config), splits.train, config, vocab)
        pred = predict_texts(splits.texts("dev", config), config, model, idf)
        rep = evaluation.report(gold, pred, labels)
        rows.append(
            GridRow(
                name=config.name,
                weighted_f1=rep.weighted_f1,
                accuracy=rep.accuracy,
                macro_f1=rep.macro_f1,
            )
        )
    best = max(range(len(rows)), key=lambda i: (rows[i].metric(selection), -i))
    return GridResult(rows=tuple(rows), selected=rows[best].name, selection_metric=selection)


def finalize(
    splits: Splits,
    config: ExperimentConfig,
    vocab: LabelVocab,
    submission_path: str,
) -> FinalizeResult:
    """Refit on train plus dev, predict test in order, write submission.

    When every test record is labeled for the subtask the returned
    result also carries an evaluation report.
    """
    subtask = config.subtask
    _require_labels(splits, subtask, vocab)
    combined = corpus.concat_splits(splits.train, splits.dev)
    labels = vocab.labels(subtask.level)
    # prepare_texts works record by record, so this is the preparation
    # of combined.
    texts = splits.texts("train", config) + splits.texts("dev", config)
    model, idf = fit_pipeline(texts, combined, config, vocab)
    test = splits.test
    predictions = predict_texts(splits.texts("test", config), config, model, idf)
    corpus.write_submission([r.id for r in test], predictions, submission_path)
    rep = None
    if test and all(r.label(subtask.level) is not None for r in test):
        gold = [r.label(subtask.level) for r in test]
        rep = evaluation.report(gold, predictions, labels)
    return FinalizeResult(
        model=model,
        idf=idf,
        predictions=tuple(predictions),
        submission_path=submission_path,
        report=rep,
    )


def render_grid(result: GridResult) -> str:
    """Aligned text table of a grid, selected row marked with *."""
    headers = ["name", "weighted_f1", "accuracy", "macro_f1", ""]
    body = [
        [row.name, f"{row.weighted_f1:.6f}", f"{row.accuracy:.6f}", f"{row.macro_f1:.6f}",
         "*" if row.name == result.selected else ""]
        for row in result.rows
    ]
    widths = [max(len(r[i]) for r in [headers] + body) for i in range(len(headers))]
    lines = []
    for cells in [headers] + body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip())
    lines.append(f"selected: {result.selected} (by {result.selection_metric.value})")
    return "\n".join(lines) + "\n"


def write_grid_tsv(result: GridResult, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("name\tweighted_f1\taccuracy\tmacro_f1\tselected\n")
        for row in result.rows:
            mark = "1" if row.name == result.selected else "0"
            fh.write(
                f"{row.name}\t{row.weighted_f1:.6f}\t{row.accuracy:.6f}"
                f"\t{row.macro_f1:.6f}\t{mark}\n"
            )


@dataclass(frozen=True)
class BenchmarkSpec:
    """Everything a benchmark run needs, parsed from one config file."""

    train_path: str
    dev_path: str
    test_path: str
    subtask: Subtask
    experiments: tuple[ExperimentConfig, ...]
    vocab_path: str | None = None
    selection: SelectionMetric = SelectionMetric.WEIGHTED_F1


_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False}

# save_model and save_idf write dim, and column and bucket ids, in 32 bits.
_MAX_DIM = 1 << 31


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
    (FeatureConfig, "seed"): "hash_seed",
    (HyperParams, "lr"): "learning_rate",
    (HyperParams, "rng_seed"): "seed",
}
# config key -> (config class, field name, parser of the field's type)
_EXPERIMENT_KEYS = {
    _KEY_NAMES.get((cls, f.name), f.name): (cls, f.name, _PARSERS[type(f.default)])
    for cls in (NormConfig, FeatureConfig, HyperParams)
    for f in fields(cls)
}


def _experiment_from_items(name: str, items: dict[str, str], subtask: Subtask) -> ExperimentConfig:
    kwargs: dict[type, dict] = {NormConfig: {}, FeatureConfig: {}, HyperParams: {}}
    for key, value in items.items():
        if key not in _EXPERIMENT_KEYS:
            raise ConfigError(f"unknown experiment key {key!r}")
        cls, attr, parse = _EXPERIMENT_KEYS[key]
        kwargs[cls][attr] = parse(key, value)
    dim = kwargs[FeatureConfig].get("dim", 0)
    if dim > _MAX_DIM:
        raise ConfigError(
            f"experiment {name!r}: dim {dim} is above 2**31; "
            f"the model and idf files store dim in 32 bits"
        )
    try:
        return ExperimentConfig(
            name=name,
            subtask=subtask,
            norm=NormConfig(**kwargs[NormConfig]),
            features=FeatureConfig(**kwargs[FeatureConfig]),
            hp=HyperParams(**kwargs[HyperParams]),
        )
    except ValueError as exc:
        raise ConfigError(f"experiment {name!r}: {exc}") from None


def parse_benchmark_file(path: str) -> BenchmarkSpec:
    """Parse the benchmark config format.

    The first significant line must be `format=1`.  A `[data]` section
    names the split files, the label level, and the register; each
    `[experiment NAME]` section overrides pipeline defaults.  Lines
    starting with # are comments.
    """
    sections: list[tuple[str, dict[str, str]]] = []
    current: dict[str, str] | None = None
    saw_version = False
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not saw_version:
                if line != "format=1":
                    raise ConfigError(f"{path}:{lineno}: first line must be format=1")
                saw_version = True
                continue
            if line.startswith("[") and line.endswith("]"):
                header = line[1:-1].strip()
                current = {}
                sections.append((header, current))
                continue
            if current is None:
                raise ConfigError(f"{path}:{lineno}: key outside any section")
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key = key.strip()
            value = value.strip()
            if key in current:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            current[key] = value
    if not saw_version:
        raise ConfigError(f"{path}: empty config, missing format=1")

    data: dict[str, str] | None = None
    experiments: list[tuple[str, dict[str, str]]] = []
    for header, items in sections:
        if header == "data":
            if data is not None:
                raise ConfigError(f"{path}: more than one [data] section")
            data = items
        elif header.startswith("experiment"):
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
        register = Register(data["register"])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    selection = SelectionMetric.WEIGHTED_F1
    if "selection" in data:
        try:
            selection = SelectionMetric(data["selection"])
        except ValueError:
            raise ConfigError(f"{path}: unknown selection metric {data['selection']!r}") from None
    subtask = Subtask(level=level, register=register)
    configs = tuple(_experiment_from_items(name, items, subtask) for name, items in experiments)
    names = [c.name for c in configs]
    if len(set(names)) != len(names):
        raise ConfigError(f"{path}: duplicate experiment name")
    return BenchmarkSpec(
        train_path=data["train"],
        dev_path=data["dev"],
        test_path=data["test"],
        vocab_path=data.get("vocab"),
        subtask=subtask,
        experiments=configs,
        selection=selection,
    )


def override_seed(spec: BenchmarkSpec, seed: int) -> BenchmarkSpec:
    """Rebuild a spec with every experiment's RNG seed replaced."""
    experiments = tuple(
        replace(c, hp=replace(c.hp, rng_seed=seed)) for c in spec.experiments
    )
    return replace(spec, experiments=experiments)
