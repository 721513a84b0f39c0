"""Arabic dialect identification from tweets.

Cleanup pipeline, hashed character n-gram features, a linear softmax
classifier, evaluation metrics over a fixed label inventory, and an
experiment harness with a command line front end.
"""

from .classifier import HyperParams, LinearModel, predict, train
from .corpus import (
    LabelVocab,
    Level,
    Register,
    TweetRecord,
    concat_splits,
    corpus_stats,
    load_corpus,
    write_submission,
)
from .errors import DialectIdError
from .evaluation import EvaluationReport, confusion, report
from .features import (
    FeatureConfig,
    IdfTable,
    SparseRows,
    bucket_counts,
    corpus_counts,
    fit_idf,
    vectorize,
)
from .harness import ExperimentConfig, SelectionMetric, Splits, finalize, run_grid
from .normalizer import NormConfig, SegmentLexicon, normalize, segment

__version__ = "0.1.0"

__all__ = [
    "DialectIdError",
    "EvaluationReport",
    "ExperimentConfig",
    "FeatureConfig",
    "HyperParams",
    "IdfTable",
    "LabelVocab",
    "Level",
    "LinearModel",
    "NormConfig",
    "Register",
    "SegmentLexicon",
    "SelectionMetric",
    "SparseRows",
    "Splits",
    "TweetRecord",
    "bucket_counts",
    "concat_splits",
    "confusion",
    "corpus_counts",
    "corpus_stats",
    "finalize",
    "fit_idf",
    "load_corpus",
    "normalize",
    "predict",
    "report",
    "run_grid",
    "segment",
    "train",
    "vectorize",
    "write_submission",
]
