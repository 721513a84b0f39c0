"""Exception types shared across the package.

Everything raised on bad input data derives from DialectIdError so the
command line tool can map any of them to a single nonzero exit code.
"""

from __future__ import annotations


class DialectIdError(Exception):
    """Base class for all data and configuration errors."""


class MalformedRow(DialectIdError):
    """A corpus row has the wrong column count or an empty id."""


class UnknownLabel(DialectIdError):
    """A label is not present in the active vocabulary."""


class HierarchyViolation(UnknownLabel):
    """A province label is paired with a country it does not belong to."""


class DuplicateId(DialectIdError):
    """The same record id appears twice."""


class UnlabeledRecord(DialectIdError):
    """A record lacks the label required for the requested level."""


class LengthMismatch(DialectIdError):
    """Two parallel sequences differ in length."""


class EmptyCorpus(DialectIdError):
    """An operation that needs at least one document received none."""


class EmptyTrainingSet(DialectIdError):
    """Training was invoked with no examples."""


class ClassIndexOutOfRange(DialectIdError):
    """A training example carries a class index outside [0, num_classes)."""


class DimensionMismatch(DialectIdError):
    """A feature vector and a model disagree on dimensionality."""


class TrainingDiverged(DialectIdError, FloatingPointError):
    """Training drove a weight or bias to infinity or NaN."""


class EmptyMatrix(DialectIdError):
    """A metric that divides by the instance count saw zero instances."""


class SubtaskMismatch(DialectIdError):
    """Records do not carry the labels a subtask requires."""


class ConfigError(DialectIdError):
    """An experiment or benchmark configuration file is invalid."""


class CorruptArtifact(DialectIdError, ValueError):
    """A model or idf file is truncated, oversized or otherwise malformed."""
