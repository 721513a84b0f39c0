"""Corpus ingestion and label bookkeeping.

Data files are UTF-8 TSV, one record per line, with an optional header
row.  This module owns how an input text file becomes lines: TSV files
are read by read_rows (read_mapping for two-column ones), `id,label`
submissions by read_submission, and configs and lexicons by
read_sections, all on _read_lines's one rule.  Labels live in a
two-level vocabulary: every province belongs to exactly one country,
and records may be labeled at either level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .errors import (
    DuplicateId,
    HierarchyViolation,
    LengthMismatch,
    MalformedRow,
    SubtaskMismatch,
    UnknownLabel,
)


class Register(Enum):
    MSA = "msa"
    DA = "da"


class Level(Enum):
    COUNTRY = "country"
    PROVINCE = "province"


@dataclass(frozen=True, slots=True)
class TweetRecord:
    id: str
    text: str
    country: str | None = None
    province: str | None = None

    def label(self, level: Level) -> str | None:
        return self.country if level is Level.COUNTRY else self.province


# The column names of a split's header row, in the column order of a
# split without one: id, text, country, province.
HEADER = ("id", "tweet", "country", "province")

# Country inventory of the dialect identification task, in the order the
# task materials list them.
DEFAULT_COUNTRIES = (
    "Algeria",
    "Bahrain",
    "Djibouti",
    "Egypt",
    "Iraq",
    "Jordan",
    "Kuwait",
    "Lebanon",
    "Libya",
    "Mauritania",
    "Morocco",
    "Oman",
    "Palestine",
    "Qatar",
    "Saudi_Arabia",
    "Somalia",
    "Sudan",
    "Syria",
    "Tunisia",
    "UAE",
    "Yemen",
)


@dataclass(frozen=True)
class LabelVocab:
    """Label inventory with the province-to-country mapping."""

    countries: tuple[str, ...]
    provinces: tuple[str, ...] = ()
    province_to_country: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(set(self.countries)) != len(self.countries):
            raise ValueError("duplicate country in vocab")
        if len(set(self.provinces)) != len(self.provinces):
            raise ValueError("duplicate province in vocab")
        for province in self.provinces:
            if province not in self.province_to_country:
                raise ValueError(f"province {province!r} has no country mapping")
            if self.province_to_country[province] not in self.countries:
                raise ValueError(f"province {province!r} maps outside the country list")

    def labels(self, level: Level) -> tuple[str, ...]:
        return self.countries if level is Level.COUNTRY else self.provinces

    def classes(self, records: Sequence[TweetRecord], level: Level) -> list[int]:
        """The index in labels(level) of each record's label at level, in
        record order.  Raises SubtaskMismatch at the province level of a
        vocab without provinces or on a record with no label at level,
        and UnknownLabel on a label outside the vocab."""
        if level is Level.PROVINCE and not self.provinces:
            raise SubtaskMismatch("province subtask needs a vocab with provinces")
        index = {label: i for i, label in enumerate(self.labels(level))}
        out = []
        for record in records:
            label = record.label(level)
            if label is None:
                raise SubtaskMismatch(f"record {record.id!r} has no {level.value} label")
            if label not in index:
                raise UnknownLabel(f"record {record.id!r}: label {label!r} not in vocab")
            out.append(index[label])
        return out

    @classmethod
    def from_file(cls, path: str) -> "LabelVocab":
        """Read `province<TAB>country` lines; label order follows first
        appearance in the file."""
        mapping = read_mapping(path, "province")
        return cls(
            countries=tuple(dict.fromkeys(mapping.values())),
            provinces=tuple(mapping),
            province_to_country=mapping,
        )

    @classmethod
    def countries_only(cls, countries: Sequence[str] = DEFAULT_COUNTRIES) -> "LabelVocab":
        return cls(countries=tuple(countries))


def _read_lines(path: str) -> list[tuple[int, str]]:
    """The (line number, line) of every line of a UTF-8 file that is not
    blank.  A leading byte order mark and one carriage return before
    each newline are dropped; only a newline ends a line."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        raw_lines = fh.read().split("\n")
    lines = []
    for lineno, line in enumerate(raw_lines, start=1):
        if line.endswith("\r"):
            line = line[:-1]
        if line:
            lines.append((lineno, line))
    return lines


def read_rows(path: str) -> list[tuple[int, list[str]]]:
    """The (line number, tab-separated cells) of every line of a TSV
    file that is not blank, split as _read_lines splits them."""
    return [(lineno, line.split("\t")) for lineno, line in _read_lines(path)]


def read_mapping(path: str, what: str) -> dict[str, str]:
    """The first cell -> second cell mapping, in file order, of a
    two-column TSV file read by read_rows.  Raises MalformedRow on a row
    of another width and DuplicateId on a first cell (a `what`) listed
    twice."""
    rows = read_rows(path)
    table: dict[str, str] = {}
    for lineno, cells in rows:
        if len(cells) != 2:
            raise MalformedRow(f"{path}:{lineno}: expected 2 columns, got {len(cells)}")
        key, value = cells
        if key in table:
            first = next(n for n, other in rows if other[0] == key)
            raise DuplicateId(
                f"{path}:{lineno}: {what} {key!r} listed twice (first at line {first})"
            )
        table[key] = value
    return table


_Lines = list[tuple[int, str]]


def read_sections(path: str) -> tuple[_Lines, list[tuple[int, str, _Lines]]]:
    """The (line number, line) of every line of a file before its first
    `[name]` line, then the (line number, name, lines) of each `[name]`
    line and the lines up to the next one.  Lines are split as
    _read_lines splits them and stripped, blank ones and those that
    start with # are dropped, and a name is stripped too."""
    preamble: _Lines = []
    sections: list[tuple[int, str, _Lines]] = []
    current = preamble
    for lineno, line in _read_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = []
            sections.append((lineno, line[1:-1].strip(), current))
        else:
            current.append((lineno, line))
    return preamble, sections


def has_header(cells: Sequence[str]) -> bool:
    """Whether a split's first row is a header: its first two cells are
    the names of the id and text columns."""
    return tuple(cells[:2]) == HEADER[:2]


def load_corpus(path: str, vocab: LabelVocab | None = None) -> list[TweetRecord]:
    """Load a TSV split into records, preserving file order.

    Column count must be consistent across rows.  A split without a
    header has 2, 3 or 4 columns, named by as many names of HEADER.  An id may not hold a comma, which the id,label
    lines of a submission cannot hold.  Empty label cells become None.
    When a vocab is given, labels are validated against it, including
    the constraint that a record's country is the country its province
    belongs to.
    Raises MalformedRow, DuplicateId, UnknownLabel, or
    HierarchyViolation with the offending line number.
    """
    rows = read_rows(path)
    if not rows:
        return []

    first_lineno, first_cells = rows[0]
    expected_cols = len(first_cells)
    if has_header(first_cells):
        names, data_rows = first_cells, rows[1:]
    elif expected_cols in (2, 3, 4):
        names, data_rows = HEADER[:expected_cols], rows
    else:
        raise MalformedRow(
            f"{path}:{first_lineno}: expected 2 to 4 columns, got {expected_cols}"
        )
    positions = {name: i for i, name in enumerate(names)}
    if len(positions) != expected_cols:
        raise MalformedRow(f"{path}:{first_lineno}: duplicate column name in header")
    # The column of each field of HEADER, or None for a missing label.
    id_col, text_col, country_col, province_col = (positions.get(name) for name in HEADER)

    records: list[TweetRecord] = []
    seen_ids: set[str] = set()
    for lineno, cells in data_rows:
        if len(cells) != expected_cols:
            raise MalformedRow(
                f"{path}:{lineno}: expected {expected_cols} columns, got {len(cells)}"
            )
        rid = cells[id_col]
        if not rid:
            raise MalformedRow(f"{path}:{lineno}: empty id")
        if "," in rid:
            raise MalformedRow(f"{path}:{lineno}: id {rid!r} holds a comma")
        if rid in seen_ids:
            raise DuplicateId(f"{path}:{lineno}: duplicate id {rid!r}")
        seen_ids.add(rid)
        text = cells[text_col]
        country = (cells[country_col] or None) if country_col is not None else None
        province = (cells[province_col] or None) if province_col is not None else None
        if vocab is not None:
            if country is not None and country not in vocab.countries:
                raise UnknownLabel(f"{path}:{lineno}: unknown country {country!r}")
            if province is not None:
                if province not in vocab.provinces:
                    raise UnknownLabel(f"{path}:{lineno}: unknown province {province!r}")
                owner = vocab.province_to_country[province]
                if country is not None and country != owner:
                    raise HierarchyViolation(
                        f"{path}:{lineno}: province {province!r} belongs to "
                        f"{owner!r}, not {country!r}"
                    )
        if province is not None and country is None:
            raise HierarchyViolation(
                f"{path}:{lineno}: province {province!r} without a country"
            )
        records.append(TweetRecord(id=rid, text=text, country=country, province=province))
    return records


@dataclass(frozen=True)
class CorpusStats:
    """Per-label record counts for one split at one level."""

    level: Level
    counts: dict[str, int]
    total: int


def corpus_stats(
    records: Sequence[TweetRecord],
    level: Level,
    vocab: LabelVocab | None = None,
) -> CorpusStats:
    """Count records per label.

    With a vocab the count table covers every vocab label in vocab
    order, zeros included, and the records are checked by
    vocab.classes; otherwise labels appear in order of first occurrence
    and a record with no label at `level` raises SubtaskMismatch.
    """
    counts: dict[str, int] = {}
    if vocab is None:
        for record in records:
            label = record.label(level)
            if label is None:
                raise SubtaskMismatch(f"record {record.id!r} has no {level.value} label")
            counts[label] = counts.get(label, 0) + 1
    else:
        labels = vocab.labels(level)
        counts = dict.fromkeys(labels, 0)
        for c in vocab.classes(records, level):
            counts[labels[c]] += 1
    return CorpusStats(level=level, counts=counts, total=len(records))


def concat_splits(
    train: Sequence[TweetRecord], dev: Sequence[TweetRecord]
) -> list[TweetRecord]:
    """Concatenate two splits, train first, requiring disjoint ids."""
    train_ids = {r.id for r in train}
    for record in dev:
        if record.id in train_ids:
            raise DuplicateId(f"id {record.id!r} appears in both splits")
    return list(train) + list(dev)


def write_submission(ids: Sequence[str], labels: Sequence[str], path: str) -> None:
    """Write `id,label` lines in input order with a trailing newline.

    Empty inputs produce an empty file.  Raises LengthMismatch when the
    two sequences differ in length.
    """
    if len(ids) != len(labels):
        raise LengthMismatch(f"{len(ids)} ids vs {len(labels)} labels")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for rid, label in zip(ids, labels):
            fh.write(f"{rid},{label}\n")


def read_submission(path: str) -> list[tuple[str, str]]:
    """Read an `id,label` file back into (id, label) pairs, its lines
    split as read_rows splits them.  Raises MalformedRow on a line
    without both cells and DuplicateId on an id listed twice."""
    pairs: list[tuple[str, str]] = []
    first_lines: dict[str, int] = {}
    for lineno, line in _read_lines(path):
        rid, sep, label = line.partition(",")
        if not sep or not rid:
            raise MalformedRow(f"{path}:{lineno}: expected id,label")
        first = first_lines.setdefault(rid, lineno)
        if first != lineno:
            raise DuplicateId(f"{path}:{lineno}: duplicate id {rid!r} (first at line {first})")
        pairs.append((rid, label))
    return pairs
