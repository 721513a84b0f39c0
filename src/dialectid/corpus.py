"""Corpus ingestion and label bookkeeping.

Data files are UTF-8 TSV, one record per line, with an optional header
row; every TSV file is read by read_rows.  Labels live in a two-level
vocabulary: every province belongs to exactly one country, and records
may be labeled at either level.
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
    UnknownLabel,
    UnlabeledRecord,
)


class Register(Enum):
    MSA = "msa"
    DA = "da"


class Level(Enum):
    COUNTRY = "country"
    PROVINCE = "province"


@dataclass(frozen=True, slots=True)
class Subtask:
    """One of the four task variants: a label level crossed with a register."""

    level: Level
    register: Register

    @property
    def code(self) -> str:
        first = "1" if self.level is Level.COUNTRY else "2"
        second = "1" if self.register is Register.MSA else "2"
        return f"{first}.{second}"


@dataclass(frozen=True, slots=True)
class TweetRecord:
    id: str
    text: str
    country: str | None = None
    province: str | None = None
    register: Register = Register.DA

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

    @classmethod
    def from_file(cls, path: str) -> "LabelVocab":
        """Read `province<TAB>country` lines; label order follows first
        appearance in the file."""
        provinces: list[str] = []
        countries: list[str] = []
        mapping: dict[str, str] = {}
        for lineno, province, country in read_pairs(path):
            if province in mapping:
                raise DuplicateId(f"{path}:{lineno}: province {province!r} listed twice")
            mapping[province] = country
            provinces.append(province)
            if country not in countries:
                countries.append(country)
        return cls(
            countries=tuple(countries),
            provinces=tuple(provinces),
            province_to_country=mapping,
        )

    @classmethod
    def countries_only(cls, countries: Sequence[str] = DEFAULT_COUNTRIES) -> "LabelVocab":
        return cls(countries=tuple(countries))


def read_rows(path: str) -> list[tuple[int, list[str]]]:
    """The (line number, tab-separated cells) of every line of a UTF-8
    TSV file that is not blank.  A leading byte order mark and one
    carriage return before each newline are dropped; only a newline
    ends a line."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        raw_lines = fh.read().split("\n")
    rows = []
    for lineno, line in enumerate(raw_lines, start=1):
        if line.endswith("\r"):
            line = line[:-1]
        if line:
            rows.append((lineno, line.split("\t")))
    return rows


def read_pairs(path: str) -> list[tuple[int, str, str]]:
    """The (line number, first cell, second cell) of every row of a
    two-column TSV file read by read_rows.  Raises MalformedRow on a row
    of another width."""
    pairs = []
    for lineno, cells in read_rows(path):
        if len(cells) != 2:
            raise MalformedRow(f"{path}:{lineno}: expected 2 columns, got {len(cells)}")
        pairs.append((lineno, cells[0], cells[1]))
    return pairs


def has_header(cells: Sequence[str]) -> bool:
    """Whether a split's first row is a header: its first two cells are
    the names of the id and text columns."""
    return tuple(cells[:2]) == HEADER[:2]


def load_corpus(
    path: str,
    register: Register,
    vocab: LabelVocab | None = None,
) -> list[TweetRecord]:
    """Load a TSV split into records, preserving file order.

    Column count must be consistent across rows (2, 3, or 4 columns
    without a header).  Empty label cells become None.  When a vocab is
    given, labels are validated against it, including the constraint
    that a record's country is the country its province belongs to.
    Raises MalformedRow, DuplicateId, UnknownLabel, or
    HierarchyViolation with the offending line number.
    """
    rows = read_rows(path)
    if not rows:
        return []

    first_lineno, first_cells = rows[0]
    expected_cols = len(first_cells)
    # The column of each field of HEADER, or None for a missing label.
    if has_header(first_cells):
        positions = {name: i for i, name in enumerate(first_cells)}
        if len(positions) != len(first_cells):
            raise MalformedRow(f"{path}:{first_lineno}: duplicate column name in header")
        columns = [positions.get(name) for name in HEADER]
        data_rows = rows[1:]
    else:
        if expected_cols not in (2, 3, 4):
            raise MalformedRow(
                f"{path}:{first_lineno}: expected 2 to 4 columns, got {expected_cols}"
            )
        columns = [i if i < expected_cols else None for i in range(len(HEADER))]
        data_rows = rows
    id_col, text_col, country_col, province_col = columns

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
        if rid in seen_ids:
            raise DuplicateId(f"{path}:{lineno}: duplicate id {rid!r}")
        seen_ids.add(rid)
        text = cells[text_col]

        def cell(idx: int | None) -> str | None:
            if idx is None:
                return None
            value = cells[idx]
            return value if value else None

        country = cell(country_col)
        province = cell(province_col)
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
        records.append(
            TweetRecord(id=rid, text=text, country=country, province=province, register=register)
        )
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
    order, zeros included; otherwise labels appear in order of first
    occurrence.  A record with no label at `level` raises
    UnlabeledRecord.
    """
    counts: dict[str, int] = {}
    if vocab is not None:
        counts = {label: 0 for label in vocab.labels(level)}
    for record in records:
        label = record.label(level)
        if label is None:
            raise UnlabeledRecord(f"record {record.id!r} has no {level.value} label")
        if label not in counts:
            if vocab is not None:
                raise UnknownLabel(f"record {record.id!r}: unknown {level.value} {label!r}")
            counts[label] = 0
        counts[label] += 1
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
    """Read an `id,label` file back into (id, label) pairs."""
    pairs: list[tuple[str, str]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                continue
            rid, sep, label = line.partition(",")
            if not sep or not rid:
                raise MalformedRow(f"{path}:{lineno}: expected id,label")
            pairs.append((rid, label))
    return pairs
