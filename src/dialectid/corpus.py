"""Corpus ingestion and label bookkeeping.

Data files are UTF-8 TSV, one record per line, with an optional header
row.  Labels live in a two-level vocabulary: every province belongs to
exactly one country, and records may be labeled at either level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

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


@dataclass(frozen=True, slots=True)
class ColumnSchema:
    """Names of the columns holding each record field.

    With a header row the columns are located by these names; without
    one the order id, text, country, province is assumed, and trailing
    label columns may be absent entirely.
    """

    id: str = "id"
    text: str = "tweet"
    country: str = "country"
    province: str = "province"


DEFAULT_SCHEMA = ColumnSchema()

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
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n").rstrip("\r")
                if not line:
                    continue
                cells = line.split("\t")
                if len(cells) != 2:
                    raise MalformedRow(f"{path}:{lineno}: expected 2 columns, got {len(cells)}")
                province, country = cells
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
    file, with a final newline and each line's carriage return dropped."""
    with open(path, encoding="utf-8", newline="") as fh:
        raw_lines = fh.read().split("\n")
    if raw_lines and raw_lines[-1] == "":
        raw_lines.pop()
    rows = []
    for lineno, line in enumerate(raw_lines, start=1):
        if line.endswith("\r"):
            line = line[:-1]
        rows.append((lineno, line.split("\t")))
    return rows


def load_corpus(
    path: str,
    register: Register,
    schema: ColumnSchema = DEFAULT_SCHEMA,
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

    col_of: dict[str, int | None]
    first_cells = rows[0][1]
    has_header = (
        len(first_cells) >= 2
        and first_cells[0] == schema.id
        and first_cells[1] == schema.text
    )
    if has_header:
        positions = {name: i for i, name in enumerate(first_cells)}
        if len(positions) != len(first_cells):
            raise MalformedRow(f"{path}:1: duplicate column name in header")
        col_of = {
            "id": positions[schema.id],
            "text": positions[schema.text],
            "country": positions.get(schema.country),
            "province": positions.get(schema.province),
        }
        expected_cols = len(first_cells)
        data_rows = rows[1:]
    else:
        expected_cols = len(first_cells)
        if expected_cols not in (2, 3, 4):
            raise MalformedRow(
                f"{path}:1: expected 2 to 4 columns, got {expected_cols}"
            )
        col_of = {
            "id": 0,
            "text": 1,
            "country": 2 if expected_cols >= 3 else None,
            "province": 3 if expected_cols >= 4 else None,
        }
        data_rows = rows

    records: list[TweetRecord] = []
    seen_ids: set[str] = set()
    for lineno, cells in data_rows:
        if len(cells) != expected_cols:
            raise MalformedRow(
                f"{path}:{lineno}: expected {expected_cols} columns, got {len(cells)}"
            )
        rid = cells[col_of["id"]]
        if not rid:
            raise MalformedRow(f"{path}:{lineno}: empty id")
        if rid in seen_ids:
            raise DuplicateId(f"{path}:{lineno}: duplicate id {rid!r}")
        seen_ids.add(rid)
        text = cells[col_of["text"]]

        def cell(key: str) -> str | None:
            idx = col_of[key]
            if idx is None:
                return None
            value = cells[idx]
            return value if value else None

        country = cell("country")
        province = cell("province")
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


def write_corpus(records: Iterable[TweetRecord], path: str, schema: ColumnSchema = DEFAULT_SCHEMA) -> None:
    """Write records as a four-column TSV with a header row.

    Fields must not contain tab or newline characters; the format has no
    escaping, so such a record would not survive a round trip.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\t".join((schema.id, schema.text, schema.country, schema.province)) + "\n")
        for record in records:
            cells = [record.id, record.text, record.country or "", record.province or ""]
            for value in cells:
                if "\t" in value or "\n" in value or "\r" in value:
                    raise MalformedRow(
                        f"record {record.id!r}: fields may not contain tabs or newlines"
                    )
            fh.write("\t".join(cells) + "\n")


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
