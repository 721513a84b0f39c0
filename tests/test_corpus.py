import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dialectid import cli, normalizer
from dialectid.classifier import HyperParams
from dialectid.corpus import (
    DEFAULT_COUNTRIES,
    HEADER,
    LabelVocab,
    Level,
    TweetRecord,
    concat_splits,
    corpus_stats,
    load_corpus,
    read_rows,
    read_submission,
    write_submission,
)
from dialectid.errors import (
    ConfigError,
    DuplicateId,
    HierarchyViolation,
    LengthMismatch,
    MalformedRow,
    SubtaskMismatch,
    UnknownLabel,
)
from dialectid.harness import BenchmarkSpec, ExperimentConfig, parse_benchmark_file
from dialectid.normalizer import SegmentLexicon

from file_io import write_corpus


def test_record_label_by_level():
    r = TweetRecord(id="1", text="نص", country="Egypt", province="Cairo")
    assert r.label(Level.COUNTRY) == "Egypt"
    assert r.label(Level.PROVINCE) == "Cairo"
    assert TweetRecord(id="2", text="x").label(Level.COUNTRY) is None


def test_default_country_inventory():
    assert len(DEFAULT_COUNTRIES) == 21
    assert "Saudi_Arabia" in DEFAULT_COUNTRIES
    assert "UAE" in DEFAULT_COUNTRIES
    assert len(set(DEFAULT_COUNTRIES)) == 21


class TestLabelVocab:
    def test_countries_only(self):
        vocab = LabelVocab.countries_only()
        assert vocab.countries == DEFAULT_COUNTRIES
        assert vocab.provinces == ()
        assert vocab.labels(Level.COUNTRY) == DEFAULT_COUNTRIES

    def test_from_file_preserves_first_appearance_order(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text(
            "Cairo\tEgypt\nAlexandria\tEgypt\nBaghdad\tIraq\n", encoding="utf-8"
        )
        vocab = LabelVocab.from_file(str(path))
        assert vocab.provinces == ("Cairo", "Alexandria", "Baghdad")
        assert vocab.countries == ("Egypt", "Iraq")
        assert vocab.province_to_country["Alexandria"] == "Egypt"
        assert vocab.labels(Level.PROVINCE) == ("Cairo", "Alexandria", "Baghdad")

    def test_from_file_rejects_duplicate_province(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("Cairo\tEgypt\nCairo\tEgypt\n", encoding="utf-8")
        with pytest.raises(DuplicateId, match=r":2: .*\(first at line 1\)"):
            LabelVocab.from_file(str(path))

    def test_from_file_rejects_wrong_column_count(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("Cairo\n", encoding="utf-8")
        with pytest.raises(MalformedRow, match="1"):
            LabelVocab.from_file(str(path))

    def test_validation(self):
        with pytest.raises(ValueError):
            LabelVocab(countries=("Egypt", "Egypt"))
        with pytest.raises(ValueError):
            LabelVocab(countries=("Egypt",), provinces=("Cairo",))
        with pytest.raises(ValueError):
            LabelVocab(
                countries=("Egypt",),
                provinces=("Baghdad",),
                province_to_country={"Baghdad": "Iraq"},
            )


VOCAB = LabelVocab(
    countries=("Egypt", "Iraq"),
    provinces=("Cairo", "Baghdad"),
    province_to_country={"Cairo": "Egypt", "Baghdad": "Iraq"},
)


class TestClasses:
    RECORDS = [
        TweetRecord(id="1", text="x", country="Iraq", province="Baghdad"),
        TweetRecord(id="2", text="y", country="Egypt", province="Cairo"),
        TweetRecord(id="3", text="z", country="Iraq", province="Baghdad"),
    ]

    def test_indices_follow_label_order_in_record_order(self):
        assert VOCAB.classes(self.RECORDS, Level.COUNTRY) == [1, 0, 1]
        assert VOCAB.classes(self.RECORDS, Level.PROVINCE) == [1, 0, 1]
        assert VOCAB.classes(self.RECORDS[::-1], Level.COUNTRY) == [1, 0, 1][::-1]
        other = LabelVocab(countries=("Iraq", "Egypt"))
        assert other.classes(self.RECORDS, Level.COUNTRY) == [0, 1, 0]

    def test_no_records(self):
        assert VOCAB.classes([], Level.PROVINCE) == []

    def test_province_level_needs_provinces(self):
        countries = LabelVocab(countries=("Egypt", "Iraq"))
        with pytest.raises(SubtaskMismatch, match="^province subtask needs a vocab with provinces$"):
            countries.classes([], Level.PROVINCE)
        assert countries.classes(self.RECORDS, Level.COUNTRY) == [1, 0, 1]

    def test_record_without_the_level_label(self):
        records = self.RECORDS + [TweetRecord(id="4", text="w", country="Egypt")]
        assert VOCAB.classes(records, Level.COUNTRY) == [1, 0, 1, 0]
        with pytest.raises(SubtaskMismatch, match="^record '4' has no province label$"):
            VOCAB.classes(records, Level.PROVINCE)

    def test_label_outside_the_vocab(self):
        records = self.RECORDS + [TweetRecord(id="4", text="w", country="Atlantis")]
        with pytest.raises(UnknownLabel, match="^record '4': label 'Atlantis' not in vocab$"):
            VOCAB.classes(records, Level.COUNTRY)


@st.composite
def split_rows(draw, n):
    """Rows of a headerless split of n columns: unique ids that spell
    no header, any text, and a province only beside a country."""
    ids = draw(st.lists(st.text("ab1", min_size=1, max_size=4), min_size=1, max_size=6,
                        unique=True))
    texts = st.text(st.characters(exclude_characters="\t\n\r", exclude_categories=["Cs"]),
                    max_size=8)
    rows = []
    for rid in ids:
        country = draw(st.sampled_from(["", "Egypt", "Iraq"]))
        province = draw(st.sampled_from(["", "Cairo", "Baghdad"])) if country else ""
        rows.append([rid, draw(texts), country, province][:n])
    return rows


class TestLoadCorpus:
    def test_round_trip_with_header(self, tmp_path):
        records = [
            TweetRecord(id="a", text="نص اول", country="Egypt", province="Cairo"),
            TweetRecord(id="b", text="نص ثان", country="Iraq", province=None),
            TweetRecord(id="c", text="bla", country=None, province=None),
        ]
        path = tmp_path / "split.tsv"
        write_corpus(records, str(path))
        loaded = load_corpus(str(path))
        assert loaded == records

    def test_headerless_two_columns(self, tmp_path):
        path = tmp_path / "split.tsv"
        path.write_text("a\tنص\nb\tآخر\n", encoding="utf-8")
        loaded = load_corpus(str(path))
        assert [r.id for r in loaded] == ["a", "b"]
        assert loaded[0].country is None

    def test_headerless_three_columns(self, tmp_path):
        path = tmp_path / "split.tsv"
        path.write_text("a\tنص\tEgypt\n", encoding="utf-8")
        loaded = load_corpus(str(path))
        assert loaded[0].country == "Egypt"
        assert loaded[0].province is None

    def test_headerless_four_columns(self, tmp_path):
        path = tmp_path / "split.tsv"
        path.write_text("a\tنص\tEgypt\tCairo\n", encoding="utf-8")
        loaded = load_corpus(str(path))
        assert loaded[0].province == "Cairo"

    def test_header_with_reordered_label_columns(self, tmp_path):
        path = tmp_path / "split.tsv"
        path.write_text(
            "id\ttweet\tprovince\tcountry\na\tنص\tCairo\tEgypt\n", encoding="utf-8"
        )
        loaded = load_corpus(str(path))
        assert loaded[0].country == "Egypt"
        assert loaded[0].province == "Cairo"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), split_rows(n))))
    def test_headerless_split_reads_as_under_its_header(self, tmp_path_factory, drawn):
        n, rows = drawn
        directory = tmp_path_factory.mktemp("split")

        def load(header, body):
            path = directory / "split.tsv"
            lines = ([header] if header else []) + body
            path.write_text("".join("\t".join(cells) + "\n" for cells in lines), encoding="utf-8")
            return load_corpus(str(path))

        records = load(None, rows)
        assert load(HEADER[:n], rows) == records
        assert [(r.id, r.text) for r in records] == [tuple(cells[:2]) for cells in rows]
        if n == 4:
            swapped = [cells[:2] + cells[:1:-1] for cells in rows]
            assert load(("id", "tweet", "province", "country"), swapped) == records

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        assert load_corpus(str(path)) == []

    def test_crlf_lines(self, tmp_path):
        path = tmp_path / "split.tsv"
        path.write_bytes(b"a\t\xd9\x86\xd8\xb5\r\nb\tx\r\n")
        loaded = load_corpus(str(path))
        assert [r.text for r in loaded] == ["نص", "x"]

    def test_inconsistent_columns_reports_line(self, tmp_path):
        path = tmp_path / "split.tsv"
        path.write_text("a\tنص\nb\tx\tEgypt\n", encoding="utf-8")
        with pytest.raises(MalformedRow, match=r":2:"):
            load_corpus(str(path))

    def test_too_many_columns(self, tmp_path):
        path = tmp_path / "split.tsv"
        path.write_text("a\tb\tc\td\te\n", encoding="utf-8")
        with pytest.raises(MalformedRow, match=r":1:"):
            load_corpus(str(path))

    def test_duplicate_id_reports_line(self, tmp_path):
        path = tmp_path / "split.tsv"
        path.write_text("a\tx\na\ty\n", encoding="utf-8")
        with pytest.raises(DuplicateId, match=r":2:"):
            load_corpus(str(path))

    def test_empty_id_rejected(self, tmp_path):
        path = tmp_path / "split.tsv"
        path.write_text("\tx\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_corpus(str(path))

    def test_id_with_a_comma_rejected(self, tmp_path):
        # An id,label line of a submission cannot hold it.
        path = tmp_path / "split.tsv"
        path.write_text("a\tx\nb,1\ty\n", encoding="utf-8")
        with pytest.raises(MalformedRow, match=r":2: id 'b,1' holds a comma"):
            load_corpus(str(path))

    def test_empty_label_cells_become_none(self, tmp_path):
        path = tmp_path / "split.tsv"
        path.write_text("a\tنص\t\t\n", encoding="utf-8")
        loaded = load_corpus(str(path))
        assert loaded[0].country is None
        assert loaded[0].province is None

    def test_unknown_country_with_vocab(self, tmp_path):
        path = tmp_path / "split.tsv"
        path.write_text("a\tنص\tAtlantis\n", encoding="utf-8")
        with pytest.raises(UnknownLabel, match="Atlantis"):
            load_corpus(str(path), vocab=VOCAB)

    def test_unknown_province_with_vocab(self, tmp_path):
        path = tmp_path / "split.tsv"
        path.write_text("a\tنص\tEgypt\tNowhere\n", encoding="utf-8")
        with pytest.raises(UnknownLabel, match="Nowhere"):
            load_corpus(str(path), vocab=VOCAB)

    def test_province_country_mismatch(self, tmp_path):
        path = tmp_path / "split.tsv"
        path.write_text("a\tنص\tIraq\tCairo\n", encoding="utf-8")
        with pytest.raises(HierarchyViolation):
            load_corpus(str(path), vocab=VOCAB)

    def test_province_without_country(self, tmp_path):
        path = tmp_path / "split.tsv"
        path.write_text("a\tنص\t\tCairo\n", encoding="utf-8")
        with pytest.raises(HierarchyViolation):
            load_corpus(str(path), vocab=VOCAB)
        with pytest.raises(HierarchyViolation):
            load_corpus(str(path))


def test_read_rows_ends_lines_at_newlines_only(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_bytes("\ufeffa\tx\ry\r\r\n\n\r\nb\n\ufeffc".encode("utf-8"))
    # The byte order mark is dropped only at the start of the file.
    assert read_rows(str(path)) == [(1, ["a", "x\ry\r"]), (4, ["b"]), (5, ["\ufeffc"])]


def normalized(path):
    """The bytes dialectid normalize writes for the file at path.  A
    data error is raised, not turned into an exit code."""
    args = cli.build_parser().parse_args(["normalize", "--in", path, "--out", path + ".out"])
    args.func(args)
    with open(path + ".out", "rb") as fh:
        return fh.read()


# Each input file reader: the lines of a file, the reader, and what it
# reads.
READERS = {
    "load_corpus": (
        ["id\ttweet\tcountry", "a\tنص\tEgypt", "b\tكلام\t"],
        load_corpus,
        [TweetRecord("a", "نص", "Egypt"), TweetRecord("b", "كلام")],
    ),
    "LabelVocab.from_file": (
        ["Cairo\tEgypt", "Giza\tEgypt"],
        LabelVocab.from_file,
        LabelVocab(("Egypt",), ("Cairo", "Giza"), {"Cairo": "Egypt", "Giza": "Egypt"}),
    ),
    "load_presegmented": (
        ["والكتاب\tوال+ كتاب", "بالبيت\tبال+ بيت"],
        normalizer.load_presegmented,
        {"والكتاب": "وال+ كتاب", "بالبيت": "بال+ بيت"},
    ),
    "dialectid normalize": (
        ["id\ttweet", "a\t@user هههه"],
        normalized,
        "id\ttweet\na\t[مستخدم] هه\n".encode("utf-8"),
    ),
    "read_submission": (
        ["a,Egypt", "b,Iraq"],
        read_submission,
        [("a", "Egypt"), ("b", "Iraq")],
    ),
    "load_lexicon": (
        ["[prefixes]", "وال", "[suffixes]", "ها"],
        normalizer.load_lexicon,
        SegmentLexicon(prefixes=("وال",), suffixes=("ها",)),
    ),
    "parse_benchmark_file": (
        ["format=1", "[data]", "train = t.tsv", "dev = d.tsv", "test = x.tsv",
         "level = country", "register = da", "[experiment e]", "epochs = 1"],
        parse_benchmark_file,
        BenchmarkSpec("t.tsv", "d.tsv", "x.tsv", Level.COUNTRY,
                      (ExperimentConfig("e", hp=HyperParams(epochs=1)),)),
    ),
}
LINE_FORMS = {
    "LF": lambda lines: "\n".join(lines) + "\n",
    "CRLF": lambda lines: "\r\n".join(lines) + "\r\n",
    "BOM": lambda lines: "\ufeff" + "\n".join(lines) + "\n",
    "trailing blank line": lambda lines: "\n".join(lines) + "\n\n",
    "blank lines": lambda lines: "\n\n".join(lines) + "\n",
    "CR-only": lambda lines: "\r".join(lines) + "\r",
    "# comment": lambda lines: "\n".join(lines) + "\n# note\n",
    "spaced [ header ]": lambda lines: "\n".join(
        f"[ {line[1:-1]} ]" if line.startswith("[") else line for line in lines
    ) + "\n",
}
# What a reader reads of a form where that is not what it reads of LF.
# A lone carriage return ends no line, so a CR-only file is one line.
# A # line is a comment in a file of [sections] and a row in the others.
OTHER_READS = {
    "CR-only": {
        "load_corpus": [],  # a header and no record
        "LabelVocab.from_file": MalformedRow,
        "load_presegmented": MalformedRow,
        # One row of three cells, whose second is the text.
        "dialectid normalize": "id\ttweet a\t@user هههه\n".encode("utf-8"),
        "read_submission": [("a", "Egypt\rb,Iraq")],
        "load_lexicon": ValueError,
        "parse_benchmark_file": ConfigError,
    },
    "# comment": {
        "load_corpus": MalformedRow,
        "LabelVocab.from_file": MalformedRow,
        "load_presegmented": MalformedRow,
        "dialectid normalize": MalformedRow,
        "read_submission": MalformedRow,
    },
}


@pytest.mark.parametrize("form", LINE_FORMS)
@pytest.mark.parametrize("reader", READERS)
def test_every_reader_reads_every_line_form(tmp_path, reader, form):
    lines, read, expected = READERS[reader]
    expected = OTHER_READS.get(form, {}).get(reader, expected)
    path = tmp_path / "file.tsv"
    path.write_bytes(LINE_FORMS[form](lines).encode("utf-8"))
    if isinstance(expected, type):
        with pytest.raises(expected):
            read(str(path))
    else:
        assert read(str(path)) == expected


def test_write_corpus_rejects_tabs_and_newlines(tmp_path):
    path = tmp_path / "out.tsv"
    with pytest.raises(MalformedRow):
        write_corpus([TweetRecord(id="a", text="x\ty")], str(path))
    with pytest.raises(MalformedRow):
        write_corpus([TweetRecord(id="a", text="x\ny")], str(path))


class TestStats:
    def records(self):
        return [
            TweetRecord(id="1", text="x", country="Egypt", province="Cairo"),
            TweetRecord(id="2", text="y", country="Egypt", province="Cairo"),
            TweetRecord(id="3", text="z", country="Iraq", province="Baghdad"),
        ]

    def test_counts_without_vocab_follow_first_appearance(self):
        stats = corpus_stats(self.records(), Level.COUNTRY)
        assert list(stats.counts.items()) == [("Egypt", 2), ("Iraq", 1)]
        assert stats.total == 3

    def test_counts_with_vocab_include_zeros_in_vocab_order(self):
        vocab = LabelVocab(countries=("Iraq", "Egypt", "Jordan"))
        stats = corpus_stats(self.records(), Level.COUNTRY, vocab=vocab)
        assert list(stats.counts.items()) == [("Iraq", 1), ("Egypt", 2), ("Jordan", 0)]

    def test_province_level(self):
        stats = corpus_stats(self.records(), Level.PROVINCE, vocab=VOCAB)
        assert stats.counts == {"Cairo": 2, "Baghdad": 1}

    def test_unlabeled_record_raises(self):
        records = [TweetRecord(id="1", text="x")]
        with pytest.raises(SubtaskMismatch, match="^record '1' has no country label$"):
            corpus_stats(records, Level.COUNTRY)

    def test_label_outside_vocab_raises(self):
        records = [TweetRecord(id="1", text="x", country="Atlantis")]
        vocab = LabelVocab(countries=("Egypt",))
        with pytest.raises(UnknownLabel):
            corpus_stats(records, Level.COUNTRY, vocab=vocab)


def test_concat_splits():
    train = [TweetRecord(id="1", text="a"), TweetRecord(id="2", text="b")]
    dev = [TweetRecord(id="3", text="c")]
    merged = concat_splits(train, dev)
    assert [r.id for r in merged] == ["1", "2", "3"]
    with pytest.raises(DuplicateId):
        concat_splits(train, [TweetRecord(id="2", text="dup")])


class TestSubmission:
    def test_round_trip_and_trailing_newline(self, tmp_path):
        path = tmp_path / "sub.csv"
        write_submission(["a", "b"], ["Egypt", "Iraq"], str(path))
        raw = path.read_bytes()
        assert raw == b"a,Egypt\nb,Iraq\n"
        assert read_submission(str(path)) == [("a", "Egypt"), ("b", "Iraq")]

    def test_empty_submission_is_empty_file(self, tmp_path):
        path = tmp_path / "sub.csv"
        write_submission([], [], str(path))
        assert path.read_bytes() == b""
        assert read_submission(str(path)) == []

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(LengthMismatch):
            write_submission(["a"], [], str(tmp_path / "sub.csv"))

    def test_round_trip_of_an_id_with_a_carriage_return(self, tmp_path):
        # load_corpus keeps a bare \r inside a cell, as read_rows does.
        path = tmp_path / "sub.csv"
        write_submission(["x\ry", "z"], ["Egypt", "Iraq"], str(path))
        assert read_submission(str(path)) == [("x\ry", "Egypt"), ("z", "Iraq")]

    def test_read_rejects_missing_comma(self, tmp_path):
        path = tmp_path / "sub.csv"
        path.write_text("justonefield\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            read_submission(str(path))
