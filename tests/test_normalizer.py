import itertools
import random
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dialectid import harness, normalizer
from dialectid.corpus import load_corpus
from dialectid.errors import DuplicateId
from dialectid.normalizer import (
    DEFAULT_LEXICON,
    NormConfig,
    PLACEHOLDERS,
    SegmentLexicon,
    insert_spacing,
    normalize,
    remove_noise,
    replace_entities,
    segment,
    strip_markup,
)

import fixtures
import normalizer_oracle
from conftest import data_path


CONFIGS = {
    "default": NormConfig(),
    "repeat1": NormConfig(max_repeat=1),
    "segment": NormConfig(segment=True),
    "nospacing": NormConfig(insert_spacing=False),
}


def load_golden():
    cases = []
    with open(data_path("normalization_golden.tsv"), encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            tag, text, expected = line.split("\t")
            cases.append((tag, text, expected))
    return cases


GOLDEN = load_golden()


def test_golden_has_enough_cases():
    assert len(GOLDEN) >= 60


@pytest.mark.parametrize("tag,text,expected", GOLDEN)
def test_normalization_golden(tag, text, expected):
    assert normalize(text, CONFIGS[tag]) == expected


# stage: strip_markup


def test_strip_markup_br_becomes_space():
    assert strip_markup("مرحبا<br>بك") == "مرحبا بك"
    assert strip_markup("a<br/>b") == "a b"
    assert strip_markup("a<br />b") == "a b"
    assert strip_markup("a</BR>b") == "a b"


def test_strip_markup_tags_removed():
    assert strip_markup("<div>نص</div>") == "نص"
    assert strip_markup("a <b>bold</b> c") == "a bold c"
    assert strip_markup("no tags here") == "no tags here"


def test_strip_markup_entities_decoded():
    assert strip_markup("a &lt; b") == "a < b"
    assert strip_markup("&amp; &lt; &gt; &quot; &nbsp;") == '& < > " \xa0'
    # only the five named entities decode
    assert strip_markup("&eacute;") == "&eacute;"
    assert strip_markup("&#60;") == "&#60;"


def test_strip_markup_encoded_tag_is_text_not_markup():
    assert strip_markup("&lt;br&gt;") == "<br>"


def test_strip_markup_unclosed_bracket_kept():
    assert strip_markup("a < b") == "a < b"
    assert strip_markup("2<3") == "2<3"


# stage: replace_entities


def test_replace_entities_canonical_cases():
    assert replace_entities("شاهد https://t.co/xyz الآن") == "شاهد [رابط] الآن"
    assert replace_entities("راسلني a.b@mail.com و @b") == "راسلني [بريد] و [مستخدم]"
    assert replace_entities("@user1 مرحبا") == "[مستخدم] مرحبا"


def test_url_wins_over_mention_and_email():
    assert replace_entities("http://a.com/x@y نص") == "[رابط] نص"
    assert replace_entities("https://a.co/m@b.com") == "[رابط]"


def test_placeholder_surfaces_are_exact():
    surfaces = list(PLACEHOLDERS)
    assert surfaces == [
        "[رابط]",
        "[بريد]",
        "[مستخدم]",
    ]


# Independent oracle: a position scanner that tries the url, email, and
# mention languages in priority order at every index.  The pattern text
# is a frozen copy of the documented contract, but the matching engine
# (anchored scan vs a single substitution pass) is separate.
_O_URL = re.compile(r"https?://\S+|www\.\S+|\b[A-Za-z0-9-]+(?:\.[A-Za-z0-9-]+)+/\S+")
_O_EMAIL = re.compile(r"\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}\b")
_O_MENTION = re.compile(r"@[A-Za-z0-9_]+")


def entity_oracle(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        for pattern, surface in (
            (_O_URL, "[رابط]"),
            (_O_EMAIL, "[بريد]"),
            (_O_MENTION, "[مستخدم]"),
        ):
            m = pattern.match(text, i)
            if m is not None and m.end() > i:
                out.append(surface)
                i = m.end()
                break
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def test_replace_entities_matches_oracle_on_golden_inputs():
    with open(data_path("entity_cases.txt"), encoding="utf-8") as fh:
        cases = [line.rstrip("\n") for line in fh if line.strip()]
    assert len(cases) >= 50
    for text in cases:
        assert replace_entities(text) == entity_oracle(text), text


# stage: remove_noise


def test_remove_noise_canonical_cases():
    assert remove_noise("ههههههه 😂😂", 2) == "هه"
    assert remove_noise("!!!!", 2) == "!!"
    assert remove_noise("#هاشتاق", 2) == "هاشتاق"


def test_remove_noise_keeps_diacritics():
    assert remove_noise("أهلاً", 2) == "أهلاً"


def test_remove_noise_rejects_bad_cap():
    with pytest.raises(ValueError):
        remove_noise("x", 0)


def test_remove_noise_placeholder_interrupts_runs():
    assert remove_noise("ههه[رابط]ههه", 2) == "هه[رابط]هه"


def cap_runs_oracle(text: str, cap: int) -> str:
    return "".join(ch * min(len(list(group)), cap) for ch, group in itertools.groupby(text))


def test_remove_noise_run_cap_against_brute_force():
    # Every string of length <= 6 over a tiny allowed alphabet; the
    # whitelist filter is a no-op, so only capping and whitespace
    # behavior remain.
    alphabet = ["ا", "ب", " "]
    ws = re.compile(r"\s+")
    for cap in (1, 2, 3):
        for length in range(7):
            for combo in itertools.product(alphabet, repeat=length):
                s = "".join(combo)
                expected = ws.sub(" ", cap_runs_oracle(s, cap)).strip()
                assert remove_noise(s, cap) == expected, (s, cap)


# stage: insert_spacing


def test_insert_spacing_canonical_cases():
    assert insert_spacing("عمري25سنة") == "عمري 25 سنة"
    assert insert_spacing("ABCكلمة7") == "ABC كلمة 7"
    assert insert_spacing("عمري٢٥سنة") == "عمري ٢٥ سنة"


def test_insert_spacing_brackets():
    assert insert_spacing("ب[قوس]ج") == "ب [ قوس ] ج"


def test_insert_spacing_skips_placeholders():
    assert insert_spacing("ب[رابط]ج") == "ب[رابط]ج"
    assert insert_spacing("[مستخدم]") == "[مستخدم]"


def test_insert_spacing_existing_space_not_doubled():
    assert insert_spacing("كلمة word") == "كلمة word"
    assert insert_spacing("ب [ قوس ] ج") == "ب [ قوس ] ج"


def test_insert_spacing_ascii_digit_pairs_untouched():
    assert insert_spacing("word25") == "word25"
    assert insert_spacing("25word") == "25word"


_O_ARABIC = frozenset(
    [chr(c) for c in range(0x0621, 0x063B)]
    + [chr(c) for c in range(0x0640, 0x0653)]
    + ["ٰ"]
)
_O_DIGITS = frozenset("0123456789") | frozenset(chr(0x0660 + i) for i in range(10))
_O_LATIN = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


def spacing_oracle(text: str) -> str:
    out = []
    for i, ch in enumerate(text):
        out.append(ch)
        if i + 1 == len(text):
            break
        a, b = ch, text[i + 1]
        if a.isspace() or b.isspace():
            continue
        need = (
            a in "[]"
            or b in "[]"
            or (a in _O_ARABIC and (b in _O_DIGITS or b in _O_LATIN))
            or (b in _O_ARABIC and (a in _O_DIGITS or a in _O_LATIN))
        )
        if need:
            out.append(" ")
    return "".join(out)


def test_insert_spacing_against_oracle():
    pool = "اب تث7 25كلمة[]()ABcd٣٤_+.!ه"
    rng = random.Random(20200817)
    surfaces = list(PLACEHOLDERS)
    for _ in range(600):
        s = "".join(rng.choice(pool) for _ in range(rng.randint(0, 12)))
        if any(surface in s for surface in surfaces):
            continue
        assert insert_spacing(s) == spacing_oracle(s), repr(s)


# Every class the spacing rule tells apart, and its edges: Arabic
# letters (U+0620 and U+063B lie just outside, U+0653 just past the
# diacritics, U+0670 the superscript alef), tatweel, both digit sets,
# ASCII letters, brackets, punctuation, whitespace that str.isspace
# knows (\x1c included), emoji, and the placeholder surfaces.
SPACING_ALPHABET = (
    "ءابغ\u0620\u063bـ\u0652\u0653\u0670" "09٠٩" "aZ" "[]" "+_.()"
    " \t\n\x1c\u00a0" "😀🇪🇬"
)
spacing_texts = st.lists(
    st.one_of(
        st.text(alphabet=SPACING_ALPHABET, min_size=1, max_size=6),
        st.sampled_from(PLACEHOLDERS),
    ),
    max_size=8,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(spacing_texts)
def test_insert_spacing_matches_pairwise_oracle(text):
    assert insert_spacing(text) == normalizer_oracle.insert_spacing(text)


# stage: segment


def load_segment_golden():
    with open(data_path("segmentation_golden.tsv"), encoding="utf-8") as fh:
        return [tuple(line.rstrip("\n").split("\t")) for line in fh if line.strip()]


@pytest.mark.parametrize("token,expected", load_segment_golden())
def test_segment_golden(token, expected):
    assert segment(token) == expected


def test_segment_golden_count():
    assert len(load_segment_golden()) >= 30


def test_segment_non_arabic_pass_through():
    assert segment("hello") == "hello"
    assert segment("[رابط]") == "[رابط]"
    assert segment("والكتاب hello") == "وال+ كتاب hello"
    assert segment("") == ""


def test_segment_marker_tokens_pass_through():
    already = "وال+ كتاب +ها"
    assert segment(already) == already
    assert segment(segment("والكتابها والقلم")) == segment("والكتابها والقلم")


def test_segment_respects_overrides():
    lexicon = replace(DEFAULT_LEXICON, overrides={"والكتاب": "والـ+ـكتاب"})
    assert segment("والكتاب", lexicon) == "والـ+ـكتاب"
    assert segment("والكتاب") == "وال+ كتاب"


def test_lexicon_overrides_are_a_read_only_copy():
    table = {"والكتاب": "و+ الكتاب"}
    lexicon = replace(DEFAULT_LEXICON, overrides=table)
    table["والقلم"] = "و+ القلم"
    assert dict(lexicon.overrides) == {"والكتاب": "و+ الكتاب"}
    with pytest.raises(TypeError):
        lexicon.overrides["والقلم"] = "و+ القلم"
    assert DEFAULT_LEXICON.overrides == {}
    # The overrides take part in equality, but not in the hash.
    assert lexicon != DEFAULT_LEXICON and hash(lexicon) == hash(DEFAULT_LEXICON)


def test_segment_reconstruction_and_stem_guard():
    letters = "ابتثجحخدذرزسشصضطظعغفقكلمنهوي"
    rng = random.Random(11)
    for _ in range(400):
        token = "".join(rng.choice(letters) for _ in range(rng.randint(1, 10)))
        seg = segment(token)
        assert seg.replace("+", "").replace(" ", "") == token
        parts = seg.split(" ")
        assert len(parts) <= 3
        stems = [p for p in parts if not p.endswith("+") and not p.startswith("+")]
        assert len(stems) == 1
        if len(parts) > 1:
            assert len(stems[0]) >= DEFAULT_LEXICON.min_stem_len
        for p in parts:
            if p.endswith("+"):
                assert p[:-1] in DEFAULT_LEXICON.prefixes
            elif p.startswith("+"):
                assert p[1:] in DEFAULT_LEXICON.suffixes


def test_lexicon_sorted_longest_first_and_validated():
    lex = SegmentLexicon(prefixes=("و", "وال"), suffixes=("ه", "ها"))
    assert lex.prefixes == ("وال", "و")
    assert lex.suffixes == ("ها", "ه")
    # At one length in code point order, each entry once.
    assert SegmentLexicon(prefixes=("و", "ل", "و"), suffixes=()).prefixes == ("ل", "و")
    with pytest.raises(ValueError):
        SegmentLexicon(prefixes=("",), suffixes=())
    with pytest.raises(ValueError):
        SegmentLexicon(prefixes=("و",), suffixes=("ه",), min_stem_len=0)


def test_load_lexicon_and_presegmented(tmp_path):
    lex_file = tmp_path / "lex.txt"
    lex_file.write_text(
        "# comment\n[prefixes]\nوال\nو\n\n[suffixes]\nها\n", encoding="utf-8"
    )
    lex = normalizer.load_lexicon(str(lex_file))
    assert lex.prefixes == ("وال", "و")
    assert lex.suffixes == ("ها",)

    pre_file = tmp_path / "pre.tsv"
    pre_file.write_text("والكتاب\tوال+ كتاب\n", encoding="utf-8")
    table = normalizer.load_presegmented(str(pre_file))
    assert table == {"والكتاب": "وال+ كتاب"}

    bad = tmp_path / "bad.txt"
    bad.write_text("وال\n", encoding="utf-8")
    with pytest.raises(ValueError):
        normalizer.load_lexicon(str(bad))


def test_load_lexicon_drops_a_leading_bom(tmp_path):
    lex_file = tmp_path / "lex.txt"
    lex_file.write_text("\ufeff[prefixes]\nو\n[suffixes]\nها\n", encoding="utf-8")
    lex = normalizer.load_lexicon(str(lex_file))
    assert (lex.prefixes, lex.suffixes) == (("و",), ("ها",))


@pytest.mark.parametrize("header", ["[other]", "[Prefixes]", "[prefix]", "[]"])
def test_load_lexicon_rejects_an_unknown_section(tmp_path, header):
    lex_file = tmp_path / "lex.txt"
    lex_file.write_text(f"[suffixes]\nها\n\n{header}\nx\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{lex_file}:4: unknown section")):
        normalizer.load_lexicon(str(lex_file))


def test_load_lexicon_names_the_line_of_an_entry_before_any_section(tmp_path):
    lex_file = tmp_path / "lex.txt"
    lex_file.write_text("# clitics\nوال\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{lex_file}:2: entry 'وال' before")):
        normalizer.load_lexicon(str(lex_file))


def test_load_presegmented_rejects_a_token_listed_twice(tmp_path):
    pre_file = tmp_path / "dup.tsv"
    pre_file.write_text(
        "والكتاب\tو+ الكتاب\nوالقلم\tو+ القلم\nوالكتاب\tوال+ كتاب\n", encoding="utf-8"
    )
    with pytest.raises(DuplicateId, match=re.escape(f"{pre_file}:3:") + ".*line 1"):
        normalizer.load_presegmented(str(pre_file))


# full pipeline properties

ALLOWED_OUTPUT = (
    _O_ARABIC
    | _O_DIGITS
    | _O_LATIN
    | frozenset("[]+.,!?:;-_()/ ")
)

FRAGMENTS = [
    "http://", "https://t.co/", "www.", "x.co/", ".com", "@", "@user", "user",
    "a.b@mail.com", "&lt;", "&amp;", "<br>", "<b>", "</b>", "ههه", "ااا",
    "وال", "كتاب", "ها", "مرحبا", "نص", "😂", "🎉", "،", "؟", "25", "٢٥",
    "abc", "XYZ", "[", "]", "رابط", "بريد", "مستخدم", "+", "!", "!!", "  ",
    " ", ".", "-", "_", "(", ")", "/", ":", ";", " ", "‏", "ـ",
]

fragment_texts = st.lists(st.sampled_from(FRAGMENTS), max_size=8).map("".join)
any_texts = st.text(max_size=60)
pipeline_configs = st.sampled_from(list(CONFIGS.values()))


@settings(max_examples=300, deadline=None)
@given(st.one_of(any_texts, fragment_texts), pipeline_configs)
def test_normalize_idempotent(text, config):
    once = normalize(text, config)
    assert normalize(once, config) == once


@settings(max_examples=300, deadline=None)
@given(st.one_of(any_texts, fragment_texts), pipeline_configs)
def test_normalize_output_alphabet(text, config):
    out = normalize(text, config)
    assert "  " not in out
    assert out == out.strip()
    if config.remove_noise:
        assert set(out) <= ALLOWED_OUTPUT, set(out) - ALLOWED_OUTPUT


@settings(max_examples=200, deadline=None)
@given(st.one_of(any_texts, fragment_texts))
def test_normalize_preserves_placeholders(text):
    after_replace = replace_entities(strip_markup(text))
    out = normalize(text)
    for placeholder in PLACEHOLDERS:
        assert out.count(placeholder) >= after_replace.count(placeholder)


@settings(max_examples=200, deadline=None)
@given(st.one_of(any_texts, fragment_texts), pipeline_configs)
def test_normalize_run_length_bound(text, config):
    out = normalize(text, config)
    if not config.remove_noise:
        return
    surfaces = list(PLACEHOLDERS)
    stripped = out
    for surface in surfaces:
        stripped = stripped.replace(surface, " ")
    for ch, group in itertools.groupby(stripped):
        if ch == " ":
            continue
        assert len(list(group)) <= config.max_repeat


def test_normalize_config_validation():
    with pytest.raises(ValueError):
        NormConfig(max_repeat=0)
    # re refuses a repetition count of 2**32 - 1 or more.
    assert normalize("هههه", NormConfig(max_repeat=2**32 - 2)) == "هههه"
    for bad in (2**32 - 1, 10**11):
        with pytest.raises(ValueError, match="below 2\\*\\*32 - 1"):
            NormConfig(max_repeat=bad)
        with pytest.raises(ValueError, match="below 2\\*\\*32 - 1"):
            remove_noise("هههه", bad)


def test_normalize_deterministic():
    text = "@user هههههه http://x.co <br> عمري25"
    assert normalize(text) == normalize(text)
    assert normalize(text, NormConfig()) == normalize(text, NormConfig())


# normalize against the fixed-point oracle

# Texts on which a pass of the chain can make another pass fire: noise
# spliced into URLs, emails, mentions, tags, entities, placeholder
# surfaces and elongations; Arabic, placeholders and brackets glued to
# hosts; segmenter markers; and whitespace other than the space.
CARRIERS = [
    "http://x.co/a", "https://t.co/ab", "http://x.co", "www.x.co", "x.co/a", "a-b.c.d/e",
    "user@mail.com", "@user", "@", "<b>", "</b>", "<br>", "<br />", "&lt;b&gt;",
    "&amp;lt;b&amp;gt;", "&amp;", "&nbsp;", "[رابط]", "[بريد]", "[مستخدم]",
    "هههه", "اااا", "!!!!", "+", "وال+", "+ها", "والكتاب", "كتابها",
]
NOISE = ["😂", "🎉", "\u200f", "#", "،", "؟", "\u0301", "«", "\U0001F1EA\U0001F1EC"]
GLUE = [
    "", " ", "  ", "\t", "\n", "\x1c", "\x85", "\u3000", "\u00a0",
    "عربي", "x", "25", "٢٥", "/", ".", "_", "[", "]",
]


@st.composite
def noisy_carriers(draw):
    carrier = draw(st.sampled_from(CARRIERS))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(carrier)))
        carrier = carrier[:at] + draw(st.sampled_from(NOISE)) + carrier[at:]
    return carrier


adversarial_texts = st.lists(
    st.one_of(noisy_carriers(), st.sampled_from(GLUE)), max_size=8
).map("".join)
every_config = st.builds(
    NormConfig,
    strip_markup=st.booleans(),
    replace_entities=st.booleans(),
    remove_noise=st.booleans(),
    insert_spacing=st.booleans(),
    segment=st.booleans(),
    max_repeat=st.integers(1, 3),
)
SHORT_LEXICON = SegmentLexicon(prefixes=("ال", "و"), suffixes=("ها",), min_stem_len=1)
# Overrides that undo a marker, split a word and bring a host back.
OVERRIDES = {"كتاب": "ك+ تاب", "عربي": "عربيx.co/a", "+ها": "ها+", "[رابط]": "x.co/a"}
SHORT_WITH_OVERRIDES = replace(SHORT_LEXICON, overrides=OVERRIDES)
LEXICONS = [
    DEFAULT_LEXICON, SHORT_LEXICON, replace(DEFAULT_LEXICON, overrides=OVERRIDES),
    SHORT_WITH_OVERRIDES,
]

# A deletion splices a URL together, and a space opens a word boundary
# before a bare host: the two ways a pass makes the next one fire.
SPLICED_URL = "http😂://x.co"
GLUED_HOST = "عربيx.co/a"


def assert_matches_oracle(text, config, lexicon=DEFAULT_LEXICON):
    expected = normalizer_oracle.normalize(text, config, lexicon)
    assert normalize(text, config, lexicon) == expected, (text, config)


@settings(max_examples=1000, deadline=None)
@given(
    st.one_of(any_texts, fragment_texts, adversarial_texts),
    every_config,
    st.sampled_from(LEXICONS),
)
@example(SPLICED_URL, NormConfig(), DEFAULT_LEXICON)
@example(GLUED_HOST, NormConfig(), DEFAULT_LEXICON)
@example("http😂://x.co/a", NormConfig(), DEFAULT_LEXICON)
@example("[راب😂ط]", NormConfig(), DEFAULT_LEXICON)
@example("هه😂هه😂هه", NormConfig(max_repeat=1), DEFAULT_LEXICON)
@example("&amp;lt;b&amp;gt;", NormConfig(remove_noise=False), DEFAULT_LEXICON)
@example("[رابط]x.co/a", NormConfig(), DEFAULT_LEXICON)
@example("وال+ كتاب +ها", NormConfig(segment=True), SHORT_WITH_OVERRIDES)
def test_normalize_matches_fixed_point_oracle(text, config, lexicon):
    assert_matches_oracle(text, config, lexicon)


ADVERSARIAL = [
    SPLICED_URL, GLUED_HOST, "http😂://x.co/a", "www😂.x.co", "x😂.co/a", "[راب😂ط]",
    "هه😂هه😂ههه", "&amp;lt;b&amp;gt;", "<b😂>", "[رابط]x.co/a", "@us😂er",
    "a.b@ma😂il.com", "وال+ كتاب +ها", "عمري25\x1c\x85\u3000x.co/a", "",
]


@pytest.mark.parametrize("toggles", list(itertools.product([False, True], repeat=5)))
def test_every_toggle_combination_matches_oracle(toggles):
    for max_repeat in (1, 2, 3):
        config = NormConfig(*toggles, max_repeat=max_repeat)
        for text in ADVERSARIAL:
            assert_matches_oracle(text, config)
            assert_matches_oracle(text, config, SHORT_WITH_OVERRIDES)


def test_golden_matches_oracle():
    for _, text, _ in GOLDEN:
        for config in CONFIGS.values():
            assert_matches_oracle(text, config)


# Texts that hold the character a stage's early return looks for, but
# nothing the stage changes: an & that starts no entity, a < that opens
# no tag, a / in no URL and a [x] that is no placeholder; and a
# placeholder followed by a URL.
TRIGGERS_WITHOUT_MATCH = [
    "قهوة & شاي", "&amp", "&eacute; نعم", "3 < 4", "<3 عربي", "a<b",
    "نص 1/2 كيلو", "نعم/لا", "/", "a@", "www", "[x] عربي", "[رابط", "][",
    "[رابط] http://x.co/a", "[مستخدم]www.x.co",
]


@pytest.mark.parametrize("text", TRIGGERS_WITHOUT_MATCH)
def test_stage_early_returns_match_oracle(text):
    assert strip_markup(text) == normalizer_oracle.strip_markup(text)
    assert replace_entities(text) == normalizer_oracle.replace_entities(text)
    assert insert_spacing(text) == normalizer_oracle.insert_spacing(text)
    for toggles in itertools.product([False, True], repeat=5):
        assert_matches_oracle(text, NormConfig(*toggles))


def fixture_texts(workload, seed, directory):
    """The raw texts of every split of a benchmark fixture, and the norm
    configurations of its experiments."""
    fixture = fixtures.write_fixture(workload, seed, directory)
    spec = harness.parse_benchmark_file(fixture.config_path)
    texts = [r.text for path in fixture.paths.values() for r in load_corpus(path)]
    return texts, {config.norm for config in spec.experiments}


@pytest.mark.parametrize("seed", [101, 7])
@pytest.mark.parametrize("workload", sorted(fixtures.WORKLOADS))
def test_benchmark_fixtures_match_oracle(workload, seed, tmp_path):
    texts, configs = fixture_texts(workload, seed, str(tmp_path))
    for config in configs:
        for text in texts:
            assert_matches_oracle(text, config)


def count_passes(monkeypatch, texts, module=normalizer, stages="_apply_stages"):
    """The number of passes of the stage chain module.normalize runs
    over texts."""
    calls = []
    real = getattr(module, stages)

    def counting(*args):
        calls.append(None)
        return real(*args)

    with monkeypatch.context() as patch:
        patch.setattr(module, stages, counting)
        for text in texts:
            module.normalize(text)
    return len(calls)


def test_one_pass_per_text_on_served_split(monkeypatch, tmp_path):
    fixture = fixtures.write_fixture("serve", 101, str(tmp_path))
    texts = [r.text for r in load_corpus(fixture.paths["test"])]
    assert len(texts) == 1470
    assert count_passes(monkeypatch, texts) == 1470
    # The loop that stops only when a pass changes nothing: 1,439 of the
    # texts take a second pass that only confirms the first.
    assert count_passes(monkeypatch, texts, normalizer_oracle, "apply_stages") == 2909


def test_refiring_texts_take_another_pass(monkeypatch):
    assert count_passes(monkeypatch, [SPLICED_URL]) >= 2
    assert count_passes(monkeypatch, [GLUED_HOST]) >= 2
    # The first pass replaces x.co/a; the http:// left over matches no
    # entity in its part, whatever follows the placeholder.
    assert count_passes(monkeypatch, ["http😂://x.co/a"]) == 1


# the token path: a pass cleans each whitespace token on its own


WHITESPACE = [chr(c) for c in range(0x110000) if chr(c).isspace()]


def test_re_whitespace_is_str_split_whitespace():
    # normalize splits with str.split() where the stages match \s.
    for code in range(0x110000):
        char = chr(code)
        assert bool(normalizer._WS_RE.fullmatch(char)) == char.isspace(), hex(code)
    assert "x".join(WHITESPACE).split() == ["x"] * (len(WHITESPACE) - 1)


# Tokens each stage changes, placeholders, and pieces that splice or
# glue into one when the whitespace around them goes.
TOKEN_PIECES = [
    "عمري25", "[رابط]", "x.co/a", "هههه😂", "@us😂er", "a.b@mail.com", "😂",
    "وال+", "كتابها", "<b>", "&nbsp;", "http😂://x.co", "[", "هه",
]


@pytest.mark.parametrize("toggles", list(itertools.product([False, True], repeat=5)))
def test_every_whitespace_around_tokens_matches_oracle(toggles):
    config = NormConfig(*toggles)
    for space in WHITESPACE:
        for text in (
            space + space.join(TOKEN_PIECES) + space,
            space.join(PLACEHOLDERS) + space * 2 + "x",
            space + "هه" + space + "ه" + space + "[مستخدم]" + space + "هه",
        ):
            assert_matches_oracle(text, config)


@pytest.mark.parametrize("toggles", list(itertools.product([False, True], repeat=4)))
def test_whitespace_collapses_without_noise_removal(toggles):
    strip, entities, spacing, seg = toggles
    config = NormConfig(strip, entities, False, spacing, seg)
    assert normalize(" a \t b\n", config) == "a b"
    for text in (" a \t b\n", "\u3000a\x1c\x1db\x85", "a  <br>  b", "a&nbsp;b", "\t\n "):
        assert_matches_oracle(text, config)


def test_memo_is_kept_per_config(tmp_path):
    fixture = fixtures.write_fixture("serve", 101, str(tmp_path))
    texts = [r.text for r in load_corpus(fixture.paths["test"])]
    for pair in (
        (NormConfig(), NormConfig(max_repeat=1)),
        (NormConfig(), NormConfig(insert_spacing=False)),
    ):
        normalizer._token_memo.cache_clear()
        for text in texts:
            for config in pair:
                assert_matches_oracle(text, config)


def test_memo_stays_within_its_bounds():
    bound = normalizer._TOKEN_MEMO_SIZE
    config = NormConfig(max_repeat=1)
    normalizer._token_memo.cache_clear()
    # Distinct tokens that the entity, noise and spacing stages each change.
    kinds = ("عمري{}", "@u{}", "ههه{}😂", "x{}.co/a", "{}")
    tokens = [kind.format(i) for i in range(bound // 4) for kind in kinds]
    assert len(set(tokens)) > bound
    for start in range(0, len(tokens), 200):
        assert_matches_oracle(" ".join(tokens[start:start + 200]), config)
    memo = normalizer._token_memo(config)
    assert memo.cache_info().maxsize == bound
    assert memo.cache_info().currsize == bound
    # A token the stages leave as it is is its own memo entry, even
    # where a stage built an equal copy.
    token = PLACEHOLDERS[0]
    assert memo(token) is token
    for repeat in range(1, 2 * normalizer._MEMO_CONFIGS + 2):
        normalize("ههههه", NormConfig(max_repeat=repeat))
    assert normalizer._token_memo.cache_info().currsize == normalizer._MEMO_CONFIGS
