"""Tweet text cleanup.

The pipeline applies, in fixed order: markup stripping, replacement of
URLs / emails / mentions with Arabic placeholder tokens, noise filtering
against an allowed alphabet with repeated-character capping, whitespace
insertion at script boundaries, whitespace collapsing, and (optionally)
rule-based clitic segmentation.

Placeholder surfaces are protected spans: no downstream stage may alter
the bytes inside them.

Every stage between markup stripping and segmentation acts within one
whitespace token, so a pass cleans each token on its own:

- No entity pattern matches whitespace, and a `\\b` at a token's edge
  sees whitespace beside it in the text just as it sees the end of
  the token alone.
- Noise removal deletes characters and caps runs, and neither joins
  two non-space characters across whitespace; its whitespace collapse
  is the final join.
- `insert_spacing` never inserts next to whitespace or at either end.
- A placeholder surface holds no whitespace, so it lies inside one
  token.

`re`'s `\\s` and `str.split()` agree on every code point (both are
`str.isspace()`), so splitting a text and rejoining its non-empty
cleaned tokens with one space collapses its whitespace, whether or not
noise removal runs.  `strip_markup` still runs on the whole text, since a
tag may span spaces and `<br>` and `&nbsp;` make whitespace, and so does
`segment`, which reads a token's neighbours.  A pass looks each token
up in its NormConfig's memo of the token stages, so a token the process
has cleaned before costs one lookup.  The memos are process-wide and
bounded: each keeps the _TOKEN_MEMO_SIZE most recently used tokens, and
only the _MEMO_CONFIGS most recently used NormConfigs keep theirs.

A first-seen token costs one pass of the token stages: an entity scan,
one deletion and one run cap, and a spacing scan.  The pass skips what
cannot change the token, and each skip is exact:

- The entity scan runs only on a token holding an `@`, a `/` or
  `www.`, which every entity pattern needs.
- The spacing scan runs only on a token holding an ASCII letter or
  digit, an Arabic-Indic digit or a bracket: every place `_SPACING_RE`
  matches has one of them on one side.
- A token splits at placeholder surfaces only when it holds a `[`,
  which every surface starts with.
- Noise removal collapses and strips no whitespace, since a token holds
  none.

`normalize` returns a fixed point of the stage chain: a text one more
pass would leave as it is.  With noise removal on and segmentation off,
one pass usually gets there, and `normalize` can tell without running a
second:

- Once noise removal has run, no `<`, `>` or `&` is left, so
  `strip_markup` cannot fire.
- Deleting characters and capping runs give a text that noise removal
  leaves as it is.  So does `insert_spacing`.
- Two things can make a second pass fire, and both go through
  `replace_entities`.  One is a deletion that splices a URL, as in
  `http😂://x.co`.  The other is a space that opens a `\\b` before a
  bare host, as in `عربيx.co/a`.  So the pass output is settled when
  no entity matches outside its placeholders.

Any other configuration re-applies the chain until the text stops
changing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache, partial
from types import MappingProxyType
from typing import Mapping

from .corpus import read_mapping, read_sections


# The placeholder surface that replaces each kind of entity, by its
# group name in _ENTITY_RE.
_SURFACE_BY_GROUP = {"url": "[رابط]", "email": "[بريد]", "mention": "[مستخدم]"}
PLACEHOLDERS = tuple(_SURFACE_BY_GROUP.values())


@dataclass(frozen=True, slots=True)
class NormConfig:
    """Stage toggles and the repeated-character cap.

    Whitespace collapsing has no toggle: the output is always single-space
    separated.
    """

    strip_markup: bool = True
    replace_entities: bool = True
    remove_noise: bool = True
    insert_spacing: bool = True
    segment: bool = False
    max_repeat: int = 2

    def __post_init__(self) -> None:
        _check_max_repeat(self.max_repeat)


def _check_max_repeat(max_repeat: int) -> None:
    # re refuses a repetition count of 2**32 - 1 or more.
    if not 1 <= max_repeat < 2**32 - 1:
        raise ValueError(f"max_repeat must be >= 1 and below 2**32 - 1, got {max_repeat}")


DEFAULT_CONFIG = NormConfig()

# Arabic letters (hamza..ghain), tatweel..sukun (covers the base letters
# and the short-vowel diacritics), and the superscript alef.
_ARABIC_RANGES = "ء-غـ-ْٰ"
_PUNCT_CHARS = ".,!?:;\\-_()/"

# Everything outside this class is noise.  `+` stays because the clitic
# segmenter uses it as its boundary marker.
_DISALLOWED_RE = re.compile(
    "[^" + _ARABIC_RANGES + "٠-٩" + "A-Za-z0-9" + r"\[\]+" + _PUNCT_CHARS + r"\s]"
)

_WS_RE = re.compile(r"\s+")

_BR_TAG_RE = re.compile(r"</?br\s*/?>", re.IGNORECASE)
_HTML_TAG_RE = re.compile(r"<[A-Za-z/!][^<>]*>")
_HTML_ENTITY_RE = re.compile(r"&(amp|lt|gt|quot|nbsp);")
_ENTITY_CHARS = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "nbsp": " "}

# URL alternatives: scheme-prefixed, www-prefixed, and bare shortener
# paths of the form host.tld/rest.  Alternation order doubles as match
# precedence at a given position: url, then email, then mention.
_URL_PAT = r"https?://\S+|www\.\S+|\b[A-Za-z0-9-]+(?:\.[A-Za-z0-9-]+)+/\S+"
_EMAIL_PAT = r"\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}\b"
_MENTION_PAT = r"@[A-Za-z0-9_]+"
_ENTITY_RE = re.compile(
    f"(?P<url>{_URL_PAT})|(?P<email>{_EMAIL_PAT})|(?P<mention>{_MENTION_PAT})"
)

_PLACEHOLDER_SPLIT_RE = re.compile("(" + "|".join(map(re.escape, PLACEHOLDERS)) + ")")

# A space goes between Arabic and a digit or ASCII letter (either
# order), and between a bracket and any non-space neighbour.
_LETTER_OR_DIGIT = "0-9٠-٩A-Za-z"
_SPACING_RE = re.compile(
    f"(?<=[{_ARABIC_RANGES}])(?=[{_LETTER_OR_DIGIT}])"
    f"|(?<=[{_LETTER_OR_DIGIT}])(?=[{_ARABIC_RANGES}])"
    r"|(?<=\S)(?=[\[\]])|(?<=[\[\]])(?=\S)"
)
# A character one side of every place _SPACING_RE matches.
_SPACING_SITE_RE = re.compile(f"[{_LETTER_OR_DIGIT}\\[\\]]")

_ARABIC_TOKEN_RE = re.compile("[" + _ARABIC_RANGES + "]+\\Z")


@dataclass(frozen=True)
class SegmentLexicon:
    """Clitic lists for the greedy segmenter, longest-first, and the
    overrides: tokens mapped to the segmented form that replaces the
    lexicon's for them.  Each list is kept without duplicates and, at
    one length, in code point order; two entries of one length never
    both match a token, so lexicons equal as sets segment alike and
    compare equal.  The overrides are copied into a read-only
    mapping, and do not enter the hash."""

    prefixes: tuple[str, ...]
    suffixes: tuple[str, ...]
    min_stem_len: int = 2
    overrides: Mapping[str, str] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        for name in ("prefixes", "suffixes"):
            entries = set(getattr(self, name))
            if "" in entries:
                raise ValueError(f"empty string in lexicon {name}")
            object.__setattr__(self, name, tuple(sorted(entries, key=lambda e: (-len(e), e))))
        if self.min_stem_len < 1:
            raise ValueError(f"min_stem_len must be >= 1, got {self.min_stem_len}")
        object.__setattr__(
            self, "overrides", MappingProxyType(dict(self.overrides))
        )


DEFAULT_LEXICON = SegmentLexicon(
    prefixes=("و", "ف", "ب", "ك", "ل", "ال", "وال", "بال", "فال", "كال", "لل"),
    suffixes=("ها", "هم", "كم", "نا", "ك", "ه", "ي", "ات", "ون", "ين"),
)


def strip_markup(text: str) -> str:
    """Drop HTML tags (line breaks become a space) and decode the five
    common character entities. All other text passes through untouched.
    Every tag starts with < and every entity with &, so a text with
    neither is returned as it is."""
    if "<" not in text and "&" not in text:
        return text
    text = _BR_TAG_RE.sub(" ", text)
    text = _HTML_TAG_RE.sub("", text)
    return _HTML_ENTITY_RE.sub(lambda m: _ENTITY_CHARS[m.group(1)], text)


def replace_entities(text: str) -> str:
    """Replace URLs, emails, and @mentions with placeholder tokens.

    A single left-to-right scan; at equal start positions URLs win over
    emails and emails over mentions, so an @ inside a URL never produces
    a mention placeholder.  No match runs into a placeholder already in
    the text, so a later normalize pass keeps an earlier pass's ones.
    A text that cannot hold an entity is returned as it is.
    """
    if not _may_hold_entity(text):
        return text
    return _map_spans(text, _sub_entities)


def _surface(match: re.Match[str]) -> str:
    return _SURFACE_BY_GROUP[match.lastgroup]


def _sub_entities(span: str) -> str:
    return _ENTITY_RE.sub(_surface, span)


@lru_cache(maxsize=None)
def _long_run_re(max_repeat: int) -> re.Pattern[str]:
    """A run of one character longer than max_repeat."""
    return re.compile(rf"(.)\1{{{max_repeat},}}", re.DOTALL)


def _cap_runs(text: str, max_repeat: int) -> str:
    return _long_run_re(max_repeat).sub(lambda m: m.group(1) * max_repeat, text)


def _may_hold_entity(text: str) -> bool:
    """False when _ENTITY_RE cannot match: every entity needs an @, a /
    or www."""
    return "@" in text or "/" in text or "www." in text


def _map_spans(text: str, fn, *args) -> str:
    """fn(span, *args) applied to each span of text between placeholder
    surfaces.  Every surface starts with [, so a text without one is one
    span."""
    if "[" not in text:
        return fn(text, *args)
    parts = _PLACEHOLDER_SPLIT_RE.split(text)
    for i in range(0, len(parts), 2):
        parts[i] = fn(parts[i], *args)
    return "".join(parts)


def _drop_noise(span: str, max_repeat: int) -> str:
    return _cap_runs(_DISALLOWED_RE.sub("", span), max_repeat)


def remove_noise(text: str, max_repeat: int = 2) -> str:
    """Keep only the allowed alphabet, cap repeated-character runs, and
    collapse whitespace.

    Allowed: Arabic letters and diacritics, Arabic-Indic and ASCII
    digits, ASCII letters, square brackets, plus, whitespace, and the
    punctuation set . , ! ? : ; - _ ( ) /.  Runs longer than max_repeat
    of the same character are truncated to max_repeat.  Placeholder
    surfaces are left untouched and interrupt runs on either side.
    """
    _check_max_repeat(max_repeat)
    return _WS_RE.sub(" ", _map_spans(text, _drop_noise, max_repeat)).strip()


def _space(span: str) -> str:
    return _SPACING_RE.sub(" ", span)


def insert_spacing(text: str) -> str:
    """Insert one space at Arabic/digit and Arabic/ASCII-letter
    boundaries (both orders) and around stray square brackets.

    Placeholders are opaque: nothing is inserted inside them or at
    their seams, and existing spaces are never doubled.  Every place a
    space goes is next to an ASCII letter or digit, an Arabic-Indic
    digit or a bracket, so a text with none of them is returned as it
    is.
    """
    if _SPACING_SITE_RE.search(text) is None:
        return text
    return _map_spans(text, _space)


def _segment_token(token: str, lexicon: SegmentLexicon) -> str:
    stem = token
    prefix = suffix = None
    for p in lexicon.prefixes:
        if stem.startswith(p) and len(stem) - len(p) >= lexicon.min_stem_len:
            prefix = p
            stem = stem[len(p):]
            break
    for s in lexicon.suffixes:
        if stem.endswith(s) and len(stem) - len(s) >= lexicon.min_stem_len:
            suffix = s
            stem = stem[: len(stem) - len(s)]
            break
    parts = []
    if prefix is not None:
        parts.append(prefix + "+")
    parts.append(stem)
    if suffix is not None:
        parts.append("+" + suffix)
    return " ".join(parts)


def segment(text: str, lexicon: SegmentLexicon = DEFAULT_LEXICON) -> str:
    """Greedy clitic segmentation over whitespace tokens.

    At most one prefix and one suffix are peeled per token, longest
    match first, and only when the residual stem keeps min_stem_len
    characters.  Peeled clitics are emitted as `prefix+` / `+suffix`
    tokens; deleting the markers and spaces reconstructs the original
    token.  Tokens that are not purely Arabic letters pass through, as
    do tokens that already carry a marker or sit next to one (so the
    output is stable under re-segmentation).  An entry in the lexicon's
    overrides wins over its clitic lists and over those rules.
    """
    overrides = lexicon.overrides
    tokens = text.split()
    out: list[str] = []
    for i, token in enumerate(tokens):
        if token in overrides:
            out.append(overrides[token])
            continue
        if "+" in token:
            out.append(token)
            continue
        if i > 0 and tokens[i - 1].endswith("+"):
            out.append(token)
            continue
        if i + 1 < len(tokens) and tokens[i + 1].startswith("+"):
            out.append(token)
            continue
        if _ARABIC_TOKEN_RE.fullmatch(token) is None:
            out.append(token)
            continue
        out.append(_segment_token(token, lexicon))
    return " ".join(out)


def _clean_token(config: NormConfig, token: str) -> str:
    """The token stages of config applied to one whitespace token: the
    token itself when they leave it as it is, possibly spaced into
    several tokens, or empty when noise removal deletes it.

    The one pass of the module docstring; NormConfig checked max_repeat
    when it was built.  Each stage splits its own input at placeholders,
    since entity replacement makes surfaces and a deletion can make
    one, as `[ر😂ابط]` becomes `[رابط]`."""
    cleaned = token
    if config.replace_entities:
        cleaned = replace_entities(cleaned)
    if config.remove_noise:
        cleaned = _map_spans(cleaned, _drop_noise, config.max_repeat)
    if config.insert_spacing:
        cleaned = insert_spacing(cleaned)
    return token if cleaned == token else cleaned


# The most tokens one NormConfig's memo keeps (about 8.4e6 bytes when
# full), and the most NormConfigs whose memos are kept at once; the
# least recently used goes first.
_TOKEN_MEMO_SIZE = 1 << 15
_MEMO_CONFIGS = 4


@lru_cache(maxsize=_MEMO_CONFIGS)
def _token_memo(config: NormConfig):
    """_clean_token of config, memoized per token."""
    return lru_cache(maxsize=_TOKEN_MEMO_SIZE)(partial(_clean_token, config))


def _apply_stages(text: str, config: NormConfig, lexicon: SegmentLexicon) -> str:
    if config.strip_markup:
        text = strip_markup(text)
    text = " ".join(filter(None, map(_token_memo(config), text.split())))
    if config.segment:
        text = segment(text, lexicon)
    return text


# Cap on the fixed-point iteration in `normalize`.  Real text settles in
# one or two passes; the cap only guards against pathological input.
_MAX_PASSES = 8


def _settled(text: str, config: NormConfig) -> bool:
    """Whether another pass of the chain would leave this pass output
    as it is (see the module docstring)."""
    if not config.remove_noise or config.segment:
        return False
    if not config.replace_entities or not _may_hold_entity(text):
        return True
    parts = _PLACEHOLDER_SPLIT_RE.split(text)
    return not any(_ENTITY_RE.search(part) for part in parts[::2])


def normalize(
    text: str,
    config: NormConfig | None = None,
    lexicon: SegmentLexicon = DEFAULT_LEXICON,
) -> str:
    """Run the full cleanup chain to a fixed point, segmenting (when
    config.segment is on) with lexicon and its overrides.

    After each pass the text is returned if the pass left it unchanged
    or if its output is settled.  With noise removal on and
    segmentation off, a second pass could change the output only
    through `replace_entities`, when a deletion spliced a URL or a space
    opened a `\\b` before a bare host (see the module docstring), so the
    output is settled when no entity matches outside its placeholders.
    Otherwise the chain runs again, at most _MAX_PASSES times in all.
    """
    if config is None:
        config = DEFAULT_CONFIG
    current = text
    for _ in range(_MAX_PASSES):
        nxt = _apply_stages(current, config, lexicon)
        if nxt == current or _settled(nxt, config):
            return nxt
        current = nxt
    return current


def load_lexicon(path: str) -> SegmentLexicon:
    """Read a clitic lexicon file with [prefixes] and [suffixes] sections,
    one entry per line, as read_sections reads it.  The lexicon has no
    overrides.  Raises ValueError at an entry before any section header
    and at a section that is neither."""
    preamble, sections = read_sections(path)
    if preamble:
        lineno, line = preamble[0]
        raise ValueError(f"{path}:{lineno}: entry {line!r} before any section header")
    entries: dict[str, list[str]] = {"prefixes": [], "suffixes": []}
    for lineno, name, lines in sections:
        if name not in entries:
            raise ValueError(f"{path}:{lineno}: unknown section {f'[{name}]'!r}")
        entries[name] += [line for _, line in lines]
    return SegmentLexicon(tuple(entries["prefixes"]), tuple(entries["suffixes"]))


def load_presegmented(path: str) -> dict[str, str]:
    """Read a two-column TSV mapping a raw token to its segmented form,
    the overrides of a SegmentLexicon.  Raises DuplicateId when a token
    has two rows."""
    return read_mapping(path, "token")
