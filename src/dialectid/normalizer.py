"""Tweet text cleanup.

The pipeline applies, in fixed order: markup stripping, replacement of
URLs / emails / mentions with Arabic placeholder tokens, noise filtering
against an allowed alphabet with repeated-character capping, whitespace
insertion at script boundaries, whitespace collapsing, and (optionally)
rule-based clitic segmentation.

Placeholder surfaces are protected spans: no downstream stage may alter
the bytes inside them. `normalize` returns a fixed point of the stage
chain: a text one more pass would leave as it is.  With noise removal
on and segmentation off, one pass usually gets there, and `normalize`
can tell without running a second:

- Once noise removal has run, no `<`, `>` or `&` is left, so
  `strip_markup` cannot fire.
- Deleting characters and capping runs give a text that noise removal
  leaves as it is.  So does `insert_spacing`, which never inserts next
  to whitespace or at either end.
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
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .corpus import read_pairs


# The placeholder surface that replaces each kind of entity, by its
# group name in _ENTITY_RE.
_SURFACE_BY_GROUP = {"url": "[رابط]", "email": "[بريد]", "mention": "[مستخدم]"}
PLACEHOLDERS = tuple(_SURFACE_BY_GROUP.values())


@dataclass(frozen=True, slots=True)
class NormConfig:
    """Stage toggles and the repeated-character cap.

    Whitespace collapsing has no toggle: the output is always single-space
    separated.  Noise removal collapses whitespace itself, so the
    separate collapsing stage runs only when noise removal is off.
    """

    strip_markup: bool = True
    replace_entities: bool = True
    remove_noise: bool = True
    insert_spacing: bool = True
    segment: bool = False
    max_repeat: int = 2

    def __post_init__(self) -> None:
        if self.max_repeat < 1:
            raise ValueError(f"max_repeat must be >= 1, got {self.max_repeat}")


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

_ARABIC_TOKEN_RE = re.compile("[" + _ARABIC_RANGES + "]+\\Z")


@dataclass(frozen=True)
class SegmentLexicon:
    """Clitic lists for the greedy segmenter, longest-first."""

    prefixes: tuple[str, ...]
    suffixes: tuple[str, ...]
    min_stem_len: int = 2

    def __post_init__(self) -> None:
        for name, entries in (("prefixes", self.prefixes), ("suffixes", self.suffixes)):
            if any(not e for e in entries):
                raise ValueError(f"empty string in lexicon {name}")
        if self.min_stem_len < 1:
            raise ValueError(f"min_stem_len must be >= 1, got {self.min_stem_len}")
        object.__setattr__(
            self, "prefixes", tuple(sorted(self.prefixes, key=len, reverse=True))
        )
        object.__setattr__(
            self, "suffixes", tuple(sorted(self.suffixes, key=len, reverse=True))
        )


DEFAULT_LEXICON = SegmentLexicon(
    prefixes=("و", "ف", "ب", "ك", "ل", "ال", "وال", "بال", "فال", "كال", "لل"),
    suffixes=("ها", "هم", "كم", "نا", "ك", "ه", "ي", "ات", "ون", "ين"),
)


def strip_markup(text: str) -> str:
    """Drop HTML tags (line breaks become a space) and decode the five
    common character entities. All other text passes through untouched."""
    text = _BR_TAG_RE.sub(" ", text)
    text = _HTML_TAG_RE.sub("", text)
    return _HTML_ENTITY_RE.sub(lambda m: _ENTITY_CHARS[m.group(1)], text)


def replace_entities(text: str) -> str:
    """Replace URLs, emails, and @mentions with placeholder tokens.

    A single left-to-right scan; at equal start positions URLs win over
    emails and emails over mentions, so an @ inside a URL never produces
    a mention placeholder.  No match runs into a placeholder already in
    the text, so a later normalize pass keeps an earlier pass's ones.
    """
    return _map_outside_placeholders(
        text, lambda part: _ENTITY_RE.sub(lambda m: _SURFACE_BY_GROUP[m.lastgroup], part)
    )


@lru_cache(maxsize=None)
def _long_run_re(max_repeat: int) -> re.Pattern[str]:
    """A run of one character longer than max_repeat."""
    return re.compile(rf"(.)\1{{{max_repeat},}}", re.DOTALL)


def _cap_runs(text: str, max_repeat: int) -> str:
    return _long_run_re(max_repeat).sub(lambda m: m.group(1) * max_repeat, text)


def _map_outside_placeholders(text: str, fn) -> str:
    parts = _PLACEHOLDER_SPLIT_RE.split(text)
    for i in range(0, len(parts), 2):
        parts[i] = fn(parts[i])
    return "".join(parts)


def remove_noise(text: str, max_repeat: int = 2) -> str:
    """Keep only the allowed alphabet, cap repeated-character runs, and
    collapse whitespace.

    Allowed: Arabic letters and diacritics, Arabic-Indic and ASCII
    digits, ASCII letters, square brackets, plus, whitespace, and the
    punctuation set . , ! ? : ; - _ ( ) /.  Runs longer than max_repeat
    of the same character are truncated to max_repeat.  Placeholder
    surfaces are left untouched and interrupt runs on either side.
    """
    if max_repeat < 1:
        raise ValueError(f"max_repeat must be >= 1, got {max_repeat}")
    cleaned = _map_outside_placeholders(
        text, lambda part: _cap_runs(_DISALLOWED_RE.sub("", part), max_repeat)
    )
    return _WS_RE.sub(" ", cleaned).strip()


def insert_spacing(text: str) -> str:
    """Insert one space at Arabic/digit and Arabic/ASCII-letter
    boundaries (both orders) and around stray square brackets.

    Placeholders are opaque: nothing is inserted inside them or at
    their seams, and existing spaces are never doubled.
    """
    return _map_outside_placeholders(text, lambda part: _SPACING_RE.sub(" ", part))


def collapse_whitespace(text: str) -> str:
    return _WS_RE.sub(" ", text).strip()


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


def segment(
    text: str,
    lexicon: SegmentLexicon | None = None,
    overrides: Mapping[str, str] | None = None,
) -> str:
    """Greedy clitic segmentation over whitespace tokens.

    At most one prefix and one suffix are peeled per token, longest
    match first, and only when the residual stem keeps min_stem_len
    characters.  Peeled clitics are emitted as `prefix+` / `+suffix`
    tokens; deleting the markers and spaces reconstructs the original
    token.  Tokens that are not purely Arabic letters pass through, as
    do tokens that already carry a marker or sit next to one (so the
    output is stable under re-segmentation).  An entry in `overrides`
    wins over the lexicon.
    """
    if lexicon is None:
        lexicon = DEFAULT_LEXICON
    tokens = text.split()
    out: list[str] = []
    for i, token in enumerate(tokens):
        if overrides is not None and token in overrides:
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


def _apply_stages(
    text: str,
    config: NormConfig,
    lexicon: SegmentLexicon,
    overrides: Mapping[str, str] | None,
) -> str:
    if config.strip_markup:
        text = strip_markup(text)
    if config.replace_entities:
        text = replace_entities(text)
    if config.remove_noise:
        text = remove_noise(text, config.max_repeat)
    if config.insert_spacing:
        text = insert_spacing(text)
    if not config.remove_noise:  # remove_noise collapsed it, and insert_spacing keeps it so
        text = collapse_whitespace(text)
    if config.segment:
        text = segment(text, lexicon, overrides)
    return text


# Cap on the fixed-point iteration in `normalize`.  Real text settles in
# one or two passes; the cap only guards against pathological input.
_MAX_PASSES = 8


def _settled(text: str, config: NormConfig) -> bool:
    """Whether another pass of the chain would leave this pass output
    as it is (see the module docstring).  Every entity needs an @, a /
    or www., so a text with none of them cannot match one."""
    if not config.remove_noise or config.segment:
        return False
    if not config.replace_entities or not ("@" in text or "/" in text or "www." in text):
        return True
    parts = _PLACEHOLDER_SPLIT_RE.split(text)
    return not any(_ENTITY_RE.search(part) for part in parts[::2])


def normalize(
    text: str,
    config: NormConfig | None = None,
    lexicon: SegmentLexicon | None = None,
    overrides: Mapping[str, str] | None = None,
) -> str:
    """Run the full cleanup chain to a fixed point.

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
    if lexicon is None:
        lexicon = DEFAULT_LEXICON
    current = text
    for _ in range(_MAX_PASSES):
        nxt = _apply_stages(current, config, lexicon, overrides)
        if nxt == current or _settled(nxt, config):
            return nxt
        current = nxt
    return current


def load_lexicon(path: str) -> SegmentLexicon:
    """Read a clitic lexicon file with [prefixes] and [suffixes] sections,
    one entry per line; blank lines and # comments are ignored."""
    prefixes: list[str] = []
    suffixes: list[str] = []
    target: list[str] | None = None
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line == "[prefixes]":
                target = prefixes
            elif line == "[suffixes]":
                target = suffixes
            elif target is None:
                raise ValueError(f"{path}: entry {line!r} before any section header")
            else:
                target.append(line)
    return SegmentLexicon(prefixes=tuple(prefixes), suffixes=tuple(suffixes))


def load_presegmented(path: str) -> dict[str, str]:
    """Read a two-column TSV mapping a raw token to its segmented form."""
    return {token: segmented for _, token, segmented in read_pairs(path)}
