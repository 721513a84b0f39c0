"""Reference implementations for the normalizer tests.

insert_spacing is the spacing stage as it ran before it became one
lookaround regex: it walks each segment between placeholders and tests
every adjacent pair of characters.  normalizer.insert_spacing must match
it on every string.

normalize is the fixed-point loop as it ran before normalizer.normalize
learned to stop after a settled pass: it re-applies the whole stage
chain, whitespace collapsing included and runs capped by the old
every-run regex, until the text stops changing.  normalizer.normalize
must give the same bytes on every string and configuration.
"""

import re

from dialectid import normalizer
from dialectid.normalizer import DEFAULT_CONFIG, DEFAULT_LEXICON, PLACEHOLDERS

_ARABIC_SET = frozenset(
    [chr(c) for c in range(0x0621, 0x063B)]
    + [chr(c) for c in range(0x0640, 0x0653)]
    + ["ٰ"]
)
_DIGIT_SET = frozenset("0123456789٠١٢٣٤٥٦٧٨٩")
_ASCII_ALPHA_SET = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")

_PLACEHOLDER_SPLIT_RE = re.compile("(" + "|".join(re.escape(p) for p in PLACEHOLDERS) + ")")


def _boundary(a, b):
    if a.isspace() or b.isspace():
        return False
    if a in "[]" or b in "[]":
        return True
    if a in _ARABIC_SET:
        return b in _DIGIT_SET or b in _ASCII_ALPHA_SET
    if b in _ARABIC_SET:
        return a in _DIGIT_SET or a in _ASCII_ALPHA_SET
    return False


def _space_segment(segment):
    if len(segment) < 2:
        return segment
    out = [segment[0]]
    for ch in segment[1:]:
        if _boundary(out[-1], ch):
            out.append(" ")
        out.append(ch)
    return "".join(out)


def insert_spacing(text):
    parts = _PLACEHOLDER_SPLIT_RE.split(text)
    for i in range(0, len(parts), 2):
        parts[i] = _space_segment(parts[i])
    return "".join(parts)


_RUN_RE = re.compile(r"(.)\1+", re.DOTALL)
_WS_RE = re.compile(r"\s+")
_MAX_PASSES = 8


def _map_outside_placeholders(text, fn):
    parts = _PLACEHOLDER_SPLIT_RE.split(text)
    for i in range(0, len(parts), 2):
        parts[i] = fn(parts[i])
    return "".join(parts)


def remove_noise(text, max_repeat):
    def clean(part):
        part = normalizer._DISALLOWED_RE.sub("", part)
        return _RUN_RE.sub(lambda m: m.group(0)[:max_repeat], part)

    return _WS_RE.sub(" ", _map_outside_placeholders(text, clean)).strip()


def apply_stages(text, config, lexicon, overrides):
    if config.strip_markup:
        text = normalizer.strip_markup(text)
    if config.replace_entities:
        text = normalizer.replace_entities(text)
    if config.remove_noise:
        text = remove_noise(text, config.max_repeat)
    if config.insert_spacing:
        text = normalizer.insert_spacing(text)
    text = _WS_RE.sub(" ", text).strip()
    if config.segment:
        text = normalizer.segment(text, lexicon, overrides)
    return text


def normalize(text, config=DEFAULT_CONFIG, lexicon=DEFAULT_LEXICON, overrides=None):
    current = text
    for _ in range(_MAX_PASSES):
        nxt = apply_stages(current, config, lexicon, overrides)
        if nxt == current:
            return nxt
        current = nxt
    return current
