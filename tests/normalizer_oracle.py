"""Character-by-character reference for normalizer.insert_spacing.

The spacing stage as it ran before it became one lookaround regex: it
walks each segment between placeholders and tests every adjacent pair
of characters.  insert_spacing must match it on every string.
"""

import re

from dialectid.normalizer import PLACEHOLDERS

_ARABIC_SET = frozenset(
    [chr(c) for c in range(0x0621, 0x063B)]
    + [chr(c) for c in range(0x0640, 0x0653)]
    + ["ٰ"]
)
_DIGIT_SET = frozenset("0123456789٠١٢٣٤٥٦٧٨٩")
_ASCII_ALPHA_SET = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")

_PLACEHOLDER_SPLIT_RE = re.compile("(" + "|".join(re.escape(p.surface) for p in PLACEHOLDERS) + ")")


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
