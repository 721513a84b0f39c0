"""Seeded, NADI-shaped fixtures for the benchmark workloads.

Every split is drawn from one random stream seeded by (workload, seed),
so the same pair always writes the same bytes.  Tweets mix a shared
Zipf-distributed vocabulary with per-country marker words; a share of
markers is borrowed from other countries, so the task is learnable but
not trivial and macro F1 says something.  The program sees only the
TSV and config files written here.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

# Dialectal-register training counts per country of the country-level
# task (21,000 tweets); only their proportions are used.
NADI_TRAIN_COUNTS = {
    "Algeria": 1809,
    "Bahrain": 215,
    "Djibouti": 215,
    "Egypt": 4283,
    "Iraq": 2729,
    "Jordan": 429,
    "Kuwait": 429,
    "Lebanon": 644,
    "Libya": 1286,
    "Mauritania": 215,
    "Morocco": 858,
    "Oman": 1501,
    "Palestine": 428,
    "Qatar": 215,
    "Saudi_Arabia": 2140,
    "Somalia": 172,
    "Sudan": 215,
    "Syria": 1287,
    "Tunisia": 859,
    "UAE": 642,
    "Yemen": 429,
}
COUNTRIES = tuple(NADI_TRAIN_COUNTS)
MAJORITY = max(COUNTRIES, key=NADI_TRAIN_COUNTS.get)

_LETTERS = "ابتثجحخدذرزسشصضطظعغفقكلمنهوي"
_LATIN = ("lol", "ok", "yes", "omg", "bro", "love", "haha", "wow", "sorry", "plz")
_EMOJI = "😂🔥❤👍😍🙏😭💔🤣✨👌😅"
_TAGS = (("<b>", "</b>"), ("<i>", "</i>"), ("<span class=\"x\">", "</span>"))
_ENTITIES = ("&amp;", "&quot;", "&lt;", "&gt;")

SHARED_WORDS = 3000
# Few, long markers per country: even the rarest country (0.8% of rows)
# then sees each of its markers in training, so macro F1 is high and
# moves little from seed to seed.
MARKERS_PER_COUNTRY = 4
MARKER_LEN = (5, 8)


@dataclass(frozen=True)
class Style:
    """Shape of the tweets of one split."""

    min_words: int
    max_words: int
    marker_rate: float  # share of words drawn from the country's markers
    borrow_rate: float  # share drawn from another country's markers
    noisy: bool
    emoji_only_rate: float  # share of rows that are emoji and nothing else


CLEAN = Style(min_words=5, max_words=12, marker_rate=0.4, borrow_rate=0.05,
              noisy=False, emoji_only_rate=0.0)
NOISY = Style(min_words=10, max_words=20, marker_rate=0.4, borrow_rate=0.05,
              noisy=True, emoji_only_rate=0.02)


@dataclass(frozen=True)
class Workload:
    command: str  # "benchmark" or "predict"
    style: Style
    sizes: dict  # rows per split: train, dev, test
    experiments: tuple  # (name, {key: value}) in config order
    balanced: bool = False  # equal rows per country instead of NADI proportions


# Sizes are set so that one command takes a few seconds on a 2-core
# machine: at dim 2^18 every SGD batch costs about 0.1 s of dense
# updates, whatever its size.
_FIT_DIM = 1 << 18
_GRID_DIM = 1 << 13
WORKLOADS = {
    "fit-nadi": Workload(
        command="benchmark",
        style=CLEAN,
        sizes={"train": 504, "dev": 126, "test": 630},
        experiments=(
            ("sgd", {"dim": _FIT_DIM, "epochs": 6, "batch_size": 126,
                     "learning_rate": 30.0}),
        ),
    ),
    "grid-wide": Workload(
        command="benchmark",
        style=NOISY,
        sizes={"train": 252, "dev": 84, "test": 378},
        experiments=(
            ("n25", {"n_min": 2, "n_max": 5, "dim": _GRID_DIM, "epochs": 2,
                     "learning_rate": 5.0, "batch_size": 10}),
            ("n13", {"n_min": 1, "n_max": 3, "dim": _GRID_DIM, "epochs": 2,
                     "learning_rate": 5.0, "batch_size": 10, "l2": 1e-5}),
            ("n36", {"n_min": 3, "n_max": 6, "dim": _GRID_DIM, "epochs": 2,
                     "learning_rate": 5.0, "batch_size": 10}),
            ("n24", {"n_min": 2, "n_max": 4, "dim": _GRID_DIM, "epochs": 2,
                     "learning_rate": 10.0, "batch_size": 20, "l2": 1e-4}),
        ),
        # At NADI proportions the rarest countries would get two training
        # rows here, and macro F1 would swing with the seed.
        balanced=True,
    ),
    # The set-up run fits the model whose artifacts `predict` then reads;
    # its test split is the split served.
    "serve": Workload(
        command="predict",
        style=NOISY,
        sizes={"train": 504, "dev": 126, "test": 1470},
        experiments=(
            ("served", {"dim": _FIT_DIM, "epochs": 6, "batch_size": 126,
                        "learning_rate": 30.0}),
        ),
    ),
}


def class_counts(total: int, balanced: bool = False) -> dict[str, int]:
    """Rows per country for a split of `total` rows, in NADI proportions
    (or equal shares) by largest remainder, with at least one row per
    country."""
    weights = {c: 1 for c in COUNTRIES} if balanced else NADI_TRAIN_COUNTS
    grand = sum(weights.values())
    exact = {c: total * n / grand for c, n in weights.items()}
    counts = {c: max(1, int(v)) for c, v in exact.items()}
    by_remainder = sorted(COUNTRIES, key=lambda c: (counts[c] - exact[c], COUNTRIES.index(c)))
    i = 0
    while sum(counts.values()) < total:
        counts[by_remainder[i % len(by_remainder)]] += 1
        i += 1
    return counts


def _unique_words(
    rng: random.Random, n: int, taken: set[str], shortest: int, longest: int
) -> list[str]:
    out = []
    while len(out) < n:
        word = "".join(rng.choice(_LETTERS) for _ in range(rng.randint(shortest, longest)))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


class Lexicon:
    def __init__(self, rng: random.Random) -> None:
        taken: set[str] = set()
        self.shared = _unique_words(rng, SHARED_WORDS, taken, 2, 7)
        # Zipf weights: the r-th most frequent word has weight 1 / r.
        total = 0.0
        self.cum_weights = []
        for rank in range(1, SHARED_WORDS + 1):
            total += 1.0 / rank
            self.cum_weights.append(total)
        self.markers = {
            c: _unique_words(rng, MARKERS_PER_COUNTRY, taken, *MARKER_LEN) for c in COUNTRIES
        }


def _elongate(rng: random.Random, word: str) -> str:
    i = rng.randrange(len(word))
    return word[:i] + word[i] * rng.randint(3, 8) + word[i + 1:]


def _noise_token(rng: random.Random) -> str:
    kind = rng.randrange(7)
    if kind == 0:
        return f"https://t.co/{rng.randrange(16 ** 8):08x}"
    if kind == 1:
        return f"@user_{rng.randrange(100000)}"
    if kind == 2:
        return "".join(rng.choice(_EMOJI) for _ in range(rng.randint(1, 4)))
    if kind == 3:
        return rng.choice(_LATIN)
    if kind == 4:
        return str(rng.randrange(1, 10 ** rng.randint(1, 5)))
    if kind == 5:
        return rng.choice(_ENTITIES)
    return f"www.site{rng.randrange(1000)}.com/p/{rng.randrange(10 ** 6)}"


def tweet(rng: random.Random, lex: Lexicon, country: str, style: Style, emoji_only: bool) -> str:
    if emoji_only:
        return " ".join(
            "".join(rng.choice(_EMOJI) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))
        )
    words = []
    for _ in range(rng.randint(style.min_words, style.max_words)):
        u = rng.random()
        if u < style.marker_rate:
            word = rng.choice(lex.markers[country])
        elif u < style.marker_rate + style.borrow_rate:
            word = rng.choice(lex.markers[rng.choice(COUNTRIES)])
        else:
            word = rng.choices(lex.shared, cum_weights=lex.cum_weights)[0]
        if style.noisy:
            v = rng.random()
            if v < 0.06:
                word = _elongate(rng, word)
            elif v < 0.10:
                word = word + rng.choice(_EMOJI)
        words.append(word)
        if style.noisy and rng.random() < 0.18:
            words.append(_noise_token(rng))
    if style.noisy and rng.random() < 0.5:
        i = rng.randrange(len(words))
        j = rng.randrange(i, len(words))
        open_tag, close_tag = rng.choice(_TAGS)
        words[i] = open_tag + words[i]
        words[j] = words[j] + close_tag
        if rng.random() < 0.5:
            words.insert(rng.randrange(len(words) + 1), "<br>")
    return " ".join(words)


@dataclass(frozen=True)
class Fixture:
    config_path: str
    experiment: str  # the experiment `predict` serves
    paths: dict  # split name -> TSV path
    test_ids: tuple
    test_gold: tuple
    fit_gold: tuple  # train + dev labels, the data the final model fits


def _write_split(path: str, split: str, rows: list[tuple[str, str]]) -> tuple[list, list]:
    ids, gold = [], []
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("id\ttweet\tcountry\tprovince\n")
        for i, (country, text) in enumerate(rows):
            rid = f"{split}-{i:06d}"
            fh.write(f"{rid}\t{text}\t{country}\t\n")
            ids.append(rid)
            gold.append(country)
    return ids, gold


def write_fixture(workload: str, seed: int, directory: str) -> Fixture:
    """Write train/dev/test TSVs and a benchmark config into directory."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    lex = Lexicon(rng)
    os.makedirs(directory, exist_ok=True)
    paths, written = {}, {}
    for split in ("train", "dev", "test"):
        size = spec.sizes[split]
        n_emoji = round(size * spec.style.emoji_only_rate)
        counts = class_counts(size - n_emoji, spec.balanced)
        labels = [(c, False) for c, n in counts.items() for _ in range(n)]
        labels += [(MAJORITY, True)] * n_emoji
        rng.shuffle(labels)
        rows = [(c, tweet(rng, lex, c, spec.style, emoji)) for c, emoji in labels]
        paths[split] = os.path.join(directory, f"{split}.tsv")
        written[split] = _write_split(paths[split], split, rows)

    config_path = os.path.join(directory, "bench.cfg")
    with open(config_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("format=1\n\n[data]\n")
        for split in ("train", "dev", "test"):
            fh.write(f"{split} = {paths[split]}\n")
        fh.write("level = country\nregister = da\nselection = macro_f1\n")
        for name, keys in spec.experiments:
            fh.write(f"\n[experiment {name}]\n")
            for key, value in keys.items():
                fh.write(f"{key} = {value}\n")
    return Fixture(
        config_path=config_path,
        experiment=spec.experiments[0][0],
        paths=paths,
        test_ids=tuple(written["test"][0]),
        test_gold=tuple(written["test"][1]),
        fit_gold=tuple(written["train"][1] + written["dev"][1]),
    )
