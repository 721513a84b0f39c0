"""Deterministic synthetic fixtures used across the test suite.

Four artificial "dialects" are drawn from disjoint Arabic character
inventories, so character n-grams separate them perfectly and any
leak-free training run should score near 1.0 on held-out data.
"""

from __future__ import annotations

import os
import random

from fixtures import NADI_TRAIN_COUNTS

INVENTORIES = {
    "atlantis": "ابتث",
    "borealia": "جحخد",
    "cascadia": "رزسش",
    "dorsalia": "صضطظ",
}


def _tweet(rng: random.Random, alphabet: str) -> str:
    words = []
    for _ in range(rng.randint(4, 9)):
        length = rng.randint(2, 6)
        words.append("".join(rng.choice(alphabet) for _ in range(length)))
    return " ".join(words)


def write_dialect_corpus(
    directory: str,
    seed: int = 7,
    n_train: int = 200,
    n_dev: int = 50,
    n_test: int = 50,
) -> dict[str, str]:
    """Write train/dev/test TSVs plus a vocab file; returns their paths."""
    rng = random.Random(seed)
    paths = {}
    sizes = {"train": n_train, "dev": n_dev, "test": n_test}
    for split, per_class in sizes.items():
        path = os.path.join(directory, f"{split}.tsv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("id\ttweet\tcountry\tprovince\n")
            row = 0
            for country, alphabet in INVENTORIES.items():
                for _ in range(per_class):
                    fh.write(f"{split}-{row:05d}\t{_tweet(rng, alphabet)}\t{country}\t\n")
                    row += 1
        paths[split] = path
    vocab_path = os.path.join(directory, "vocab.tsv")
    with open(vocab_path, "w", encoding="utf-8", newline="") as fh:
        for country in INVENTORIES:
            fh.write(f"{country}_p\t{country}\n")
    paths["vocab"] = vocab_path
    return paths


def write_benchmark_config(
    directory: str,
    paths: dict[str, str],
    dim: int = 1 << 16,
    extra_experiments: str = "",
) -> str:
    """Write a two-experiment benchmark config over a dialect corpus."""
    config_path = os.path.join(directory, "bench.cfg")
    with open(config_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("format=1\n\n[data]\n")
        fh.write(f"train={paths['train']}\n")
        fh.write(f"dev={paths['dev']}\n")
        fh.write(f"test={paths['test']}\n")
        fh.write(f"vocab={paths['vocab']}\n")
        fh.write("level=country\nregister=da\nselection=weighted_f1\n")
        fh.write(f"\n[experiment trained]\ndim={dim}\nepochs=5\n")
        fh.write(f"\n[experiment control]\ndim={dim}\nepochs=0\n")
        if extra_experiments:
            fh.write(extra_experiments)
    return config_path


def write_country_split(path: str, counts: dict[str, int] | None = None) -> int:
    """Write a labeled split with the given per-country row counts,
    by default the NADI training counts."""
    if counts is None:
        counts = NADI_TRAIN_COUNTS
    total = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("id\ttweet\tcountry\tprovince\n")
        row = 0
        for country, count in counts.items():
            for _ in range(count):
                fh.write(f"t{row:06d}\tكلام من {country}\t{country}\t\n")
                row += 1
                total += 1
    return total
