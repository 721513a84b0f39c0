"""README's examples run: the Python blocks under `## Library` execute
against the package, and every `dialectid …` line of its `sh` blocks
parses with the CLI's own parser, so a removed flag or a changed
signature fails here rather than in a reader's shell."""

import os
import re
import shlex

import pytest

from dialectid import cli, harness, normalizer
from dialectid.classifier import HyperParams
from dialectid.corpus import LabelVocab, TweetRecord
from dialectid.features import FeatureConfig

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def blocks(language, section=None):
    """The bodies of README's fenced blocks in language, only those
    under the `## section` heading when one is given."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    if section is not None:
        text = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.M | re.S)


def command_lines():
    """Every `dialectid …` command of the sh blocks, continuations joined."""
    for body in blocks("sh"):
        for line in body.replace("\\\n", " ").splitlines():
            if line.startswith("dialectid "):
                yield line


def test_experiment_keys_are_the_parsers():
    """The "Experiment keys:" paragraph lists the config parser's keys,
    in its order."""
    with open(README, encoding="utf-8") as fh:
        paragraph = fh.read().split("\nExperiment keys: ", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"`(\w+)`", paragraph) == list(harness._EXPERIMENT_KEYS)


def test_memo_bounds_are_the_normalizers():
    with open(README, encoding="utf-8") as fh:
        text = " ".join(fh.read().split())
    assert f"memo keeps the {normalizer._TOKEN_MEMO_SIZE:,} most recently used" in text
    assert f"only the {normalizer._MEMO_CONFIGS} most recently used configurations" in text


def test_readme_has_the_examples():
    assert len(blocks("python", "Library")) == 2
    assert sum(1 for _ in command_lines()) >= 8


@pytest.mark.parametrize("line", list(command_lines()))
def test_command_line_parses(line):
    args = cli.build_parser().parse_args(shlex.split(line)[1:])
    assert callable(args.func)


def test_library_example_runs():
    namespace = {}
    exec(blocks("python", "Library")[0], namespace)
    assert namespace["labels"] == ["EG", "SD"]


def test_harness_example_runs(tmp_path, monkeypatch):
    # The names the example leaves to the reader: two separable classes.
    def split(prefix, n):
        return [
            TweetRecord(f"{prefix}{country}{i}", text, country)
            for country, text in (("Egypt", "ازيك يا باشا"), ("Iraq", "شلونك عيني"))
            for i in range(n)
        ]

    namespace = {
        "train": split("t", 4),
        "dev": split("d", 2),
        "test": split("x", 2),
        "vocab": LabelVocab.countries_only(),
        "configs": [
            harness.ExperimentConfig(
                name=name, features=FeatureConfig(dim=1 << 10), hp=HyperParams(epochs=epochs)
            )
            for name, epochs in (("zero", 0), ("five", 5))
        ],
    }
    monkeypatch.chdir(tmp_path)
    exec(blocks("python", "Library")[1], namespace)
    assert namespace["best"].name == "five"
    assert namespace["result"].report.accuracy == 1.0
    assert (tmp_path / "submission.csv").exists()
