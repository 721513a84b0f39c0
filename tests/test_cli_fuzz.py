"""Drawn configs, TSV files and artifacts through cli.main: benchmark,
stats, normalize and predict either succeed (exit 0) or fail as a data
error (exit 1 with an "error:" line), and no exception escapes main."""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dialectid import cli

import synthcorpus
from conftest import edit_one_place

COUNTRIES = list(synthcorpus.INVENTORIES)
HEADER = "id\ttweet\tcountry\tprovince"

# Cells that mean something to the loaders, and noise.
cells = st.one_of(
    st.sampled_from(["id", "tweet", "country", "province", "t1", "t2", "", " "]),
    st.sampled_from(COUNTRIES + [c + "_p" for c in COUNTRIES] + ["Egypt", "Nowhere"]),
    st.text(alphabet="ابتجرصض abc😀#@_\r\"'\x00", max_size=12),
)
tweets = st.text(alphabet="ابتثجحخدرزسشصضطظ @#😀", max_size=30)


@st.composite
def tsv_bytes(draw, whole=False, split="t"):
    """A split.  Whole: a header and labelled rows with ids of their own.
    Otherwise also rows of drawn cells, repeated ids, a province of
    another country, no header, CRLF, and bytes that are not UTF-8."""
    if whole:
        labelled = draw(st.lists(st.tuples(tweets, st.sampled_from(COUNTRIES)),
                                 min_size=1, max_size=8))
        lines = [f"{split}{i}\t{text}\t{country}\t" for i, (text, country) in enumerate(labelled)]
        return ("\n".join([HEADER] + lines) + "\n").encode("utf-8")
    lines = draw(st.lists(st.one_of(
        st.builds("{}\t{}\t{}\t{}".format, st.sampled_from(["t1", "t2", "t3"]), tweets,
                  st.sampled_from(COUNTRIES), st.sampled_from(["", COUNTRIES[0] + "_p"])),
        st.lists(cells, min_size=1, max_size=5).map("\t".join),
    ), max_size=8))
    if draw(st.booleans()):
        lines.insert(0, HEADER)
    blob = draw(st.sampled_from(["\n", "\r\n"])).join(lines).encode("utf-8")
    return blob + draw(st.sampled_from([b"", b"\n", b"\xff\n"]))


# Each experiment key's valid values, kept small so that a run stays
# fast and dim stays far below what the loaders would allocate, and
# its invalid ones.
EXPERIMENT_VALUES = {
    "dim": (["2", "16", "4096"], ["3", "0", "-8", "x", "4294967296"]),
    "n_min": (["1", "2"], ["0", "9"]),
    "n_max": (["3", "8"], ["9", "1.5"]),
    "hash_seed": ([], ["0"]),  # the features' bucket seed is no longer a key
    "pad_token": (["_", "ا"], ["ab", ""]),
    "epochs": (["0", "1", "2"], ["-1", "two"]),
    "batch_size": (["1", "3"], ["0"]),
    "max_seq_len": (["1", "8"], ["0"]),
    "learning_rate": (["0.1", "5", "1e300"], ["nan", "inf", "-1"]),
    "l2": (["0", "1e-6"], ["0.5", "nan", "inf"]),
    "seed": (["0", "-3"], ["x"]),
    "max_repeat": (["1", "2"], ["0"]),
    "segment": (["true", "false"], ["maybe"]),
    "insert_spacing": (["0", "1"], ["2"]),
    "bogus": ([], ["1"]),
}


def experiment_items(whole):
    """Up to four key=value lines of one experiment section."""
    keys = [key for key, (valid, _) in EXPERIMENT_VALUES.items() if valid or not whole]
    return st.lists(st.sampled_from(keys), unique=True, max_size=4).flatmap(
        lambda drawn: st.tuples(*(
            st.sampled_from(EXPERIMENT_VALUES[key][0] if whole else sum(EXPERIMENT_VALUES[key], []))
            .map(lambda value, key=key: f"{key}={value}")
            for key in drawn
        ))
    )


@st.composite
def config_text(draw, paths, whole):
    """A benchmark config over the given files.  Whole: valid lines
    only; otherwise a missing, broken or extra line here and there."""
    data = {
        "train": paths["train"], "dev": paths["dev"], "test": paths["test"],
        "vocab": paths["vocab"], "level": "country", "register": "da",
    }
    faults = st.just("keep") if whole else st.sampled_from(["keep"] * 6 + ["drop", "bad"])
    lines = [draw(st.sampled_from(["format=1"] if whole else ["format=1", "format=2", "[data]"]))]
    lines.append("[data]" if whole else draw(st.sampled_from(["[data]", "[dat", "key=value"])))
    for key, value in data.items():
        fault = draw(faults)
        if fault == "keep":
            lines.append(f"{key}={value}")
        elif fault == "bad":
            lines.append(f"{key}={draw(st.sampled_from(['', 'province', 'msa', '/no/such.tsv']))}")
    lines.extend(draw(st.lists(st.sampled_from(["selection=macro_f1", "selection=accuracy"]
                                                + ([] if whole else ["selection=best"])),
                               max_size=1)))
    names = draw(st.lists(st.sampled_from(["a", "b"] + ([] if whole else ["a", ""])),
                          min_size=1 if whole else 0, max_size=2, unique=whole))
    for name in names:
        lines.append(f"[experiment {name}]")
        lines.extend(draw(experiment_items(whole)))
    if not whole:
        lines.extend(draw(st.lists(st.sampled_from(["# note", "no equals", "dim=2"]), max_size=1)))
    return "\n".join(lines) + "\n"


WHOLE_VOCAB = "".join(f"{c}_p\t{c}\n" for c in COUNTRIES).encode("utf-8")
vocab_bytes = st.one_of(
    st.just(WHOLE_VOCAB),
    st.lists(st.lists(cells, min_size=1, max_size=3).map("\t".join), max_size=4).map(
        lambda lines: "\n".join(lines).encode("utf-8")
    ),
)


def write(directory, name, blob):
    path = os.path.join(directory, name)
    with open(path, "wb") as fh:
        fh.write(blob)
    return path


def run(argv):
    """Exit code and standard error of cli.main(argv)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 1), err
    assert "Traceback" not in err
    if code == 1:
        assert any(line.startswith("error: ") for line in err.splitlines()), err


FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(st.booleans(), st.data())
def test_benchmark_on_drawn_configs_and_splits(whole, data):
    with tempfile.TemporaryDirectory() as directory:
        paths = {
            split: write(directory, f"{split}.tsv", data.draw(tsv_bytes(whole, split), label=split))
            for split in ("train", "dev", "test")
        }
        vocab = WHOLE_VOCAB if whole else data.draw(vocab_bytes, label="vocab")
        paths["vocab"] = write(directory, "vocab.tsv", vocab)
        config = data.draw(config_text(paths, whole), label="config")
        argv = ["benchmark", write(directory, "bench.cfg", config.encode("utf-8")),
                "--out-dir", os.path.join(directory, "out")]
        assert_clean_exit(*run(argv))


@FUZZ
@given(st.one_of(tsv_bytes(whole=True), tsv_bytes()), vocab_bytes,
       st.sampled_from(["country", "province"]), st.booleans())
def test_stats_on_drawn_splits(split, vocab, level, with_vocab):
    with tempfile.TemporaryDirectory() as directory:
        argv = ["stats", "--in", write(directory, "split.tsv", split), "--level", level]
        if with_vocab:
            argv += ["--vocab", write(directory, "vocab.tsv", vocab)]
        assert_clean_exit(*run(argv))


@FUZZ
@given(st.one_of(tsv_bytes(whole=True), tsv_bytes()),
       st.sampled_from([[], ["--segment"], ["--no-spacing"], ["--max-repeat", "0"]]))
def test_normalize_on_drawn_files(split, flags):
    with tempfile.TemporaryDirectory() as directory:
        out = os.path.join(directory, "out.tsv")
        assert_clean_exit(*run(["normalize", "--in", write(directory, "in.tsv", split),
                                "--out", out, *flags]))


# The fits predict reads: (corpus seed, dim).  At dim 16 both files list
# more than a quarter of the buckets, at 4096 less; the two fits at 4096
# list other buckets.
FITS = {"full": (3, 16), "sparse": (3, 4096), "other": (5, 4096)}


@pytest.fixture(scope="module")
def fits(tmp_path_factory):
    """Each fit's model.bin and idf.bin bytes, and a split to label."""
    out = {}
    for name, (seed, dim) in FITS.items():
        directory = str(tmp_path_factory.mktemp(name))
        paths = synthcorpus.write_dialect_corpus(directory, seed=seed, n_train=3, n_dev=1,
                                                 n_test=1)
        config = synthcorpus.write_benchmark_config(directory, paths, dim=dim)
        files = [os.path.join(directory, "model.bin"), os.path.join(directory, "idf.bin")]
        code, err = run(["--config", config, "train", "--in", paths["train"], "--level",
                         "country", "--vocab", paths["vocab"], "--out-model", files[0],
                         "--out-idf", files[1]])
        assert code == 0, err
        out[name] = []
        for path in files:
            with open(path, "rb") as fh:
                out[name].append(fh.read())
    out["test"] = paths["test"]
    return out


@FUZZ
@given(st.data())
def test_predict_on_drawn_artifacts(fits, data):
    """A fit's files with one byte of either overwritten, cut or
    extended, or the model file of one fit and the idf file of another."""
    first = data.draw(st.sampled_from(sorted(FITS)), label="model fit")
    if data.draw(st.booleans(), label="edit"):
        model, idf = fits[first]
        if data.draw(st.booleans(), label="edit the model file"):
            model = edit_one_place(data.draw, model)
        else:
            idf = edit_one_place(data.draw, idf)
    else:
        second = data.draw(st.sampled_from(sorted(set(FITS) - {first})), label="idf fit")
        model, idf = fits[first][0], fits[second][1]
    with tempfile.TemporaryDirectory() as directory:
        argv = ["predict", "--model", write(directory, "model.bin", model),
                "--idf", write(directory, "idf.bin", idf), "--in", fits["test"],
                "--out", os.path.join(directory, "sub.csv")]
        assert_clean_exit(*run(argv))
