"""End-to-end acceptance checks.

Each test here covers one shipping requirement at its stated tolerance
and prints a single summary line with the measured numbers.  Run with
`pytest -v tests/test_acceptance.py`.
"""

import itertools
import random
import time

import numpy as np
import pytest

import dialectid.classifier
import dialectid.features
from dialectid import cli
from dialectid.classifier import batch_cross_entropy
from dialectid.corpus import LabelVocab, Register, load_corpus
from dialectid.evaluation import read_report, report
from dialectid.features import SparseVector
from dialectid.harness import finalize, parse_benchmark_file, run_grid
from dialectid.normalizer import NormConfig, normalize

import synthcorpus
from conftest import data_path


def announce(capsys, text):
    with capsys.disabled():
        print(f"\n[acceptance] PASS {text}")


# 1. golden normalization


def test_golden_normalization_byte_exact_under_one_second(capsys):
    cases = []
    configs = {
        "default": NormConfig(),
        "repeat1": NormConfig(max_repeat=1),
        "segment": NormConfig(segment=True),
        "nospacing": NormConfig(insert_spacing=False),
    }
    with open(data_path("normalization_golden.tsv"), encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            tag, text, expected = line.split("\t")
            cases.append((configs[tag], text, expected))
    assert len(cases) >= 60

    start = time.perf_counter()
    failures = [
        (text, expected, normalize(text, config))
        for config, text, expected in cases
        if normalize(text, config) != expected
    ]
    elapsed = time.perf_counter() - start
    assert not failures, failures[:5]
    assert elapsed < 1.0, f"golden set took {elapsed:.3f}s"
    announce(capsys, f"golden normalization: {len(cases)}/{len(cases)} byte-exact in {elapsed:.3f}s")


# 2. idempotence and alphabet closure at scale


_AR_LETTERS = "".join(chr(c) for c in range(0x0621, 0x063B))
_AR_MARKS = "".join(chr(c) for c in range(0x0640, 0x0653)) + "ٰ"
_ALLOWED = frozenset(
    _AR_LETTERS
    + _AR_MARKS
    + "0123456789"
    + "".join(chr(0x0660 + i) for i in range(10))
    + "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    + "[]+.,!?:;-_()/ "
)

_POOLS = [
    _AR_LETTERS,
    _AR_MARKS,
    "0123456789٠١٢٣٤٥٦٧٨٩",
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
    "😂🎉👍💔🤣😍",
    "#@&<>\"'~`^|\\{}*=%$",
    " \t\n ‏​",
    ".,!?:;-_()/[]+",
    "ÀéüßЖщΩλ中文ñ",
]

_CHUNKS = [
    "http://", "https://t.co/", "www.", "x.co/", "a.b@mail.com", "@user",
    "&lt;", "&amp;", "&nbsp;", "<br>", "<b>", "</div>", "[رابط]", "[بريد]",
    "[مستخدم]", "ههه", "وال", "كتاب", "ها", "ال",
]


def _random_string(rng):
    parts = []
    for _ in range(rng.randint(0, 10)):
        if rng.random() < 0.25:
            parts.append(rng.choice(_CHUNKS))
        else:
            pool = rng.choice(_POOLS)
            parts.append("".join(rng.choice(pool) for _ in range(rng.randint(1, 6))))
    return "".join(parts)


def test_idempotence_and_closure_over_ten_thousand_strings(capsys):
    configs = [
        NormConfig(),
        NormConfig(segment=True),
        NormConfig(max_repeat=1),
        NormConfig(insert_spacing=False),
    ]
    per_config = 2500
    rng = random.Random(20250604)
    violations = []
    start = time.perf_counter()
    checked = 0
    for config in configs:
        for _ in range(per_config):
            text = _random_string(rng)
            once = normalize(text, config)
            if normalize(once, config) != once:
                violations.append(("idempotence", config, text))
            if config.remove_noise and not set(once) <= _ALLOWED:
                violations.append(("alphabet", config, text))
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 10000
    assert not violations, violations[:5]
    assert elapsed < 30.0, f"{checked} strings took {elapsed:.1f}s"
    announce(
        capsys,
        f"idempotence and closure: 0 violations over {checked} strings in {elapsed:.1f}s",
    )


# 3. metrics against a brute-force oracle


def _oracle_metrics(gold, pred, labels):
    per = {}
    for lab in labels:
        tp = sum(1 for g, p in zip(gold, pred) if g == lab and p == lab)
        fp = sum(1 for g, p in zip(gold, pred) if g != lab and p == lab)
        fn = sum(1 for g, p in zip(gold, pred) if g == lab and p != lab)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per[lab] = (prec, rec, f1, tp + fn)
    k = len(labels)
    n = len(gold)
    return {
        "macro_precision": sum(v[0] for v in per.values()) / k,
        "macro_recall": sum(v[1] for v in per.values()) / k,
        "macro_f1": sum(v[2] for v in per.values()) / k,
        "weighted_f1": sum(v[2] * v[3] for v in per.values()) / n,
        "accuracy": sum(1 for g, p in zip(gold, pred) if g == p) / n,
    }


def test_metrics_match_oracle_on_200_instances(capsys):
    rng = random.Random(31337)
    worst = 0.0
    for _ in range(200):
        k = rng.randint(2, 6)
        labels = [f"L{i}" for i in range(k)]
        n = rng.randint(1, 50)
        gold = [rng.choice(labels) for _ in range(n)]
        pred = [rng.choice(labels) for _ in range(n)]
        rep = report(gold, pred, labels)
        want = _oracle_metrics(gold, pred, labels)
        got = {
            "macro_precision": rep.macro_precision,
            "macro_recall": rep.macro_recall,
            "macro_f1": rep.macro_f1,
            "weighted_f1": rep.weighted_f1,
            "accuracy": rep.accuracy,
        }
        for key in want:
            diff = abs(got[key] - want[key])
            worst = max(worst, diff)
            assert diff <= 1e-12, (key, got[key], want[key])

    fixture = report(["A", "A", "B"], ["A", "B", "B"], ["A", "B"])
    assert fixture.per_class[0].f1 == pytest.approx(2 / 3, abs=1e-15)
    assert fixture.per_class[1].f1 == pytest.approx(2 / 3, abs=1e-15)
    assert fixture.macro_f1 == pytest.approx(2 / 3, abs=1e-15)
    assert fixture.macro_precision == pytest.approx(0.75, abs=1e-15)
    assert fixture.macro_recall == pytest.approx(0.75, abs=1e-15)
    assert fixture.accuracy == pytest.approx(2 / 3, abs=1e-15)
    announce(
        capsys,
        f"metrics oracle: 200 instances, 5 aggregates each, max |diff| = {worst:.2e} (<= 1e-12)",
    )


# 4. analytic gradient against central differences


def test_gradient_matches_finite_differences_on_50_instances(capsys):
    rng = random.Random(777)
    h = 1e-6
    worst = 0.0
    for _ in range(50):
        dim = rng.randint(2, 20)
        num_classes = rng.randint(2, 4)
        weights = np.array(
            [[rng.uniform(-2, 2) for _ in range(dim)] for _ in range(num_classes)]
        )
        bias = np.array([rng.uniform(-2, 2) for _ in range(num_classes)])
        batch = []
        for _ in range(rng.randint(1, 8)):
            nnz = rng.randint(0, min(6, dim))
            indices = np.array(sorted(rng.sample(range(dim), nnz)), dtype=np.int64)
            values = np.array([rng.uniform(-2, 2) for _ in range(nnz)])
            batch.append(
                (SparseVector(indices=indices, values=values, dim=dim),
                 rng.randrange(num_classes))
            )
        _, grad_w, grad_b = batch_cross_entropy(weights, bias, batch)

        def loss_at(w, b):
            return batch_cross_entropy(w, b, batch)[0]

        for i in range(num_classes):
            for j in range(dim):
                wp, wm = weights.copy(), weights.copy()
                wp[i, j] += h
                wm[i, j] -= h
                fd = (loss_at(wp, bias) - loss_at(wm, bias)) / (2 * h)
                rel = abs(fd - grad_w[i, j]) / max(1.0, abs(fd), abs(grad_w[i, j]))
                worst = max(worst, rel)
                assert rel <= 1e-5, (i, j, fd, grad_w[i, j])
            bp, bm = bias.copy(), bias.copy()
            bp[i] += h
            bm[i] -= h
            fd = (loss_at(weights, bp) - loss_at(weights, bm)) / (2 * h)
            rel = abs(fd - grad_b[i]) / max(1.0, abs(fd), abs(grad_b[i]))
            worst = max(worst, rel)
            assert rel <= 1e-5, (i, fd, grad_b[i])
    announce(
        capsys,
        f"gradient check: 50 instances, every coordinate, max rel err = {worst:.2e} (<= 1e-5)",
    )


# 5. synthetic benchmark learns the dialects


def test_synthetic_benchmark_learns_and_control_does_not(tmp_path, capsys):
    start = time.perf_counter()
    paths = synthcorpus.write_dialect_corpus(str(tmp_path))
    config_path = synthcorpus.write_benchmark_config(str(tmp_path), paths)
    out_dir = tmp_path / "out"
    rc = cli.main(["benchmark", config_path, "--out-dir", str(out_dir)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert rc == 0, captured.err

    grid = {}
    lines = (out_dir / "grid.tsv").read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        name, wf1, acc, mf1, selected = line.split("\t")
        grid[name] = {"macro_f1": float(mf1), "selected": selected == "1"}
    assert grid["trained"]["selected"]
    assert grid["trained"]["macro_f1"] >= 0.95, grid
    assert grid["control"]["macro_f1"] <= 0.15, grid

    test_report = read_report(str(out_dir / "report.txt"))
    assert test_report.macro_f1 >= 0.95, test_report
    assert elapsed < 60.0, f"benchmark took {elapsed:.1f}s"
    announce(
        capsys,
        "synthetic benchmark: dev macro_f1 "
        f"{grid['trained']['macro_f1']:.4f} (trained) vs "
        f"{grid['control']['macro_f1']:.4f} (no training), "
        f"test macro_f1 {test_report.macro_f1:.4f}, {elapsed:.1f}s (< 60s)",
    )


# 6. stats on the country-count fixture


def test_stats_reproduces_country_counts(tmp_path, capsys):
    path = tmp_path / "train.tsv"
    total = synthcorpus.write_country_split(str(path))
    assert total == 21000
    rc = cli.main(["stats", "--in", str(path), "--level", "country"])
    out = capsys.readouterr().out
    assert rc == 0
    counts = {}
    for line in out.splitlines():
        label, value = line.split("\t")
        counts[label] = int(value)
    assert counts["Egypt"] == 4283
    assert counts["Iraq"] == 2729
    assert counts["Saudi_Arabia"] == 2140
    assert counts["Somalia"] == 172
    assert counts["total"] == 21000
    announce(
        capsys,
        "stats fixture: Egypt=4283 Iraq=2729 Saudi_Arabia=2140 Somalia=172 total=21000",
    )


# 7. byte-identical reruns


def test_two_benchmark_runs_are_byte_identical(tmp_path, capsys):
    paths = synthcorpus.write_dialect_corpus(
        str(tmp_path), seed=23, n_train=60, n_dev=15, n_test=15
    )
    config_path = synthcorpus.write_benchmark_config(
        str(tmp_path), paths, dim=1 << 14
    )
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    assert cli.main(["benchmark", config_path, "--out-dir", str(dir_a)]) == 0
    assert cli.main(["benchmark", config_path, "--out-dir", str(dir_b)]) == 0
    capsys.readouterr()
    compared = []
    for name in ("submission.csv", "model.bin", "grid.tsv", "idf.bin", "report.txt"):
        a = (dir_a / name).read_bytes()
        b = (dir_b / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
        compared.append(f"{name} ({len(a)}B)")
    announce(capsys, "deterministic reruns: " + ", ".join(compared) + " all byte-identical")


# 8. dev and test never leak into fitting


def test_fitting_sees_exactly_the_training_split(tmp_path, capsys, monkeypatch):
    paths = synthcorpus.write_dialect_corpus(
        str(tmp_path), seed=29, n_train=30, n_dev=10, n_test=10
    )
    config_path = synthcorpus.write_benchmark_config(str(tmp_path), paths, dim=1 << 13)
    spec = parse_benchmark_file(config_path)
    vocab = LabelVocab.from_file(paths["vocab"])
    train = load_corpus(paths["train"], Register.DA, vocab=vocab)
    dev = load_corpus(paths["dev"], Register.DA, vocab=vocab)
    test = load_corpus(paths["test"], Register.DA, vocab=vocab)

    idf_sizes = []
    train_sizes = []
    real_fit = dialectid.features.fit_idf
    real_train = dialectid.classifier.train

    def spy_fit(corpus, config):
        idf_sizes.append(len(corpus))
        return real_fit(corpus, config)

    def spy_train(examples, *args, **kwargs):
        train_sizes.append(len(examples))
        return real_train(examples, *args, **kwargs)

    monkeypatch.setattr(dialectid.features, "fit_idf", spy_fit)
    monkeypatch.setattr(dialectid.classifier, "train", spy_train)

    run_grid(train, dev, list(spec.experiments), vocab, spec.selection)
    n_experiments = len(spec.experiments)
    assert idf_sizes == [len(train)] * n_experiments, idf_sizes
    assert train_sizes == [len(train)] * n_experiments, train_sizes

    idf_sizes.clear()
    train_sizes.clear()
    finalize(train, dev, test, spec.experiments[0], vocab, str(tmp_path / "s.csv"))
    assert idf_sizes == [len(train) + len(dev)], idf_sizes
    assert train_sizes == [len(train) + len(dev)], train_sizes
    announce(
        capsys,
        f"no data leak: grid fits saw {len(train)} train docs only; "
        f"finalize refit on {len(train) + len(dev)} train+dev docs",
    )


# 9. predict on saved artifacts reproduces the benchmark's submission


def test_predict_on_benchmark_artifacts_matches_submission(tmp_path, capsys):
    # Egypt is the majority of train plus dev, while the untrained model's
    # argmax(bias) is class 0, Algeria.  The emoji-only row x0 normalizes
    # to nothing, so only the stored fallback class can label it Egypt.
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    train = write(
        "train.tsv",
        "id\ttweet\tcountry\n"
        "t0\tازيك يا باشا\tEgypt\nt1\tعامل ايه النهارده\tEgypt\n"
        "t2\tمش عارف والله\tEgypt\nt3\tواش راك خويا\tAlgeria\n"
        "t4\tشلونك عيني\tIraq\n",
    )
    dev = write("dev.tsv", "id\ttweet\tcountry\nd0\tايه ده\tEgypt\nd1\tشكو ماكو\tIraq\n")
    test = write("test.tsv", "id\ttweet\nx0\t😂😂\nx1\tازيك عامل ايه\nx2\t🙂 @user\n")
    config = write(
        "bench.cfg",
        f"format=1\n[data]\ntrain={train}\ndev={dev}\ntest={test}\n"
        "level=country\nregister=da\n[experiment untrained]\ndim=4096\nepochs=0\n",
    )
    out_dir = tmp_path / "out"
    assert cli.main(["benchmark", config, "--out-dir", str(out_dir)]) == 0
    served = tmp_path / "served.csv"
    rc = cli.main(
        [
            "--config", config,
            "predict",
            "--model", str(out_dir / "model.bin"),
            "--idf", str(out_dir / "idf.bin"),
            "--in", test,
            "--out", str(served),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    submission = (out_dir / "submission.csv").read_bytes()
    assert submission.decode("utf-8").splitlines()[0] == "x0,Egypt"
    assert served.read_bytes() == submission
    announce(
        capsys,
        "train/serve parity: predict on model.bin/idf.bin equals submission.csv "
        f"byte for byte ({len(submission)}B, emoji-only row -> Egypt)",
    )
