import math
import random
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dialectid import classifier
from dialectid.classifier import (
    HyperParams,
    LinearModel,
    batch_cross_entropy,
    load_model,
    predict,
    save_model,
    train,
)
from dialectid.errors import (
    ClassIndexOutOfRange,
    CorruptArtifact,
    DimensionMismatch,
    EmptyTrainingSet,
    LengthMismatch,
)

from conftest import csr
from dense_oracle import dense_train, take_rows


def random_map(rng, dim, max_nnz=4):
    nnz = rng.randint(0, min(max_nnz, dim))
    return {i: rng.uniform(-2, 2) for i in rng.sample(range(dim), nnz)}


def test_hyperparams_defaults():
    hp = HyperParams()
    assert hp.lr == 0.1
    assert hp.max_seq_len == 256
    assert hp.batch_size == 40
    assert hp.epochs == 5
    assert hp.l2 == 1e-6
    assert hp.rng_seed == 42


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(lr=0.0)
    with pytest.raises(ValueError):
        HyperParams(max_seq_len=0)
    with pytest.raises(ValueError):
        HyperParams(batch_size=0)
    with pytest.raises(ValueError):
        HyperParams(epochs=-1)
    with pytest.raises(ValueError):
        HyperParams(l2=-0.1)
    # A decay factor 1 - lr * l2 below zero would flip every weight's
    # sign on every batch.
    with pytest.raises(ValueError, match="lr \\* l2"):
        HyperParams(lr=30.0, l2=0.05)
    with pytest.raises(ValueError, match="lr \\* l2"):
        HyperParams(lr=2.0, l2=0.5000001)
    assert HyperParams(lr=2.0, l2=0.5).l2 == 0.5
    # Non-finite rates would only surface as a FloatingPointError after
    # the first epoch.
    for lr, l2 in [(math.nan, 1e-6), (math.inf, 0.0), (-math.inf, 0.0), (0.1, math.nan),
                   (0.1, math.inf)]:
        with pytest.raises(ValueError, match="finite"):
            HyperParams(lr=lr, l2=l2)


class TestPredict:
    def test_tie_breaks_to_lowest_class_index(self):
        model = LinearModel(np.zeros((4, 8)), np.zeros(4), ["a", "b", "c", "d"], fallback_class=3)
        rows = csr([{2: 1.0, 5: -1.0}, {0: 0.5}], 8)
        assert predict(model, rows).tolist() == [0, 0]

    def test_hand_computed_logits(self):
        weights = np.array([[1.0, 0.0, 2.0, 0.0], [0.0, -1.0, 0.0, 3.0]])
        bias = np.array([0.5, -0.5])
        model = LinearModel(weights, bias, ["x", "y"])
        # logits (0.5, 1.3), (1.5, -0.5) and (0.5, -0.6): the bias decides the last.
        rows = csr([{1: 0.6, 3: 0.8}, {0: 1.0}, {1: 0.1}], 4)
        assert predict(model, rows).tolist() == [1, 0, 0]

    def test_empty_rows_get_the_fallback_class(self):
        model = LinearModel(np.zeros((3, 4)), np.array([0.0, 9.0, 0.0]), ["a", "b", "c"],
                            fallback_class=2)
        rows = csr([{}, {1: 1.0}, {}], 4)
        assert predict(model, rows).tolist() == [2, 1, 2]
        assert predict(model, csr([], 4)).tolist() == []

    def test_dimension_mismatch(self):
        model = LinearModel(np.zeros((2, 8)), np.zeros(2), ["x", "y"])
        with pytest.raises(DimensionMismatch):
            predict(model, csr([{}], 16))

    def test_large_logits(self):
        model = LinearModel(np.full((2, 4), 500.0), np.array([0.0, 1.0]), ["x", "y"])
        assert predict(model, csr([{0: 2.0, 1: 2.0}], 4)).tolist() == [1]

    def test_tie_between_later_classes(self):
        weights = np.array([[0.0], [5.0], [5.0]])
        model = LinearModel(weights, np.zeros(3), ["p", "q", "r"])
        assert predict(model, csr([{0: 1.0}], 1)).tolist() == [1]

    def test_clear_winner(self):
        weights = np.array([[0.0, 1.0], [2.0, 0.0]])
        model = LinearModel(weights, np.zeros(2), ["low", "high"])
        assert predict(model, csr([{0: 1.0}], 2)).tolist() == [1]

    def test_block_matches_rows_one_at_a_time(self):
        rng = random.Random(12)
        dim = 16
        model = LinearModel(
            np.array([[rng.uniform(-2, 2) for _ in range(dim)] for _ in range(5)]),
            np.array([rng.uniform(-1, 1) for _ in range(5)]),
            list("abcde"),
        )
        maps = [random_map(rng, dim, max_nnz=6) for _ in range(40)]
        block = predict(model, csr(maps, dim))
        assert block.tolist() == [predict(model, csr([m], dim))[0] for m in maps]
        for m, c in zip(maps, block.tolist()):
            if m:
                logits = [sum(model.weights[k, i] * v for i, v in m.items()) + model.bias[k]
                          for k in range(5)]
                assert c == int(np.argmax(logits))


class TestBatchCrossEntropy:
    def test_zero_weights_loss_is_log_num_classes(self):
        w = np.zeros((3, 4))
        b = np.zeros(3)
        loss, grad_w, grad_b = batch_cross_entropy(w, b, csr([{1: 1.0}], 4), [2])
        assert loss == pytest.approx(math.log(3), abs=1e-12)
        expected_b = np.array([1 / 3, 1 / 3, 1 / 3 - 1.0])
        assert np.allclose(grad_b, expected_b, atol=1e-12)
        assert np.allclose(grad_w[:, 1], expected_b, atol=1e-12)
        assert np.all(grad_w[:, [0, 2, 3]] == 0.0)

    def test_batch_is_mean_of_singles(self):
        rng = random.Random(8)
        dim, C = 6, 3
        w = np.array([[rng.uniform(-1, 1) for _ in range(dim)] for _ in range(C)])
        b = np.array([rng.uniform(-1, 1) for _ in range(C)])
        rows = csr([random_map(rng, dim) for _ in range(5)], dim)
        y = [rng.randrange(C) for _ in range(5)]
        loss, grad_w, grad_b = batch_cross_entropy(w, b, rows, y)
        singles = [batch_cross_entropy(w, b, take_rows(rows, [i]), [y[i]]) for i in range(5)]
        assert loss == pytest.approx(sum(s[0] for s in singles) / 5, rel=1e-12)
        assert np.allclose(grad_w, sum(s[1] for s in singles) / 5, atol=1e-12)
        assert np.allclose(grad_b, sum(s[2] for s in singles) / 5, atol=1e-12)

    @pytest.mark.parametrize("y", [[0], [0, 1, 2]])
    def test_rows_and_classes_must_pair_up(self, y):
        w, b = np.zeros((3, 4)), np.zeros(3)
        with pytest.raises(ValueError):
            batch_cross_entropy(w, b, csr([{1: 1.0}, {2: 1.0}], 4), y)

    def test_gradient_matches_central_differences(self):
        rng = random.Random(41)
        h = 1e-6
        for _ in range(8):
            dim = rng.randint(2, 10)
            C = rng.randint(2, 4)
            w = np.array(
                [[rng.uniform(-1.5, 1.5) for _ in range(dim)] for _ in range(C)]
            )
            b = np.array([rng.uniform(-1.5, 1.5) for _ in range(C)])
            n = rng.randint(1, 6)
            batch = (csr([random_map(rng, dim) for _ in range(n)], dim),
                     [rng.randrange(C) for _ in range(n)])
            _, grad_w, grad_b = batch_cross_entropy(w, b, *batch)
            for i in range(C):
                for j in range(dim):
                    wp, wm = w.copy(), w.copy()
                    wp[i, j] += h
                    wm[i, j] -= h
                    fd = (
                        batch_cross_entropy(wp, b, *batch)[0]
                        - batch_cross_entropy(wm, b, *batch)[0]
                    ) / (2 * h)
                    assert abs(fd - grad_w[i, j]) <= 1e-5 * max(
                        1.0, abs(fd), abs(grad_w[i, j])
                    )
            for i in range(C):
                bp, bm = b.copy(), b.copy()
                bp[i] += h
                bm[i] -= h
                fd = (
                    batch_cross_entropy(w, bp, *batch)[0]
                    - batch_cross_entropy(w, bm, *batch)[0]
                ) / (2 * h)
                assert abs(fd - grad_b[i]) <= 1e-5 * max(1.0, abs(fd), abs(grad_b[i]))


def separable_examples(per_class=30, dim=8, num_classes=3):
    """(rows, y): per_class one-column rows of each class, column c for class c."""
    maps, y = [], []
    for c in range(num_classes):
        for k in range(per_class):
            maps.append({c: 1.0 + 0.01 * k})
            y.append(c)
    return csr(maps, dim), y


class TestTrain:
    def test_learns_separable_data(self):
        rows, y = separable_examples()
        model = train(rows, y, HyperParams(), num_classes=3)
        assert predict(model, rows).tolist() == y

    def test_zero_epochs_gives_zero_model(self):
        model = train(*separable_examples(), HyperParams(epochs=0), num_classes=3)
        assert np.all(model.weights == 0.0)
        assert np.all(model.bias == 0.0)
        assert model.epoch_losses == []

    def test_bit_reproducible(self):
        examples = separable_examples(per_class=13)
        a = train(*examples, HyperParams(epochs=3, batch_size=7), num_classes=3)
        b = train(*examples, HyperParams(epochs=3, batch_size=7), num_classes=3)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
        assert a.epoch_losses == b.epoch_losses

    def test_seed_changes_trajectory(self):
        examples = separable_examples(per_class=13)
        a = train(*examples, HyperParams(epochs=1, batch_size=7), num_classes=3)
        b = train(*examples, HyperParams(epochs=1, batch_size=7, rng_seed=7), num_classes=3)
        assert not np.array_equal(a.weights, b.weights)

    def test_loss_decreases(self):
        model = train(*separable_examples(), HyperParams(), num_classes=3)
        assert len(model.epoch_losses) == 5
        assert model.epoch_losses[-1] < model.epoch_losses[0]
        assert model.epoch_losses[0] <= math.log(3) + 1e-9

    def test_l2_shrinks_weights(self):
        examples = separable_examples()
        loose = train(*examples, HyperParams(l2=0.0), num_classes=3)
        tight = train(*examples, HyperParams(l2=0.05), num_classes=3)
        assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)

    def test_short_final_batch(self):
        rows, y = separable_examples(per_class=5, num_classes=2)
        model = train(take_rows(rows, range(5)), y[:5], HyperParams(epochs=2, batch_size=2),
                      num_classes=2)
        assert len(model.epoch_losses) == 2

    def test_default_and_custom_labels(self):
        examples = separable_examples(per_class=2)
        model = train(*examples, HyperParams(epochs=1), num_classes=3)
        assert model.class_labels == ["0", "1", "2"]
        assert model.dim == 8
        named = train(
            *examples,
            HyperParams(epochs=1),
            num_classes=3,
            class_labels=["a", "b", "c"],
            feature_fingerprint="cafe",
        )
        assert named.class_labels == ["a", "b", "c"]
        assert named.feature_fingerprint == "cafe"

    def test_fallback_is_the_majority_class(self):
        # Class 2 is the most frequent; class 0 wins argmax(bias) of the
        # zero model, so only the counts can give 2.
        model = train(csr([{}] * 6, 4), [0, 1, 2, 2, 1, 2], HyperParams(epochs=0), num_classes=3)
        assert model.fallback_class == 2

    def test_fallback_tie_takes_the_lowest_index(self):
        model = train(csr([{}] * 4, 4), [3, 1, 3, 1], HyperParams(epochs=1), num_classes=4)
        assert model.fallback_class == 1

    def test_validation_errors(self):
        with pytest.raises(EmptyTrainingSet):
            train(csr([], 4), [], HyperParams(), num_classes=2)
        with pytest.raises(ClassIndexOutOfRange):
            train(csr([{}], 4), [2], HyperParams(), num_classes=2)
        with pytest.raises(ClassIndexOutOfRange):
            train(csr([{}, {}], 4), [0, -1], HyperParams(), num_classes=2)
        with pytest.raises(LengthMismatch):
            train(csr([{}, {}], 4), [0], HyperParams(), num_classes=2)
        with pytest.raises(ValueError):
            train(
                csr([{}], 4),
                [0],
                HyperParams(),
                num_classes=2,
                class_labels=["only_one"],
            )


@st.composite
def training_problems(draw):
    """Small corpora and accepted hyperparameters for the oracle test."""
    dim = draw(st.integers(2, 1 << 12))
    num_classes = draw(st.integers(2, 6))
    n = draw(st.integers(1, 12))
    max_nnz = 0 if draw(st.integers(0, 9)) == 0 else min(6, dim)
    maps, y = [], []
    for _ in range(n):
        nnz = draw(st.integers(0, max_nnz))
        indices = draw(st.sets(st.integers(0, dim - 1), min_size=nnz, max_size=nnz))
        values = draw(
            st.lists(st.floats(-2.0, 2.0), min_size=nnz, max_size=nnz)
        )
        maps.append(dict(zip(sorted(indices), values)))
        y.append(draw(st.integers(0, num_classes - 1)))
    batch_size = draw(
        st.one_of(st.just(1), st.integers(1, n), st.integers(n + 1, n + 4))
    )
    lr = draw(st.floats(1e-3, 30.0))
    l2 = draw(st.one_of(st.just(0.0), st.just(1.0 / lr), st.floats(0.0, 1.0 / lr)))
    if lr * l2 > 1:
        l2 = 0.0
    hp = HyperParams(
        lr=lr,
        l2=l2,
        batch_size=batch_size,
        epochs=draw(st.integers(0, 3)),
        rng_seed=draw(st.integers(-5, 1 << 40)),
    )
    return csr(maps, dim), y, hp, num_classes


class TestDenseOracle:
    # Batched SGD sums each batch's gradient in another order than the
    # per-example oracle, so touched weights may differ in the last
    # bits.  Over 3,000 drawn problems the largest differences
    # were 3.6e-15 absolute and 1.4e-14 relative (|W| up to 58).
    RTOL = 1e-9
    ATOL = 1e-12

    # lr * l2 == 1 is the largest accepted decay: weights are wiped
    # before each update.
    @example(
        (
            *separable_examples(per_class=4, dim=64),
            HyperParams(lr=2.0, l2=0.5, epochs=2, batch_size=3),
            3,
        ),
        None,
    )
    # One batch of 12 rows over 3 columns, walked one row at a time.
    @example(
        (
            *separable_examples(per_class=4, dim=64),
            HyperParams(epochs=2, batch_size=12),
            3,
        ),
        1,
    )
    @settings(max_examples=150, deadline=None)
    @given(training_problems(), st.one_of(st.none(), st.integers(1, 40)))
    def test_train_matches_dense_sgd_within_tolerance(self, problem, block_elements):
        """block_elements, when drawn, shrinks the batch block bound so
        that a batch's rows are walked in several slices."""
        rows, y, hp, num_classes = problem
        if block_elements is None:
            model = train(rows, y, hp, num_classes=num_classes)
        else:
            with mock.patch.object(classifier, "_BLOCK_ELEMENTS", block_elements):
                model = train(rows, y, hp, num_classes=num_classes)
        weights, bias, losses = dense_train(rows, y, hp, num_classes)
        assert model.weights.shape == (num_classes, rows.dim)
        np.testing.assert_allclose(model.weights, weights, rtol=self.RTOL, atol=self.ATOL)
        np.testing.assert_allclose(model.bias, bias, rtol=self.RTOL, atol=self.ATOL)
        assert len(model.epoch_losses) == len(losses)
        for got, want in zip(model.epoch_losses, losses):
            assert got == pytest.approx(want, rel=self.RTOL)
        # Columns no example uses are exactly zero, not merely small.
        used = np.zeros(rows.dim, dtype=bool)
        used[rows.indices] = True
        assert np.all(model.weights[:, ~used] == 0.0)
        # Both pick the same class for every row.  An empty row's logits
        # are the bias, so there both take the argmax of their biases.
        oracle = LinearModel(weights, bias, model.class_labels)
        empty = np.diff(rows.indptr) == 0
        got, want = predict(model, rows), predict(oracle, rows)
        got[empty], want[empty] = np.argmax(model.bias), np.argmax(bias)
        assert np.array_equal(got, want)


class TestModelIo:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        model = LinearModel(
            weights=rng.normal(size=(3, 16)),
            bias=rng.normal(size=3),
            class_labels=["Egypt", "السودان", ""],
            fallback_class=2,
        )
        path = tmp_path / "m.bin"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.bias, model.bias)
        assert loaded.class_labels == model.class_labels
        assert loaded.fallback_class == 2
        assert loaded.feature_fingerprint == ""
        assert path.read_bytes()[:8] == b"NADIMDL2"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_model(str(path))

    def test_truncated_file(self, tmp_path):
        model = LinearModel(np.zeros((2, 4)), np.zeros(2), ["a", "b"])
        path = tmp_path / "t.bin"
        save_model(model, str(path))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            load_model(str(path))

    @pytest.mark.parametrize("layout", ["fortran", "float32", "big-endian"])
    def test_save_writes_the_row_major_float64_layout(self, tmp_path, layout):
        rng = np.random.default_rng(3)
        weights = rng.normal(size=(3, 10))
        bias = rng.normal(size=3)
        if layout == "fortran":
            weights = np.asfortranarray(weights)
        elif layout == "float32":
            weights, bias = weights.astype(np.float32), bias.astype(np.float32)
        else:
            weights, bias = weights.astype(">f8"), bias.astype(">f8")
        labels = ["a", "بب", ""]
        path = tmp_path / "m.bin"
        save_model(LinearModel(weights, bias, labels, fallback_class=1), str(path))
        header = b"NADIMDL2" + struct.pack("<III", 3, 10, 1)
        for label in labels:
            raw = label.encode("utf-8")
            header += struct.pack("<I", len(raw)) + raw
        expected = (
            header
            + weights.astype("<f8").tobytes(order="C")
            + bias.astype("<f8").tobytes()
        )
        assert path.read_bytes() == expected
        loaded = load_model(str(path))
        assert loaded.weights.flags.c_contiguous
        assert loaded.weights.tobytes() == weights.astype(np.float64).tobytes(order="C")
        assert loaded.bias.tobytes() == bias.astype(np.float64).tobytes()
        assert loaded.class_labels == labels
        assert loaded.fallback_class == 1

    def test_every_cut_is_corrupt(self, tmp_path):
        model = LinearModel(np.ones((2, 3)), np.zeros(2), ["ab", "c"])
        path = tmp_path / "m.bin"
        save_model(model, str(path))
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(CorruptArtifact):
                load_model(str(path))
        path.write_bytes(blob + b"\x00")
        with pytest.raises(CorruptArtifact, match="expected"):
            load_model(str(path))

    def test_label_longer_than_the_file(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(
            b"NADIMDL2" + struct.pack("<III", 1, 2, 0) + struct.pack("<I", 0xFFFFFFFF) + b"x"
        )
        with pytest.raises(CorruptArtifact, match="label 0"):
            load_model(str(path))

    def test_label_not_utf8(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(
            b"NADIMDL2" + struct.pack("<III", 1, 1, 0) + struct.pack("<I", 1) + b"\xff"
            + b"\x00" * 16
        )
        with pytest.raises(CorruptArtifact, match="UTF-8"):
            load_model(str(path))

    @pytest.mark.parametrize("fallback", [2, 3, 0xFFFFFFFF])
    def test_fallback_outside_the_classes(self, tmp_path, fallback):
        path = tmp_path / "m.bin"
        save_model(LinearModel(np.ones((2, 3)), np.zeros(2), ["a", "b"]), str(path))
        blob = bytearray(path.read_bytes())
        blob[16:20] = struct.pack("<I", fallback)
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptArtifact, match="fallback class"):
            load_model(str(path))

    def test_previous_format_is_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        save_model(LinearModel(np.ones((2, 3)), np.zeros(2), ["a", "b"]), str(path))
        path.write_bytes(b"NADIMDL1" + path.read_bytes()[8:])
        with pytest.raises(CorruptArtifact, match="magic"):
            load_model(str(path))
