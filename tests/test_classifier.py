import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dialectid.classifier import (
    HyperParams,
    LinearModel,
    batch_cross_entropy,
    forward,
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
)
from dialectid.features import SparseVector, empty_vector

from dense_oracle import dense_train


def sv(indices, values, dim):
    return SparseVector(
        indices=np.asarray(indices, dtype=np.int64),
        values=np.asarray(values, dtype=np.float64),
        dim=dim,
    )


def random_sv(rng, dim, max_nnz=4):
    nnz = rng.randint(0, min(max_nnz, dim))
    indices = sorted(rng.sample(range(dim), nnz))
    values = [rng.uniform(-2, 2) for _ in range(nnz)]
    return sv(indices, values, dim)


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


class TestForward:
    def test_zero_model_is_uniform(self):
        model = LinearModel(np.zeros((4, 8)), np.zeros(4), ["a", "b", "c", "d"])
        probs = forward(model, empty_vector(8))
        assert np.allclose(probs, 0.25, atol=1e-12)
        probs = forward(model, sv([2, 5], [1.0, -1.0], 8))
        assert np.allclose(probs, 0.25, atol=1e-12)

    def test_hand_computed_softmax(self):
        weights = np.array([[1.0, 0.0, 2.0, 0.0], [0.0, -1.0, 0.0, 3.0]])
        bias = np.array([0.5, -0.5])
        model = LinearModel(weights, bias, ["x", "y"])
        vector = sv([1, 3], [0.6, 0.8], 4)
        z0 = 0.0 * 0.6 + 0.0 * 0.8 + 0.5
        z1 = -1.0 * 0.6 + 3.0 * 0.8 - 0.5
        e0, e1 = math.exp(z0), math.exp(z1)
        probs = forward(model, vector)
        assert probs[0] == pytest.approx(e0 / (e0 + e1), abs=1e-12)
        assert probs[1] == pytest.approx(e1 / (e0 + e1), abs=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch(self):
        model = LinearModel(np.zeros((2, 8)), np.zeros(2), ["x", "y"])
        with pytest.raises(DimensionMismatch):
            forward(model, empty_vector(16))

    def test_large_logits_stay_finite(self):
        model = LinearModel(np.full((2, 4), 500.0), np.zeros(2), ["x", "y"])
        probs = forward(model, sv([0, 1], [2.0, 2.0], 4))
        assert np.isfinite(probs).all()


class TestPredict:
    def test_tie_breaks_to_lowest_class_index(self):
        model = LinearModel(np.zeros((3, 4)), np.zeros(3), ["c", "b", "a"])
        assert predict(model, empty_vector(4)) == "c"

    def test_tie_between_later_classes(self):
        weights = np.array([[0.0], [5.0], [5.0]])
        model = LinearModel(weights, np.zeros(3), ["p", "q", "r"])
        assert predict(model, sv([0], [1.0], 1)) == "q"

    def test_clear_winner(self):
        weights = np.array([[0.0, 1.0], [2.0, 0.0]])
        model = LinearModel(weights, np.zeros(2), ["low", "high"])
        assert predict(model, sv([0], [1.0], 2)) == "high"


class TestBatchCrossEntropy:
    def test_zero_weights_loss_is_log_num_classes(self):
        w = np.zeros((3, 4))
        b = np.zeros(3)
        batch = [(sv([1], [1.0], 4), 2)]
        loss, grad_w, grad_b = batch_cross_entropy(w, b, batch)
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
        batch = [(random_sv(rng, dim), rng.randrange(C)) for _ in range(5)]
        loss, grad_w, grad_b = batch_cross_entropy(w, b, batch)
        singles = [batch_cross_entropy(w, b, [ex]) for ex in batch]
        assert loss == pytest.approx(sum(s[0] for s in singles) / 5, rel=1e-12)
        assert np.allclose(grad_w, sum(s[1] for s in singles) / 5, atol=1e-12)
        assert np.allclose(grad_b, sum(s[2] for s in singles) / 5, atol=1e-12)

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
            batch = [
                (random_sv(rng, dim), rng.randrange(C))
                for _ in range(rng.randint(1, 6))
            ]
            _, grad_w, grad_b = batch_cross_entropy(w, b, batch)
            for i in range(C):
                for j in range(dim):
                    wp, wm = w.copy(), w.copy()
                    wp[i, j] += h
                    wm[i, j] -= h
                    fd = (
                        batch_cross_entropy(wp, b, batch)[0]
                        - batch_cross_entropy(wm, b, batch)[0]
                    ) / (2 * h)
                    assert abs(fd - grad_w[i, j]) <= 1e-5 * max(
                        1.0, abs(fd), abs(grad_w[i, j])
                    )
            for i in range(C):
                bp, bm = b.copy(), b.copy()
                bp[i] += h
                bm[i] -= h
                fd = (
                    batch_cross_entropy(w, bp, batch)[0]
                    - batch_cross_entropy(w, bm, batch)[0]
                ) / (2 * h)
                assert abs(fd - grad_b[i]) <= 1e-5 * max(1.0, abs(fd), abs(grad_b[i]))


def separable_examples(per_class=30, dim=8, num_classes=3):
    examples = []
    for c in range(num_classes):
        for k in range(per_class):
            weight = 1.0 + 0.01 * k
            examples.append((sv([c], [weight], dim), c))
    return examples


class TestTrain:
    def test_learns_separable_data(self):
        examples = separable_examples()
        model = train(examples, HyperParams(), num_classes=3, dim=8)
        hits = sum(
            predict(model, vec) == model.class_labels[y] for vec, y in examples
        )
        assert hits == len(examples)

    def test_zero_epochs_gives_zero_model(self):
        model = train(
            separable_examples(), HyperParams(epochs=0), num_classes=3, dim=8
        )
        assert np.all(model.weights == 0.0)
        assert np.all(model.bias == 0.0)
        assert model.epoch_losses == []

    def test_bit_reproducible(self):
        examples = separable_examples(per_class=13)
        a = train(examples, HyperParams(epochs=3, batch_size=7), num_classes=3, dim=8)
        b = train(examples, HyperParams(epochs=3, batch_size=7), num_classes=3, dim=8)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
        assert a.epoch_losses == b.epoch_losses

    def test_seed_changes_trajectory(self):
        examples = separable_examples(per_class=13)
        a = train(examples, HyperParams(epochs=1, batch_size=7), num_classes=3, dim=8)
        b = train(
            examples,
            HyperParams(epochs=1, batch_size=7, rng_seed=7),
            num_classes=3,
            dim=8,
        )
        assert not np.array_equal(a.weights, b.weights)

    def test_loss_decreases(self):
        model = train(separable_examples(), HyperParams(), num_classes=3, dim=8)
        assert len(model.epoch_losses) == 5
        assert model.epoch_losses[-1] < model.epoch_losses[0]
        assert model.epoch_losses[0] <= math.log(3) + 1e-9

    def test_l2_shrinks_weights(self):
        examples = separable_examples()
        loose = train(examples, HyperParams(l2=0.0), num_classes=3, dim=8)
        tight = train(examples, HyperParams(l2=0.05), num_classes=3, dim=8)
        assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)

    def test_short_final_batch(self):
        examples = separable_examples(per_class=5, num_classes=2)[:5]
        model = train(
            examples, HyperParams(epochs=2, batch_size=2), num_classes=2, dim=8
        )
        assert len(model.epoch_losses) == 2

    def test_default_and_custom_labels(self):
        examples = separable_examples(per_class=2)
        model = train(examples, HyperParams(epochs=1), num_classes=3, dim=8)
        assert model.class_labels == ["0", "1", "2"]
        named = train(
            examples,
            HyperParams(epochs=1),
            num_classes=3,
            dim=8,
            class_labels=["a", "b", "c"],
            feature_fingerprint="cafe",
        )
        assert named.class_labels == ["a", "b", "c"]
        assert named.feature_fingerprint == "cafe"

    def test_fallback_is_the_majority_class(self):
        # Class 2 is the most frequent; class 0 wins argmax(bias) of the
        # zero model, so only the counts can give 2.
        examples = [(empty_vector(4), y) for y in (0, 1, 2, 2, 1, 2)]
        model = train(examples, HyperParams(epochs=0), num_classes=3, dim=4)
        assert model.fallback_class == 2

    def test_fallback_tie_takes_the_lowest_index(self):
        examples = [(empty_vector(4), y) for y in (3, 1, 3, 1)]
        model = train(examples, HyperParams(epochs=1), num_classes=4, dim=4)
        assert model.fallback_class == 1

    def test_validation_errors(self):
        with pytest.raises(EmptyTrainingSet):
            train([], HyperParams(), num_classes=2, dim=4)
        with pytest.raises(ClassIndexOutOfRange):
            train([(empty_vector(4), 2)], HyperParams(), num_classes=2, dim=4)
        with pytest.raises(DimensionMismatch):
            train([(empty_vector(8), 0)], HyperParams(), num_classes=2, dim=4)
        with pytest.raises(ValueError):
            train(
                [(empty_vector(4), 0)],
                HyperParams(),
                num_classes=2,
                dim=4,
                class_labels=["only_one"],
            )


@st.composite
def training_problems(draw):
    """Small corpora and accepted hyperparameters for the oracle test."""
    dim = draw(st.integers(2, 1 << 12))
    num_classes = draw(st.integers(2, 6))
    n = draw(st.integers(1, 12))
    max_nnz = 0 if draw(st.integers(0, 9)) == 0 else min(6, dim)
    examples = []
    for _ in range(n):
        nnz = draw(st.integers(0, max_nnz))
        indices = sorted(
            draw(st.sets(st.integers(0, dim - 1), min_size=nnz, max_size=nnz))
        )
        values = draw(
            st.lists(st.floats(-2.0, 2.0), min_size=nnz, max_size=nnz)
        )
        examples.append((sv(indices, values, dim), draw(st.integers(0, num_classes - 1))))
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
    return examples, hp, num_classes, dim


class TestDenseOracle:
    # lr * l2 == 1 is the largest accepted decay: weights are wiped
    # before each update.
    @example(
        (
            separable_examples(per_class=4, dim=64),
            HyperParams(lr=2.0, l2=0.5, epochs=2, batch_size=3),
            3,
            64,
        )
    )
    @settings(max_examples=150, deadline=None)
    @given(training_problems())
    def test_train_equals_dense_sgd_bit_for_bit(self, problem):
        examples, hp, num_classes, dim = problem
        model = train(examples, hp, num_classes=num_classes, dim=dim)
        weights, bias, losses = dense_train(examples, hp, num_classes, dim)
        assert model.weights.shape == (num_classes, dim)
        assert model.weights.tobytes() == weights.tobytes()
        assert model.bias.tobytes() == bias.tobytes()
        assert model.epoch_losses == losses


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
