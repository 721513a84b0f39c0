import math
import os
import random
import struct
import subprocess
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from dialectid import classifier
from dialectid.classifier import (
    HyperParams,
    LinearModel,
    epoch_order,
    load_model,
    logits,
    predict,
    save_model,
    train,
)
from dialectid.errors import (
    ClassIndexOutOfRange,
    CorruptArtifact,
    DimensionMismatch,
    DialectIdError,
    EmptyTrainingSet,
    LengthMismatch,
    TrainingDiverged,
)
from dialectid.features import FeatureConfig, column_table, corpus_counts, fit_idf

from conftest import csr, edit_one_place
from dense_oracle import (
    batch_cross_entropy,
    batched_sgd,
    dense_logits,
    dense_train,
    from_dense,
    idf_of,
    take_rows,
    to_dense,
    train_on,
)
from test_features import table_of
from test_memory import fit_nadi_finalize_corpus


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
        model = from_dense(np.zeros((4, 8)), np.zeros(4), ["a", "b", "c", "d"], fallback_class=3)
        rows = csr([{2: 1.0, 5: -1.0}, {0: 0.5}], 8)
        assert predict(model, rows).tolist() == [0, 0]

    def test_hand_computed_logits(self):
        weights = np.array([[1.0, 0.0, 2.0, 0.0], [0.0, -1.0, 0.0, 3.0]])
        bias = np.array([0.5, -0.5])
        model = from_dense(weights, bias, ["x", "y"])
        # logits (0.5, 1.3), (1.5, -0.5) and (0.5, -0.6): the bias decides the last.
        rows = csr([{1: 0.6, 3: 0.8}, {0: 1.0}, {1: 0.1}], 4)
        assert predict(model, rows).tolist() == [1, 0, 0]

    def test_empty_rows_get_the_fallback_class(self):
        model = from_dense(np.zeros((3, 4)), np.array([0.0, 9.0, 0.0]), ["a", "b", "c"],
                           fallback_class=2)
        rows = csr([{}, {1: 1.0}, {}], 4)
        assert predict(model, rows).tolist() == [2, 1, 2]
        assert predict(model, csr([], 4)).tolist() == []

    def test_dimension_mismatch(self):
        model = from_dense(np.zeros((2, 8)), np.zeros(2), ["x", "y"])
        with pytest.raises(DimensionMismatch):
            predict(model, csr([{}], 16))

    def test_large_logits(self):
        model = from_dense(np.full((2, 4), 500.0), np.array([0.0, 1.0]), ["x", "y"])
        assert predict(model, csr([{0: 2.0, 1: 2.0}], 4)).tolist() == [1]

    def test_tie_between_later_classes(self):
        weights = np.array([[0.0], [5.0], [5.0]])
        model = from_dense(weights, np.zeros(3), ["p", "q", "r"])
        assert predict(model, csr([{0: 1.0}], 1)).tolist() == [1]

    def test_clear_winner(self):
        weights = np.array([[0.0, 1.0], [2.0, 0.0]])
        model = from_dense(weights, np.zeros(2), ["low", "high"])
        assert predict(model, csr([{0: 1.0}], 2)).tolist() == [1]

    def test_block_matches_rows_one_at_a_time(self):
        rng = random.Random(12)
        dim = 16
        weights = np.array([[rng.uniform(-2, 2) for _ in range(dim)] for _ in range(5)])
        model = from_dense(weights, np.array([rng.uniform(-1, 1) for _ in range(5)]), list("abcde"))
        maps = [random_map(rng, dim, max_nnz=6) for _ in range(40)]
        block = predict(model, csr(maps, dim))
        assert block.tolist() == [predict(model, csr([m], dim))[0] for m in maps]
        for m, c in zip(maps, block.tolist()):
            if m:
                by_hand = [sum(weights[k, i] * v for i, v in m.items()) + model.bias[k]
                           for k in range(5)]
                assert c == int(np.argmax(by_hand))


    def test_kept_table_equals_the_built_one(self):
        rng = random.Random(5)
        dim = 32
        weights = np.array([[rng.uniform(-2, 2) for _ in range(dim)] for _ in range(3)])
        weights[:, ::3] = 0.0
        model = from_dense(weights, np.array([0.5, -0.5, 0.0]), list("abc"))
        rows = csr([random_map(rng, dim, max_nnz=6) for _ in range(20)], dim)
        first = logits(model, rows)
        assert model.idf.table is model.idf.table
        assert model.idf.table.tobytes() == column_table(model.idf.columns, dim).tobytes()
        assert logits(model, rows).tobytes() == first.tobytes()
        # A copy of the idf table builds its own.
        fresh = replace(model, idf=replace(model.idf))
        assert predict(fresh, rows).tolist() == predict(model, rows).tolist()
        assert fresh.idf.table is not model.idf.table


def test_column_table_maps_columns_to_positions_and_the_rest_to_k():
    table = column_table(np.array([1, 4, 6]), 8)
    assert table.dtype == np.int32
    assert table.tolist() == [3, 0, 3, 3, 1, 3, 2, 3]
    assert column_table(np.array([], dtype=np.int64), 4).tolist() == [0, 0, 0, 0]


class TestEpochOrder:
    # The splitmix64 stream of epoch_order's docstring in Python ints.
    @staticmethod
    def reference(rng_seed, epoch, n):
        mask = (1 << 64) - 1
        gamma = 0x9E3779B97F4A7C15

        def mix(z):
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        key = mix(mix(((rng_seed & mask) + gamma) & mask) ^ epoch)
        outputs = [mix((key + (i + 1) * gamma) & mask) for i in range(n)]
        return sorted(range(n), key=outputs.__getitem__)

    def test_golden_order(self):
        assert epoch_order(42, 0, 10).tolist() == [4, 7, 9, 1, 6, 3, 2, 0, 5, 8]

    @pytest.mark.parametrize("seed, epoch, n", [(42, 0, 10), (0, 5, 300), (-7, 2, 64),
                                                (1 << 63, 1, 33)])
    def test_matches_the_python_reference(self, seed, epoch, n):
        assert epoch_order(seed, epoch, n).tolist() == self.reference(seed, epoch, n)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 1000])
    def test_is_a_deterministic_permutation(self, n):
        order = epoch_order(11, 3, n)
        assert order.dtype == np.int64
        assert sorted(order.tolist()) == list(range(n))
        assert epoch_order(11, 3, n).tolist() == order.tolist()

    def test_differs_across_epochs_and_seeds(self):
        orders = {tuple(epoch_order(seed, epoch, 50).tolist())
                  for seed in (0, 1, 42, -1) for epoch in range(4)}
        assert len(orders) == 16

    def test_masks_negative_seeds(self):
        assert epoch_order(-1, 2, 40).tolist() == epoch_order((1 << 64) - 1, 2, 40).tolist()
        assert epoch_order(-5, 0, 40).tolist() == epoch_order((1 << 64) - 5, 0, 40).tolist()


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


def labels(num_classes):
    """The class labels "0", "1", ... of num_classes classes."""
    return [str(c) for c in range(num_classes)]


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
        model = train_on(rows, y, HyperParams(), labels(3))
        assert predict(model, rows).tolist() == y

    def test_zero_epochs_gives_zero_model(self):
        model = train_on(*separable_examples(), HyperParams(epochs=0), labels(3))
        assert np.all(model.weights == 0.0)
        assert np.all(model.bias == 0.0)
        assert model.epoch_losses == []

    def test_bit_reproducible(self):
        examples = separable_examples(per_class=13)
        a = train_on(*examples, HyperParams(epochs=3, batch_size=7), labels(3))
        b = train_on(*examples, HyperParams(epochs=3, batch_size=7), labels(3))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
        assert a.epoch_losses == b.epoch_losses

    def test_seed_changes_trajectory(self):
        examples = separable_examples(per_class=13)
        a = train_on(*examples, HyperParams(epochs=1, batch_size=7), labels(3))
        b = train_on(*examples, HyperParams(epochs=1, batch_size=7, rng_seed=7), labels(3))
        assert not np.array_equal(a.weights, b.weights)

    def test_loss_decreases(self):
        model = train_on(*separable_examples(), HyperParams(), labels(3))
        assert len(model.epoch_losses) == 5
        assert model.epoch_losses[-1] < model.epoch_losses[0]
        assert model.epoch_losses[0] <= math.log(3) + 1e-9

    def test_l2_shrinks_weights(self):
        examples = separable_examples()
        loose = train_on(*examples, HyperParams(l2=0.0), labels(3))
        tight = train_on(*examples, HyperParams(l2=0.05), labels(3))
        assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)

    def test_short_final_batch(self):
        rows, y = separable_examples(per_class=5, num_classes=2)
        model = train_on(take_rows(rows, range(5)), y[:5], HyperParams(epochs=2, batch_size=2),
                      labels(2))
        assert len(model.epoch_losses) == 2

    def test_default_and_custom_labels(self):
        examples = separable_examples(per_class=2)
        model = train_on(*examples, HyperParams(epochs=1), labels(3))
        assert model.class_labels == ["0", "1", "2"]
        assert model.idf.dim == 8
        named = train_on(
            *examples,
            HyperParams(epochs=1),
            class_labels=["a", "b", "c"],
            feature_fingerprint="cafe",
        )
        assert named.class_labels == ["a", "b", "c"]
        assert named.feature_fingerprint == "cafe"

    def test_fallback_is_the_majority_class(self):
        # Class 2 is the most frequent; class 0 wins argmax(bias) of the
        # zero model, so only the counts can give 2.
        model = train_on(csr([{}] * 6, 4), [0, 1, 2, 2, 1, 2], HyperParams(epochs=0), labels(3))
        assert model.fallback_class == 2

    def test_fallback_tie_takes_the_lowest_index(self):
        model = train_on(csr([{}] * 4, 4), [3, 1, 3, 1], HyperParams(epochs=1), labels(4))
        assert model.fallback_class == 1

    def test_validation_errors(self):
        with pytest.raises(EmptyTrainingSet):
            train_on(csr([], 4), [], HyperParams(), labels(2))
        with pytest.raises(ClassIndexOutOfRange):
            train_on(csr([{}], 4), [2], HyperParams(), labels(2))
        with pytest.raises(ClassIndexOutOfRange):
            train_on(csr([{}, {}], 4), [0, -1], HyperParams(), labels(2))
        with pytest.raises(LengthMismatch):
            train_on(csr([{}, {}], 4), [0], HyperParams(), labels(2))

    def test_arguments_but_rows_are_keyword_only(self):
        rows, y = separable_examples(per_class=2)
        with pytest.raises(TypeError):
            train(rows, y, HyperParams(), labels(3), idf_of([0, 1, 2], 8))

    def test_divergence_is_a_data_error(self):
        # At learning rate 1e308 the weights overflow in the second epoch.
        rows = csr([{0: 1.0, 1: 0.5}, {0: 0.5, 1: 1.0}, {1: 1.0, 2: 1.0}], 8)
        hp = HyperParams(lr=1e308, l2=0.0, epochs=6, batch_size=1)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as caught:
            train_on(rows, [0, 1, 2], hp, labels(3))
        assert str(caught.value) == "non-finite parameters after epoch 1"
        assert isinstance(caught.value, DialectIdError)
        assert isinstance(caught.value, FloatingPointError)

    @pytest.mark.parametrize("epochs", [1, 0])
    def test_rows_outside_the_idf_table(self, epochs):
        # Checked before any batch: with no epochs there is none.
        rows, y = separable_examples(per_class=2)
        hp = HyperParams(epochs=epochs)
        with pytest.raises(DimensionMismatch, match="dim 8 != idf dim 16"):
            train(rows, y=y, hp=hp, class_labels=labels(3), idf=idf_of([0, 1, 2], 16))
        # Bucket 2 is not a column of the table.
        with pytest.raises(DimensionMismatch, match="outside"):
            train(rows, y=y, hp=hp, class_labels=labels(3), idf=idf_of([0, 1, 5], 8))

    def test_idf_columns_the_rows_do_not_use_stay_zero(self):
        # The rows use columns 0, 1 and 2 of the table's five; the two
        # others weigh 0.0, and the rest equals the fit over 0, 1, 2.
        rows, y = separable_examples(per_class=5)
        hp = HyperParams(epochs=2, batch_size=4)
        own = train_on(rows, y, hp, labels(3))
        wide = train(rows, y=y, hp=hp, class_labels=labels(3), idf=idf_of([0, 1, 2, 5, 7], 8))
        assert wide.weights.shape == (5, 3)
        assert np.all(wide.weights[3:] == 0.0)
        assert wide.weights[:3].tobytes() == own.weights.tobytes()
        assert wide.bias.tobytes() == own.bias.tobytes()
        assert logits(wide, rows).tobytes() == logits(own, rows).tobytes()


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


def tied_bias_problem():
    """A problem where train ends with the biases of classes 1 and 2
    equal and the dense oracle with class 2's 4e-16 above class 1's,
    run with _BLOCK_ELEMENTS = 10: the argmax of an empty row differs."""
    rows = csr([{}, {0: 0.0}, {}, {}, {1: 0.0, 2: 0.0}], 5)
    hp = HyperParams(lr=13.125, l2=0.0, epochs=2, batch_size=5, rng_seed=2)
    return rows, [2, 0, 0, 1, 0], hp, 6


class TestDenseOracle:
    # Batched SGD sums each batch's gradient in another order than the
    # per-example oracle, and scales it by the weight scale, so touched
    # weights may differ in the last bits.  In three runs of 3,000 drawn
    # problems the largest differences were 1.4e-14 to 3.9e-13 absolute
    # (|W| up to 60), and none used more than 3e-5 of its allowance
    # ATOL + RTOL * |W|.
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
    # Two biases tie to rounding: their argmax is not compared.
    @example(tied_bias_problem(), 10)
    @settings(max_examples=150, deadline=None)
    @given(training_problems(), st.one_of(st.none(), st.integers(1, 40)))
    def test_train_matches_dense_sgd_within_tolerance(self, problem, block_elements):
        """block_elements, when drawn, shrinks the batch block bound so
        that a batch's rows are walked in several slices."""
        rows, y, hp, num_classes = problem
        if block_elements is None:
            model = train_on(rows, y, hp, labels(num_classes))
        else:
            with mock.patch.object(classifier, "_BLOCK_ELEMENTS", block_elements):
                model = train_on(rows, y, hp, labels(num_classes))
        weights, bias, losses = dense_train(rows, y, hp, num_classes)
        # The model stores exactly the columns some example uses, and the
        # dense oracle keeps every other column exactly 0.0.
        columns = model.idf.columns
        assert np.array_equal(columns, np.unique(rows.indices))
        assert model.weights.shape == (columns.size, num_classes)
        assert model.idf.dim == rows.dim
        assert np.all(np.delete(weights, columns, axis=1) == 0.0)
        np.testing.assert_allclose(
            model.weights, weights[:, columns].T, rtol=self.RTOL, atol=self.ATOL
        )
        np.testing.assert_allclose(model.bias, bias, rtol=self.RTOL, atol=self.ATOL)
        assert len(model.epoch_losses) == len(losses)
        for got, want in zip(model.epoch_losses, losses):
            assert got == pytest.approx(want, rel=self.RTOL)
        # Both pick the same class for every row whose top two oracle
        # logits are further apart than the tolerance (an empty row's
        # logits are the bias).  Closer ones may swap by rounding.
        got, want = logits(model, rows), dense_logits(weights, bias, rows)
        top = np.sort(want, axis=1)[:, -2:]
        clear = top[:, 1] - top[:, 0] > self.ATOL + self.RTOL * np.abs(top[:, 1])
        assert np.array_equal(got.argmax(axis=1)[clear], want.argmax(axis=1)[clear])


@pytest.fixture(scope="module")
def fit_nadi_corpus(tmp_path_factory):
    return fit_nadi_finalize_corpus(str(tmp_path_factory.mktemp("fit-nadi")))


# The workload's bound, one slice per batch of 126; and one under which
# each batch takes about 13 slices of about 10 rows over its about 4,900
# columns, whose sizes vary, so the block must grow after the first.
@pytest.mark.parametrize("block_elements", [classifier._BLOCK_ELEMENTS, 50_000])
def test_train_equals_batched_oracle_bit_for_bit(fit_nadi_corpus, block_elements):
    rows, y, config, labels, idf = fit_nadi_corpus
    hp = config.hp
    assert hp.batch_size == 126
    with mock.patch.object(classifier, "_BLOCK_ELEMENTS", block_elements):
        model = train(rows, y=y, hp=hp, class_labels=labels, idf=idf)
    weights, bias, losses, sizes = batched_sgd(
        rows, np.asarray(y), hp, len(labels), block_elements
    )
    batches = hp.epochs * -(-len(rows) // hp.batch_size)
    if block_elements == classifier._BLOCK_ELEMENTS:
        assert len(sizes) == batches
    else:
        assert len(sizes) > 10 * batches
    assert max(sizes) > sizes[0]
    assert model.weights.tobytes() == weights.tobytes()
    assert model.bias.tobytes() == bias.tobytes()
    assert model.epoch_losses == losses


def test_train_equals_batched_oracle_on_one_blas_thread(tmp_path):
    # OpenBLAS reads its thread count once, when numpy loads it, so a
    # fresh interpreter trains under OPENBLAS_NUM_THREADS=1.  There a
    # gradient product summed in another order than train's (block.T @
    # probs for probs.T @ block) changed bits at the workload's bound.
    script = (
        "import numpy as np\n"
        "from dialectid import classifier\n"
        "from dense_oracle import batched_sgd\n"
        "from test_memory import fit_nadi_finalize_corpus\n"
        f"rows, y, config, labels, idf = fit_nadi_finalize_corpus({str(tmp_path)!r})\n"
        "model = classifier.train(rows, y=y, hp=config.hp, class_labels=labels, idf=idf)\n"
        "weights, bias, losses, _ = batched_sgd(\n"
        "    rows, np.asarray(y), config.hp, len(labels), classifier._BLOCK_ELEMENTS\n"
        ")\n"
        "print(model.weights.tobytes() == weights.tobytes(),\n"
        "      model.bias.tobytes() == bias.tobytes(), model.epoch_losses == losses)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(classifier.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    bench = os.path.join(os.path.dirname(tests), "bench")
    path = os.pathsep.join(p for p in (src, tests, bench, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "True"]


def overlapping_examples(per_class=6, dim=16, num_classes=3):
    """(rows, y): rows of two or three columns each, shared across the
    classes, so that batches touch overlapping column sets."""
    rng = random.Random(23)
    maps, y = [], []
    for c in range(num_classes):
        for _ in range(per_class):
            picks = rng.sample(range(dim), rng.randint(2, 3))
            maps.append({i: rng.uniform(0.5, 1.5) for i in [c, *picks]})
            y.append(c)
    return csr(maps, dim), y


def assert_matches_both_oracles(rows, y, hp, num_classes):
    model = train_on(rows, y, hp, labels(num_classes))
    weights, bias, losses, _ = batched_sgd(
        rows, np.asarray(y), hp, num_classes, classifier._BLOCK_ELEMENTS
    )
    assert model.weights.tobytes() == weights.tobytes()
    assert model.bias.tobytes() == bias.tobytes()
    assert model.epoch_losses == losses
    dense_w, dense_b, dense_losses = dense_train(rows, y, hp, num_classes)
    rtol, atol = TestDenseOracle.RTOL, TestDenseOracle.ATOL
    np.testing.assert_allclose(
        model.weights, dense_w[:, model.idf.columns].T, rtol=rtol, atol=atol
    )
    np.testing.assert_allclose(model.bias, dense_b, rtol=rtol, atol=atol)
    assert model.epoch_losses == pytest.approx(dense_losses, rel=rtol)
    return model


def test_decay_zero_wipes_the_weights_before_each_update():
    # lr * l2 == 1: the scale is 0.0 after every batch and is folded
    # into the weights before the update would divide by it.
    rows, y = overlapping_examples()
    hp = HyperParams(lr=2.0, l2=0.5, epochs=3, batch_size=4)
    assert 1.0 - hp.lr * hp.l2 == 0.0
    model = assert_matches_both_oracles(rows, y, hp, 3)
    assert np.all(np.isfinite(model.weights))
    # Only the last batch's update survives its wipe.
    last = epoch_order(hp.rng_seed, hp.epochs - 1, len(rows))[-(len(rows) % 4 or 4):]
    kept = np.unique(take_rows(rows, last).indices)
    np.testing.assert_array_equal(
        np.flatnonzero(np.any(model.weights != 0.0, axis=1)),
        np.searchsorted(model.idf.columns, kept),
    )


def test_scale_folded_partway_through():
    # decay 0.75: the scale falls below 1e-6 after 49 of the 54 batches
    # (0.75**48 = 1.0e-6 and 0.75**49 = 7.5e-7), is folded there, and
    # the run goes on from 1.0.
    rows, y = overlapping_examples()
    hp = HyperParams(lr=0.5, l2=0.5, epochs=3, batch_size=1)
    decay = 1.0 - hp.lr * hp.l2
    batches = hp.epochs * len(rows)
    crossed = next(k for k in range(1, batches + 1) if decay**k < 1e-6)
    assert (crossed, batches) == (49, 54)
    assert_matches_both_oracles(rows, y, hp, 3)


@st.composite
def sparse_models_and_rows(draw):
    """A sparse model (K = 0 included) or a whole one (all dim columns
    stored), and rows whose entries fall on stored and unstored
    buckets, with empty rows and rows on unstored buckets only among
    them."""
    dim = draw(st.integers(1, 64))
    num_classes = draw(st.integers(1, 5))
    if draw(st.booleans()):
        columns = list(range(dim))
    else:
        columns = sorted(draw(st.sets(st.integers(0, dim - 1))))
    finite = st.floats(-1e3, 1e3)
    weights = draw(st.lists(finite, min_size=len(columns) * num_classes,
                            max_size=len(columns) * num_classes))
    bias = draw(st.lists(finite, min_size=num_classes, max_size=num_classes))
    model = LinearModel(
        weights=np.array(weights, dtype=np.float64).reshape(len(columns), num_classes),
        bias=np.array(bias),
        class_labels=[str(c) for c in range(num_classes)],
        idf=idf_of(columns, dim),
        fallback_class=draw(st.integers(0, num_classes - 1)),
    )
    maps = draw(st.lists(st.dictionaries(st.integers(0, dim - 1), finite), max_size=8))
    unstored = sorted(set(range(dim)).difference(columns))
    if unstored:
        maps += draw(st.lists(
            st.dictionaries(st.sampled_from(unstored), finite, min_size=1), max_size=3
        ))
    return model, csr(maps, dim)


# One class and a row of ten stored entries (and two unstored ones)
# whose terms cancel: summed left to right the row's logit is 8.5, but
# numpy's pairwise sum, which np.add.reduce runs along an axis of one
# class, gives 7.5.
ONE_CLASS_CANCELLING = (
    LinearModel(
        weights=np.array([1.0] * 8 + [0.5, 3.0]).reshape(10, 1),
        bias=np.array([0.0]),
        class_labels=["0"],
        idf=idf_of(range(10), 12),
    ),
    csr([{0: 1e16, 1: 1.0, 2: -1e16, **{b: 1.0 for b in range(3, 12)}}], 12),
)


# No shrink phase: a failing example is reported as found, since
# shrinking one of these ran for minutes at hundreds of MB.
@settings(max_examples=200, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
@given(sparse_models_and_rows())
@example(ONE_CLASS_CANCELLING)
def test_predict_matches_dense_oracle(problem):
    model, rows = problem
    want = dense_logits(to_dense(model), model.bias, rows)
    assert logits(model, rows).tobytes() == want.tobytes()
    classes = want.argmax(axis=1)
    classes[np.diff(rows.indptr) == 0] = model.fallback_class
    assert predict(model, rows).tolist() == classes.tolist()


@pytest.mark.parametrize("num_classes", [1, 2, 21, 100])
def test_logits_of_long_rows_match_dense_oracle(num_classes):
    # Rows of 200-400 entries, about a third on buckets the model does
    # not store, and an empty row; weights and values span twelve
    # orders of magnitude, so a sum in any other order than the
    # oracle's left to right changes bits.
    rng = np.random.default_rng(num_classes)
    dim = 2048
    columns = np.sort(rng.choice(dim, size=1400, replace=False))
    magnitudes = 10.0 ** rng.integers(-6, 6, size=(columns.size, num_classes))
    model = LinearModel(
        weights=rng.normal(size=(columns.size, num_classes)) * magnitudes,
        bias=rng.normal(size=num_classes),
        class_labels=[str(c) for c in range(num_classes)],
        idf=idf_of(columns, dim),
    )
    maps = [
        dict(zip(rng.choice(dim, size=size, replace=False).tolist(),
                 (rng.normal(size=size) * 10.0 ** rng.integers(-3, 3, size=size)).tolist()))
        for size in rng.integers(200, 401, size=12)
    ]
    rows = csr(maps[:5] + [{}] + maps[5:], dim)
    got = logits(model, rows)
    assert got.tobytes() == dense_logits(to_dense(model), model.bias, rows).tobytes()
    assert got[5].tobytes() == model.bias.tobytes()


def small_model(dim=8, **fields):
    """Two classes over dim buckets, columns 1, 4 and 6 stored."""
    return LinearModel(
        weights=np.arange(6, dtype=np.float64).reshape(3, 2) - 2.5,
        bias=np.array([0.25, -0.5]),
        class_labels=["ab", "c"],
        idf=idf_of([1, 4, 6], dim),
        **fields,
    )


def model_bytes(num_classes, dim, fallback, columns, labels=None, fingerprint=""):
    """A NADIMDL3 file with zero weights and biases over the sorted
    buckets columns; labels default to "0", "1", ..."""
    if labels is None:
        labels = [str(c) for c in range(num_classes)]
    blob = b"NADIMDL3" + struct.pack("<IIII", num_classes, dim, fallback, len(columns))
    for text in [*labels, fingerprint]:
        raw = text.encode("utf-8")
        blob += struct.pack("<I", len(raw)) + raw
    blob += np.array(columns, dtype="<u4").tobytes()
    return blob + bytes(8 * (len(columns) + 1) * num_classes)


def idf_bytes(dim, doc_count, ids, df):
    """A NADIIDF2 file listing the bucket ids; or, when ids is None, a
    table written whole, no ids and df the document frequency of every
    bucket, as earlier versions wrote one more than a quarter full."""
    blob = b"NADIIDF2" + struct.pack("<III", dim, doc_count, len(df if ids is None else ids))
    if ids is not None:
        blob += np.array(ids, dtype="<u4").tobytes()
    return blob + np.array(df, dtype="<u4").tobytes()


def idf_file(idf):
    """The idf file of a table."""
    return idf_bytes(idf.dim, idf.doc_count, idf.columns, idf.df)


def saved(model, tmp_path):
    """The (model file, idf file) paths save_model wrote model to."""
    paths = str(tmp_path / "m.bin"), str(tmp_path / "idf.bin")
    save_model(model, *paths)
    return paths


def written(tmp_path, blob, idf):
    """The paths of a model file of blob and the idf file of idf."""
    (tmp_path / "m.bin").write_bytes(blob)
    (tmp_path / "idf.bin").write_bytes(idf_file(idf))
    return str(tmp_path / "m.bin"), str(tmp_path / "idf.bin")


def assert_same_idf(loaded, idf):
    assert (loaded.doc_count, loaded.dim) == (idf.doc_count, idf.dim)
    assert loaded.columns.tobytes() == idf.columns.astype(np.int64).tobytes()
    assert loaded.df.tobytes() == idf.df.astype(np.int64).tobytes()
    assert loaded.weights.tobytes() == idf.weights.tobytes()


class TestModelIo:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        model = LinearModel(
            weights=rng.normal(size=(4, 3)),
            bias=rng.normal(size=3),
            class_labels=["Egypt", "السودان", ""],
            idf=idf_of([0, 3, 7, 15], 16),
            feature_fingerprint="0123456789abcdef",
            fallback_class=2,
        )
        model_path, idf_path = saved(model, tmp_path)
        loaded = load_model(model_path, idf_path)
        assert_same_idf(loaded.idf, model.idf)
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.bias, model.bias)
        assert loaded.class_labels == model.class_labels
        assert loaded.fallback_class == 2
        assert loaded.feature_fingerprint == "0123456789abcdef"
        with open(model_path, "rb") as fh:
            assert fh.read(8) == b"NADIMDL3"
        # 4 of 16 buckets, no more than a quarter: the idf file lists them.
        with open(idf_path, "rb") as fh:
            assert fh.read() == idf_bytes(16, 1, [0, 3, 7, 15], [1, 1, 1, 1])

    def test_no_columns_round_trip(self, tmp_path):
        model = train_on(csr([{}, {}], 4), [1, 1], HyperParams(epochs=1), labels(2))
        assert model.idf.columns.size == 0 and model.weights.shape == (0, 2)
        loaded = load_model(*saved(model, tmp_path))
        assert loaded.weights.shape == (0, 2)
        # Bucket 3 is not stored, so the second row's logits are the bias.
        assert loaded.bias[1] > loaded.bias[0]
        assert predict(loaded, csr([{}, {3: 1.0}], 4)).tolist() == [1, 1]

    def test_bad_magic(self, tmp_path):
        paths = written(tmp_path, b"WRONGMAG" + b"\x00" * 32, idf_of([], 8))
        with pytest.raises(ValueError, match="magic"):
            load_model(*paths)

    def test_truncated_file(self, tmp_path):
        model_path, idf_path = saved(small_model(), tmp_path)
        with open(model_path, "rb") as fh:
            blob = fh.read()
        with open(model_path, "wb") as fh:
            fh.write(blob[:-8])
        with pytest.raises(ValueError):
            load_model(model_path, idf_path)

    @pytest.mark.parametrize("layout", ["fortran", "float32", "big-endian"])
    def test_save_writes_the_row_major_float64_layout(self, tmp_path, layout):
        rng = np.random.default_rng(3)
        weights = rng.normal(size=(4, 3))
        bias = rng.normal(size=3)
        if layout == "fortran":
            weights = np.asfortranarray(weights)
        elif layout == "float32":
            weights, bias = weights.astype(np.float32), bias.astype(np.float32)
        else:
            weights, bias = weights.astype(">f8"), bias.astype(">f8")
        labels = ["a", "بب", ""]
        # 4 of 16 columns, no more than a quarter: the file lists them.
        model = LinearModel(weights, bias, labels, idf_of([2, 3, 5, 9], 16),
                            feature_fingerprint="f00d", fallback_class=1)
        model_path, idf_path = saved(model, tmp_path)
        header = b"NADIMDL3" + struct.pack("<IIII", 3, 16, 1, 4)
        for text in labels + ["f00d"]:
            raw = text.encode("utf-8")
            header += struct.pack("<I", len(raw)) + raw
        expected = (
            header
            + struct.pack("<IIII", 2, 3, 5, 9)
            + weights.astype("<f8").tobytes(order="C")
            + bias.astype("<f8").tobytes()
        )
        assert (tmp_path / "m.bin").read_bytes() == expected
        loaded = load_model(model_path, idf_path)
        assert loaded.weights.flags.c_contiguous
        assert loaded.weights.tobytes() == weights.astype(np.float64).tobytes(order="C")
        assert loaded.bias.tobytes() == bias.astype(np.float64).tobytes()
        assert loaded.class_labels == labels
        assert loaded.fallback_class == 1

    def test_fuller_model_lists_its_columns(self, tmp_path):
        # 3 of 8 columns, more than a quarter: both files list the 3 ids
        # and hold 3 rows.
        model = small_model(feature_fingerprint="beef", fallback_class=1)
        paths = saved(model, tmp_path)
        blob = b"NADIMDL3" + struct.pack("<IIII", 2, 8, 1, 3)
        for text in ["ab", "c", "beef"]:
            blob += struct.pack("<I", len(text)) + text.encode("utf-8")
        blob += struct.pack("<III", 1, 4, 6)
        blob += model.weights.astype("<f8").tobytes() + model.bias.astype("<f8").tobytes()
        idf_blob = idf_bytes(8, 1, [1, 4, 6], [1, 1, 1])
        assert (tmp_path / "m.bin").read_bytes() == blob
        assert (tmp_path / "idf.bin").read_bytes() == idf_blob
        # It loads as the model it was saved from, weights of 1, 4, 6.
        loaded = load_model(*paths)
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert_same_idf(loaded.idf, model.idf)
        assert (loaded.feature_fingerprint, loaded.fallback_class) == ("beef", 1)
        rows = csr([{1: 0.5, 2: 1.0}, {4: 2.0, 7: 3.0}, {6: 1.0}, {}], 8)
        assert logits(loaded, rows).tobytes() == logits(model, rows).tobytes()
        save_model(loaded, *paths)
        assert (tmp_path / "m.bin").read_bytes() == blob
        assert (tmp_path / "idf.bin").read_bytes() == idf_blob

    def test_whole_files_of_earlier_versions_are_rejected(self, tmp_path):
        # Earlier versions wrote a table more than a quarter full whole:
        # a row for every bucket and no ids.  Neither file has the size
        # its header gives, and the one at fault is named.
        model = small_model(feature_fingerprint="beef", fallback_class=1)
        model_path, idf_path = saved(model, tmp_path)
        sparse_idf = (tmp_path / "idf.bin").read_bytes()
        (tmp_path / "idf.bin").write_bytes(idf_bytes(8, 1, None, [0, 1, 0, 0, 1, 0, 1, 0]))
        with pytest.raises(CorruptArtifact, match=f"{idf_path}: expected 84 bytes, found 52"):
            load_model(model_path, idf_path)
        dense = np.zeros((8, 2))
        dense[[1, 4, 6]] = model.weights
        blob = b"NADIMDL3" + struct.pack("<IIII", 2, 8, 1, 8)
        for text in ["ab", "c", "beef"]:
            blob += struct.pack("<I", len(text)) + text.encode("utf-8")
        blob += dense.astype("<f8").tobytes() + model.bias.astype("<f8").tobytes()
        (tmp_path / "m.bin").write_bytes(blob)
        (tmp_path / "idf.bin").write_bytes(sparse_idf)
        with pytest.raises(CorruptArtifact, match=f"{model_path}: expected 219 bytes, found 187"):
            load_model(model_path, idf_path)

    def test_dim_other_than_the_idf_tables(self, tmp_path):
        model_path, idf_path = saved(small_model(16), tmp_path)
        (tmp_path / "idf.bin").write_bytes(idf_file(idf_of([1, 4, 6], 32)))
        with pytest.raises(DimensionMismatch, match="model dim 16 does not match idf dim 32"):
            load_model(model_path, idf_path)

    # The file is over columns 1, 4 and 6, no more than a quarter of dim
    # 16 and more than a quarter of dim 8; each table lists other columns.
    @pytest.mark.parametrize("dim, columns", [
        (16, [1, 4, 7]), (16, [1, 4]), (16, [1, 4, 6, 9]), (8, [1, 4, 5]), (8, [1]),
    ])
    def test_idf_of_another_fit(self, tmp_path, dim, columns):
        model = small_model(dim)
        model_path, idf_path = saved(model, tmp_path)
        (tmp_path / "idf.bin").write_bytes(idf_file(idf_of(columns, dim)))
        with pytest.raises(DialectIdError, match="not fitted together"):
            load_model(model_path, idf_path)

    @pytest.mark.parametrize("dim", [8, 16])  # 3 columns of 8, of 16
    def test_every_cut_is_corrupt(self, tmp_path, dim):
        model_path, idf_path = saved(small_model(dim, feature_fingerprint="beef"), tmp_path)
        path = tmp_path / "m.bin"
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(CorruptArtifact):
                load_model(model_path, idf_path)
        path.write_bytes(blob + b"\x00")
        with pytest.raises(CorruptArtifact, match="expected"):
            load_model(model_path, idf_path)

    def test_label_longer_than_the_file(self, tmp_path):
        blob = (
            b"NADIMDL3" + struct.pack("<IIII", 1, 2, 0, 0) + struct.pack("<I", 0xFFFFFFFF) + b"x"
        )
        with pytest.raises(CorruptArtifact, match="label 0"):
            load_model(*written(tmp_path, blob, idf_of([], 2)))

    # The one-byte label "x" sits at byte 28, the fingerprint "x" at 33.
    @pytest.mark.parametrize("what, at", [("label 0", 28), ("the feature fingerprint", 33)])
    def test_text_not_utf8(self, tmp_path, what, at):
        blob = bytearray(model_bytes(1, 4, 0, [], ["x"], "x"))
        assert blob[at:at + 1] == b"x"
        blob[at] = 0xFF
        with pytest.raises(CorruptArtifact, match=f"{what} is not UTF-8"):
            load_model(*written(tmp_path, bytes(blob), idf_of([], 4)))

    @pytest.mark.parametrize("fallback", [2, 3, 0xFFFFFFFF])
    def test_fallback_outside_the_classes(self, tmp_path, fallback):
        paths = saved(small_model(), tmp_path)
        path = tmp_path / "m.bin"
        blob = bytearray(path.read_bytes())
        blob[16:20] = struct.pack("<I", fallback)
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptArtifact, match="fallback class"):
            load_model(*paths)

    @pytest.mark.parametrize("dim, columns, match", [
        (8, [1, 1], "strictly increasing"),
        (8, [4, 2], "strictly increasing"),
        (8, [3, 8], "below 8"),
        (8, [0xFFFFFFFF], "below 8"),
        (2, [0, 1, 2], "3 columns for dim 2"),
    ])
    def test_bad_columns(self, tmp_path, dim, columns, match):
        with pytest.raises(CorruptArtifact, match=match):
            load_model(*written(tmp_path, model_bytes(2, dim, 0, columns), idf_of([], dim)))

    @pytest.mark.parametrize("dim", [8, 16])  # 3 columns of 8, of 16
    @pytest.mark.parametrize("field", ["weights", "bias"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters(self, tmp_path, dim, field, value):
        model = small_model(dim)
        getattr(model, field).flat[1] = value
        with pytest.raises(CorruptArtifact, match="not finite"):
            load_model(*saved(model, tmp_path))

    @pytest.mark.parametrize("magic", [b"NADIMDL1", b"NADIMDL2"])
    def test_previous_formats_are_rejected(self, tmp_path, magic):
        paths = saved(small_model(), tmp_path)
        path = tmp_path / "m.bin"
        path.write_bytes(magic + path.read_bytes()[8:])
        with pytest.raises(CorruptArtifact, match="magic"):
            load_model(*paths)


def zero_model(idf, num_classes=2):
    """A model of zero weights and biases over the columns of idf."""
    return LinearModel(
        weights=np.zeros((idf.columns.size, num_classes)),
        bias=np.zeros(num_classes),
        class_labels=labels(num_classes),
        idf=idf,
    )


def load_idf_file(tmp_path, blob):
    """The idf table load_model reads from an idf file of blob."""
    (tmp_path / "idf.bin").write_bytes(blob)
    return classifier._read_idf(str(tmp_path / "idf.bin"))


class TestIdfIo:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        df = rng.integers(0, 124, size=64) * (rng.random(64) < 0.5)
        table = table_of(df, 123)
        loaded = load_model(*saved(zero_model(table), tmp_path)).idf
        assert (loaded.doc_count, loaded.dim) == (123, 64)
        assert loaded.columns.tolist() == np.flatnonzero(df).tolist()
        assert loaded.df.tobytes() == table.df.tobytes()
        assert loaded.weights.tobytes() == table.weights.tobytes()
        # More than a quarter of the buckets are occupied; the file lists them.
        columns = np.flatnonzero(df)
        assert 4 * columns.size > 64
        blob = idf_bytes(64, 123, columns, df[columns])
        assert (tmp_path / "idf.bin").read_bytes() == blob

    def test_sparse_table_lists_its_buckets(self, tmp_path):
        df = np.zeros(64, dtype=np.int64)
        df[[3, 17, 40, 63]] = [5, 1, 123, 2]
        paths = saved(zero_model(table_of(df, 123)), tmp_path)
        blob = (tmp_path / "idf.bin").read_bytes()
        assert blob == idf_bytes(64, 123, [3, 17, 40, 63], [5, 1, 123, 2])
        loaded = load_model(*paths).idf
        assert loaded.columns.tolist() == [3, 17, 40, 63] and loaded.columns.dtype == np.int64
        assert loaded.df.tolist() == [5, 1, 123, 2] and loaded.df.dtype == np.int64
        assert (loaded.doc_count, loaded.dim) == (123, 64)

    def test_fitted_table_round_trips_bit_for_bit(self, tmp_path):
        config = FeatureConfig(dim=1 << 10)
        texts = ["ab cd ef", "ab ab", "", "xyz cd"]
        table = fit_idf(corpus_counts(texts, config))
        loaded = load_model(*saved(zero_model(table), tmp_path)).idf
        assert_same_idf(loaded, table)
        # No array of the table is dim-sized until its lookup table is built.
        assert table.df.shape == table.columns.shape == (table.weights.size - 1,)
        assert 0 < table.columns.size < config.dim

    def test_bad_magic(self, tmp_path):
        with pytest.raises(ValueError, match="magic"):
            load_idf_file(tmp_path, b"NOTMAGIC" + b"\x00" * 16)

    def test_truncated_payload(self, tmp_path):
        blob = idf_file(table_of(np.arange(16) % 3, 2))
        with pytest.raises(ValueError):
            load_idf_file(tmp_path, blob[:-4])

    # 3 of 4 buckets occupied, 1 of 8.
    @pytest.mark.parametrize("df", [[1, 0, 3, 2], [0, 0, 0, 2, 0, 0, 0, 0]])
    def test_every_cut_is_corrupt(self, tmp_path, df):
        paths = saved(zero_model(table_of(df, 3)), tmp_path)
        path = tmp_path / "idf.bin"
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(CorruptArtifact):
                load_model(*paths)
        path.write_bytes(blob + b"\x00")
        with pytest.raises(CorruptArtifact, match="expected"):
            load_model(*paths)

    @pytest.mark.parametrize("dim, doc_count, ids, df, match", [
        (8, 3, [2, 2], [1, 1], "strictly increasing"),
        (8, 3, [5, 1], [1, 1], "strictly increasing"),
        (8, 3, [1, 8], [1, 1], "below 8"),
        (2, 3, [0, 1, 1], [1, 1, 1], "3 occupied buckets for dim 2"),
        (8, 3, [1, 4], [1, 0], "document frequency"),
        (8, 3, [1, 4], [4, 1], "document frequency"),
        (0, 0, [], [], "power of two"),
        (12, 3, [], [], "power of two"),
        (8, 3, None, [0, 0, 1, 0, 3, 0, 0, 0], "expected 84 bytes, found 52"),
        (4, 3, [1, 2, 3], [4, 1, 2], "document frequency"),
    ])
    def test_bad_contents(self, tmp_path, dim, doc_count, ids, df, match):
        with pytest.raises(CorruptArtifact, match=match):
            load_idf_file(tmp_path, idf_bytes(dim, doc_count, ids, df))

    def test_previous_format_is_rejected(self, tmp_path):
        blob = b"NADIIDF1" + struct.pack("<IQ", 4, 3) + np.ones(4).tobytes()
        with pytest.raises(CorruptArtifact, match="magic"):
            load_idf_file(tmp_path, blob)


def idf_dim(dim):
    """The smallest dim an idf file can hold, a power of two >= 2, that
    is at least dim."""
    return max(2, 1 << (dim - 1).bit_length())


@st.composite
def model_files(draw):
    """Bytes that are often almost a model file, and the idf table of
    its columns: a valid small file with one byte overwritten, cut or
    extended, or the magic and noise.  The idf table is over
    idf_dim(dim), so a model dim that is not a power of two ends in
    DimensionMismatch after the model file's own checks."""
    if draw(st.booleans()):
        noise = b"NADIMDL3" + draw(st.binary(max_size=96))
        return noise, idf_of([], idf_dim(draw(st.integers(1, 12))))
    num_classes = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 12))
    columns = sorted(draw(st.sets(st.integers(0, dim - 1))))
    blob = model_bytes(num_classes, dim, draw(st.integers(0, num_classes - 1)), columns,
                       fingerprint=draw(st.sampled_from(["", "0123456789abcdef"])))
    return edit_one_place(draw, blob), idf_of(columns, idf_dim(dim))


@settings(max_examples=300, deadline=None)
@given(model_files())
def test_any_bytes_load_or_raise_corrupt_artifact(tmp_path_factory, problem):
    blob, idf = problem
    paths = written(tmp_path_factory.mktemp("fuzz"), blob, idf)
    try:
        model = load_model(*paths)
    except (CorruptArtifact, DimensionMismatch):
        return
    except DialectIdError as exc:
        assert "not fitted together" in str(exc)
        return
    # A load is a model predict can use, and it saves to the same bytes.
    assert model.fallback_class < model.num_classes == len(model.class_labels)
    assert model.weights.shape == (idf.columns.size, model.num_classes)
    save_model(model, *paths)
    with open(paths[0], "rb") as fh:
        assert fh.read() == blob


@st.composite
def idf_files(draw):
    """Bytes that are often almost an idf file: a valid small file with
    one byte overwritten, cut or extended, or the magic and noise.  The
    table's lookup table is dim-sized, so the noise's dim stays below
    2**16."""
    if draw(st.booleans()):
        noise = bytearray(draw(st.binary(max_size=64)))
        noise[2:4] = bytes(len(noise[2:4]))
        return b"NADIIDF2" + bytes(noise)
    dim = 1 << draw(st.integers(1, 4))
    doc_count = draw(st.integers(0, 5))
    ids = sorted(draw(st.sets(st.integers(0, dim - 1)))) if doc_count else []
    df = np.zeros(dim, dtype=np.int64)
    df[ids] = [draw(st.integers(1, doc_count)) for _ in ids]
    return edit_one_place(draw, idf_file(table_of(df, doc_count)))


@settings(max_examples=300, deadline=None)
@given(idf_files())
def test_any_idf_bytes_load_or_raise_corrupt_artifact(tmp_path_factory, blob):
    directory = tmp_path_factory.mktemp("fuzz")
    try:
        table = load_idf_file(directory, blob)
    except CorruptArtifact:
        return
    # A load is a table vectorize can use, and it saves to the same bytes.
    assert table.df.shape == table.columns.shape == (table.weights.size - 1,)
    assert np.all((table.df > 0) & (table.df <= table.doc_count))
    assert np.all(np.diff(table.columns) > 0) and np.all(table.columns < table.dim)
    save_model(zero_model(table), str(directory / "m.bin"), str(directory / "idf.bin"))
    assert (directory / "idf.bin").read_bytes() == blob
