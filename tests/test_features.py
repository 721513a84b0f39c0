import functools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dialectid.features
from dialectid.errors import CorruptArtifact, EmptyCorpus
from dialectid.features import (
    DEFAULT_FEATURES,
    FeatureConfig,
    IdfTable,
    bucket_counts,
    char_ngrams,
    config_fingerprint,
    empty_vector,
    fit_idf,
    fnv1a64,
    hash_grams,
    hash_index,
    load_idf,
    save_idf,
    vectorize,
)

import feature_oracle
from conftest import data_path


# Published FNV-1a 64 reference vectors.
FNV_VECTORS = [
    (b"", 0xCBF29CE484222325),
    (b"a", 0xAF63DC4C8601EC8C),
    (b"b", 0xAF63DF4C8601F1A5),
    (b"c", 0xAF63DE4C8601EFF2),
    (b"foobar", 0x85944171F73967E8),
    (b"chongo was here!\n", 0x46810940EFF5F915),
]


@pytest.mark.parametrize("data,expected", FNV_VECTORS)
def test_fnv1a64_reference_vectors(data, expected):
    assert fnv1a64(data) == expected


def fnv1a64_oracle(data: bytes) -> int:
    mask = (1 << 64) - 1
    return functools.reduce(
        lambda h, b: ((h ^ b) * 0x100000001B3) & mask, data, 0xCBF29CE484222325
    )


def test_fnv1a64_against_independent_implementation():
    rng = random.Random(3)
    for _ in range(200):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 40)))
        assert fnv1a64(blob) == fnv1a64_oracle(blob)


def test_hash_index_golden_replay():
    config = FeatureConfig()
    with open(data_path("hash_golden.tsv"), encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh if line.rstrip("\n")]
    assert len(rows) == 100
    for gram, index in rows:
        assert hash_index(gram, config) == int(index), repr(gram)
    # All at once: one call with the file's mixed byte widths.
    assert hash_grams([gram for gram, _ in rows], config).tolist() == [
        int(index) for _, index in rows
    ]


def test_hash_index_definition_and_seed():
    config = FeatureConfig(seed=12345)
    gram = "اب"
    expected = (fnv1a64(gram.encode("utf-8")) ^ 12345) & (config.dim - 1)
    assert hash_index(gram, config) == expected
    assert 0 <= hash_index(gram, config) < config.dim
    assert hash_index(gram, FeatureConfig(seed=0)) != hash_index(
        gram, FeatureConfig(seed=1)
    )


# Grams of 1-8 characters of 1-4 UTF-8 bytes each: Arabic, Latin,
# digits, emoji (with a joiner and a modifier) and the pad token.
GRAM_ALPHABET = "ابتجدهوي" "abcXYZ" "0129٠٣" "😀🇪🇬👍🏽\u200d" "_"
grams_lists = st.lists(st.text(alphabet=GRAM_ALPHABET, min_size=1, max_size=8), max_size=40)


@st.composite
def hash_configs(draw):
    return FeatureConfig(
        # Up to 2**64, so that every bit of the 64-bit hash is kept.
        dim=1 << draw(st.one_of(st.integers(1, 18), st.integers(19, 64))),
        seed=draw(st.one_of(
            st.integers(0, (1 << 64) - 1),
            st.sampled_from([0, 7, 1 << 63, (1 << 64) - 1]),
        )),
    )


@settings(max_examples=300, deadline=None)
@given(grams_lists, hash_configs())
@example([], FeatureConfig())
@example(["اب"], FeatureConfig(seed=1 << 63))
@example(["a", "اب", "😀", "_a😀ب_", "🇪🇬🇪🇬", "abcdefgh"], FeatureConfig(seed=(1 << 64) - 1))
@example(["😀😀😀😀😀😀😀😀", "a"], FeatureConfig(dim=1 << 64))
def test_hash_grams_matches_scalar_fnv1a(grams, config):
    buckets = hash_grams(grams, config)
    assert buckets.shape == (len(grams),)
    assert buckets.tolist() == [feature_oracle.hash_index(g, config) for g in grams]
    assert all(0 <= b < config.dim for b in buckets.tolist())


class TestCharNgrams:
    def test_two_letter_token_default_config(self):
        grams = char_ngrams("اب")
        assert grams == Counter(["_ا", "اب", "ب_", "_اب", "اب_", "_اب_"])

    def test_custom_range(self):
        config = FeatureConfig(n_min=2, n_max=3)
        grams = char_ngrams("ابج", config)
        assert grams == Counter(["_ا", "اب", "بج", "ج_", "_اب", "ابج", "بج_"])

    def test_grams_do_not_cross_token_boundaries(self):
        grams = char_ngrams("اب ج")
        assert grams == char_ngrams("اب") + char_ngrams("ج")
        assert not any(" " in g for g in grams)

    def test_repeated_tokens_accumulate(self):
        assert char_ngrams("اب اب") == Counter(
            {g: 2 * c for g, c in char_ngrams("اب").items()}
        )

    def test_empty_and_whitespace_only(self):
        assert char_ngrams("") == Counter()
        assert char_ngrams("   \t ") == Counter()

    def test_unigrams_when_requested(self):
        config = FeatureConfig(n_min=1, n_max=1)
        assert char_ngrams("اب", config) == Counter(["_", "ا", "ب", "_"])

    def test_single_char_token(self):
        grams = char_ngrams("ا")
        assert grams == Counter(["_ا", "ا_", "_ا_"])


def test_feature_config_validation():
    with pytest.raises(ValueError):
        FeatureConfig(n_min=0)
    with pytest.raises(ValueError):
        FeatureConfig(n_min=3, n_max=2)
    with pytest.raises(ValueError):
        FeatureConfig(n_max=9)
    with pytest.raises(ValueError):
        FeatureConfig(dim=3)
    with pytest.raises(ValueError):
        FeatureConfig(dim=1)
    with pytest.raises(ValueError):
        FeatureConfig(pad_token="")
    with pytest.raises(ValueError):
        FeatureConfig(pad_token="__")


def test_config_fingerprint_is_stable_and_distinct():
    a = config_fingerprint(FeatureConfig())
    assert a == config_fingerprint(FeatureConfig())
    assert len(a) == 16
    int(a, 16)
    assert a != config_fingerprint(FeatureConfig(seed=1))
    assert a != config_fingerprint(FeatureConfig(dim=1 << 16))


def counts_of(text, config=DEFAULT_FEATURES):
    return next(bucket_counts([text], config))


class TestBucketCounts:
    def test_counts_grams_per_bucket(self):
        config = FeatureConfig(n_min=1, n_max=1, dim=1 << 10)
        assert counts_of("اب", config) == {
            hash_index("_", config): 2,
            hash_index("ا", config): 1,
            hash_index("ب", config): 1,
        }

    def test_colliding_grams_add(self):
        config = FeatureConfig(dim=2)
        grams = char_ngrams("كتاب مرحبا", config)
        counts = counts_of("كتاب مرحبا", config)
        assert set(counts) <= {0, 1}
        assert sum(counts.values()) == sum(grams.values())

    def test_empty_and_whitespace_only(self):
        assert list(bucket_counts(["", "  \t "])) == [{}, {}]

    def test_first_map_reads_one_chunk(self, monkeypatch):
        chunk = dialectid.features._CHUNK_TEXTS
        read, cut = [], []
        real_ngrams = dialectid.features.char_ngrams

        def spy_ngrams(text, config):
            cut.append(text)
            return real_ngrams(text, config)

        def texts():
            for i in range(3 * chunk):
                read.append(i)
                yield "اب جد"

        expected = counts_of("اب جد")
        monkeypatch.setattr(dialectid.features, "char_ngrams", spy_ngrams)
        maps = bucket_counts(texts())
        assert next(maps) == expected
        assert len(read) == chunk
        assert cut == ["اب", "جد"]

    def test_chunk_ends_at_the_gram_bound(self, monkeypatch):
        # Every text brings 20 new tokens of 26 grams each.
        texts = [" ".join(f"w{i:03d}x{j:02d}" for j in range(20)) for i in range(200)]
        per_text = sum(char_ngrams(texts[0]).values())
        expected = [counts_of(t) for t in texts]
        read, batches = [], []
        real_hash = dialectid.features.hash_grams

        def spy_hash(grams, config):
            batches.append(len(grams))
            return real_hash(grams, config)

        def reading():
            for text in texts:
                read.append(text)
                yield text

        monkeypatch.setattr(dialectid.features, "hash_grams", spy_hash)
        maps = bucket_counts(reading())
        assert next(maps) == expected[0]
        bound = dialectid.features._CHUNK_GRAMS
        assert len(read) == -(-bound // per_text) < dialectid.features._CHUNK_TEXTS
        assert batches == [len(read) * per_text]
        assert list(maps) == expected[1:]
        assert sum(batches) == len(texts) * per_text
        assert max(batches) < bound + per_text


class TestFitIdf:
    def test_weight_formula(self):
        config = FeatureConfig()
        b1, b2 = 17, 40000
        corpus = [{b1: 1, b2: 1}, {b1: 1}, {b1: 5}]
        table = fit_idf(corpus, config)
        assert table.doc_count == 3
        assert table.weights[b1] == pytest.approx(math.log(4 / 4) + 1, abs=1e-15)
        assert table.weights[b2] == pytest.approx(math.log(4 / 2) + 1, abs=1e-15)
        untouched = (b1 + b2 + 1) % config.dim
        while untouched in (b1, b2):
            untouched = (untouched + 1) % config.dim
        assert table.weights[untouched] == pytest.approx(math.log(4 / 1) + 1, abs=1e-15)

    def test_df_counts_documents_not_occurrences(self):
        b = 12345
        table = fit_idf([{b: 100}], FeatureConfig())
        assert table.weights[b] == pytest.approx(math.log(2 / 2) + 1, abs=1e-15)

    def test_empty_document_contributes_nothing(self):
        table = fit_idf([{}], FeatureConfig())
        assert table.doc_count == 1
        assert np.all(table.weights == math.log(2 / 1) + 1)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            fit_idf([], FeatureConfig())

    def test_bucket_outside_dim_rejected(self):
        with pytest.raises(ValueError, match="outside dim"):
            fit_idf([{0: 1}, {16: 1}], FeatureConfig(dim=16))


def oracle_vectorize(text, docs, config):
    """Pure-python tf-idf over hash buckets, no numpy, no shared
    accumulation code."""
    n = len(docs)
    df: dict[int, int] = {}
    for doc in docs:
        for b in {hash_index(g, config) for g in char_ngrams(doc, config)}:
            df[b] = df.get(b, 0) + 1
    counts: dict[int, float] = {}
    for gram, c in char_ngrams(text, config).items():
        b = hash_index(gram, config)
        counts[b] = counts.get(b, 0.0) + float(c)
    vals = {
        b: c * (math.log((1.0 + n) / (1.0 + df.get(b, 0))) + 1.0)
        for b, c in counts.items()
    }
    norm = math.sqrt(sum(v * v for v in vals.values()))
    return {b: v / norm for b, v in vals.items()}


WORDS = ["اب", "جد", "كتاب", "مرحبا", "هه", "نص", "abc", "25", "يوم", "شمس"]


def random_text(rng):
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 6)))


@pytest.mark.parametrize("dim", [1 << 18, 16])
def test_vectorize_matches_dense_oracle(dim):
    # dim=16 forces heavy collisions, checking additive accumulation.
    config = FeatureConfig(dim=dim)
    rng = random.Random(97)
    docs = [random_text(rng) for _ in range(25)]
    table = fit_idf(list(bucket_counts(docs, config)), config)
    for _ in range(30):
        text = random_text(rng)
        vec = vectorize(counts_of(text, config), config, table)
        expected = oracle_vectorize(text, docs, config)
        assert vec.nnz == len(expected)
        for idx, val in zip(vec.indices, vec.values):
            assert val == pytest.approx(expected[int(idx)], abs=1e-12)


def test_vectorize_without_idf_normalizes_raw_counts():
    config = FeatureConfig(n_min=1, n_max=1, dim=1 << 10)
    vec = vectorize(counts_of("اب", config), config)
    # grams _, ا, ب, _ -> counts {_:2, ا:1, ب:1}, norm sqrt(6)
    by_bucket = dict(zip((int(i) for i in vec.indices), vec.values))
    assert by_bucket[hash_index("_", config)] == pytest.approx(2 / math.sqrt(6))
    assert by_bucket[hash_index("ا", config)] == pytest.approx(1 / math.sqrt(6))


def test_vectorize_empty_text():
    vec = vectorize(counts_of(""), DEFAULT_FEATURES)
    assert vec.nnz == 0
    assert vec.dim == DEFAULT_FEATURES.dim
    assert empty_vector(8).dim == 8


def test_vectorize_rejects_mismatched_idf():
    table = fit_idf([{5: 1}], FeatureConfig(dim=1 << 10))
    with pytest.raises(ValueError):
        vectorize({5: 1}, FeatureConfig(dim=1 << 11), table)


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=40))
def test_vectorize_unit_norm_and_sorted_indices(text):
    vec = vectorize(counts_of(text))
    if vec.nnz:
        assert float(np.dot(vec.values, vec.values)) == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(vec.indices) > 0)
        assert int(vec.indices[-1]) < vec.dim
    else:
        assert vec.indices.shape == (0,)


# Arabic letters and digits, Latin, emoji and whitespace, so that texts
# include multi-byte grams, empty texts and whitespace-only texts.
ORACLE_ALPHABET = "ابتجدهوي٣ abcXYZ09 \t\n😀🇪🇬👍🏽\u200d"
oracle_texts = st.lists(st.text(alphabet=ORACLE_ALPHABET, max_size=30), max_size=8)


@st.composite
def oracle_configs(draw):
    n_min = draw(st.integers(1, 8))
    return FeatureConfig(
        n_min=n_min,
        n_max=draw(st.integers(n_min, 8)),
        dim=1 << draw(st.integers(1, 18)),
        seed=draw(st.one_of(
            st.integers(0, (1 << 64) - 1),
            st.sampled_from([0, 1 << 63, (1 << 63) + 12345, (1 << 64) - 1]),
        )),
        pad_token=draw(st.sampled_from("_#ا")),
    )


def assert_same_vector(vec, ref):
    assert vec.dim == ref.dim
    assert vec.indices.dtype == ref.indices.dtype
    assert vec.indices.tobytes() == ref.indices.tobytes()
    assert vec.values.tobytes() == ref.values.tobytes()


@settings(max_examples=200, deadline=None)
@given(oracle_texts.filter(bool), oracle_texts, oracle_configs())
def test_featurizer_matches_per_text_oracle(train, serve, config):
    for text in train + serve:
        assert list(char_ngrams(text, config).items()) == list(
            feature_oracle.char_ngrams(text, config).items()
        )

    table = fit_idf(list(bucket_counts(train, config)), config)
    ref_table = feature_oracle.fit_idf(
        [feature_oracle.char_ngrams(t, config) for t in train], config
    )
    assert table.doc_count == ref_table.doc_count
    assert table.weights.tobytes() == ref_table.weights.tobytes()

    for idf, ref_idf in ((table, ref_table), (None, None)):
        for texts in (train, serve):
            for counts, text in zip(bucket_counts(texts, config), texts, strict=True):
                assert_same_vector(
                    vectorize(counts, config, idf),
                    feature_oracle.vectorize(text, config, ref_idf),
                )


class TestIdfIo:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        table = IdfTable(weights=rng.uniform(0.5, 4.0, size=64), doc_count=123)
        path = tmp_path / "table.idf"
        save_idf(table, str(path))
        loaded = load_idf(str(path))
        assert loaded.doc_count == 123
        assert np.array_equal(loaded.weights, table.weights)
        assert path.read_bytes()[:8] == b"NADIIDF1"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idf"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_idf(str(path))

    def test_truncated_payload(self, tmp_path):
        table = IdfTable(weights=np.ones(16), doc_count=2)
        path = tmp_path / "trunc.idf"
        save_idf(table, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(ValueError):
            load_idf(str(path))

    def test_every_cut_is_corrupt(self, tmp_path):
        table = IdfTable(weights=np.ones(4), doc_count=3)
        path = tmp_path / "cut.idf"
        save_idf(table, str(path))
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(CorruptArtifact):
                load_idf(str(path))
        path.write_bytes(blob + b"\x00")
        with pytest.raises(CorruptArtifact, match="expected"):
            load_idf(str(path))
