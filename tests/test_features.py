import functools
import math
import random
import struct
from collections import Counter
from unittest import mock

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
    fit_idf,
    fnv1a64,
    hash_spans,
    join_rows,
    load_idf,
    save_idf,
    token_buckets,
    vectorize,
)

import feature_oracle
from feature_oracle import char_ngrams
from conftest import csr, data_path, edit_one_place, row_maps


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


def buckets_of(grams, config=DEFAULT_FEATURES):
    """The buckets of the grams, all hashed in one hash_spans call over
    their joined UTF-8 bytes."""
    encoded = [gram.encode("utf-8") for gram in grams]
    hi = np.cumsum([len(b) for b in encoded], dtype=np.int64)
    lo = hi - [len(b) for b in encoded]
    return hash_spans(np.frombuffer(b"".join(encoded), dtype=np.uint8), lo, hi, config)


def bucket(gram, config=DEFAULT_FEATURES):
    """The bucket of one gram."""
    return int(buckets_of([gram], config)[0])


def test_hash_index_golden_replay():
    config = FeatureConfig()
    with open(data_path("hash_golden.tsv"), encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh if line.rstrip("\n")]
    assert len(rows) == 100
    for gram, index in rows:
        assert buckets_of([gram], config)[0] == int(index), repr(gram)
    # All at once: one call with the file's mixed byte widths.
    assert buckets_of([gram for gram, _ in rows], config).tolist() == [
        int(index) for _, index in rows
    ]


def test_hash_index_definition_and_seed():
    config = FeatureConfig(seed=12345)
    gram = "اب"
    expected = (fnv1a64(gram.encode("utf-8")) ^ 12345) & (config.dim - 1)
    assert buckets_of([gram], config)[0] == expected
    assert 0 <= buckets_of([gram], config)[0] < config.dim
    assert buckets_of([gram], FeatureConfig(seed=0))[0] != buckets_of(
        [gram], FeatureConfig(seed=1)
    )[0]


# Grams of 1-8 characters of 1-4 UTF-8 bytes each: Arabic, Latin,
# digits, emoji (with a joiner and a modifier) and the pad token.
GRAM_ALPHABET = "ابتجدهوي" "abcXYZ" "0129٠٣" "😀🇪🇬👍🏽\u200d" "_"
grams_lists = st.lists(st.text(alphabet=GRAM_ALPHABET, min_size=1, max_size=8), max_size=40)


@st.composite
def hash_configs(draw):
    return FeatureConfig(
        # Up to 2**56, the largest dim FeatureConfig accepts.
        dim=1 << draw(st.one_of(st.integers(1, 18), st.integers(19, 56))),
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
@example(["😀😀😀😀😀😀😀😀", "a"], FeatureConfig(dim=1 << 56))
def test_hash_spans_matches_scalar_fnv1a(grams, config):
    buckets = buckets_of(grams, config)
    assert buckets.shape == (len(grams),)
    assert buckets.tolist() == [feature_oracle.hash_index(g, config) for g in grams]
    assert all(0 <= b < config.dim for b in buckets.tolist())


# Tokens of Arabic, ASCII, 2-byte Latin, emoji and astral characters,
# from one character (shorter than most n_min) to 12.
TOKEN_ALPHABET = "ابتجدهوي٣" "abcXYZ09" "éñßø" "😀🇪🇬👍🏽\u200d" "𝄞𐍈𠀋"


@st.composite
def cutter_configs(draw):
    n_min = draw(st.sampled_from([1, 2, 3, 5, 8]))
    return FeatureConfig(
        n_min=n_min,
        n_max=draw(st.integers(n_min, 8)),
        dim=1 << draw(st.integers(1, 20)),
        seed=draw(st.integers(0, (1 << 64) - 1)),
        pad_token=draw(st.sampled_from("_éا😀𝄞")),
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet=TOKEN_ALPHABET, min_size=1, max_size=12), max_size=12),
       cutter_configs())
@example([], FeatureConfig())
@example(["ا", "ab", "😀"], FeatureConfig(n_min=8, n_max=8, pad_token="𝄞"))
@example(["𝄞😀ابcdéf"], FeatureConfig(n_min=8, n_max=8, dim=1 << 20, seed=(1 << 64) - 1))
def test_token_buckets_match_char_ngrams(tokens, config):
    """Each token's slice of the buckets, sized by the gram count that
    bounds bucket_counts' chunks, is the multiset of its grams' scalar
    FNV-1a buckets."""
    buckets = token_buckets(tokens, config)
    sizes = [dialectid.features._gram_count(len(token) + 2, config) for token in tokens]
    assert sizes == [sum(char_ngrams(token, config).values()) for token in tokens]
    assert buckets.dtype == np.int64 and buckets.shape == (sum(sizes),)
    bounds = np.cumsum([0] + sizes).tolist()
    for token, lo, hi in zip(tokens, bounds, bounds[1:]):
        expected = Counter()
        for gram, count in char_ngrams(token, config).items():
            expected[feature_oracle.hash_index(gram, config)] += count
        assert Counter(buckets[lo:hi].tolist()) == expected, token


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
    # bucket_counts' (row, bucket) keys row * dim + bucket are int64.
    with pytest.raises(ValueError, match="2\\*\\*56"):
        FeatureConfig(dim=1 << 57)
    assert len(next(bucket_counts(["اب"], FeatureConfig(dim=1 << 56)))) == 1
    with pytest.raises(ValueError):
        FeatureConfig(pad_token="")
    with pytest.raises(ValueError):
        FeatureConfig(pad_token="__")


def counts_of(text, config=DEFAULT_FEATURES):
    """The bucket -> count map of one text."""
    return row_maps(next(bucket_counts([text], config)))[0]


def maps_of(blocks):
    """The bucket -> count map of every row of the blocks, in order."""
    return [counts for block in blocks for counts in row_maps(block)]


class TestBucketCounts:
    def test_counts_grams_per_bucket(self):
        config = FeatureConfig(n_min=1, n_max=1, dim=1 << 10)
        assert counts_of("اب", config) == {
            bucket("_", config): 2,
            bucket("ا", config): 1,
            bucket("ب", config): 1,
        }

    def test_block_layout(self):
        config = FeatureConfig(n_min=1, n_max=1, dim=1 << 10)
        block = next(bucket_counts(["ب ا", "", "ا"], config))
        assert len(block) == 3 and block.dim == config.dim
        assert block.indptr.tolist() == [0, 3, 3, 5]
        assert block.indices.dtype == np.int64 and block.values.dtype == np.float64
        bounds = block.indptr.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            assert np.all(np.diff(block.indices[lo:hi]) > 0)

    def test_colliding_grams_add(self):
        config = FeatureConfig(dim=2)
        grams = char_ngrams("كتاب مرحبا", config)
        counts = counts_of("كتاب مرحبا", config)
        assert set(counts) <= {0, 1}
        assert sum(counts.values()) == sum(grams.values())

    def test_empty_and_whitespace_only(self):
        (block,) = bucket_counts(["", "  \t "])
        assert len(block) == 2 and block.nnz == 0
        assert list(bucket_counts([])) == []

    def spy_token_buckets(self, monkeypatch):
        """Record the tokens and the number of grams of every
        token_buckets call."""
        calls = []
        real = dialectid.features.token_buckets

        def spy(tokens, config):
            buckets = real(tokens, config)
            calls.append((list(tokens), len(buckets)))
            return buckets

        monkeypatch.setattr(dialectid.features, "token_buckets", spy)
        return calls

    def test_first_map_reads_one_chunk(self, monkeypatch):
        chunk = dialectid.features._CHUNK_TEXTS
        read = []

        def texts():
            for i in range(3 * chunk):
                read.append(i)
                yield "اب جد"

        expected = counts_of("اب جد")
        calls = self.spy_token_buckets(monkeypatch)
        blocks = bucket_counts(texts())
        assert row_maps(next(blocks)) == [expected] * chunk
        assert len(read) == chunk
        assert [tokens for tokens, _ in calls] == [["اب", "جد"]]

    def test_chunk_ends_at_the_gram_bound(self, monkeypatch):
        # Every text brings 20 new tokens of 26 grams each.
        texts = [" ".join(f"w{i:03d}x{j:02d}" for j in range(20)) for i in range(200)]
        per_text = sum(char_ngrams(texts[0]).values())
        expected = [counts_of(t) for t in texts]
        read = []

        def reading():
            for text in texts:
                read.append(text)
                yield text

        calls = self.spy_token_buckets(monkeypatch)
        blocks = bucket_counts(reading())
        first = row_maps(next(blocks))
        bound = dialectid.features._CHUNK_GRAMS
        n_first = len(read)
        assert n_first == -(-bound // per_text) < dialectid.features._CHUNK_TEXTS
        assert first == expected[:n_first]
        assert calls == [([t for text in texts[:n_first] for t in text.split()], n_first * per_text)]
        assert maps_of(blocks) == expected[n_first:]
        batches = [grams for _, grams in calls]
        assert sum(batches) == len(texts) * per_text
        assert max(batches) < bound + per_text


class TestFitIdf:
    def test_weight_formula(self):
        config = FeatureConfig()
        b1, b2 = 17, 40000
        corpus = csr([{b1: 1, b2: 1}, {b1: 1}, {b1: 5}], config.dim)
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
        table = fit_idf(csr([{b: 100}], DEFAULT_FEATURES.dim), FeatureConfig())
        assert table.weights[b] == pytest.approx(math.log(2 / 2) + 1, abs=1e-15)

    def test_empty_document_contributes_nothing(self):
        table = fit_idf(csr([{}], DEFAULT_FEATURES.dim), FeatureConfig())
        assert table.doc_count == 1
        assert np.all(table.weights == math.log(2 / 1) + 1)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            fit_idf(join_rows([], DEFAULT_FEATURES.dim), FeatureConfig())

    def test_bucket_outside_dim_rejected(self):
        with pytest.raises(ValueError, match="outside dim"):
            fit_idf(csr([{0: 1}, {16: 1}], 32), FeatureConfig(dim=16))


def oracle_vectorize(text, docs, config):
    """Pure-python tf-idf over hash buckets, no numpy, no shared
    accumulation code."""
    n = len(docs)
    df: dict[int, int] = {}
    for doc in docs:
        for b in {bucket(g, config) for g in char_ngrams(doc, config)}:
            df[b] = df.get(b, 0) + 1
    counts: dict[int, float] = {}
    for gram, c in char_ngrams(text, config).items():
        b = bucket(gram, config)
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
    table = fit_idf(join_rows(list(bucket_counts(docs, config)), dim), config)
    texts = [random_text(rng) for _ in range(30)]
    vectors = maps_of(vectorize(block, config, table) for block in bucket_counts(texts, config))
    for text, vec in zip(texts, vectors, strict=True):
        expected = oracle_vectorize(text, docs, config)
        assert vec.keys() == expected.keys()
        for idx, val in vec.items():
            assert val == pytest.approx(expected[idx], abs=1e-12)


def uniform_idf(config=DEFAULT_FEATURES):
    """An idf table of no documents: every weight is ln(1 / 1) + 1 = 1."""
    return IdfTable(df=np.zeros(config.dim, dtype=np.int64), doc_count=0)


def test_vectorize_with_uniform_idf_normalizes_raw_counts():
    config = FeatureConfig(n_min=1, n_max=1, dim=1 << 10)
    counts = next(bucket_counts(["اب"], config))
    (by_bucket,) = row_maps(vectorize(counts, config, uniform_idf(config)))
    # grams _, ا, ب, _ -> counts {_:2, ا:1, ب:1}, norm sqrt(6)
    assert by_bucket[bucket("_", config)] == pytest.approx(2 / math.sqrt(6))
    assert by_bucket[bucket("ا", config)] == pytest.approx(1 / math.sqrt(6))


def test_vectorize_empty_text():
    rows = vectorize(next(bucket_counts(["", "اب", ""])), DEFAULT_FEATURES, uniform_idf())
    assert np.diff(rows.indptr).tolist() == [0, len(char_ngrams("اب")), 0]
    assert rows.dim == DEFAULT_FEATURES.dim
    assert np.isfinite(rows.values).all()


def test_vectorize_rejects_mismatched_idf():
    table = fit_idf(csr([{5: 1}], 1 << 10), FeatureConfig(dim=1 << 10))
    with pytest.raises(ValueError):
        vectorize(csr([{5: 1}], 1 << 11), FeatureConfig(dim=1 << 11), table)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.text(max_size=40), min_size=1, max_size=5))
def test_vectorize_unit_norm_and_sorted_indices(texts):
    counts = next(bucket_counts(texts))
    rows = vectorize(counts, DEFAULT_FEATURES, fit_idf(counts))
    assert len(rows) == len(texts)
    bounds = rows.indptr.tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        values, indices = rows.values[lo:hi], rows.indices[lo:hi]
        if hi > lo:
            assert float(np.dot(values, values)) == pytest.approx(1.0, abs=1e-9)
            assert np.all(np.diff(indices) > 0)
            assert int(indices[-1]) < rows.dim


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


def assert_same_rows(rows, refs, dim):
    """rows holds the oracle's (indices, values) pairs refs, byte for byte."""
    assert rows.dim == dim
    assert rows.indptr.tolist() == np.cumsum([0] + [len(i) for i, _ in refs]).tolist()
    assert rows.indices.dtype == np.int64 and rows.values.dtype == np.float64
    bounds = rows.indptr.tolist()
    for lo, hi, (indices, values) in zip(bounds, bounds[1:], refs):
        assert rows.indices[lo:hi].tobytes() == indices.tobytes()
        assert rows.values[lo:hi].tobytes() == values.tobytes()


@settings(max_examples=200, deadline=None)
@given(oracle_texts.filter(bool), oracle_texts, oracle_configs(), st.integers(1, 3))
def test_featurizer_matches_per_text_oracle(train, serve, config, chunk_texts):
    """chunk_texts shrinks the chunk bound, so that a fit joins several
    blocks and a predict streams several."""
    with mock.patch.object(dialectid.features, "_CHUNK_TEXTS", chunk_texts):
        fit_blocks = list(bucket_counts(train, config))
        counts = join_rows(fit_blocks, config.dim)
        table = fit_idf(counts, config)
        serve_blocks = list(bucket_counts(serve, config))
    assert [len(block) for block in fit_blocks + serve_blocks] == [
        min(chunk_texts, len(texts) - start)
        for texts in (train, serve)
        for start in range(0, len(texts), chunk_texts)
    ]
    ref_table = feature_oracle.fit_idf(
        [feature_oracle.char_ngrams(t, config) for t in train], config
    )
    assert table.doc_count == ref_table.doc_count
    assert table.df.tobytes() == ref_table.df.tobytes()
    assert table.weights.tobytes() == ref_table.weights.tobytes()

    fitted = vectorize(counts, config, table)
    assert_same_rows(
        fitted, [feature_oracle.vectorize(t, config, ref_table) for t in train], config.dim
    )
    served = [vectorize(block, config, table) for block in serve_blocks]
    refs = iter([feature_oracle.vectorize(t, config, ref_table) for t in serve])
    for rows in served:
        assert_same_rows(rows, [next(refs) for _ in range(len(rows))], config.dim)


def idf_bytes(dim, doc_count, ids, df):
    """A NADIIDF2 file: sparse, or whole when ids is None (df then holds
    every bucket's document frequency)."""
    blob = b"NADIIDF2" + struct.pack("<III", dim, doc_count, len(df if ids is None else ids))
    if ids is not None:
        blob += np.array(ids, dtype="<u4").tobytes()
    return blob + np.array(df, dtype="<u4").tobytes()


class TestIdfIo:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        df = rng.integers(0, 124, size=64) * (rng.random(64) < 0.5)
        table = IdfTable(df=df, doc_count=123)
        path = tmp_path / "table.idf"
        save_idf(table, str(path))
        loaded = load_idf(str(path))
        assert loaded.doc_count == 123
        assert np.array_equal(loaded.df, df)
        assert loaded.weights.tobytes() == table.weights.tobytes()
        # More than a quarter of the buckets are occupied: written whole.
        assert 4 * np.count_nonzero(df) > 64
        assert path.read_bytes() == idf_bytes(64, 123, None, df)

    def test_sparse_table_lists_its_buckets(self, tmp_path):
        df = np.zeros(64, dtype=np.int64)
        df[[3, 17, 40, 63]] = [5, 1, 123, 2]
        save_idf(IdfTable(df=df, doc_count=123), str(tmp_path / "table.idf"))
        blob = (tmp_path / "table.idf").read_bytes()
        assert blob == idf_bytes(64, 123, [3, 17, 40, 63], [5, 1, 123, 2])
        loaded = load_idf(str(tmp_path / "table.idf"))
        assert loaded.df.tobytes() == df.tobytes() and loaded.doc_count == 123

    def test_fitted_table_round_trips_bit_for_bit(self, tmp_path):
        config = FeatureConfig(dim=1 << 10)
        texts = ["ab cd ef", "ab ab", "", "xyz cd"]
        table = fit_idf(join_rows(list(bucket_counts(texts, config)), config.dim), config)
        path = tmp_path / "table.idf"
        save_idf(table, str(path))
        loaded = load_idf(str(path))
        assert loaded.df.tobytes() == table.df.tobytes()
        assert loaded.weights.tobytes() == table.weights.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idf"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_idf(str(path))

    def test_truncated_payload(self, tmp_path):
        table = IdfTable(df=np.arange(16) % 3, doc_count=2)
        path = tmp_path / "trunc.idf"
        save_idf(table, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(ValueError):
            load_idf(str(path))

    @pytest.mark.parametrize("df", [[1, 0, 3, 2], [0, 0, 0, 2, 0, 0, 0, 0]])  # whole, sparse
    def test_every_cut_is_corrupt(self, tmp_path, df):
        table = IdfTable(df=np.array(df), doc_count=3)
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

    @pytest.mark.parametrize("dim, doc_count, ids, df, match", [
        (8, 3, [2, 2], [1, 1], "strictly increasing"),
        (8, 3, [5, 1], [1, 1], "strictly increasing"),
        (8, 3, [1, 8], [1, 1], "below 8"),
        (2, 3, [0, 1, 1], [1, 1, 1], "3 occupied buckets for dim 2"),
        (8, 3, [1, 4], [1, 0], "document frequency"),
        (8, 3, [1, 4], [4, 1], "document frequency"),
        (0, 0, [], [], "power of two"),
        (12, 3, [], [], "power of two"),
        (8, 3, [1, 2, 3], [1, 1, 1], "3 of 8 buckets occupied in a sparse file"),
        (8, 3, None, [0, 0, 1, 0, 3, 0, 0, 0], "2 of 8 buckets occupied in a whole file"),
        (4, 3, None, [0, 4, 1, 2], "document frequency"),
    ])
    def test_bad_contents(self, tmp_path, dim, doc_count, ids, df, match):
        path = tmp_path / "bad.idf"
        path.write_bytes(idf_bytes(dim, doc_count, ids, df))
        with pytest.raises(CorruptArtifact, match=match):
            load_idf(str(path))

    def test_previous_format_is_rejected(self, tmp_path):
        path = tmp_path / "old.idf"
        path.write_bytes(b"NADIIDF1" + struct.pack("<IQ", 4, 3) + np.ones(4).tobytes())
        with pytest.raises(CorruptArtifact, match="magic"):
            load_idf(str(path))


@st.composite
def idf_files(draw):
    """Bytes that are often almost an idf file: a valid small file with
    one byte overwritten, cut or extended, or the magic and noise.  The
    table is dense in memory, so the noise's dim stays below 2**16.
    The valid file is sparse or whole, as save_idf picks."""
    if draw(st.booleans()):
        noise = bytearray(draw(st.binary(max_size=64)))
        noise[2:4] = bytes(len(noise[2:4]))
        return b"NADIIDF2" + bytes(noise)
    dim = 1 << draw(st.integers(1, 4))
    doc_count = draw(st.integers(0, 5))
    ids = sorted(draw(st.sets(st.integers(0, dim - 1)))) if doc_count else []
    df = [draw(st.integers(1, doc_count)) for _ in ids]
    if 4 * len(ids) > dim:
        whole = np.zeros(dim, dtype=np.int64)
        whole[ids] = df
        blob = idf_bytes(dim, doc_count, None, whole)
    else:
        blob = idf_bytes(dim, doc_count, ids, df)
    return edit_one_place(draw, blob)


@settings(max_examples=300, deadline=None)
@given(idf_files())
def test_any_bytes_load_or_raise_corrupt_artifact(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("fuzz") / "t.idf"
    path.write_bytes(blob)
    try:
        table = load_idf(str(path))
    except CorruptArtifact:
        return
    # A load is a table vectorize can use, and it saves to the same bytes.
    assert table.df.shape == table.weights.shape == (table.dim,)
    assert np.all((table.df >= 0) & (table.df <= table.doc_count))
    save_idf(table, str(path))
    assert path.read_bytes() == blob
