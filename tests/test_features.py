import functools
import math
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dialectid.features
from dialectid.errors import DimensionMismatch, EmptyCorpus
from dialectid.features import (
    DEFAULT_FEATURES,
    FeatureConfig,
    IdfTable,
    bucket_counts,
    corpus_counts,
    fit_idf,
    fnv1a64,
    hash_spans,
    token_buckets,
    vectorize,
)

import feature_oracle
from feature_oracle import char_ngrams
from conftest import csr, data_path, row_maps


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


def test_hash_index_definition():
    config = FeatureConfig(dim=1 << 12)
    gram = "اب"
    expected = fnv1a64(gram.encode("utf-8")) & (config.dim - 1)
    assert buckets_of([gram], config)[0] == expected
    assert 0 <= buckets_of([gram], config)[0] < config.dim


# Grams of 1-8 characters of 1-4 UTF-8 bytes each: Arabic, Latin,
# digits, emoji (with a joiner and a modifier) and the pad token.
GRAM_ALPHABET = "ابتجدهوي" "abcXYZ" "0129٠٣" "😀🇪🇬👍🏽\u200d" "_"
grams_lists = st.lists(st.text(alphabet=GRAM_ALPHABET, min_size=1, max_size=8), max_size=40)


@st.composite
def hash_configs(draw):
    return FeatureConfig(
        # Up to 2**31, the largest dim FeatureConfig accepts.
        dim=1 << draw(st.one_of(st.integers(1, 18), st.integers(19, 31))),
    )


@settings(max_examples=300, deadline=None)
@given(grams_lists, hash_configs())
@example([], FeatureConfig())
@example(["اب"], FeatureConfig(dim=2))
@example(["a", "اب", "😀", "_a😀ب_", "🇪🇬🇪🇬", "abcdefgh"], FeatureConfig())
@example(["😀😀😀😀😀😀😀😀", "a"], FeatureConfig(dim=1 << 31))
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
        pad_token=draw(st.sampled_from("_éا😀𝄞")),
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet=TOKEN_ALPHABET, min_size=1, max_size=12), max_size=12),
       cutter_configs())
@example([], FeatureConfig())
@example(["ا", "ab", "😀"], FeatureConfig(n_min=8, n_max=8, pad_token="𝄞"))
@example(["𝄞😀ابcdéf"], FeatureConfig(n_min=8, n_max=8, dim=1 << 20))
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
    # The model and idf files store dim in 32 bits.
    with pytest.raises(ValueError, match="2\\*\\*31"):
        FeatureConfig(dim=1 << 32)
    assert len(next(bucket_counts(["اب"], FeatureConfig(dim=1 << 31)))) == 1
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
        assert block.indices.dtype == np.int32 and block.values.dtype == np.float64
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


def weight_of(table, bucket):
    """The idf weight of a bucket, looked up as vectorize does."""
    return table.weights[table.table[bucket]]


class TestFitIdf:
    def test_weight_formula(self):
        config = FeatureConfig()
        b1, b2 = 17, 40000
        corpus = csr([{b1: 1, b2: 1}, {b1: 1}, {b1: 5}], config.dim)
        table = fit_idf(corpus)
        assert table.doc_count == 3 and table.dim == config.dim
        assert table.columns.tolist() == [b1, b2] and table.df.tolist() == [3, 1]
        # One weight per occupied bucket, then that of df 0.
        assert table.weights.tolist() == pytest.approx(
            [math.log(4 / 4) + 1, math.log(4 / 2) + 1, math.log(4 / 1) + 1], abs=1e-15
        )
        assert weight_of(table, b2) == table.weights[1]
        for untouched in (0, b1 + 1, config.dim - 1):
            assert weight_of(table, untouched) == table.weights[2]

    def test_df_counts_documents_not_occurrences(self):
        b = 12345
        table = fit_idf(csr([{b: 100}], DEFAULT_FEATURES.dim))
        assert table.df.tolist() == [1]
        assert weight_of(table, b) == pytest.approx(math.log(2 / 2) + 1, abs=1e-15)

    def test_empty_document_contributes_nothing(self):
        table = fit_idf(csr([{}], DEFAULT_FEATURES.dim))
        assert table.doc_count == 1 and table.columns.size == 0
        assert table.weights.tolist() == [math.log(2 / 1) + 1]

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            fit_idf(corpus_counts([]))

    def test_bucket_outside_dim_rejected(self):
        with pytest.raises(DimensionMismatch, match="outside dim"):
            fit_idf(csr([{0: 1}, {16: 1}], 16))


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
    table = fit_idf(corpus_counts(docs, config))
    texts = [random_text(rng) for _ in range(30)]
    vectors = maps_of(vectorize(block, table) for block in bucket_counts(texts, config))
    for text, vec in zip(texts, vectors, strict=True):
        expected = oracle_vectorize(text, docs, config)
        assert vec.keys() == expected.keys()
        for idx, val in vec.items():
            assert val == pytest.approx(expected[idx], abs=1e-12)


def table_of(df, doc_count):
    """The IdfTable of a dense array of every bucket's document frequency."""
    df = np.asarray(df, dtype=np.int64)
    columns = np.flatnonzero(df)
    return IdfTable(columns=columns, df=df[columns], doc_count=doc_count, dim=df.size)


def uniform_idf(config=DEFAULT_FEATURES):
    """An idf table of no documents: every weight is ln(1 / 1) + 1 = 1."""
    return table_of(np.zeros(config.dim), 0)


def test_vectorize_with_uniform_idf_normalizes_raw_counts():
    config = FeatureConfig(n_min=1, n_max=1, dim=1 << 10)
    counts = next(bucket_counts(["اب"], config))
    (by_bucket,) = row_maps(vectorize(counts, uniform_idf(config)))
    # grams _, ا, ب, _ -> counts {_:2, ا:1, ب:1}, norm sqrt(6)
    assert by_bucket[bucket("_", config)] == pytest.approx(2 / math.sqrt(6))
    assert by_bucket[bucket("ا", config)] == pytest.approx(1 / math.sqrt(6))


def test_vectorize_empty_text():
    rows = vectorize(next(bucket_counts(["", "اب", ""])), uniform_idf())
    assert np.diff(rows.indptr).tolist() == [0, len(char_ngrams("اب")), 0]
    assert rows.dim == DEFAULT_FEATURES.dim
    assert np.isfinite(rows.values).all()


def test_vectorize_rejects_mismatched_idf():
    table = fit_idf(csr([{5: 1}], 1 << 10))
    with pytest.raises(DimensionMismatch, match="idf table dim 1024 != rows dim 2048"):
        vectorize(csr([{5: 1}], 1 << 11), table)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.text(max_size=40), min_size=1, max_size=5))
def test_vectorize_unit_norm_and_sorted_indices(texts):
    counts = next(bucket_counts(texts))
    rows = vectorize(counts, fit_idf(counts))
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
        pad_token=draw(st.sampled_from("_#ا")),
    )


def assert_same_rows(rows, refs, dim):
    """rows holds the oracle's (indices, values) pairs refs, byte for byte."""
    assert rows.dim == dim
    assert rows.indptr.tolist() == np.cumsum([0] + [len(i) for i, _ in refs]).tolist()
    assert rows.indices.dtype == np.int32 and rows.values.dtype == np.float64
    bounds = rows.indptr.tolist()
    for lo, hi, (indices, values) in zip(bounds, bounds[1:], refs):
        assert rows.indices[lo:hi].astype(np.int64).tobytes() == indices.tobytes()
        assert rows.values[lo:hi].tobytes() == values.tobytes()


@settings(max_examples=200, deadline=None)
@given(oracle_texts.filter(bool), oracle_texts, oracle_configs(), st.integers(1, 3))
# Served grams the fit never saw, on buckets it left empty.
@example(["ab"], ["ab 😀x", "", "zz"], FeatureConfig(), 1)
def test_featurizer_matches_per_text_oracle(train, serve, config, chunk_texts):
    """chunk_texts shrinks the chunk bound, so that a fit appends several
    blocks and a predict streams several.  The served texts are not the
    fitted ones, so their buckets the fit left empty take the weight of
    df 0, the table's last."""
    with mock.patch.object(dialectid.features, "_CHUNK_TEXTS", chunk_texts):
        fit_blocks = list(bucket_counts(train, config))
        counts = corpus_counts(train, config)
        table = fit_idf(counts)
        serve_blocks = list(bucket_counts(serve, config))
    assert [len(block) for block in fit_blocks + serve_blocks] == [
        min(chunk_texts, len(texts) - start)
        for texts in (train, serve)
        for start in range(0, len(texts), chunk_texts)
    ]
    ref_df = feature_oracle.fit_idf([feature_oracle.char_ngrams(t, config) for t in train], config)
    ref_weights = feature_oracle.idf_weights(ref_df, len(train))
    assert table.doc_count == len(train) and table.dim == config.dim
    assert table.columns.tolist() == np.flatnonzero(ref_df).tolist()
    assert table.df.tobytes() == ref_df[table.columns].tobytes()
    assert table.weights.shape == (table.columns.size + 1,)
    assert table.weights[table.table].tobytes() == ref_weights.tobytes()

    fitted = vectorize(counts, table)
    assert_same_rows(
        fitted, [feature_oracle.vectorize(t, config, ref_weights) for t in train], config.dim
    )
    served = [vectorize(block, table) for block in serve_blocks]
    refs = iter([feature_oracle.vectorize(t, config, ref_weights) for t in serve])
    for rows in served:
        assert_same_rows(rows, [next(refs) for _ in range(len(rows))], config.dim)


def test_every_producer_gives_the_csr_dtypes():
    """bucket_counts' blocks, corpus_counts and vectorize, which hands
    back its counts, give int64 indptr, int32 ids and float64 values,
    on empty corpora and rows too."""
    texts = ["اب جد", "", "😀 🇪🇬", "اب"]
    counts = corpus_counts(texts)
    produced = [*bucket_counts(texts), counts, corpus_counts([]), corpus_counts([""])]
    produced.append(vectorize(counts, fit_idf(counts)))
    for rows in produced:
        assert rows.indptr.dtype == np.int64
        assert rows.indices.dtype == np.int32
        assert rows.values.dtype == np.float64


def fit_both_ways(texts, config, chunk_texts, slice_entries):
    """Fit texts' tf-idf rows with corpus_counts, fit_idf and the
    in-place vectorize, and with the oracle's join_rows and out-of-place
    vectorize_rows over the same blocks; assert the two give the same
    idf table and the same indptr, ids and values, bit for bit.  Returns
    the number of times the corpus's values buffer grew."""
    growths = []
    extend = dialectid.features._Appendable.extend

    def counted(self, values):
        before = self.buffer.size
        extend(self, values)
        if self.buffer.dtype == np.float64 and self.buffer.size != before:
            growths.append(self.buffer.size)

    with mock.patch.object(dialectid.features, "_CHUNK_TEXTS", chunk_texts), \
            mock.patch.object(dialectid.features, "_SLICE_ENTRIES", slice_entries), \
            mock.patch.object(dialectid.features._Appendable, "extend", counted):
        counts = corpus_counts(texts, config)
        table = fit_idf(counts)
        rows = vectorize(counts, table)
        joined = feature_oracle.join_rows(list(bucket_counts(texts, config)), config.dim)
    # The rows are the counts' own arrays: no count matrix outlives
    # vectorize, and no grown buffer keeps its slack.
    assert rows is counts
    assert all(a.base is None for a in (rows.indptr, rows.indices, rows.values))
    df = np.bincount(joined.indices, minlength=config.dim)
    assert table.columns.tolist() == np.flatnonzero(df).tolist()
    assert table.df.tobytes() == df[table.columns].tobytes()
    expected = feature_oracle.vectorize_rows(joined, table)
    assert len(rows) == len(texts) and rows.dim == config.dim
    assert rows.indptr.tobytes() == expected.indptr.tobytes()
    assert rows.indices.astype(np.int64).tobytes() == expected.indices.tobytes()
    assert rows.values.tobytes() == expected.values.tobytes()
    return len(growths)


# Empty and whitespace-only texts, emoji-only texts and mixed ones.
fit_texts = st.lists(
    st.one_of(
        st.text(alphabet=ORACLE_ALPHABET, max_size=30),
        st.text(alphabet="😀🇪🇬👍🏽‍ ", max_size=12),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(fit_texts, oracle_configs(), st.integers(1, 3), st.integers(1, 40))
@example(["", "😀 🇪🇬", "  ", "ab 😀x", ""], FeatureConfig(), 1, 1)
@example(["😀😀", "👍🏽"], FeatureConfig(n_min=1, n_max=1, dim=16), 1, 3)
def test_fit_path_matches_out_of_place_oracle(texts, config, chunk_texts, slice_entries):
    """chunk_texts shrinks the chunk bound, so that corpus_counts
    appends several blocks, and slice_entries the run of rows vectorize
    weighs at once."""
    fit_both_ways(texts, config, chunk_texts, slice_entries)


def test_fit_path_matches_oracle_across_growth_steps():
    rng = random.Random(53)
    texts = [random_text(rng) for _ in range(300)] + ["", "😀 👍🏽"] * 5
    rng.shuffle(texts)
    growths = fit_both_ways(texts, FeatureConfig(dim=1 << 12), 7, 500)
    assert growths >= 5
