"""Embedding table parsing, lookup, padding, and chunking."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longmem import embeddings
from longmem.embeddings import (
    OOV_ID,
    EmbeddedSeries,
    EmbeddingTable,
    OovPolicy,
    SymbolSequence,
    chunk_corpus,
    embed_ids,
    iter_corpus_tokens,
    load_table,
    lookup_sequence,
    pad_to_length,
    read_corpus_ids,
    row_ids,
    shuffle_rows,
)
from longmem.errors import (
    DimensionMismatchError,
    DomainError,
    EmbeddingParseError,
    EmptyInputError,
    LengthExceededError,
)
from conftest import traced_peak

TWO_LINE = "the 0.1 0.2 0.3\ncat -1.0 0.0 1.0\n"


def test_load_table_basic():
    table = load_table(io.StringIO(TWO_LINE))
    assert table.vocab_size == 2
    assert table.dim == 3
    assert table.token_ids == {"the": 0, "cat": 1}
    assert np.array_equal(table.vectors[1], [-1.0, 0.0, 1.0])


def test_load_table_mean_vector():
    table = load_table(io.StringIO(TWO_LINE))
    assert np.allclose(table.mean_vector, [-0.45, 0.1, 0.65])
    # a column sum of 3.4e308 overflows float64; the mean lies between the rows
    large = load_table(io.StringIO("a 1.7e308 -1.7e308 1\nb 1.7e308 -1.7e308 2\n"))
    assert np.array_equal(large.mean_vector, [1.7e308, -1.7e308, 1.5])


def test_load_table_duplicate_keeps_first():
    table = load_table(io.StringIO("a 1 2\na 3 4\nb 5 6\n"))
    assert table.vocab_size == 2
    assert np.array_equal(table.vectors[table.token_ids["a"]], [1.0, 2.0])


def test_load_table_parse_error_names_line():
    with pytest.raises(EmbeddingParseError) as exc:
        load_table(io.StringIO("a 1 2\nb 3 oops\n"))
    assert exc.value.line_number == 2


def test_load_table_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        load_table(io.StringIO("a 1 2\nb 3\n"))


def test_load_table_empty():
    with pytest.raises(EmptyInputError):
        load_table(io.StringIO("\n\n"))


def test_load_table_rejects_non_finite():
    with pytest.raises(EmbeddingParseError):
        load_table(io.StringIO("a 1 inf\n"))


@pytest.mark.parametrize(
    "cast_values", [2, 4, 2048, 1], ids=["1", "2", "1024", "1-under-a-line"]
)
def test_load_table_blocks_of_lines_keep_the_error_contract(monkeypatch, cast_values):
    # values are cast a block of whole lines at a time, each id naming the
    # lines a budget makes at p=2, and a budget under one line still casts
    # one; a duplicate and every error may sit in a later block and still
    # name its own line
    monkeypatch.setattr(embeddings, "_CAST_VALUES", cast_values)
    text = "a 1 2\nb 3 4\n\nc 5 6\na 7 8\nd 9 10\n"
    table = load_table(io.StringIO(text))
    assert table.token_ids == {"a": 0, "b": 1, "c": 2, "d": 3}
    assert np.array_equal(table.vectors, [[1, 2], [3, 4], [5, 6], [9, 10]])
    for bad_line, message in (("a 1 x", "could not convert"), ("e 1 nan", "non-finite")):
        with pytest.raises(EmbeddingParseError, match=message) as exc:
            load_table(io.StringIO(text + bad_line + "\nf 1 2\n"))
        assert exc.value.line_number == 7
    with pytest.raises(DimensionMismatchError, match="line 7"):
        load_table(io.StringIO(text + "e 1 2 3\n"))


def test_load_table_peak_allocation_is_the_values_and_half_again():
    # the values are cast into one buffer that grows by half, not into a
    # list of blocks joined at the end (twice the values), and one cast's
    # value strings (~75 bytes a value) stay under the 1 MiB slack at any
    # p. 16,640 rows at p=50 is the worst case, one block past a growth
    # step; at p=300, casts of 1024 lines peaked at 15.8 MiB on 1.4 MiB of values
    rng = np.random.default_rng(7)
    for rows, dim in ((16640, 50), (600, 300)):
        vectors = rng.standard_normal((rows, dim))
        lines = [f"w{i} " + " ".join(map(repr, row)) + "\n" for i, row in enumerate(vectors.tolist())]
        lines.insert(9, "w2" + " 0.5" * dim + "\n")  # a duplicate token: its row is sliced off
        stream = io.StringIO("".join(lines))
        tracemalloc.start()
        try:
            table = load_table(stream)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(table.vectors, vectors)
        assert table.token_ids["w9"] == 9
        # the table also holds its token index; the bound is on the rest
        values = table.vectors.nbytes
        assert peak - (retained - values) <= 1.6 * values + (1 << 20), (rows, dim, peak, retained, values)


def test_lookup_by_token_and_id():
    table = load_table(io.StringIO(TWO_LINE))
    by_token = lookup_sequence(table, SymbolSequence(["the", "cat"]), OovPolicy.ZERO)
    by_id = lookup_sequence(table, SymbolSequence([0, 1]), OovPolicy.ZERO)
    assert np.array_equal(by_token.values, by_id.values)
    assert by_token.length == 2 and by_token.dim == 3


def test_lookup_oov_policies():
    table = load_table(io.StringIO(TWO_LINE))
    seq = SymbolSequence(["the", "dog", "cat"])
    skipped = lookup_sequence(table, seq, OovPolicy.SKIP)
    assert skipped.length == 2
    zeroed = lookup_sequence(table, seq, OovPolicy.ZERO)
    assert zeroed.length == 3
    assert np.array_equal(zeroed.values[1], np.zeros(3))
    meaned = lookup_sequence(table, seq, OovPolicy.MEAN)
    assert np.allclose(meaned.values[1], table.mean_vector)


def test_lookup_all_oov_skip_errors():
    table = load_table(io.StringIO(TWO_LINE))
    with pytest.raises(EmptyInputError):
        lookup_sequence(table, SymbolSequence(["dog", "fish"]), OovPolicy.SKIP)


def test_lookup_oov_marker_id():
    table = load_table(io.StringIO(TWO_LINE))
    out = lookup_sequence(table, SymbolSequence([0, OOV_ID]), OovPolicy.ZERO)
    assert np.array_equal(out.values[1], np.zeros(3))


def test_lookup_rejects_out_of_range_id():
    table = load_table(io.StringIO(TWO_LINE))
    with pytest.raises(DomainError):
        lookup_sequence(table, SymbolSequence([0, 2]), OovPolicy.ZERO)


def test_symbol_sequence_non_empty():
    with pytest.raises(EmptyInputError):
        SymbolSequence([])


def test_embedded_series_rejects_non_finite():
    with pytest.raises(DomainError):
        EmbeddedSeries(np.array([[1.0, np.nan]]))


def test_pad_to_length_prepends_zeros():
    series = EmbeddedSeries(np.arange(6.0).reshape(3, 2))
    padded = pad_to_length(series, 5)
    assert padded.length == 5
    assert np.array_equal(padded.values[:2], np.zeros((2, 2)))
    # demeaned over its own rows, so the pad adds no step; the input is untouched
    assert np.array_equal(padded.values[2:], [[-2.0, -2.0], [0.0, 0.0], [2.0, 2.0]])
    assert np.array_equal(series.values, np.arange(6.0).reshape(3, 2))


def test_pad_to_length_noop_when_equal():
    series = EmbeddedSeries(np.ones((4, 1)))
    assert pad_to_length(series, 4) is series


def test_pad_to_length_rejects_longer_series():
    series = EmbeddedSeries(np.ones((5, 1)))
    with pytest.raises(LengthExceededError):
        pad_to_length(series, 4)


def test_chunk_corpus_drops_partial_tail():
    chunks = chunk_corpus(range(5000), 2048)
    assert len(chunks) == 2
    assert all(len(c) == 2048 for c in chunks)
    assert chunks[0].ids[0] == 0
    assert chunks[1].ids[-1] == 4095


def test_chunk_corpus_exact_multiple():
    chunks = chunk_corpus(range(6), 3)
    assert [c.ids for c in chunks] == [(0, 1, 2), (3, 4, 5)]


@given(st.lists(st.integers(0, 9), min_size=0, max_size=200), st.integers(1, 17))
def test_chunk_corpus_concatenation_is_prefix(tokens, chunk_len):
    chunks = chunk_corpus(tokens, chunk_len)
    flattened = [t for c in chunks for t in c.ids]
    kept = len(tokens) - len(tokens) % chunk_len
    assert flattened == tokens[:kept]


def test_iter_corpus_tokens():
    stream = io.StringIO("a b c\n\nd  e\n")
    assert list(iter_corpus_tokens(stream)) == ["a", "b", "c", "d", "e"]


@settings(max_examples=50)
@given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=20))
def test_lookup_preserves_order_under_zero_policy(tokens):
    table = EmbeddingTable(
        vectors=np.array([[1.0], [2.0], [3.0], [4.0]]),
        token_ids={"a": 0, "b": 1, "c": 2, "d": 3},
    )
    out = lookup_sequence(table, SymbolSequence(tokens), OovPolicy.ZERO)
    expected = [table.vectors[table.token_ids[t]][0] for t in tokens]
    assert out.values[:, 0].tolist() == expected


SMALL_TABLE = EmbeddingTable(
    vectors=np.array([[1.0, -2.0], [0.5, 3.0], [-1.5, 0.25], [2.0, 1.0]]),
    token_ids={"a": 0, "b": 1, "c": 2, "d": 3},
)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(OOV_ID, 3), min_size=n, max_size=n), min_size=1, max_size=5)
    ),
    st.integers(0, 5),
    st.sampled_from(list(OovPolicy)),
)
def test_embed_ids_matches_lookup_and_pad(rows, extra, policy):
    rows.append([OOV_ID] * len(rows[0]))  # always one all-OOV row
    ids = np.array(rows)
    length = ids.shape[1] + extra
    block = embed_ids(SMALL_TABLE, ids, policy, length)
    assert block.shape == (len(rows), 2, length)  # time-last
    kept = np.full(len(rows), ids.shape[1])  # the symbols each row keeps
    if policy is OovPolicy.SKIP:
        kept = np.count_nonzero(ids != OOV_ID, axis=1)
    for b, row in enumerate(rows):
        try:
            series = lookup_sequence(SMALL_TABLE, SymbolSequence(row), policy)
        except EmptyInputError:
            assert policy is OovPolicy.SKIP and kept[b] == 0
            assert np.array_equal(block[b], np.zeros((2, length)))
            continue
        assert kept[b] == series.length
        assert np.array_equal(block[b].T, pad_to_length(series, length).values)
        # the same rows, one symbol at a time
        substitute = SMALL_TABLE.mean_vector if policy is OovPolicy.MEAN else np.zeros(2)
        expected = [
            SMALL_TABLE.vectors[i] if i != OOV_ID else substitute
            for i in row
            if i != OOV_ID or policy is not OovPolicy.SKIP
        ]
        assert np.array_equal(series.values, np.array(expected))


@pytest.mark.parametrize("policy", list(OovPolicy), ids=lambda policy: policy.value)
def test_embed_ids_peak_allocation_does_not_grow_with_the_table(policy):
    # a 200k x 8 table is 12.8 MB; the padded 4 x 16 block with OOV ids is 4 kB
    rng = np.random.default_rng(0)
    table = EmbeddingTable(rng.standard_normal((200_000, 8)))
    ids = rng.integers(0, table.vocab_size, (4, 12))
    ids[0, 3] = ids[2, :] = OOV_ID
    block, peak = traced_peak(lambda: embed_ids(table, ids, policy, 16))
    assert block.nbytes == 4096
    assert peak <= 8 * block.nbytes


@pytest.mark.parametrize("length", [12, 16])
@pytest.mark.parametrize("policy", list(OovPolicy), ids=lambda policy: policy.value)
def test_embed_ids_indexes_int32_ids_as_intp_ids(policy, length):
    # the int32 ids the corpus reader gives are indexed as they are
    rng = np.random.default_rng(1)
    ids = rng.integers(OOV_ID, SMALL_TABLE.vocab_size, (5, 12))
    ids[1] = OOV_ID
    block = embed_ids(SMALL_TABLE, ids, policy, length)
    assert embed_ids(SMALL_TABLE, ids.astype(np.int32), policy, length).tobytes() == block.tobytes()


@pytest.mark.parametrize("policy", [OovPolicy.ZERO, OovPolicy.MEAN], ids=lambda policy: policy.value)
def test_embed_ids_pads_a_block_as_lookup_and_pad_do_each_row(policy):
    # every row of a padded zero/mean block holds n symbols, so the block is
    # padded and demeaned at once; row by row it must give the same bytes,
    # a constant row (one repeated id) and an all-OOV row included
    rng = np.random.default_rng(2)
    table = EmbeddingTable(rng.standard_normal((40, 3)) * [1.0, 1e3, 1e-3])
    ids = rng.integers(OOV_ID, table.vocab_size, (6, 100))
    ids[1] = 7
    ids[4] = OOV_ID
    block = embed_ids(table, ids, policy, 128)
    for b, row in enumerate(ids.tolist()):
        series = lookup_sequence(table, SymbolSequence(row), policy)
        assert block[b].T.tobytes() == pad_to_length(series, 128).values.tobytes()
    assert not block[[1, 4]].any()


def test_embed_ids_rejects_long_rows_and_unknown_ids():
    with pytest.raises(LengthExceededError):
        embed_ids(SMALL_TABLE, np.zeros((2, 5), dtype=int), OovPolicy.ZERO, 4)
    for bad in (OOV_ID - 1, SMALL_TABLE.vocab_size):
        with pytest.raises(DomainError):
            embed_ids(SMALL_TABLE, np.array([[0, bad]]), OovPolicy.ZERO, 4)
    with pytest.raises(DomainError, match="integers"):
        embed_ids(SMALL_TABLE, np.array([[0.0, 1.0]]), OovPolicy.ZERO, 4)


#: Every separator `str.split()` splits on: the ASCII blanks, the
#: information separators \x1c-\x1f and the non-ASCII blanks.
SEPARATOR = st.text(
    alphabet="\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
    "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000",
    min_size=1,
    max_size=3,
)
#: Table tokens that test the packed keys: 7 and 8+ bytes, a trailing or
#: lone NUL, non-ASCII and lone-surrogate tokens, and tokens holding a
#: blank, which no corpus token can equal; then enough more for probe chains.
EDGE_TOKENS = [
    "a", "b", "a\x00", "\x00", "seven77", "eight888", "longer-than-eight", "\xe9",
    "\u65e5\u672c", "\U0001f600", "caf\xe9s", "\ud800", "x\udfff", "a b", "a\xa0b", "a\u3000b",
]
CORPUS_TABLE = EmbeddingTable(
    vectors=np.zeros((len(EDGE_TOKENS) + 3000, 1)),
    token_ids={t: i for i, t in enumerate(EDGE_TOKENS + [str(i) for i in range(3000)])},
)
#: Corpus words: the table's tokens and near misses (a byte more or less,
#: the other half of a surrogate pair, "\x00a").
CORPUS_WORDS = list(CORPUS_TABLE.token_ids) + [
    "c", "aa", "a\x00\x00", "\x00a", "seven7", "eight88", "eight8888", "\u65e5", "\udc00",
    "\ud800\udc00", "3000", "-1", "01",
]
WORDS = st.lists(st.tuples(st.sampled_from(CORPUS_WORDS), SEPARATOR), max_size=6)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.one_of(st.just(""), SEPARATOR), WORDS), max_size=8),
    st.integers(1, 7),
    st.integers(1, 64),
)
def test_read_corpus_ids_matches_chunked_lookup(lines, chunk_len, block_chars):
    # blank and separator-only lines; chunks run across line breaks; tokens
    # and lines run across blocks; a partial tail is dropped
    text = "".join(lead + "".join(t + sep for t, sep in words) + "\n" for lead, words in lines)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embeddings, "BLOCK_CHARS", block_chars)
        ids = read_corpus_ids(io.StringIO(text), CORPUS_TABLE, chunk_len)
    flat = row_ids(CORPUS_TABLE, iter_corpus_tokens(io.StringIO(text)))
    assert flat.size == sum(len(t.split()) for _, words in lines for t, _ in words)
    rows = flat.size // chunk_len
    assert ids.shape == (rows, chunk_len) and ids.dtype == np.int32
    assert np.array_equal(ids.reshape(-1), flat[: rows * chunk_len])


def test_read_corpus_ids_finds_every_token_through_probe_chains():
    # 3000 numbers and the edge tokens in 8192 slots: many keys sit past their home
    words = [t for t in CORPUS_TABLE.token_ids if t.split() == [t]]
    ids = read_corpus_ids(io.StringIO("  ".join(words)), CORPUS_TABLE, 1)
    assert ids.reshape(-1).tolist() == [CORPUS_TABLE.token_ids[t] for t in words]
    index = embeddings.TokenIndex(CORPUS_TABLE.token_ids)
    stored = np.flatnonzero(index._keys)
    assert np.count_nonzero(index._homes(index._keys[stored]) != stored) > 100


def test_read_corpus_ids_accepts_lines_without_breaks_and_rejects_bad_chunks(monkeypatch):
    # the end of the text ends its last token, whichever block it falls in
    for block_chars in (1, 2, 3, 1 << 15):
        monkeypatch.setattr(embeddings, "BLOCK_CHARS", block_chars)
        ids = read_corpus_ids(io.StringIO("a\nb\n\nseven77 a\x00"), CORPUS_TABLE, 1)
        assert ids.reshape(-1).tolist() == [0, 1, 4, 2]
    assert read_corpus_ids(io.StringIO(""), CORPUS_TABLE, 1).shape == (0, 1)
    for chunk_len in (0, -1):
        with pytest.raises(DomainError):
            read_corpus_ids(io.StringIO("a"), CORPUS_TABLE, chunk_len)
        with pytest.raises(DomainError):
            chunk_corpus(["a"], chunk_len)


class _Unreadable(io.StringIO):
    def read(self, *args):
        raise AssertionError("the stream was read")


def test_read_corpus_ids_refuses_a_row_numpy_cannot_index_before_reading():
    # numpy refuses a (0, 2^62) int32 matrix as too big, without allocating
    refused = "^chunk length 4611686018427387904 needs 18446744073709551616 bytes "
    with pytest.raises(DomainError, match=refused):
        read_corpus_ids(_Unreadable(), CORPUS_TABLE, 1 << 62)


def test_blank_sets_are_exactly_what_str_split_splits_on():
    non_ascii = {chr(c) for c in range(0x80, 0x110000) if chr(c).isspace()}
    assert set(embeddings._NON_ASCII_BLANKS) == non_ascii
    ascii_blanks = {b for b in range(256) if not embeddings._WORD_BYTES[b]}
    assert ascii_blanks == {c for c in range(0x80) if chr(c).isspace()}


def test_read_corpus_ids_peak_allocation_per_token():
    # the int32 ids take 4 bytes a token and the buffer grows by half, so
    # its peak is at most 6; block temporaries add a constant, also when
    # the whole corpus is one line
    tokens = 1_200_000
    line = "a bb 17 zz seven77 " * 200
    for text in ((line + "\n") * (tokens // 1000), line * (tokens // 1000)):
        stream = io.StringIO(text)
        ids, peak = traced_peak(lambda: read_corpus_ids(stream, CORPUS_TABLE, 1000))
        assert ids.size == tokens
        assert peak <= 7 * tokens + (1 << 20)


def test_shuffle_rows_draws_one_permutation_per_row():
    ids = np.arange(12).reshape(3, 4)
    rng = np.random.default_rng(3)
    expected = [[row[i] for i in rng.permutation(4)] for row in ids.tolist()]
    assert shuffle_rows(ids, 3).tolist() == expected
    assert ids.tolist() == np.arange(12).reshape(3, 4).tolist()  # input untouched
