"""Embedding table parsing, lookup, padding, and chunking."""

import io

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


@pytest.mark.parametrize("cast_lines", [1, 2, 1024])
def test_load_table_blocks_of_lines_keep_the_error_contract(monkeypatch, cast_lines):
    # values are cast a block of lines at a time; a duplicate and every
    # error may sit in a later block and still name its own line
    monkeypatch.setattr(embeddings, "_CAST_LINES", cast_lines)
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
    block, kept = embed_ids(SMALL_TABLE, ids, policy, length)
    assert block.shape == (len(rows), length, 2)
    for b, row in enumerate(rows):
        try:
            series = lookup_sequence(SMALL_TABLE, SymbolSequence(row), policy)
        except EmptyInputError:
            assert policy is OovPolicy.SKIP and kept[b] == 0
            assert np.array_equal(block[b], np.zeros((length, 2)))
            continue
        assert kept[b] == series.length
        assert np.array_equal(block[b], pad_to_length(series, length).values)
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
    (block, _), peak = traced_peak(lambda: embed_ids(table, ids, policy, 16))
    assert block.nbytes == 4096
    assert peak <= 8 * block.nbytes


@pytest.mark.parametrize("length", [12, 16])
@pytest.mark.parametrize("policy", list(OovPolicy), ids=lambda policy: policy.value)
def test_embed_ids_into_a_given_block_equals_the_allocating_call(policy, length):
    rng = np.random.default_rng(1)
    ids = rng.integers(OOV_ID, SMALL_TABLE.vocab_size, (5, 12))
    ids[1] = OOV_ID
    out = np.full((5, length, 2), np.nan)
    block, kept = embed_ids(SMALL_TABLE, ids, policy, length, out=out)
    assert block is out
    expected_block, expected_kept = embed_ids(SMALL_TABLE, ids, policy, length)
    assert np.array_equal(block, expected_block)
    assert np.array_equal(kept, expected_kept)


def test_embed_ids_rejects_long_rows_and_unknown_ids():
    with pytest.raises(LengthExceededError):
        embed_ids(SMALL_TABLE, np.zeros((2, 5), dtype=int), OovPolicy.ZERO, 4)
    for bad in (OOV_ID - 1, SMALL_TABLE.vocab_size):
        with pytest.raises(DomainError):
            embed_ids(SMALL_TABLE, np.array([[0, bad]]), OovPolicy.ZERO, 4)


#: Separators `str.split()` splits on: ASCII blanks, the information
#: separators \x1c-\x1f, the no-break space and the ideographic space.
SEPARATOR = st.text(alphabet=" \t\x1c\x1d\x1e\x1f\xa0\u3000", min_size=1, max_size=3)
WORDS = st.lists(st.tuples(st.sampled_from(["a", "b", "c", "d", "zz"]), SEPARATOR), max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.just(""), SEPARATOR), WORDS), max_size=8), st.integers(1, 7))
def test_read_corpus_ids_matches_chunked_lookup(lines, chunk_len):
    # blank and separator-only lines; chunks run across line breaks; a
    # partial tail is dropped
    text = "".join(lead + "".join(t + sep for t, sep in words) + "\n" for lead, words in lines)
    ids = read_corpus_ids(io.StringIO(text), SMALL_TABLE, chunk_len)
    flat = row_ids(SMALL_TABLE, iter_corpus_tokens(io.StringIO(text)))
    assert flat.size == sum(len(words) for _, words in lines)
    rows = flat.size // chunk_len
    assert ids.shape == (rows, chunk_len)
    assert np.array_equal(ids.reshape(-1), flat[: rows * chunk_len])


def test_shuffle_rows_draws_one_permutation_per_row():
    ids = np.arange(12).reshape(3, 4)
    rng = np.random.default_rng(3)
    expected = [[row[i] for i in rng.permutation(4)] for row in ids.tolist()]
    assert shuffle_rows(ids, 3).tolist() == expected
    assert ids.tolist() == np.arange(12).reshape(3, 4).tolist()  # input untouched
