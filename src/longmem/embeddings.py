"""Symbol embeddings: table loading, sequence lookup, padding, chunking.

Maps discrete symbol sequences to real-valued multivariate series. Tables
are read from GloVe-style text files (`token v1 ... vp` per line); a corpus
is read as a matrix of table row ids and embedded by blocks of rows. Out-of-
vocabulary symbols are handled by one of three policies: drop the position,
substitute the zero vector, or substitute the table's mean vector.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence, TextIO, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    EmbeddingParseError,
    EmptyInputError,
    LengthExceededError,
    allocating,
)

#: Marker for an out-of-vocabulary position in an id sequence.
OOV_ID = -1

Token = Union[int, str]


class OovPolicy(enum.Enum):
    """What to do with a symbol that has no row in the table."""

    SKIP = "skip"
    ZERO = "zero"
    MEAN = "mean"


@dataclass(frozen=True)
class EmbeddingTable:
    """Immutable mapping from symbol ids to vectors in R^p.

    `vectors` has one row per symbol; `mean_vector` caches the row mean.
    `token_ids` maps the original string tokens to row indices, each in
    [0, V): the corpus reader holds them in the narrowest type V allows.
    """

    vectors: np.ndarray
    token_ids: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise DimensionMismatchError(
                f"table must be a V x p matrix with V, p >= 1, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise DomainError("embedding vectors must be finite")
        rows = self.token_ids.values()
        if rows and not 0 <= min(rows) <= max(rows) < v.shape[0]:
            raise DomainError(f"token rows must lie in [0, {v.shape[0]}), got {min(rows)}..{max(rows)}")
        with np.errstate(over="ignore"):
            mean = v.mean(axis=0)
        # the sum behind the mean of large finite values can overflow; the mean
        # cannot, nor can the sum of the values over their column's max |v|
        overflowed = ~np.isfinite(mean)
        if overflowed.any():
            scale = np.abs(v[:, overflowed]).max(axis=0)
            mean[overflowed] = scale * (v[:, overflowed] / scale).mean(axis=0)
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "_mean", mean)

    @property
    def vocab_size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def mean_vector(self) -> np.ndarray:
        return self._mean


@dataclass(frozen=True)
class SymbolSequence:
    """Ordered symbols: integer ids in [0, V), raw string tokens, or OOV_ID."""

    ids: tuple[Token, ...]

    def __init__(self, ids: Sequence[Token]):
        ids = tuple(ids)
        if not ids:
            raise EmptyInputError("symbol sequence must be non-empty")
        object.__setattr__(self, "ids", ids)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class EmbeddedSeries:
    """A length-T, dimension-p real-valued series (rows are time steps)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1:
            raise DimensionMismatchError(
                f"series must be a T x p matrix with T >= 1, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise DomainError("series values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


#: Values whose strings `load_table` holds for one float cast, at least one
#: line's: 163 lines at p=50, 27 at p=300. Enough to amortize the cast, few
#: enough that the strings (~75 bytes a value) stay near 0.6 MB whatever p
#: is. Casts of 1024 lines instead peaked at 6.81 MiB traced at p=50 (1.91
#: MiB of values) and 28.2 MiB at p=300 (4.58 MiB); this budget at 3.27 and
#: 5.56 MiB, in 198 against 205 ms and 449 against 466 ms (medians of 15
#: interleaved rounds, 2-core VM).
_CAST_VALUES = 1 << 13


def load_table(source: Union[TextIO, Iterable[str]]) -> EmbeddingTable:
    """Parse a GloVe-style text stream into an EmbeddingTable.

    Each non-empty line is `token v1 ... vp` (whitespace separated). All
    lines must share the same p. Duplicate tokens keep the first occurrence,
    but their values must parse too. The values are cast _CAST_VALUES at a
    time, in whole lines, into one float64 buffer that grows by half, as
    `read_corpus_ids` grows its ids.
    """
    token_ids: dict[str, int] = {}
    values = np.empty((0, 0))
    n_values = 0
    rows: list[list[str]] = []
    line_numbers: list[int] = []
    duplicates: list[int] = []  # of `rows`
    dim: int | None = None
    cast_lines = 0
    for line_number, line in enumerate(source, start=1):
        parts = line.split()
        if not parts:
            continue
        token, raw_values = parts[0], parts[1:]
        if not raw_values:
            raise EmbeddingParseError(line_number, f"no values after token {token!r}")
        if dim is None:
            dim = len(raw_values)
            values = np.empty((0, dim))
            cast_lines = max(1, _CAST_VALUES // dim)
        elif len(raw_values) != dim:
            raise DimensionMismatchError(
                f"line {line_number}: expected {dim} values, got {len(raw_values)}"
            )
        if token in token_ids:  # the first occurrence wins
            duplicates.append(len(rows))
        else:
            token_ids[token] = len(token_ids)
        rows.append(raw_values)
        line_numbers.append(line_number)
        if len(rows) == cast_lines:
            n_values = _cast_rows(values, n_values, rows, line_numbers, duplicates)
            rows, line_numbers, duplicates = [], [], []
    if rows:
        n_values = _cast_rows(values, n_values, rows, line_numbers, duplicates)
    if dim is None:
        raise EmptyInputError("embedding stream contains no rows")
    values.resize((n_values, dim), refcheck=False)
    return EmbeddingTable(vectors=values, token_ids=token_ids)


def format_table(table: EmbeddingTable) -> str:
    """The text `load_table` reads back: one `token v1 ... vp` line per
    token in row order, each value as `repr(float(v))`, which round-trips."""
    rows = sorted(table.token_ids.items(), key=lambda item: item[1])
    return "".join(
        f"{token} " + " ".join(repr(float(v)) for v in table.vectors[row]) + "\n"
        for token, row in rows
    )


def _cast_rows(
    values: np.ndarray, start: int, rows: list[list[str]], line_numbers: list[int],
    duplicates: list[int],
) -> int:
    """Cast the value strings of table lines, and write those of the rows
    that are not `duplicates` at values[start:], growing the float64 buffer
    in place by at least half when it is too short; returns where they
    end. An unparsable or non-finite value raises naming its line."""
    try:
        # numpy's str -> float64 cast accepts and rejects what float() does
        block = np.array(rows, dtype=np.float64)
    except ValueError:
        for row, line_number in zip(rows, line_numbers):
            try:
                np.array(row, dtype=np.float64)
            except ValueError as exc:
                raise EmbeddingParseError(line_number, str(exc)) from None
        raise
    finite = np.isfinite(block).all(axis=1)
    if not finite.all():
        raise EmbeddingParseError(line_numbers[np.argmin(finite)], "non-finite embedding value")
    if duplicates:
        block = np.delete(block, duplicates, axis=0)
    end = start + block.shape[0]
    if end > values.shape[0]:
        values.resize((max(end, values.shape[0] * 3 // 2), values.shape[1]), refcheck=False)
    values[start:end] = block
    return end


def row_ids(table: EmbeddingTable, tokens: Iterable[Token]) -> np.ndarray:
    """Map tokens to table rows: strings through `token_ids` (OOV_ID when
    absent), integers as they are; `embed_ids` checks the range."""
    get = table.token_ids.get
    return np.fromiter(
        (get(t, OOV_ID) if isinstance(t, str) else int(t) for t in tokens), dtype=np.intp
    )


def check_fits(n: int, length: int) -> None:
    """Refuse sequences of `n` symbols where a pad length of `length` cannot hold them."""
    if n > length:
        raise LengthExceededError(f"sequence length {n} exceeds pad length {length}; chunk first")


def check_chunk_len(chunk_len: int) -> None:
    """Refuse a chunk length that makes no row."""
    if chunk_len < 1:
        raise DomainError(f"chunk length must be positive, got {chunk_len}")


def check_ids(ids: np.ndarray, length: int) -> np.ndarray:
    """The checks of `embed_ids` that a B x n matrix of row ids passes or
    fails whole, and every block of its rows with it: integer ids, two
    dimensions and rows that a pad length of `length` holds. Returns the
    ids as an array."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise DomainError(f"ids must be integers, got dtype {ids.dtype}")
    if ids.ndim != 2:
        raise DimensionMismatchError(f"ids must be a B x n matrix, got shape {ids.shape}")
    check_fits(ids.shape[1], length)
    return ids


def embed_ids(table: EmbeddingTable, ids: np.ndarray, policy: OovPolicy, length: int) -> np.ndarray:
    """Embed and front zero-pad a B x n block of row ids, of any integer
    dtype, to a time-last B x p x length series, applying the OOV policy:
    `embed_block` after `check_ids`."""
    ids = check_ids(ids, length)
    out = np.empty((ids.shape[0], table.dim, length))
    embed_block(table, ids, policy, out)
    return out


def embed_block(
    table: EmbeddingTable,
    ids: np.ndarray,
    policy: OovPolicy,
    out: np.ndarray,
    gathered: Optional[np.ndarray] = None,
) -> None:
    """The kernel of `embed_ids`, for ids that `check_ids` passed: embed
    them into `out`, B x p x L. That each id is a table row or OOV_ID is
    checked here, block by block. The rows are gathered into `gathered`, a
    (B, L, p) float64 array, or into an array of their own. Under `skip`
    the kept symbols of a row are right-aligned, in order. A row that gets
    padding is demeaned over its symbols first, else the pad adds a step
    that reads as low-frequency power (Percival & Walden)."""
    rows, length = ids.shape[0], out.shape[-1]
    lowest = np.minimum.reduce(ids, axis=None, initial=0)
    if lowest < OOV_ID or np.maximum.reduce(ids, axis=None, initial=0) >= table.vocab_size:
        bad = (ids < OOV_ID) | (ids >= table.vocab_size)
        raise DomainError(
            f"symbol id {ids[bad][0]} outside [0, {table.vocab_size}) and not the OOV marker"
        )
    padded = ids  # every id is kept, unless the policy skips
    if policy is OovPolicy.SKIP:
        keep = ids != OOV_ID
        kept = np.count_nonzero(keep, axis=1)
        padded = np.zeros((rows, length), dtype=ids.dtype)
        symbols, end = ids[keep], 0  # the kept ids of every row, in order
        for n, place in zip(kept.tolist(), padded):
            place[length - n :] = symbols[end : end + n]
            end += n
    elif ids.shape[1] < length:
        padded = np.zeros((rows, length), dtype=ids.dtype)
        padded[:, length - ids.shape[1] :] = ids
    # the pad and OOV_ID (-1) gather row 0 here, without copying the table
    block = table.vectors.take(padded, axis=0, out=gathered, mode="clip")
    if lowest == OOV_ID and policy is not OovPolicy.SKIP:
        block[padded == OOV_ID] = table.mean_vector if policy is OovPolicy.MEAN else 0.0
    np.copyto(out, block.transpose(0, 2, 1))
    if policy is OovPolicy.SKIP:
        for row in np.flatnonzero(kept < length):
            n = kept[row]
            out[row, :, : length - n] = 0.0
            if n:
                _demean(out[row, :, length - n :])
    elif padded is not ids:  # every row holds the same n symbols: one block
        n = ids.shape[1]
        out[..., : length - n] = 0.0
        if n:
            _demean(out[..., length - n :])


def _demean(rows: np.ndarray) -> None:
    """Subtract its mean from each time-last row of a (..., T) array, in
    place. A row of one repeated value subtracts that value and so becomes
    exactly zero: its rounded mean can leave a residue, whose pad edge
    would then read as memory."""
    constant = rows.min(axis=-1) == rows.max(axis=-1)
    means = np.where(constant, rows[..., 0], rows.sum(axis=-1) / rows.shape[-1])
    rows -= means[..., None]


def lookup_sequence(
    table: EmbeddingTable, seq: SymbolSequence, policy: OovPolicy
) -> EmbeddedSeries:
    """Embed a symbol sequence, applying the OOV policy; order preserved."""
    ids = row_ids(table, seq.ids)
    if policy is OovPolicy.SKIP:
        ids = ids[ids != OOV_ID]
        if ids.size == 0:
            raise EmptyInputError("all symbols were OOV under the skip policy")
    return EmbeddedSeries(values=embed_ids(table, ids[None], policy, ids.size)[0].T)


def pad_to_length(series: EmbeddedSeries, length: int) -> EmbeddedSeries:
    """Prepend zero rows to exactly `length` rows, demeaning first as `embed_ids` does."""
    if length < 1:
        raise DomainError(f"pad length must be positive, got {length}")
    check_fits(series.length, length)
    if series.length == length:
        return series
    columns = series.values.T.copy()
    _demean(columns)
    pad = np.zeros((length - series.length, series.dim))
    return EmbeddedSeries(values=np.concatenate([pad, columns.T], axis=0))


def chunk_corpus(tokens: Iterable[Token], chunk_len: int) -> list[SymbolSequence]:
    """Split a token stream into consecutive chunks of exactly `chunk_len`.

    A final partial chunk is dropped.
    """
    check_chunk_len(chunk_len)
    tokens = list(tokens)
    ends = range(chunk_len, len(tokens) + 1, chunk_len)
    return [SymbolSequence(tokens[end - chunk_len : end]) for end in ends]


def iter_corpus_tokens(stream: Union[TextIO, Iterable[str]]) -> Iterator[str]:
    """Yield whitespace-separated tokens from a line-oriented text stream."""
    for line in stream:
        yield from line.split()


#: Characters of corpus text `read_corpus_ids` tokenizes at a time: enough
#: that numpy's per-call cost is spread over thousands of tokens, few
#: enough that a block's temporaries (30-40 bytes a character) stay near
#: 1 MiB.
BLOCK_CHARS = 1 << 15

#: The characters above ASCII that `str.split()` splits on.
_NON_ASCII_BLANKS = (
    "\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009"
    "\u200a\u2028\u2029\u202f\u205f\u3000"
)

#: `bytes.translate` table: 0 for the ASCII blanks (\t \n \v \f \r, the
#: separators \x1c-\x1f and the space), 1 for every byte of a token.
_WORD_BYTES = bytes(0 if b in b"\t\n\v\f\r\x1c\x1d\x1e\x1f " else 1 for b in range(256))

#: Blanks after the bytes of a block: a packed key is one 8-byte load.
_PAD = b" " * 7
#: Per token length 0-7, the mask of its bytes and its length in the top byte.
_KEY_MASK = (np.uint64(1) << np.arange(0, 64, 8, dtype=np.uint64)) - np.uint64(1)
_KEY_LENGTH = np.arange(8, dtype=np.uint64) << np.uint64(56)
#: Fibonacci hashing: the top bits of key * 2^64 / golden ratio.
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _encode(text: str) -> bytes:
    # surrogatepass: any str encodes, one to one
    return text.encode("utf-8", "surrogatepass")


def _pack_keys(data: bytes, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The uint64 keys of the 1-7 byte tokens at `starts` in `data`, which
    ends in _PAD: the token's bytes, little-endian, below its length."""
    words = np.ndarray((len(data) - len(_PAD),), dtype="<u8", buffer=data, strides=(1,))
    return words.take(starts) & _KEY_MASK.take(lengths) | _KEY_LENGTH.take(lengths)


def _id_dtype(vocab_size: int) -> np.dtype:
    """The narrowest of int8, int16 and int32 that holds both V - 1 and
    OOV_ID for a table of `vocab_size` rows: int8 up to V = 128, int16 up
    to V = 32768, else int32."""
    return np.dtype(np.int8 if vocab_size <= 1 << 7 else np.int16 if vocab_size <= 1 << 15 else np.int32)


class TokenIndex:
    """The table's tokens of 1-7 UTF-8 bytes, as packed keys in an open-
    addressing hash table with linear probing, mapped to their rows, which
    it holds and returns in `dtype`.

    Probes run forward without wrapping: slots past the last home hold the
    overflow, and the table ends in an empty slot, which ends every probe.
    """

    def __init__(self, token_ids: dict[str, int], dtype: np.dtype):
        encoded = list(map(_encode, token_ids))
        lengths = np.fromiter(map(len, encoded), dtype=np.intp, count=len(encoded))
        starts = np.cumsum(lengths) - lengths
        short = (lengths >= 1) & (lengths <= 7)
        keys = _pack_keys(b"".join(encoded) + _PAD, starts[short], lengths[short])
        rows = np.fromiter(token_ids.values(), dtype=dtype, count=len(encoded))[short]
        self._shift = 64 - max(1, 2 * keys.size - 1).bit_length()  # load at most 1/2
        homes = self._homes(keys)
        order = np.argsort(homes, kind="stable")
        homes = homes[order]
        # each key takes its home or the slot after the previous key's
        rank = np.arange(keys.size)
        slots = rank + np.maximum.accumulate(homes - rank)
        size = max(1 << (64 - self._shift), int(slots.max(initial=0)) + 2)
        self._keys = np.zeros(size, dtype=np.uint64)  # no token packs to key 0
        self._keys[slots] = keys[order]
        self._rows = np.full(size, OOV_ID, dtype=dtype)
        self._rows[slots] = rows[order]

    @property
    def dtype(self) -> np.dtype:
        return self._rows.dtype

    def _homes(self, keys: np.ndarray) -> np.ndarray:
        homes = keys * _HASH_MULTIPLIER
        homes >>= np.uint64(self._shift)
        return homes.view(np.int64)  # below 2^63 after the shift

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """The rows of packed keys, OOV_ID for keys not in the table."""
        slots = self._homes(keys)
        rows = self._rows.take(slots)  # an empty slot holds OOV_ID
        stored = self._keys.take(slots)
        pending = np.flatnonzero((stored != keys) & (stored != 0))
        rows[pending] = OOV_ID
        slots = slots[pending]
        while pending.size:
            slots += 1
            stored = self._keys.take(slots)
            hit = stored == keys[pending]
            rows[pending[hit]] = self._rows[slots[hit]]
            going = ~hit & (stored != 0)
            pending, slots = pending[going], slots[going]
        return rows


def _block_ids(
    data: bytes, index: TokenIndex, token_ids: dict[str, int]
) -> tuple[np.ndarray, bytes]:
    """The row ids, in the index's dtype, of the whole tokens in `data`, a
    blank, a block's bytes and _PAD; and the bytes of a last token the next
    block may go on."""
    word = np.frombuffer(data.translate(_WORD_BYTES), dtype=bool)
    edges = np.flatnonzero(word[1:] != word[:-1])
    edges += 1
    starts, ends = edges[0::2], edges[1::2]
    carry = b""
    if word[-len(_PAD) - 1]:
        carry = data[starts[-1] : -len(_PAD)]
        starts, ends = starts[:-1], ends[:-1]
    lengths = ends - starts
    short = lengths <= 7
    if short.all():
        return index.lookup(_pack_keys(data, starts, lengths)), carry
    ids = np.empty(starts.size, dtype=index.dtype)
    ids[short] = index.lookup(_pack_keys(data, starts[short], lengths[short]))
    long = np.flatnonzero(~short)
    spans = zip(starts[long].tolist(), ends[long].tolist())
    get = token_ids.get
    ids[long] = [get(data[s:e].decode("utf-8", "surrogatepass"), OOV_ID) for s, e in spans]
    return ids, carry


def read_corpus_ids(stream: TextIO, table: EmbeddingTable, chunk_len: int) -> np.ndarray:
    """Read a text stream as an N x chunk_len matrix of table row ids, one
    row per consecutive chunk of its tokens; a final partial chunk is
    dropped.

    The ids are of the narrowest integer type that holds the table's rows
    and OOV_ID: 1, 2 or 4 bytes a token for a table of at most 128, at most
    32768 or more rows. Tokens are what `str.split()` gives. The text is
    read BLOCK_CHARS characters at a time, each block tokenized as UTF-8
    bytes: tokens of 1-7 bytes are looked up as packed keys in a
    `TokenIndex`, longer ones in `token_ids`. The ids fill one buffer that
    grows by half. A row wider than numpy can index is refused before the
    stream is read.
    """
    check_chunk_len(chunk_len)
    # probed at int32 width whatever the ids' type: numpy takes a (0, 2^62) int8 shape
    with allocating(f"chunk length {chunk_len}", 4 * chunk_len, "a row of ids", "use a shorter chunk length"):
        np.empty((0, chunk_len), dtype=np.int32)  # the shape of a stream shorter than one row
    index = TokenIndex(table.token_ids, _id_dtype(table.vocab_size))
    ids = np.empty(BLOCK_CHARS, dtype=index.dtype)
    n, carry = 0, b""
    # a last line break ends a last token that no blank ends
    for text in chain(iter(lambda: stream.read(BLOCK_CHARS), ""), ["\n"]):
        if not text.isascii():
            for blank in _NON_ASCII_BLANKS:  # a scan each; str.translate is far slower
                text = text.replace(blank, " ")
        data = b"".join((b" ", carry, _encode(text), _PAD))
        block, carry = _block_ids(data, index, table.token_ids)
        if n + block.size > ids.size:
            ids.resize(max(n + block.size, ids.size * 3 // 2), refcheck=False)
        ids[n : n + block.size] = block
        n += block.size
    rows = n // chunk_len
    ids.resize(rows * chunk_len, refcheck=False)
    return ids.reshape(rows, chunk_len)


def shuffle_rows(ids: np.ndarray, seed: int) -> np.ndarray:
    """Permute the symbols within each row, one `permutation` draw per row in
    order from `default_rng(seed)`: the shuffled negative control."""
    rng = np.random.default_rng(seed)
    shuffled = np.array(ids, copy=True)
    for row in shuffled:
        row[:] = row[rng.permutation(row.size)]
    return shuffled
