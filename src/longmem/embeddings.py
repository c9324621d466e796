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
from itertools import chain, repeat
from typing import Iterable, Iterator, Optional, Sequence, TextIO, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    EmbeddingParseError,
    EmptyInputError,
    LengthExceededError,
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
    `token_ids` maps the original string tokens to row indices.
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
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "_mean", v.mean(axis=0))

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


#: Lines whose value strings `load_table` holds for one float cast: enough
#: to amortize the cast, few enough that the strings (~4.5 KB a line at
#: p=50) add no table-size term to its peak memory.
_CAST_LINES = 1024


def load_table(source: Union[TextIO, Iterable[str]]) -> EmbeddingTable:
    """Parse a GloVe-style text stream into an EmbeddingTable.

    Each non-empty line is `token v1 ... vp` (whitespace separated). All
    lines must share the same p. Duplicate tokens keep the first occurrence,
    but their values must parse too.
    """
    token_ids: dict[str, int] = {}
    blocks: list[np.ndarray] = []
    rows: list[list[str]] = []
    line_numbers: list[int] = []
    first_rows: list[int] = []
    n_rows = 0
    dim: int | None = None
    for line_number, line in enumerate(source, start=1):
        parts = line.split()
        if not parts:
            continue
        token, raw_values = parts[0], parts[1:]
        if not raw_values:
            raise EmbeddingParseError(line_number, f"no values after token {token!r}")
        if dim is None:
            dim = len(raw_values)
        elif len(raw_values) != dim:
            raise DimensionMismatchError(
                f"line {line_number}: expected {dim} values, got {len(raw_values)}"
            )
        if token not in token_ids:  # first occurrence wins
            token_ids[token] = len(first_rows)
            first_rows.append(n_rows)
        n_rows += 1
        rows.append(raw_values)
        line_numbers.append(line_number)
        if len(rows) == _CAST_LINES:
            blocks.append(_parse_values(rows, line_numbers))
            rows, line_numbers = [], []
    if rows:
        blocks.append(_parse_values(rows, line_numbers))
    if not blocks:
        raise EmptyInputError("embedding stream contains no rows")
    values = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    if len(first_rows) < n_rows:
        values = values[first_rows]
    return EmbeddingTable(vectors=values, token_ids=token_ids)


def _parse_values(rows: list[list[str]], line_numbers: list[int]) -> np.ndarray:
    """The value strings of table lines as a float64 matrix, by one cast;
    an unparsable or non-finite value raises naming its line."""
    try:
        # numpy's str -> float64 cast accepts and rejects what float() does
        values = np.array(rows, dtype=np.float64)
    except ValueError:
        for row, line_number in zip(rows, line_numbers):
            try:
                np.array(row, dtype=np.float64)
            except ValueError as exc:
                raise EmbeddingParseError(line_number, str(exc)) from None
        raise
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise EmbeddingParseError(line_numbers[np.argmin(finite)], "non-finite embedding value")
    return values


def row_ids(table: EmbeddingTable, tokens: Iterable[Token]) -> np.ndarray:
    """Map tokens to table rows: strings through `token_ids` (OOV_ID when
    absent), integers as they are; `embed_ids` checks the range."""
    get = table.token_ids.get
    return np.fromiter(
        (get(t, OOV_ID) if isinstance(t, str) else int(t) for t in tokens), dtype=np.intp
    )


def embed_ids(
    table: EmbeddingTable,
    ids: np.ndarray,
    policy: OovPolicy,
    length: int,
    out: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Embed and front zero-pad a B x n block of row ids to B x length x p,
    applying the OOV policy; also returns each row's embedded symbol count.
    The block is written into `out`, a C-contiguous B x length x p float64
    array, when given. Under `skip` the kept symbols of a row are
    right-aligned, in order. A row that gets padding is demeaned over its
    symbols first, else the pad adds a step that reads as low-frequency
    power (Percival & Walden)."""
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 2:
        raise DimensionMismatchError(f"ids must be a B x n matrix, got shape {ids.shape}")
    if ids.shape[1] > length:
        raise LengthExceededError(
            f"sequence length {ids.shape[1]} exceeds pad length {length}; chunk first"
        )
    lowest = ids.min(initial=0)
    if lowest < OOV_ID or ids.max(initial=0) >= table.vocab_size:
        bad = (ids < OOV_ID) | (ids >= table.vocab_size)
        raise DomainError(
            f"symbol id {ids[bad][0]} outside [0, {table.vocab_size}) and not the OOV marker"
        )
    if policy is OovPolicy.SKIP:
        keep = ids != OOV_ID
        kept = np.count_nonzero(keep, axis=1)
        padded = np.zeros((ids.shape[0], length), dtype=np.intp)
        for row, mask, n, place in zip(ids, keep, kept, padded):
            place[length - n :] = row[mask]
    else:  # every id is kept
        kept = np.full(ids.shape[0], ids.shape[1])
        padded = ids
        if ids.shape[1] < length:
            padded = np.zeros((ids.shape[0], length), dtype=np.intp)
            padded[:, length - ids.shape[1] :] = ids
    # the pad and OOV_ID (-1) gather row 0 here, without copying the table
    block = table.vectors.take(padded, axis=0, out=out, mode="clip")
    if lowest == OOV_ID and policy is not OovPolicy.SKIP:
        block[padded == OOV_ID] = table.mean_vector if policy is OovPolicy.MEAN else 0.0
    for b in np.flatnonzero(kept < length):
        block[b, : length - kept[b]] = 0.0
        if kept[b]:
            _demean(block[b, length - kept[b] :])
    return block, kept


def _demean(values: np.ndarray) -> np.ndarray:
    """Subtract its column means from a C-contiguous T x p array, in place.
    A column of one repeated value becomes exactly zero: its rounded mean
    can leave a residue, whose pad edge would then read as memory."""
    columns = values.T.copy()  # numpy reduces contiguous rows far faster than narrow columns
    constant = columns.min(axis=1) == columns.max(axis=1)
    flat = values.reshape(-1)  # a view; one pass over it beats numpy's axis-0 loops for small p
    flat -= np.tile(np.ones(len(values)) @ values / len(values), len(values))
    values[:, constant] = 0.0
    return values


def lookup_sequence(
    table: EmbeddingTable, seq: SymbolSequence, policy: OovPolicy
) -> EmbeddedSeries:
    """Embed a symbol sequence, applying the OOV policy; order preserved."""
    ids = row_ids(table, seq.ids)
    if policy is OovPolicy.SKIP:
        ids = ids[ids != OOV_ID]
    block, kept = embed_ids(table, ids[None], policy, ids.size)
    if kept[0] == 0:
        raise EmptyInputError("all symbols were OOV under the skip policy")
    return EmbeddedSeries(values=block[0])


def pad_to_length(series: EmbeddedSeries, length: int) -> EmbeddedSeries:
    """Prepend zero rows to exactly `length` rows, demeaning first as `embed_ids` does."""
    if length < 1:
        raise DomainError(f"pad length must be positive, got {length}")
    if series.length > length:
        raise LengthExceededError(
            f"series length {series.length} exceeds pad length {length}; chunk first"
        )
    if series.length == length:
        return series
    pad = np.zeros((length - series.length, series.dim))
    return EmbeddedSeries(values=np.concatenate([pad, _demean(series.values.copy())], axis=0))


def chunk_corpus(tokens: Iterable[Token], chunk_len: int) -> list[SymbolSequence]:
    """Split a token stream into consecutive chunks of exactly `chunk_len`.

    A final partial chunk is dropped.
    """
    if chunk_len < 1:
        raise DomainError(f"chunk length must be positive, got {chunk_len}")
    tokens = list(tokens)
    ends = range(chunk_len, len(tokens) + 1, chunk_len)
    return [SymbolSequence(tokens[end - chunk_len : end]) for end in ends]


def iter_corpus_tokens(stream: Union[TextIO, Iterable[str]]) -> Iterator[str]:
    """Yield whitespace-separated tokens from a line-oriented text stream."""
    for line in stream:
        yield from line.split()


def read_corpus_ids(
    stream: Union[TextIO, Iterable[str]], table: EmbeddingTable, chunk_len: int
) -> np.ndarray:
    """Read a token stream as an N x chunk_len matrix of table row ids, one
    row per consecutive chunk; a final partial chunk is dropped."""
    if chunk_len < 1:
        raise DomainError(f"chunk length must be positive, got {chunk_len}")
    get = table.token_ids.get
    # line by line into one fromiter: no per-token generator frame, no per-line array
    lines = (map(get, line.split(), repeat(OOV_ID)) for line in stream)
    ids = np.fromiter(chain.from_iterable(lines), dtype=np.intp)
    rows = ids.size // chunk_len
    return ids[: rows * chunk_len].reshape(rows, chunk_len)


def shuffle_rows(ids: np.ndarray, seed: int) -> np.ndarray:
    """Permute the symbols within each row, one `permutation` draw per row in
    order from `default_rng(seed)`: the shuffled negative control."""
    rng = np.random.default_rng(seed)
    shuffled = np.array(ids, copy=True)
    for row in shuffled:
        row[:] = row[rng.permutation(row.size)]
    return shuffled
