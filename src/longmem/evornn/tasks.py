"""Synthetic symbol tasks with controllable dependence range.

The lag-recall task emits uniform random sequences whose labels are copies
of earlier positions: each of the H+1 labels is the symbol at distance
L - tau from the start, with tau drawn from a truncated power law on
[1, L-1]. Small tail exponents spread the lags out (long memory needed);
as the exponent grows the distribution collapses onto lag 1.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import DomainError, allocating


def lag_distribution(seq_len: int, tail_exponent: float) -> np.ndarray:
    """P(tau) proportional to tau^(-a) over tau = 1..L-1.

    An infinite exponent collapses exactly onto tau = 1 (1^-inf = 1, the
    rest underflow to 0).
    """
    if seq_len < 2:
        raise DomainError(f"sequence length must be >= 2, got {seq_len}")
    with allocating(f"sequence length {seq_len}", 8 * (seq_len - 1), "its lag distribution"):
        taus = np.arange(1, seq_len, dtype=np.float64)
    weights = taus ** (-tail_exponent)
    total = weights.sum()
    if not np.isfinite(total) or total <= 0:
        raise DomainError(f"tail exponent {tail_exponent} gives no valid distribution")
    return weights / total


def task_lag_recall(
    vocab_size: int,
    seq_len: int,
    tail_exponent: float = 2.0,
    seed: int = 0,
    horizon: int = 0,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Endless stream of (ids, labels) int arrays, deterministic per seed.

    Labels always appear in the input: label j is sequence position
    L - tau_j with tau_j in [1, L-1]. Bad arguments, and sizes too large to
    allocate, raise here, before the first draw.
    """
    if vocab_size < 2:
        raise DomainError(f"vocab size must be >= 2, got {vocab_size}")
    if horizon < 0:
        raise DomainError(f"horizon must be >= 0, got {horizon}")
    # the inverse-CDF draw `rng.choice(taus, p=...)` makes, with the
    # cumulative sum built once instead of on every call
    cdf = lag_distribution(seq_len, tail_exponent).cumsum()
    cdf /= cdf[-1]
    with allocating(f"horizon {horizon}", 8 * (horizon + 1), "its lag draws"):
        uniforms = np.empty(horizon + 1)
    return _lag_recall_draws(vocab_size, seq_len, cdf, uniforms, np.random.default_rng(seed))


def _lag_recall_draws(
    vocab_size: int, seq_len: int, cdf: np.ndarray, uniforms: np.ndarray, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The stream of `task_lag_recall`, from its checked arguments."""
    while True:
        ids = rng.integers(0, vocab_size, size=seq_len)
        lags = 1 + cdf.searchsorted(rng.random(out=uniforms), side="right")
        yield ids, ids[seq_len - lags]
