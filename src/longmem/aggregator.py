"""Dataset-scale aggregation of per-sequence estimates.

Per-sequence memory coefficients are noisy; across a corpus they are
combined by an exponential moving average over mini-batches,

    d_hat_{i+1} = (1 - alpha_i) d_hat_i + alpha_i * mean(batch_i),

with an inverse-decay learning rate alpha_i = alpha0 * tau / (tau + i).
The update is evaluated in the residual form d_hat + alpha*(mean - d_hat),
which is the same convex combination but keeps a constant stream an exact
floating-point fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, TextIO

import numpy as np

from .embeddings import (
    EmbeddingTable,
    OovPolicy,
    SymbolSequence,
    lookup_sequence,
    pad_to_length,
)
from .errors import DimensionMismatchError, DomainError, EmptyInputError, LongmemError
from .estimator import EstimatorConfig, estimate_from_periodogram
from .spectral import Periodogram, periodogram


@dataclass(frozen=True)
class EmaState:
    """Running estimate d_hat after `step` batch updates."""

    d_hat: np.ndarray
    step: int

    def __post_init__(self):
        d = np.asarray(self.d_hat, dtype=np.float64)
        if d.ndim != 1:
            raise DimensionMismatchError(f"d_hat must be a vector, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise DomainError("d_hat entries must be finite")
        object.__setattr__(self, "d_hat", d)


@dataclass(frozen=True)
class LearningRateSchedule:
    """Inverse decay alpha_i = alpha0 * tau / (tau + i)."""

    alpha0: float = 1.0
    tau: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.alpha0 <= 1.0:
            raise DomainError(f"alpha0 must lie in (0, 1], got {self.alpha0}")
        if self.tau <= 0.0:
            raise DomainError(f"tau must be positive, got {self.tau}")

    def alpha(self, step: int) -> float:
        return self.alpha0 * self.tau / (self.tau + step)


def ema_init(p: int, d0: Optional[np.ndarray] = None) -> EmaState:
    """Initial state; d0 defaults to the zero vector (forgotten when alpha0=1)."""
    if p < 1:
        raise DomainError(f"dimension must be positive, got {p}")
    if d0 is None:
        d0 = np.zeros(p)
    d0 = np.asarray(d0, dtype=np.float64)
    if d0.shape != (p,):
        raise DimensionMismatchError(f"d0 must have shape ({p},), got {d0.shape}")
    return EmaState(d_hat=d0, step=0)


def ema_update(state: EmaState, batch: np.ndarray, schedule: LearningRateSchedule) -> EmaState:
    """One convex-combination step toward the batch mean."""
    b = np.asarray(batch, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] < 1:
        raise EmptyInputError(f"batch must be a non-empty B x p matrix, got shape {b.shape}")
    if b.shape[1] != state.d_hat.size:
        raise DimensionMismatchError(
            f"batch dimension {b.shape[1]} does not match state dimension {state.d_hat.size}"
        )
    if not np.all(np.isfinite(b)):
        raise DomainError("batch entries must be finite")
    alpha = schedule.alpha(state.step)
    batch_mean = b.mean(axis=0)
    d_next = state.d_hat + alpha * (batch_mean - state.d_hat)
    return EmaState(d_hat=d_next, step=state.step + 1)


@dataclass(frozen=True)
class AggregateResult:
    """Final EMA state plus bookkeeping from a dataset run."""

    state: EmaState
    n_estimated: int
    n_skipped: int
    mean_periodogram: Optional[Periodogram]


def _batched(iterable: Iterable, size: int):
    batch = []
    for item in iterable:
        batch.append(item)
        if len(batch) == size:
            yield batch
            batch = []
    if batch:
        yield batch


def run_dataset(
    sequences: Iterable[SymbolSequence],
    table: EmbeddingTable,
    config: EstimatorConfig,
    policy: OovPolicy,
    schedule: LearningRateSchedule,
    batch_size: int,
    progress: Optional[TextIO] = None,
) -> AggregateResult:
    """Consume a sequence stream in batches of `batch_size` and aggregate.

    Sequences that fail to estimate (e.g. degenerate) are skipped and
    counted; a final partial batch is processed at its actual size.
    """
    if batch_size < 1:
        raise DomainError(f"batch size must be positive, got {batch_size}")

    def estimate_one(seq: SymbolSequence) -> Optional[tuple[np.ndarray, np.ndarray]]:
        try:
            series = pad_to_length(lookup_sequence(table, seq, policy), config.pad_length)
            pg = periodogram(series)
            est = estimate_from_periodogram(pg, config)
            return est.d, pg.power
        except LongmemError:
            return None

    state: Optional[EmaState] = None
    n_estimated = 0
    n_skipped = 0
    power_sum: Optional[np.ndarray] = None
    pad_length = config.pad_length
    for batch in _batched(sequences, batch_size):
        results = [estimate_one(seq) for seq in batch]
        estimates = [r[0] for r in results if r is not None]
        n_skipped += sum(1 for r in results if r is None)
        if not estimates:
            continue
        n_estimated += len(estimates)
        for _, power in (r for r in results if r is not None):
            power_sum = power.copy() if power_sum is None else power_sum + power
        if state is None:
            state = ema_init(estimates[0].size)
        batch_index = state.step
        state = ema_update(state, np.stack(estimates), schedule)
        if progress is not None:
            progress.write(
                f"batch={batch_index} alpha={schedule.alpha(batch_index):.6g} "
                f"dbar_mean={float(state.d_hat.mean()):.6g}\n"
            )
    if state is None:
        raise EmptyInputError("no sequence could be estimated")
    mean_pg = Periodogram(length=pad_length, power=power_sum / n_estimated)
    return AggregateResult(
        state=state, n_estimated=n_estimated, n_skipped=n_skipped, mean_periodogram=mean_pg
    )
