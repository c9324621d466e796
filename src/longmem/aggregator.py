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

import math
from dataclasses import dataclass
from typing import Optional, TextIO

import numpy as np

from .embeddings import EmbeddingTable, OovPolicy, embed_ids
from .errors import DimensionMismatchError, DomainError, EmptyInputError
from .estimator import (
    EstimatorConfig,
    LrdEstimate,
    estimate_from_periodogram,
    estimate_report,
    fit_periodograms,
    fitted_bins,
)
from .spectral import Periodogram, periodograms


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
        if not 0.0 < self.tau < math.inf:
            raise DomainError(f"tau must be positive and finite, got {self.tau}")

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
    """Final EMA state, bookkeeping and the mean-periodogram fit of a dataset run."""

    state: EmaState
    n_estimated: int
    n_skipped: int
    mean_periodogram: Periodogram
    pooled: LrdEstimate


#: Bytes of time-last float64 series per slab, the rows `run_dataset` embeds,
#: transforms and fits at a time, so a batch's arrays stay in cache and
#: memory does not grow with the batch size. Measured as the median of 5
#: whole perfbench jobs on a 2-core box: `estimate-wide` (400 KiB rows) took
#: 1.89 s at 1 row a slab, 1.64 s at 2, 1.72 s at 8 and 2.16 s at its whole
#: 64-row batch; `estimate-long-oov` (128 KiB rows) took 0.19 s at 1-2 rows,
#: 0.155 s at 8 and 0.136 s at 16. 1 MiB gives them 2 and 8 rows.
SLAB_BYTES = 1 << 20


def run_dataset(
    ids: np.ndarray,
    table: EmbeddingTable,
    config: EstimatorConfig,
    policy: OovPolicy,
    schedule: LearningRateSchedule,
    batch_size: int,
    progress: Optional[TextIO] = None,
) -> AggregateResult:
    """Estimate an N x n matrix of table row ids (OOV_ID for OOV symbols)
    `batch_size` rows at a time, and aggregate.

    Each batch is embedded, transformed and fitted in slabs of about
    SLAB_BYTES of time-last series; its estimates then make one EMA update.
    Rows with zero power in a fitted bin, which includes all-OOV rows under
    the skip policy, are skipped and counted. A bad configuration raises.
    """
    if batch_size < 1:
        raise DomainError(f"batch size must be positive, got {batch_size}")
    ids = np.asarray(ids)
    length = config.pad_length
    m = fitted_bins(length // 2, config.cutoff)
    slab = min(batch_size, max(1, SLAB_BYTES // (8 * table.dim * length)))
    state: Optional[EmaState] = None
    n_estimated = 0
    power_sum: Optional[np.ndarray] = None
    for start in range(0, ids.shape[0], batch_size):
        batch_ids = ids[start : start + batch_size]
        estimates = []
        for first in range(0, batch_ids.shape[0], slab):
            rows = batch_ids[first : first + slab]
            # one transposed copy to time-last; the (B, L, p) block is freed here
            block = embed_ids(table, rows, policy, length)[0].transpose(0, 2, 1).copy()
            power = periodograms(block)
            del block
            keep = np.all(power[..., :m] > 0.0, axis=(1, 2))
            if not keep.all():
                power = power[keep]
                if power.shape[0] == 0:
                    continue
            estimates.append(fit_periodograms(power, config.cutoff).d)
            if power_sum is not None:
                # fold the running sum in first, so rows are added in stream order
                power[0] += power_sum
            power_sum = power.sum(axis=0)
            del power  # before the next slab allocates its own
        if not estimates:
            continue
        batch = np.concatenate(estimates)
        n_estimated += batch.shape[0]
        if state is None:
            state = ema_init(table.dim)
        batch_index = state.step
        state = ema_update(state, batch, schedule)
        if progress is not None:
            progress.write(
                f"batch={batch_index} alpha={schedule.alpha(batch_index):.6g} "
                f"dbar_mean={float(state.d_hat.mean()):.6g}\n"
            )
    if state is None:
        raise EmptyInputError("no sequence could be estimated")
    mean_pg = Periodogram(length=length, power=(power_sum / n_estimated).T)
    pooled = estimate_from_periodogram(mean_pg, config)
    return AggregateResult(state, n_estimated, ids.shape[0] - n_estimated, mean_pg, pooled)


def dataset_report(result: AggregateResult) -> dict:
    """Plain-JSON report of a dataset run.

    `d` is the EMA of per-sequence fits. `d_pooled`, `intercept`, `stderr`
    and `pvalue` come from one fit to the mean periodogram.
    """
    report = estimate_report(result.pooled)
    report["d"] = [float(v) for v in result.state.d_hat]
    report["d_pooled"] = [float(v) for v in result.pooled.d]
    report["n_estimated"] = result.n_estimated
    report["n_skipped"] = result.n_skipped
    report["batches"] = result.state.step
    return report
