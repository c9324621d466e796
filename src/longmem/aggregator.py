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
    fit_d,
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
    #: of n_skipped: rows whose every bin is 0.0 (constant or all-OOV rows)
    n_skipped_constant: int
    #: of n_skipped: the other rows, with zero power in some fitted bin
    n_skipped_zero_power: int


#: Bytes of time-last float64 series per slab, the rows `run_dataset` embeds,
#: transforms and fits at a time in its workspace, so a batch's arrays stay
#: in cache and memory does not grow with the batch size. Measured as the
#: median of 9 whole `estimate` jobs on the perfbench inputs, the sizes
#: interleaved, on a 2-core box: `estimate-wide` (400 KiB rows) took 1.30 s
#: at 1 row a slab, 1.25 s at 2, 1.35 s at 8 and 1.48 s at its whole 64-row
#: batch; `estimate-long-oov` (128 KiB rows) took 0.133 s at 1 row, 0.121 s
#: at 2, 0.114 s at 8 and 0.130 s at its whole 16-row batch. The host's
#: speed drifts by about 10% between runs. 1 MiB gives them 2 and 8 rows.
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
    A row's fit is its slopes alone: the inference is computed once, for
    the pooled fit of the mean periodogram. Rows with zero power in a
    fitted bin, which includes constant rows and all-OOV rows under the
    skip policy, are skipped and counted: as constant when every bin is
    zero, else as zero power. A bad configuration raises.
    """
    if batch_size < 1:
        raise DomainError(f"batch size must be positive, got {batch_size}")
    ids = np.asarray(ids)
    p, length = table.dim, config.pad_length
    n_bins = length // 2
    m = fitted_bins(n_bins, config.cutoff)
    slab = min(batch_size, max(1, SLAB_BYTES // (8 * p * length)))
    # the workspace, all a slab writes: its time-last series, later its
    # power, and its spectrum, which first holds the gathered block and last
    # the logs of the fitted bins
    series = np.empty((slab, p, length))
    spectrum = np.empty((slab, p, n_bins + 1), dtype=np.complex128)
    floats = spectrum.view(np.float64).reshape(-1)
    state: Optional[EmaState] = None
    n_estimated = n_constant = 0
    power_sum = np.zeros((p, n_bins))
    for start in range(0, ids.shape[0], batch_size):
        batch_ids = ids[start : start + batch_size]
        estimates = []
        for first in range(0, batch_ids.shape[0], slab):
            rows = batch_ids[first : first + slab]
            k = rows.shape[0]
            block = floats[: k * length * p].reshape(k, length, p)
            embed_ids(table, rows, policy, length, out=block)
            np.copyto(series[:k], block.transpose(0, 2, 1))
            power = series.reshape(-1)[: k * p * n_bins].reshape(k, p, n_bins)
            periodograms(series[:k], spectrum=spectrum[:k], out=power)
            keep = power[..., :m].min(axis=(1, 2)) > 0.0
            if not keep.all():
                n_constant += int(np.count_nonzero(~power[~keep].any(axis=(1, 2))))
                power = power[keep]
                if power.shape[0] == 0:
                    continue
            estimates.append(fit_d(power, config.cutoff, work=floats))
            for row in power:  # one row at a time: the sum adds rows in stream order
                power_sum += row
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
    n_skipped = ids.shape[0] - n_estimated
    return AggregateResult(
        state, n_estimated, n_skipped, mean_pg, pooled, n_constant, n_skipped - n_constant
    )


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
    report["n_skipped_constant"] = result.n_skipped_constant
    report["n_skipped_zero_power"] = result.n_skipped_zero_power
    report["batches"] = result.state.step
    return report
