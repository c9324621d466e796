"""Dataset-scale aggregation of per-sequence estimates.

Per-sequence memory coefficients are noisy; across a corpus they are
combined by an exponential moving average over mini-batches,

    d_hat_{i+1} = (1 - alpha_i) d_hat_i + alpha_i * mean(batch_i),

with an inverse-decay learning rate alpha_i = alpha0 * tau / (tau + i).
The update is evaluated in the residual form d_hat + alpha*(mean - d_hat),
which is the same convex combination but keeps a constant stream an exact
floating-point fixed point.

`run_dataset` runs the slabs of a batch on up to one thread per usable CPU
(see SLABS_PER_WORKER for when it keeps to one), and takes their results
in stream order, so its result is the same, bit for bit, for any number
of workers.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from dataclasses import dataclass
from typing import Optional, TextIO

import numpy as np

from .embeddings import EmbeddingTable, OovPolicy, embed_ids
from .errors import DimensionMismatchError, DomainError, EmptyInputError
from .estimator import (
    EstimatorConfig,
    LrdEstimate,
    d_stderr_asymptotic,
    estimate_from_periodogram,
    fit_d,
    fitted_bins,
)
from .spectral import Periodogram, periodograms

REPORT_SCHEMA_VERSION = 1

#: The regression abscissa is log k for the bin index k; reports name it.
REPORT_ABSCISSA = "index"


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
    #: slab workers the run used (see `run_dataset`)
    workers: int = 1


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

#: Slabs of a full batch per slab worker of `run_dataset`: a batch of fewer
#: than twice this many slabs runs on one worker, in the calling thread.
#: Each batch starts by waking its workers and ends by waiting for the
#: slowest, and these hand-offs cost a few hundred microseconds on a VM, as
#: much as a slab. Measured as `run_dataset` alone on the perfbench inputs,
#: two workers against one, median of 15 interleaved runs on a 2-core box:
#: `estimate-wide` (2 rows a slab) ran 1.18x as fast at 2 slabs a batch,
#: 1.27x at 4 and 1.34x at its 32; `estimate-long-oov` (8 rows a slab) ran
#: 0.98x at its 2 slabs a batch, 0.99x at 4 and 1.03x at 12. So
#: `estimate-long-oov` keeps one worker.
SLABS_PER_WORKER = 2


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _scale_error(table: EmbeddingTable) -> DomainError:
    """The error for a table whose values overflow the periodograms or
    their sum."""
    scale = float(np.abs(table.vectors).max())
    return DomainError(
        f"the embedding table's scale (max |v| = {scale:.3g}) overflows the "
        "periodogram; d does not depend on the scale, so divide the table by a constant"
    )


class _SlabWorker:
    """One slab workspace and the slab body that writes it, run in the
    calling thread as each slab is given or, with `thread`, on a thread of
    its own. A slab's result is a view of the workspace: the next slab is
    given only once the caller is done with it."""

    def __init__(self, table: EmbeddingTable, config: EstimatorConfig, policy: OovPolicy,
                 m: int, slab: int, thread: bool):
        p, length = table.dim, config.pad_length
        self.table, self.config, self.policy, self.m = table, config, policy, m
        # all a slab writes: its time-last series, later its power, and its
        # spectrum, which first holds the gathered block and last the logs
        # of the fitted bins
        self.series = np.empty((slab, p, length))
        self.spectrum = np.empty((slab, p, length // 2 + 1), dtype=np.complex128)
        self._result = None
        self._thread: Optional[threading.Thread] = None
        if thread:
            self._inbox: queue.SimpleQueue = queue.SimpleQueue()
            self._outbox: queue.SimpleQueue = queue.SimpleQueue()
            self._thread = threading.Thread(target=self._serve, name="longmem-slab", daemon=True)
            self._thread.start()

    def put(self, rows: np.ndarray) -> None:
        """Start on a slab of rows."""
        if self._thread is None:
            self._result = self._slab(rows)
        else:
            self._inbox.put(rows)

    def get(self) -> tuple[int, np.ndarray, Optional[np.ndarray]]:
        """The last slab's count of constant rows, its kept rows' power and
        their estimates (None when no row is kept); raises the slab's error."""
        result = self._result if self._thread is None else self._outbox.get()
        if isinstance(result, Exception):
            raise result
        return result

    def close(self) -> None:
        """End the thread, once it has finished any slab it was given."""
        if self._thread is not None:
            self._inbox.put(None)
            self._thread.join()

    def _serve(self) -> None:
        while (rows := self._inbox.get()) is not None:
            self._outbox.put(self._slab(rows))

    def _slab(self, rows: np.ndarray):
        """Embed, transform and fit a slab; an error is returned, for the
        caller to raise when it takes the slab, in stream order."""
        try:
            # errstate is per thread: a worker's is its own, not its caller's
            with np.errstate(over="raise"):
                return self._fit(rows)
        except FloatingPointError:
            return _scale_error(self.table)
        except Exception as exc:
            return exc

    def _fit(self, rows: np.ndarray) -> tuple[int, np.ndarray, Optional[np.ndarray]]:
        k, p, length = rows.shape[0], self.table.dim, self.config.pad_length
        n_bins = length // 2
        floats = self.spectrum.view(np.float64).reshape(-1)
        block = floats[: k * length * p].reshape(k, length, p)
        embed_ids(self.table, rows, self.policy, length, out=block)
        np.copyto(self.series[:k], block.transpose(0, 2, 1))
        power = self.series.reshape(-1)[: k * p * n_bins].reshape(k, p, n_bins)
        periodograms(self.series[:k], spectrum=self.spectrum[:k], out=power)
        keep = power[..., : self.m].min(axis=(1, 2)) > 0.0
        n_constant = 0
        if not keep.all():
            n_constant = int(np.count_nonzero(~power[~keep].any(axis=(1, 2))))
            power = power[keep]
            if power.shape[0] == 0:
                return n_constant, power, None
        return n_constant, power, fit_d(power, self.config.cutoff, work=floats)


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

    The slabs run on one worker per SLABS_PER_WORKER slabs of a full batch,
    at most one per usable CPU, each a thread with a workspace of its own;
    a single worker runs in the calling thread. The calling thread takes
    the slabs' results in stream order: it adds the power rows, counts the
    skipped rows and, once every slab of the batch is done, makes the EMA
    update and writes the progress line. The result is therefore the same,
    bit for bit, for any number of workers, and a slab's error is raised
    as it would be by one worker.
    """
    if batch_size < 1:
        raise DomainError(f"batch size must be positive, got {batch_size}")
    ids = np.asarray(ids)
    p, length = table.dim, config.pad_length
    m = fitted_bins(length // 2, config.cutoff)
    slab = min(batch_size, max(1, SLAB_BYTES // (8 * p * length)))
    batch_slabs = -(-min(batch_size, ids.shape[0]) // slab)
    n_workers = max(1, min(usable_cpus(), batch_slabs // SLABS_PER_WORKER))
    state: Optional[EmaState] = None
    n_estimated = n_constant = 0
    power_sum = np.zeros((p, length // 2))
    workers: list[_SlabWorker] = []
    try:
        for _ in range(n_workers):
            workers.append(_SlabWorker(table, config, policy, m, slab, thread=n_workers > 1))
        for start in range(0, ids.shape[0], batch_size):
            batch_ids = ids[start : start + batch_size]
            slabs = [batch_ids[first : first + slab] for first in range(0, batch_ids.shape[0], slab)]
            for index in range(min(n_workers, len(slabs))):
                workers[index].put(slabs[index])
            estimates = []
            for index in range(len(slabs)):
                worker = workers[index % n_workers]
                constant, power, estimate = worker.get()
                n_constant += constant
                if estimate is not None:
                    estimates.append(estimate)
                    try:
                        with np.errstate(over="raise"):
                            for row in power:  # one row at a time: the sum adds rows in stream order
                                power_sum += row
                    except FloatingPointError:
                        raise _scale_error(table) from None
                if index + n_workers < len(slabs):
                    worker.put(slabs[index + n_workers])
            # every slab of the batch is done: no worker runs from here to its next batch
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
    finally:
        for worker in workers:
            worker.close()
    if state is None:
        raise EmptyInputError("no sequence could be estimated")
    mean_pg = Periodogram(length=length, power=power_sum / n_estimated)
    pooled = estimate_from_periodogram(mean_pg, config)
    n_skipped = ids.shape[0] - n_estimated
    return AggregateResult(
        state, n_estimated, n_skipped, mean_pg, pooled, n_constant, n_skipped - n_constant,
        n_workers,
    )


def dataset_report(result: AggregateResult) -> dict:
    """Plain-JSON report of a dataset run, with the cutoff and abscissa used.

    `d` is the EMA of per-sequence fits. `d_pooled`, `intercept`, `stderr`
    and `pvalue` come from one fit to the mean periodogram. JSON has no
    NaN: the `stderr` and `pvalue` of a two-bin fit, which has no residual
    degrees of freedom, are written as None (null). `stderr` is the OLS
    standard error of the slope, twice that of d; `d_stderr_asymptotic` is
    a separate estimator, Robinson's (1995) asymptotic standard error of d
    over the fitted bins.
    """
    pooled = result.pooled
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "dim": int(pooled.d.size),
        "cutoff": pooled.cutoff_used,
        "abscissa": REPORT_ABSCISSA,
        "d": [float(v) for v in result.state.d_hat],
        "intercept": [float(v) for v in pooled.intercept],
        "stderr": [None if math.isnan(v) else float(v) for v in pooled.slope_stderr],
        "pvalue": [None if math.isnan(v) else float(v) for v in pooled.pvalue],
        "d_stderr_asymptotic": d_stderr_asymptotic(pooled.cutoff_used),
        "d_pooled": [float(v) for v in pooled.d],
        "n_estimated": result.n_estimated,
        "n_skipped": result.n_skipped,
        "n_skipped_constant": result.n_skipped_constant,
        "n_skipped_zero_power": result.n_skipped_zero_power,
        "batches": result.state.step,
    }
