"""Dataset-scale aggregation of per-sequence estimates.

Per-sequence memory coefficients are noisy; across a corpus they are
combined by an exponential moving average over mini-batches,

    d_hat_{i+1} = (1 - alpha_i) d_hat_i + alpha_i * mean(batch_i),

with an inverse-decay learning rate alpha_i = alpha0 * tau / (tau + i).
The update is evaluated in the residual form d_hat + alpha*(mean - d_hat),
which is the same convex combination but keeps a constant stream an exact
floating-point fixed point.

`run_dataset` runs the slabs of a batch on up to one worker per usable
CPU (see SLABS_PER_WORKER for when it keeps to one): the calling thread
and helper threads, each handed the batch once. Each worker folds a slab's
result into the batch at that slab's turn, in stream order, so the result
is the same, bit for bit, for any number of workers.
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
#: Each batch wakes each helper thread once and waits for the slowest
#: worker, and a wake-up costs a few hundred microseconds on a VM, a good
#: part of a slab. Measured as `run_dataset` alone on the perfbench inputs,
#: two workers against one, in three runs of the medians of 11-21
#: interleaved runs on a 2-core VM whose speed drifted by up to 30%
#: between runs: `estimate-wide` (2 rows a slab) ran 1.02-1.46x as fast at
#: 2 slabs a batch, 1.20-1.48x at 4 and 1.50-1.58x at its 32;
#: `estimate-long-oov` (8 rows a slab) ran 1.01-1.05x at its 2 slabs a
#: batch, 1.11-1.18x at 4 and 1.10-1.14x at 12. So `estimate-long-oov`
#: keeps one worker, which also keeps its peak memory to one 2 MiB
#: workspace (a second raised its `peak_rss_mb` by 4%, against a 5% bound).
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


class _Batch:
    """The slabs of one batch and what their results add up to. Each slab's
    result is folded in at its turn, and the turns follow stream order, so
    the power rows are summed and the estimates kept in the order one
    worker would take them."""

    def __init__(self, slabs: list[np.ndarray], stride: int, power_sum: np.ndarray,
                 table: EmbeddingTable):
        self.slabs, self.stride, self.power_sum, self.table = slabs, stride, power_sum, table
        self.estimates: list[np.ndarray] = []
        self.n_constant = 0
        #: the first error in stream order; no later slab is folded in
        self.error: Optional[Exception] = None
        self._stopped = False
        self._turn = 0
        self._turns = threading.Condition(threading.Lock())

    @property
    def live(self) -> bool:
        """Whether a slab run now can still be folded in."""
        return self.error is None and not self._stopped

    def fold(self, index: int, result) -> None:
        """Wait for slab `index`'s turn, fold in its result, which is an
        error or what `_SlabWorker._fit` returns, and pass the turn on."""
        with self._turns:
            while self._turn != index and not self._stopped:
                self._turns.wait()
            try:
                if self.live:
                    self._add(result)
            finally:
                self._turn += 1
                self._turns.notify_all()

    def stop(self) -> None:
        """Give every later turn at once and fold nothing more in, so that
        no worker is left waiting on a slab that will not be folded."""
        with self._turns:
            self._stopped = True
            self._turns.notify_all()

    def _add(self, result) -> None:
        if isinstance(result, Exception):
            self.error = result
            return
        constant, power, estimate = result
        self.n_constant += constant
        if estimate is None:
            return
        self.estimates.append(estimate)  # fit_d's own array, not a view of the workspace
        try:
            with np.errstate(over="raise"):
                for row in power:  # one row at a time: the sum adds rows in stream order
                    self.power_sum += row
        except FloatingPointError:
            self.error = _scale_error(self.table)


class _SlabWorker:
    """One slab workspace and the slab body that writes it. `run` runs the
    worker's slabs of a batch in the calling thread; with `thread`, the
    worker also has a thread of its own, which runs one batch per
    `start` and tells `wait` when it is done."""

    def __init__(self, table: EmbeddingTable, config: EstimatorConfig, policy: OovPolicy,
                 m: int, slab: int, thread: bool):
        p, length = table.dim, config.pad_length
        self.table, self.config, self.policy, self.m = table, config, policy, m
        # all a slab writes: its time-last series, later its power, and its
        # spectrum, which first holds the gathered block and last the logs
        # of the fitted bins
        self.series = np.empty((slab, p, length))
        self.spectrum = np.empty((slab, p, length // 2 + 1), dtype=np.complex128)
        self._thread: Optional[threading.Thread] = None
        if thread:
            self._inbox: queue.SimpleQueue = queue.SimpleQueue()
            self._outbox: queue.SimpleQueue = queue.SimpleQueue()
            self._thread = threading.Thread(target=self._serve_batches, name="longmem-slab", daemon=True)
            self._thread.start()

    def start(self, batch: _Batch, first: int) -> None:
        """Have the thread run slabs `first`, `first + stride`, ... of a batch."""
        self._inbox.put((batch, first))

    def wait(self) -> None:
        """Wait for the thread to finish its slabs of the batch it was given."""
        self._outbox.get()

    def close(self) -> None:
        """End the thread, once it has finished any batch it was given."""
        if self._thread is not None:
            self._inbox.put(None)
            self._thread.join()

    def _serve_batches(self) -> None:
        while (message := self._inbox.get()) is not None:
            self.run(*message)
            self._outbox.put(None)

    def run(self, batch: _Batch, first: int) -> None:
        """Run slabs `first`, `first + stride`, ... of a batch back to
        back, each folded in at its turn, before the workspace is reused."""
        for index in range(first, len(batch.slabs), batch.stride):
            batch.fold(index, self._slab(batch.slabs[index]) if batch.live else None)

    def _slab(self, rows: np.ndarray):
        """Embed, transform and fit a slab; an error is returned, to be
        raised in the caller in stream order."""
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
        series = self.series[:k]
        embed_ids(self.table, rows, self.policy, length, out=series, work=floats)
        power = self.series.reshape(-1)[: k * p * n_bins].reshape(k, p, n_bins)
        periodograms(series, spectrum=self.spectrum[:k], out=power)
        keep = power[..., : self.m].min(axis=(1, 2)) > 0.0
        n_constant = 0
        if not keep.all():
            n_constant = int(np.count_nonzero(~power[~keep].any(axis=(1, 2))))
            power = power[keep]
            if power.shape[0] == 0:
                return n_constant, power, None
        return n_constant, power, fit_d(power, self.config.cutoff, work=floats)


def check_batch_size(batch_size: int) -> None:
    """Refuse a batch size `run_dataset` cannot take."""
    if batch_size < 1:
        raise DomainError(f"batch size must be positive, got {batch_size}")


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
    at most one per usable CPU, each with a workspace of its own. Worker 0
    is the calling thread; each other worker is a helper thread, handed
    each batch in one message and answering in one when done. Worker w of
    W runs slabs w, w + W, w + 2W, ... of the batch back to back, and after
    each waits for that slab's turn, which comes in stream order: it then
    adds the slab's power rows to the sum and counts its skipped rows, as
    one worker would. Once every worker is done with the batch, the calling
    thread makes the EMA update and writes the progress line. The result
    is therefore the same, bit for bit, for any number of workers, and the
    first slab error in stream order is raised in the calling thread.
    """
    check_batch_size(batch_size)
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
    batch: Optional[_Batch] = None
    try:
        for index in range(n_workers):
            workers.append(_SlabWorker(table, config, policy, m, slab, thread=index > 0))
        for start in range(0, ids.shape[0], batch_size):
            batch_ids = ids[start : start + batch_size]
            slabs = [batch_ids[first : first + slab] for first in range(0, batch_ids.shape[0], slab)]
            batch = _Batch(slabs, n_workers, power_sum, table)
            for first, helper in enumerate(workers[1:], 1):
                helper.start(batch, first)
            workers[0].run(batch, 0)
            for helper in workers[1:]:
                helper.wait()
            # every slab of the batch is done: no worker runs from here to its next batch
            if batch.error is not None:
                raise batch.error
            n_constant += batch.n_constant
            if not batch.estimates:
                continue
            batch_estimates = np.concatenate(batch.estimates)
            n_estimated += batch_estimates.shape[0]
            if state is None:
                state = ema_init(table.dim)
            batch_index = state.step
            state = ema_update(state, batch_estimates, schedule)
            if progress is not None:
                progress.write(
                    f"batch={batch_index} alpha={schedule.alpha(batch_index):.6g} "
                    f"dbar_mean={float(state.d_hat.mean()):.6g}\n"
                )
    finally:
        if batch is not None:
            batch.stop()
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
