"""Dataset-scale aggregation of per-sequence estimates.

Per-sequence memory coefficients are noisy; across a corpus they are
combined by an exponential moving average over mini-batches,

    d_hat_{i+1} = (1 - alpha_i) d_hat_i + alpha_i * mean(batch_i),

with an inverse-decay learning rate alpha_i = alpha0 * tau / (tau + i).
The update is evaluated in the residual form d_hat + alpha*(mean - d_hat),
which is the same convex combination but keeps a constant stream an exact
floating-point fixed point.

`run_dataset` cuts each batch into slabs and runs them on up to one worker
per usable CPU, choosing the slab rows and the workers together (see
`_slab_plan`): the calling thread and helper threads started once a run.
Each worker folds a slab's result in at that slab's turn, in stream order,
and the turn of a batch's last slab also makes the batch's EMA update, so
the result is the same, bit for bit, for any slab size and number of
workers.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Optional, TextIO

import numpy as np

from .embeddings import EmbeddingTable, OovPolicy, check_ids, embed_block
from .errors import DimensionMismatchError, DomainError, EmptyInputError, allocating
from .estimator import (
    EstimatorConfig,
    LrdEstimate,
    SlopeFit,
    d_stderr_asymptotic,
    estimate_from_periodogram,
)
from .spectral import Periodogram, check_length, power_block

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
    #: rows of the run's longest slab (see `_slab_plan`)
    slab_rows: int = 1


#: Bytes of time-last float64 series a slab holds at most: the rows
#: `run_dataset` embeds, transforms and fits at a time in a worker's
#: workspace, so a batch's arrays stay in cache and memory does not grow
#: with the batch size. A slab is cut down to half of this, or one row,
#: where that feeds more workers (`_slab_plan`), and no smaller. Measured
#: as `run_dataset` alone on the perfbench inputs, on up to two workers,
#: the sizes interleaved, in two sets of medians of 9 and 11 runs on a
#: 2-core VM: `estimate-wide` (400 KiB rows) took 483 and 465 ms at 512
#: KiB (1 row a slab), 411 and 430 ms at 1 MiB (2 rows) and 355 and 418
#: ms at 2 MiB (4 rows), with quartiles 35-160 ms apart. 1 MiB gives it 2
#: rows a slab, and `estimate-long-oov` (128 KiB rows) 8, or 4 on two
#: workers.
SLAB_BYTES = 1 << 20

#: Slabs of a full batch each slab worker of `run_dataset` takes: a batch
#: gets one worker per this many slabs of at least half of SLAB_BYTES, at
#: most one per usable CPU, so a batch of fewer than twice this many such
#: slabs runs on one worker, in the calling thread. Measured with a pool
#: that woke each helper once a batch, as `run_dataset` alone on the
#: perfbench inputs, two workers against one, in three runs of the medians
#: of 11-21 interleaved runs on a 2-core VM whose speed drifted by up to
#: 30% between runs: `estimate-wide` (2 rows a slab) ran 1.02-1.46x as
#: fast at 2 slabs a batch, 1.20-1.48x at 4 and 1.50-1.58x at its 32;
#: `estimate-long-oov` (8 rows a slab) ran 1.01-1.05x at its 2 slabs a
#: batch, 1.11-1.18x at 4 and 1.10-1.14x at 12. With a slab body of its
#: per-row work alone, `estimate-long-oov` cut into 4-row slabs pays for a
#: second worker in the same 2 MiB of workspace: `run_dataset` alone on
#: its input took 33.3 ms on one worker with 8-row slabs and 24.6 ms on
#: two with 4-row slabs, both at a traced peak of 3.04 MiB; two workers
#: with 8-row slabs took 25.9 ms but 6.01 MiB (medians of 15 interleaved
#: rounds on a 2-core VM).
SLABS_PER_WORKER = 2


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _slab_plan(row_bytes: int, rows: int) -> tuple[int, int]:
    """The workers and the slab rows of a run whose full batch is `rows`
    rows of `row_bytes` bytes of series: as many workers, up to one per
    usable CPU, as can each take SLABS_PER_WORKER slabs of at least half
    of SLAB_BYTES (or one row), on slabs of at most SLAB_BYTES (or one
    row) cut as small as feeds them."""
    most = max(1, SLAB_BYTES // row_bytes)
    least = min(most, max(1, -(-SLAB_BYTES // (2 * row_bytes))))
    workers = max(1, min(usable_cpus(), rows // (SLABS_PER_WORKER * least)))
    if workers == 1:
        return 1, max(1, min(rows, most))
    return workers, min(most, max(least, -(-rows // (SLABS_PER_WORKER * workers))))


def _workspace_plan(p: int, length: int, rows: int) -> tuple[int, int, int]:
    """The workers and slab rows `_slab_plan` gives a run of p-dimensional
    series at pad length `length` whose full batch is `rows` rows, and the
    bytes of that run's power sum and slab workspaces."""
    workers, slab = _slab_plan(8 * p * length, rows)
    return workers, slab, 8 * p * (length // 2) + workers * slab * p * (8 * length + 16 * (length // 2 + 1))


def _allocating_workspaces(p: int, length: int, nbytes: int):
    """`allocating` for a run's power sum and slab workspaces, of `nbytes`
    in all: a refusal names the pad length."""
    return allocating(
        f"pad length {length} at p = {p}", nbytes, "the power sum and the slab workspaces",
        "use a shorter pad length",
    )


def check_workspaces(table: EmbeddingTable, config: EstimatorConfig) -> None:
    """Refuse, before a corpus is read, a pad length whose power sum and
    slab workspaces cannot be allocated, with the error `run_dataset`
    would raise once it has the corpus. They are sized on one row, the
    least any corpus is cut into, and allocated as one block, let go at
    once: never written, so never paged in. A run the corpus makes longer
    is checked again by `run_dataset`."""
    p, length = table.dim, config.pad_length
    nbytes = _workspace_plan(p, length, 1)[2]
    with _allocating_workspaces(p, length, nbytes):
        np.empty(nbytes, dtype=np.uint8)


def _scale_error(table: EmbeddingTable) -> DomainError:
    """The error for a table whose values overflow the periodograms or
    their sum."""
    scale = float(np.abs(table.vectors).max())
    return DomainError(
        f"the embedding table's scale (max |v| = {scale:.3g}) overflows the "
        "periodogram; d does not depend on the scale, so divide the table by a constant"
    )


class _Run:
    """Every slab of a run, in stream order, and what their results add up
    to. Each slab's result is folded in at its turn, and the turns follow
    stream order, so the power rows are summed, the estimates kept and the
    EMA updated in the order one worker would take them."""

    def __init__(self, ids: np.ndarray, batch_size: int, slab: int, stride: int, n_bins: int,
                 table: EmbeddingTable, schedule: LearningRateSchedule,
                 progress: Optional[TextIO]):
        #: the slabs of each batch, cut batch by batch, and the indices of
        #: the slabs that end a batch
        self.slabs: list[np.ndarray] = []
        self.batch_ends: set[int] = set()
        for start in range(0, ids.shape[0], batch_size):
            batch_ids = ids[start : start + batch_size]
            self.slabs += [batch_ids[first : first + slab] for first in range(0, batch_ids.shape[0], slab)]
            self.batch_ends.add(len(self.slabs) - 1)
        self.stride, self.table, self.schedule, self.progress = stride, table, schedule, progress
        self.power_sum = np.zeros((table.dim, n_bins))
        #: the estimates of the batch being folded in
        self.estimates: list[np.ndarray] = []
        self.n_estimated = self.n_constant = 0
        self.state: Optional[EmaState] = None
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
        error or what `_SlabWorker._fit` returns, and pass the turn on.
        Once the run is no longer live, every turn is given at once."""
        with self._turns:
            while self._turn != index and self.live:
                self._turns.wait()
            try:
                if self.live:
                    self._add(index, result)
            except Exception as exc:  # from the sink or the update: kept, not lost in a helper
                self.error = exc
            finally:
                self._turn += 1
                self._turns.notify_all()

    def stop(self) -> None:
        """Give every later turn at once and fold nothing more in, so that
        no worker is left waiting on a slab that will not be folded."""
        with self._turns:
            self._stopped = True
            self._turns.notify_all()

    def _add(self, index: int, result) -> None:
        if isinstance(result, Exception):
            self.error = result
            return
        constant, power, estimate = result
        self.n_constant += constant
        if estimate is not None:
            self.estimates.append(estimate)  # an array of its own, not a view of the workspace
            try:  # under the worker's errstate, which raises on overflow
                for row in power:  # one row at a time: the sum adds rows in stream order
                    self.power_sum += row
            except FloatingPointError:
                self.error = _scale_error(self.table)
                return
        if index in self.batch_ends and self.estimates:
            self._update()

    def _update(self) -> None:
        """The EMA update of a batch's estimates, and its progress line."""
        estimates = np.concatenate(self.estimates)
        self.estimates = []
        self.n_estimated += estimates.shape[0]
        if self.state is None:
            self.state = ema_init(self.table.dim)
        step = self.state.step
        self.state = ema_update(self.state, estimates, self.schedule)
        if self.progress is not None:
            self.progress.write(
                f"batch={step} alpha={self.schedule.alpha(step):.6g} "
                f"dbar_mean={float(self.state.d_hat.mean()):.6g}\n"
            )


class _SlabWorker:
    """One slab workspace and the slab body that writes it."""

    def __init__(self, table: EmbeddingTable, fit: SlopeFit, policy: OovPolicy, length: int,
                 slab: int):
        p, n_bins = table.dim, length // 2
        self.table, self.fit, self.policy = table, fit, policy
        # all a slab writes: its time-last series, later its power, and its
        # spectrum, which first holds the gathered block and last the logs
        # of the fitted bins; a slab of k rows uses the first k of each
        self.series = np.empty((slab, p, length))
        self.spectrum = np.empty((slab, p, n_bins + 1), dtype=np.complex128)
        floats = self.spectrum.view(np.float64).reshape(-1)
        self.gathered = floats[: slab * length * p].reshape(slab, length, p)
        self.logs = floats[: slab * p * fit.m].reshape(slab, p, fit.m)
        self.power = self.series.reshape(-1)[: slab * p * n_bins].reshape(slab, p, n_bins)

    def run(self, run: _Run, first: int) -> None:
        """Run slabs `first`, `first + stride`, ... of the run back to
        back, each folded in at its turn before the workspace is reused,
        until the run is no longer live."""
        # errstate is per thread: a worker's is its own, not its caller's.
        # It covers the worker's folds too, and so the power sum
        with np.errstate(over="raise"):
            for index in range(first, len(run.slabs), run.stride):
                if not run.live:
                    return
                run.fold(index, self._slab(run.slabs[index]))

    def _slab(self, rows: np.ndarray):
        """Embed, transform and fit a slab; an error is returned, to be
        raised in the caller in stream order."""
        try:
            return self._fit(rows)
        except FloatingPointError:
            return _scale_error(self.table)
        except Exception as exc:
            return exc

    def _fit(self, rows: np.ndarray) -> tuple[int, np.ndarray, Optional[np.ndarray]]:
        """The slab's per-row work alone: what depends on the run only was
        checked or worked out once, in `run_dataset` and `SlopeFit`."""
        k = rows.shape[0]
        series, power = self.series[:k], self.power[:k]
        embed_block(self.table, rows, self.policy, series, self.gathered[:k])
        power_block(series, self.spectrum[:k], power)
        # the one positivity check of the fitted bins: a kept row's logs and
        # slopes are finite, as its power is (an overflow raises)
        keep = np.minimum.reduce(power[..., : self.fit.m], axis=(1, 2)) > 0.0
        n_constant = 0
        if not keep.all():
            n_constant = int(np.count_nonzero(~power[~keep].any(axis=(1, 2))))
            power = power[keep]
            if power.shape[0] == 0:
                return n_constant, power, None
        return n_constant, power, self.fit.d(power, self.logs[: power.shape[0]])


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

    Each batch is embedded, transformed and fitted in slabs of at most
    SLAB_BYTES of time-last series; its estimates then make one EMA update.
    A row's fit is its slopes alone: the inference is computed once, for
    the pooled fit of the mean periodogram. Rows with zero power in a
    fitted bin, which includes constant rows and all-OOV rows under the
    skip policy, are skipped and counted: as constant when every bin is
    zero, else as zero power. A bad configuration raises, as does a run
    that estimates no row, saying whether it had no rows or skipped all.

    The slab rows and the workers are chosen together, from the rows of a
    full batch (`_slab_plan`): one worker per SLABS_PER_WORKER slabs of at
    least half of SLAB_BYTES, at most one per usable CPU, and slabs cut as
    small as feeds them, each worker with a workspace of its own. Worker 0
    is the calling thread; each other worker is a helper thread, started
    once a run and joined once. Worker w of W runs slabs w, w + W, w + 2W,
    ... of the whole run back to back, and after each waits for that
    slab's turn, which comes in stream order: it then adds the slab's power
    rows to the sum and counts its skipped rows, as one worker would, and
    at the turn of a batch's last slab it makes the batch's EMA update and
    writes its progress line. Each row is transformed and fitted alone, so
    the result is the same, bit for bit, for any slab size and number of
    workers, and the first error in stream order, a slab's or a fold's, is
    raised in the calling thread; no later slab is run or folded in.
    """
    check_batch_size(batch_size)
    p, length = table.dim, config.pad_length
    ids = check_ids(ids, length)
    check_length(length)
    n_workers, slab, nbytes = _workspace_plan(p, length, min(batch_size, ids.shape[0]))
    # every array the pad length sizes: the abscissa, the power sum and the workspaces
    with _allocating_workspaces(p, length, nbytes):
        fit = SlopeFit(length // 2, config.cutoff)
        run = _Run(ids, batch_size, slab, n_workers, length // 2, table, schedule, progress)
        workers = [_SlabWorker(table, fit, policy, length, slab) for _ in range(n_workers)]
    helpers: list[threading.Thread] = []
    try:
        for first, worker in enumerate(workers[1:], 1):
            helper = threading.Thread(target=worker.run, args=(run, first), name="longmem-slab", daemon=True)
            helper.start()
            helpers.append(helper)
        workers[0].run(run, 0)
    except BaseException:
        run.stop()  # an interrupted caller lets a helper waiting on a turn through
        raise
    finally:
        for helper in helpers:
            helper.join()
    if run.error is not None:
        raise run.error
    state, n_estimated = run.state, run.n_estimated
    if state is None:
        n_rows = ids.shape[0]
        raise EmptyInputError("no sequence could be estimated: " + (
            f"all {n_rows} rows were skipped, {run.n_constant} as constant or all-OOV and "
            f"{n_rows - run.n_constant} for zero power in a fitted bin"
            if n_rows else f"the corpus holds no full chunk of {ids.shape[1]} tokens"
        ))
    mean_pg = Periodogram(length=length, power=run.power_sum / n_estimated)
    pooled = estimate_from_periodogram(mean_pg, config)
    n_skipped = ids.shape[0] - n_estimated
    return AggregateResult(
        state, n_estimated, n_skipped, mean_pg, pooled, run.n_constant, n_skipped - run.n_constant,
        n_workers, slab,
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
