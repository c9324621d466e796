"""Streaming EMA aggregation over per-sequence estimates."""

import io
import json
import math
import re
import subprocess
import sys
import threading
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from longmem import aggregator, estimator, spectral
from longmem.aggregator import (
    LearningRateSchedule,
    dataset_report,
    ema_init,
    ema_update,
    run_dataset,
)
from longmem.embeddings import (
    OOV_ID,
    EmbeddingTable,
    OovPolicy,
    SymbolSequence,
    embed_ids,
    lookup_sequence,
    pad_to_length,
)
from longmem.errors import (
    DimensionMismatchError,
    DomainError,
    EmptyInputError,
    LengthExceededError,
    LongmemError,
)
from longmem.estimator import (
    EstimatorConfig,
    FullBand,
    LowFrequency,
    estimate_from_periodogram,
    sqrt_cutoff,
)
from longmem.spectral import periodogram
from longmem.synth import FgnSpec, generate_fgn, normal_bucket_table, quantize_to_symbols
from conftest import src_env, traced_peak


def test_schedule_alpha_values():
    schedule = LearningRateSchedule()  # alpha0 = 1, tau = 10
    assert schedule.alpha(0) == 1.0
    assert np.isclose(schedule.alpha(10), 0.5)
    assert np.isclose(LearningRateSchedule(alpha0=0.5, tau=2.0).alpha(2), 0.25)


def test_schedule_rejects_bad_params():
    for alpha0 in (0.0, math.nan):
        with pytest.raises(DomainError):
            LearningRateSchedule(alpha0=alpha0)
    for tau in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="tau"):
            LearningRateSchedule(tau=tau)


def test_ema_init_defaults_to_zero():
    state = ema_init(3)
    assert np.array_equal(state.d_hat, np.zeros(3))
    assert state.step == 0


def test_ema_init_rejects_bad_shape():
    with pytest.raises(DimensionMismatchError):
        ema_init(2, d0=np.zeros(3))


def test_first_update_with_unit_alpha_forgets_init():
    state = ema_init(2, d0=np.array([9.0, -9.0]))
    batch = np.array([[1.0, 2.0], [3.0, 4.0]])
    updated = ema_update(state, batch, LearningRateSchedule())
    assert np.array_equal(updated.d_hat, batch.mean(axis=0))
    assert updated.step == 1


def test_ema_update_validation():
    state = ema_init(2)
    schedule = LearningRateSchedule()
    with pytest.raises(EmptyInputError):
        ema_update(state, np.empty((0, 2)), schedule)
    with pytest.raises(DimensionMismatchError):
        ema_update(state, np.ones((1, 3)), schedule)
    with pytest.raises(DomainError):
        ema_update(state, np.array([[np.nan, 1.0]]), schedule)


@settings(max_examples=60)
@given(
    arrays(np.float64, (4, 2), elements=st.floats(-10, 10)),
    arrays(np.float64, (2,), elements=st.floats(-10, 10)),
    st.integers(0, 50),
    st.floats(0.01, 1.0),
    st.floats(0.1, 100.0),
)
def test_update_is_convex_combination(batch, d0, step, alpha0, tau):
    from longmem.aggregator import EmaState

    state = EmaState(d_hat=d0, step=step)
    schedule = LearningRateSchedule(alpha0=alpha0, tau=tau)
    updated = ema_update(state, batch, schedule)
    mean = batch.mean(axis=0)
    lo = np.minimum(d0, mean) - 1e-12
    hi = np.maximum(d0, mean) + 1e-12
    assert np.all(updated.d_hat >= lo) and np.all(updated.d_hat <= hi)


def _quantized_fgn_dataset(n, d=0.3, length=2048, vocab=64, seed0=82000):
    """An n x length matrix of table row ids, one quantized FGN path per row."""
    table = normal_bucket_table(vocab)
    rows = []
    for s in range(n):
        x = generate_fgn(FgnSpec(hurst=d + 0.5, length=length, seed=seed0 + s))
        rows.append(quantize_to_symbols(x, vocab).ids)
    return np.array(rows), table


def test_run_dataset_recovers_memory_coefficient():
    seqs, table = _quantized_fgn_dataset(512)
    config = EstimatorConfig(pad_length=2048, cutoff=LowFrequency(45))
    result = run_dataset(
        seqs, table, config, OovPolicy.ZERO, LearningRateSchedule(), batch_size=256
    )
    assert result.n_estimated == 512
    assert result.n_skipped == 0
    assert abs(float(result.state.d_hat.mean()) - 0.3) <= 0.05
    assert result.mean_periodogram is not None
    assert result.mean_periodogram.length == 2048


def test_run_dataset_skips_degenerate_sequences():
    seqs, table = _quantized_fgn_dataset(6, length=256)
    # an OOV-only sequence under the zero policy embeds to the all-zero
    # series, whose periodogram is degenerate and must be skipped
    broken = np.full((1, 256), OOV_ID)
    stream = np.concatenate([seqs[:3], broken, seqs[3:]])
    config = EstimatorConfig(pad_length=256, cutoff=LowFrequency(16))
    result = run_dataset(
        stream, table, config, OovPolicy.ZERO, LearningRateSchedule(), batch_size=4
    )
    assert result.n_estimated == 6
    assert result.n_skipped == 1


@pytest.mark.parametrize(
    "ids, reason",
    [
        # a corpus shorter than one chunk
        (np.empty((0, 48), dtype=np.int32), "the corpus holds no full chunk of 48 tokens$"),
        # two all-OOV rows embed as zeros, and a row with zero power in a fitted bin
        (
            np.vstack([np.full((2, 64), OOV_ID), np.tile([1, 1, 6, 6], 16)]),
            "all 3 rows were skipped, 2 as constant or all-OOV and 1 for zero power in a fitted bin$",
        ),
    ],
    ids=["no-chunk", "all-skipped"],
)
def test_run_dataset_empty_yield_raises(ids, reason):
    table = normal_bucket_table(8)
    config = EstimatorConfig(pad_length=64)
    with pytest.raises(EmptyInputError, match="^no sequence could be estimated: " + reason):
        run_dataset(ids, table, config, OovPolicy.ZERO, LearningRateSchedule(), batch_size=2)


def test_run_dataset_progress_line_format():
    seqs, table = _quantized_fgn_dataset(8, length=256)
    config = EstimatorConfig(pad_length=256)
    sink = io.StringIO()
    run_dataset(
        seqs, table, config, OovPolicy.ZERO, LearningRateSchedule(),
        batch_size=3, progress=sink,
    )
    lines = sink.getvalue().strip().split("\n")
    assert len(lines) == 3  # 3 + 3 + 2
    pattern = re.compile(r"^batch=\d+ alpha=[0-9.eE+-]+ dbar_mean=-?[0-9.eE+-]+$")
    for line in lines:
        assert pattern.match(line), line
    assert lines[0].startswith("batch=0 alpha=1 ")


def _composed_reference(ids, table, config, policy, schedule, batch_size):
    """The B=1 chain per row, lookup -> pad -> periodogram -> fit, skipping
    rows that raise; one EMA update per batch; the periodograms added in
    stream order. Returns the EMA state, the mean power and the row count."""
    state = ema_init(table.dim)
    power_sum, n = None, 0
    for start in range(0, ids.shape[0], batch_size):
        ests = []
        for row in ids[start : start + batch_size]:
            try:
                series = lookup_sequence(table, SymbolSequence(row), policy)
                pg = periodogram(pad_to_length(series, config.pad_length))
                ests.append(estimate_from_periodogram(pg, config).d)
            except LongmemError:
                continue
            power_sum = pg.power if power_sum is None else power_sum + pg.power
        if ests:
            n += len(ests)
            state = ema_update(state, np.stack(ests), schedule)
    return state, power_sum / n, n


@pytest.mark.parametrize("slab_rows", [1, 2, 3, None], ids=lambda rows: f"slab{rows}")
@pytest.mark.parametrize("cutoff", [FullBand(), LowFrequency(11)], ids=["full", "m11"])
@pytest.mark.parametrize("policy", list(OovPolicy), ids=lambda policy: policy.value)
def test_run_dataset_matches_manual_ema_composition(monkeypatch, policy, cutoff, slab_rows):
    p, length, batch_size = 7, 128, 5
    if slab_rows is not None:  # None keeps the default: the whole batch in one slab
        monkeypatch.setattr(aggregator, "SLAB_BYTES", slab_rows * 8 * p * length)
    rng = np.random.default_rng(37)
    vectors = rng.standard_normal((16, p))
    vectors[0] = 0.0
    table = EmbeddingTable(vectors)
    # 96 symbols padded to 128, with about 10% OOV ids
    ids = np.where(rng.random((37, 96)) < 0.1, OOV_ID, rng.integers(1, 16, (37, 96)))
    ids[9] = OOV_ID  # all-OOV: the last row of batch 1, in a later slab
    ids[10:15] = 0  # batch 2 embeds to zeros: every row is skipped
    ids[23] = 0  # a skipped row inside batch 4
    config = EstimatorConfig(pad_length=length, cutoff=cutoff)
    schedule = LearningRateSchedule(alpha0=0.9, tau=3.0)
    sink = io.StringIO()
    result = run_dataset(ids, table, config, policy, schedule, batch_size, progress=sink)
    state, mean_power, n = _composed_reference(ids, table, config, policy, schedule, batch_size)
    assert (result.n_estimated, result.n_skipped) == (n, 37 - n)
    assert n <= 37 - 6 and result.state.step == state.step == 7  # 8 batches, one all skipped
    assert len(sink.getvalue().splitlines()) == 7
    assert np.array_equal(result.state.d_hat, state.d_hat)
    assert np.array_equal(result.mean_periodogram.power, mean_power)


def test_run_dataset_computes_the_inference_once_for_the_pooled_fit(monkeypatch):
    # per-sequence fits are slopes alone; only the mean periodogram's fit
    # computes intercept, stderr and pvalue
    shapes = []
    full_fit = estimator.ols_loglog_rows

    def counted(xs, ys):
        shapes.append(np.shape(ys))
        return full_fit(xs, ys)

    monkeypatch.setattr(estimator, "ols_loglog_rows", counted)
    monkeypatch.setattr(aggregator, "SLAB_BYTES", 8 * 3 * 128)  # one row a slab
    rng = np.random.default_rng(5)
    table = EmbeddingTable(rng.standard_normal((16, 3)))
    ids = rng.integers(0, 16, (10, 100))
    config = EstimatorConfig(pad_length=128, cutoff=LowFrequency(16))
    result = run_dataset(ids, table, config, OovPolicy.ZERO, LearningRateSchedule(), batch_size=4)
    assert (result.n_estimated, result.state.step) == (10, 3)
    assert shapes == [(3, 16)]  # one row per dimension of the mean periodogram


def test_run_dataset_peak_allocation_does_not_grow_with_the_batch(monkeypatch):
    # 64 rows of 1024 x 50: a whole batch of series would be 26 MB. Memory
    # is one workspace per worker: on 2 CPUs both batch sizes run 2 workers
    monkeypatch.setattr(aggregator, "usable_cpus", lambda: 2)
    rng = np.random.default_rng(0)
    table = EmbeddingTable(rng.standard_normal((500, 50)))
    ids = rng.integers(0, 500, (64, 1024))
    config, schedule = EstimatorConfig(pad_length=1024), LearningRateSchedule()
    peaks = [
        traced_peak(lambda: run_dataset(ids, table, config, OovPolicy.ZERO, schedule, size))[1]
        for size in (8, 64)
    ]
    assert peaks[1] <= 1.5 * peaks[0]


_FAULTS_CHILD = """
import json, resource
import numpy as np
from longmem.aggregator import LearningRateSchedule, run_dataset
from longmem.embeddings import EmbeddingTable, OovPolicy
from longmem.estimator import EstimatorConfig

rng = np.random.default_rng(0)
table = EmbeddingTable(rng.standard_normal((500, 50)))
ids = rng.integers(0, 500, (32, 1024))

def faults(rows):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_dataset(ids[:rows], table, EstimatorConfig(1024), OovPolicy.ZERO, LearningRateSchedule(), 8)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

faults(8)  # first-call costs: lazy imports, the allocator's first pages
print(json.dumps([faults(8), faults(32)]))
"""


def test_run_dataset_page_faults_do_not_grow_with_the_rows():
    # a slab that allocates its arrays afresh faults in new pages for every
    # row, about 2 MB a slab here; a reused workspace faults in its pages once
    child = subprocess.run(
        [sys.executable, "-c", _FAULTS_CHILD],
        capture_output=True, text=True, env=src_env(), timeout=120, check=False,
    )
    assert child.returncode == 0, child.stderr
    few, many = json.loads(child.stdout.strip().splitlines()[-1])
    assert many <= 1.5 * few + 2000, (few, many)


def test_run_dataset_returns_no_view_of_its_workspace(monkeypatch):
    buffers = []
    worker_init = aggregator._SlabWorker.__init__

    def recorded_init(self, *args):
        worker_init(self, *args)
        buffers.extend([self.series, self.spectrum])

    monkeypatch.setattr(aggregator._SlabWorker, "__init__", recorded_init)
    monkeypatch.setattr(aggregator, "SLAB_BYTES", 2 * 8 * 3 * 128)  # two rows a slab
    monkeypatch.setattr(aggregator, "usable_cpus", lambda: 1)  # one worker, on any host
    rng = np.random.default_rng(6)
    table = EmbeddingTable(rng.standard_normal((16, 3)))
    ids = rng.integers(0, 16, (9, 100))
    config = EstimatorConfig(pad_length=128, cutoff=LowFrequency(11))

    def run():
        return run_dataset(ids, table, config, OovPolicy.ZERO, LearningRateSchedule(), batch_size=4)

    first = run()
    assert len(buffers) == 2  # one worker
    kept = first.mean_periodogram.power.copy(), first.state.d_hat.copy()
    for result in (first.mean_periodogram.power, first.state.d_hat):
        assert not any(np.shares_memory(result, b) for b in buffers)
    second = run()
    assert np.array_equal(first.mean_periodogram.power, kept[0])
    assert np.array_equal(first.state.d_hat, kept[1])
    assert np.array_equal(second.mean_periodogram.power, kept[0])
    assert np.array_equal(second.state.d_hat, kept[1])
    assert not np.shares_memory(first.mean_periodogram.power, second.mean_periodogram.power)


@pytest.mark.parametrize("cutoff", [FullBand(), LowFrequency(11)], ids=["full", "m11"])
def test_a_slab_fits_its_kept_rows_bit_for_bit_as_estimate_from_periodogram(cutoff):
    # 6 rows in a workspace of 8: rows 1 (one repeated id) and 4 (all OOV,
    # zero-filled) are constant, and row 3 has a flat dimension, so zero
    # power in its fitted bins; the slab keeps rows 0, 2 and 5
    p, length = 3, 128
    rng = np.random.default_rng(12)
    vectors = rng.standard_normal((16, p))
    vectors[6, 0] = vectors[5, 0]
    table = EmbeddingTable(vectors)
    ids = rng.integers(0, 16, (6, length))
    ids[1] = 2
    ids[3] = rng.choice([5, 6], length)
    ids[4] = OOV_ID
    fit = estimator.SlopeFit(length // 2, cutoff)
    worker = aggregator._SlabWorker(table, fit, OovPolicy.ZERO, length, 8)
    n_constant, power, d = worker._fit(ids)
    kept = spectral.periodograms(embed_ids(table, ids, OovPolicy.ZERO, length))[[0, 2, 5]]
    assert n_constant == 2
    assert np.array_equal(power, kept)
    config = EstimatorConfig(length, cutoff)
    single = [estimate_from_periodogram(spectral.Periodogram(length, row), config).d for row in kept]
    assert np.array_equal(d, np.stack(single))


@pytest.mark.parametrize("refused", ["power sum", "series", "spectrum"])
def test_run_dataset_names_the_pad_length_when_a_workspace_is_refused(monkeypatch, refused):
    # an allocator that refuses one of the run's arrays, as it would an
    # array too large for the host; nothing large is allocated
    p, length = 3, 128
    shapes = {"power sum": (p, length // 2), "series": (4, p, length), "spectrum": (4, p, length // 2 + 1)}

    def refusing(allocate):
        def allocator(shape, *args, **kwargs):
            if shape == shapes[refused]:
                raise MemoryError("refused")
            return allocate(shape, *args, **kwargs)
        return allocator

    monkeypatch.setattr(np, "zeros", refusing(np.zeros))
    monkeypatch.setattr(np, "empty", refusing(np.empty))
    table = EmbeddingTable(np.random.default_rng(13).standard_normal((16, p)))
    ids = np.random.default_rng(14).integers(0, 16, (8, 100))
    with pytest.raises(DomainError) as raised:
        run_dataset(ids, table, EstimatorConfig(length), OovPolicy.ZERO, LearningRateSchedule(), 4)
    # one worker: the (3, 64) power sum, a (4, 3, 128) series, a (4, 3, 65) spectrum
    asked = 8 * 3 * 64 + 4 * 3 * (8 * 128 + 16 * 65)
    assert f"pad length 128 at p = 3 needs {asked} bytes" in str(raised.value)
    assert raised.value.__cause__ is None and raised.value.__suppress_context__


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_check_workspaces_asks_no_more_than_run_dataset_for_any_corpus(monkeypatch, cpus):
    # sized on one row, the bytes asked before the read are at most those
    # asked after it, for a corpus of any length on any number of CPUs, so
    # no run that run_dataset would accept is refused before the read
    monkeypatch.setattr(aggregator, "usable_cpus", lambda: cpus)
    p, length, batch = 3, 1 << 14, 24
    table = EmbeddingTable(np.random.default_rng(15).standard_normal((16, p)))
    config = EstimatorConfig(length)
    ids = np.zeros((100, 8), dtype=np.int8)

    def refusals(run):
        def refuse(*args, **kwargs):
            raise MemoryError("refused")

        with monkeypatch.context() as patch:
            patch.setattr(np, "empty", refuse)
            patch.setattr(np, "zeros", refuse)
            with pytest.raises(DomainError) as raised:
                run()
        return str(raised.value)

    asked = lambda message: int(re.search(r"needs (\d+) bytes", message).group(1))
    before = refusals(lambda: aggregator.check_workspaces(table, config))
    assert before.startswith(f"pad length {length} at p = {p} needs ")
    for rows in range(1, ids.shape[0] + 1):
        after = refusals(
            lambda: run_dataset(ids[:rows], table, config, OovPolicy.ZERO, LearningRateSchedule(), batch)
        )
        assert after.startswith(f"pad length {length} at p = {p} needs ")
        assert asked(before) <= asked(after)
    one_row = refusals(lambda: run_dataset(ids[:1], table, config, OovPolicy.ZERO, LearningRateSchedule(), batch))
    assert before == one_row


def test_run_dataset_names_the_pad_length_numpy_cannot_index():
    # numpy refuses a (1, 2^61) power sum as too big before it allocates
    table = EmbeddingTable(np.ones((4, 1)))
    config = EstimatorConfig(1 << 62, LowFrequency(2))
    with pytest.raises(DomainError, match=r"pad length 4611686018427387904 at p = 1 needs"):
        run_dataset(np.zeros((2, 8), dtype=int), table, config, OovPolicy.ZERO, LearningRateSchedule(), 2)


def test_run_dataset_validates_sizes():
    seqs, table = _quantized_fgn_dataset(2, length=256)
    config = EstimatorConfig(pad_length=256)
    with pytest.raises(DomainError):
        run_dataset(seqs, table, config, OovPolicy.ZERO, LearningRateSchedule(), batch_size=0)


def test_run_dataset_skips_all_oov_rows_under_skip_policy():
    seqs, table = _quantized_fgn_dataset(4, length=256)
    seqs[1] = OOV_ID
    seqs[2, ::4] = OOV_ID  # compacted to 192 rows, front-padded to 256
    config = EstimatorConfig(pad_length=256)
    result = run_dataset(seqs, table, config, OovPolicy.SKIP, LearningRateSchedule(), batch_size=4)
    assert (result.n_estimated, result.n_skipped) == (3, 1)


@pytest.mark.parametrize("length", [40, 57, 97, 119, 128])
@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("policy", list(OovPolicy), ids=lambda policy: policy.value)
def test_run_dataset_skips_every_constant_row(policy, p, length):
    # one all-OOV row, one row per repeated symbol, then one random row; a
    # padded constant row must demean to exact zeros, not to a rounding
    # residue whose pad edge the fit reads as memory
    rng = np.random.default_rng(11)
    table = EmbeddingTable(rng.standard_normal((16, p)))
    constant = np.repeat(np.arange(OOV_ID, 16), length).reshape(17, length)
    ids = np.vstack([constant, rng.integers(0, 16, (1, length))])
    config = EstimatorConfig(pad_length=128)
    result = run_dataset(ids, table, config, policy, LearningRateSchedule(), batch_size=5)
    assert (result.n_estimated, result.n_skipped) == (1, 17)
    # every bin of a constant row is exactly zero, so each counts as constant
    assert (result.n_skipped_constant, result.n_skipped_zero_power) == (17, 0)


@pytest.mark.parametrize("length", [97, 128])
@pytest.mark.parametrize("policy", list(OovPolicy), ids=lambda policy: policy.value)
def test_run_dataset_counts_a_row_with_one_flat_dimension_as_zero_power(policy, length):
    # table rows 0-7 hold one value in the first dimension, so a row of them
    # has zero power there but not in the second: skipped, yet not constant;
    # a row of table rows 8-15 varies in both dimensions and is estimated
    rng = np.random.default_rng(12)
    vectors = rng.standard_normal((16, 2))
    vectors[:8, 0] = 0.5
    table = EmbeddingTable(vectors)
    ids = np.vstack(
        [np.full(length, OOV_ID), rng.integers(0, 8, length), rng.integers(8, 16, length)]
    )
    config = EstimatorConfig(pad_length=128, cutoff=LowFrequency(11))
    result = run_dataset(ids, table, config, policy, LearningRateSchedule(), batch_size=2)
    assert (result.n_estimated, result.n_skipped) == (1, 2)
    assert (result.n_skipped_constant, result.n_skipped_zero_power) == (1, 1)
    report = dataset_report(result)
    assert (report["n_skipped_constant"], report["n_skipped_zero_power"]) == (1, 1)


def test_padding_a_series_with_a_mean_fakes_no_memory():
    # white noise offset by +1: zero-padding 768 rows to 1024 would add a
    # step at the pad edge, which the fit reads as low-frequency power
    rng = np.random.default_rng(4242)
    table = EmbeddingTable(vectors=1.0 + rng.standard_normal((512, 3)))
    ids = rng.integers(0, 512, size=(100, 768))
    config = EstimatorConfig(pad_length=1024)
    result = run_dataset(ids, table, config, OovPolicy.ZERO, LearningRateSchedule(), batch_size=25)
    assert result.n_estimated == 100
    assert np.max(np.abs(result.pooled.d)) <= 0.02  # the criterion-3 bound
    assert np.max(np.abs(result.state.d_hat)) <= 0.02


def test_run_dataset_config_errors_raise_once():
    seqs, table = _quantized_fgn_dataset(2, length=256)
    schedule = LearningRateSchedule()
    with pytest.raises(DomainError):
        run_dataset(seqs, table, EstimatorConfig(256, LowFrequency(129)), OovPolicy.ZERO, schedule, 1)
    with pytest.raises(LengthExceededError):
        run_dataset(seqs, table, EstimatorConfig(128), OovPolicy.SKIP, schedule, 1)


def test_dataset_report_keys_name_their_sources():
    seqs, table = _quantized_fgn_dataset(6, length=256)
    seqs[5] = OOV_ID
    config = EstimatorConfig(pad_length=256, cutoff=LowFrequency(16))
    result = run_dataset(seqs, table, config, OovPolicy.ZERO, LearningRateSchedule(), batch_size=4)
    report = dataset_report(result)
    # d is the EMA of per-sequence fits
    assert report["d"] == result.state.d_hat.tolist()
    # d_pooled, intercept, stderr and pvalue are one fit to the mean periodogram
    pooled = estimate_from_periodogram(result.mean_periodogram, config)
    assert report["d_pooled"] == pooled.d.tolist()
    assert report["d_pooled"] != report["d"]
    for key, field in (("intercept", "intercept"), ("stderr", "slope_stderr"), ("pvalue", "pvalue")):
        assert report[key] == getattr(pooled, field).tolist(), key
    assert (report["n_estimated"], report["n_skipped"], report["batches"]) == (5, 1, 2)
    assert (report["n_skipped_constant"], report["n_skipped_zero_power"]) == (1, 0)
    # d_stderr_asymptotic is Robinson's for the m = 16 bins fitted
    keys = ("schema_version", "dim", "cutoff", "abscissa", "d_stderr_asymptotic")
    assert [report[k] for k in keys] == [1, 1, 16, "index", math.pi / math.sqrt(24.0 * 16)]


def _pool_case(p):
    """29 rows of 100 symbols, about 10% OOV, with an all-OOV row, constant
    rows and a batch of skipped rows among them, and a table of p columns."""
    rng = np.random.default_rng(41)
    vectors = rng.standard_normal((16, p))
    vectors[0] = 0.0
    table = EmbeddingTable(vectors)
    ids = np.where(rng.random((29, 100)) < 0.1, OOV_ID, rng.integers(1, 16, (29, 100)))
    ids[2] = OOV_ID
    ids[6:12] = 0  # batch 1 embeds to zeros: every row is skipped
    ids[14] = 5  # a constant row
    return table, ids


def _run_with_cpus(monkeypatch, cpus, *args, **kwargs):
    """`run_dataset` on `cpus` usable CPUs; returns its result or error, and
    fails the test instead of hanging if it does not end."""
    monkeypatch.setattr(aggregator, "usable_cpus", lambda: cpus)
    outcome = {}

    def call():
        try:
            outcome["result"] = run_dataset(*args, **kwargs)
        except Exception as exc:
            outcome["error"] = exc
        outcome["over"] = np.geterr()["over"]

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=120)
    assert not caller.is_alive(), "run_dataset did not return"
    return outcome


# (rows a SLAB_BYTES slab holds, batch size, batches, slab rows on 1, 2
# and 3 CPUs): one row a slab and 6 rows a batch, 3 workers on 3 CPUs,
# more threads than this host may have cores, and a last batch of 5 rows;
# then 4 rows a slab and 12 a batch, cut into slabs of 4, 3 and 2 rows
_POOL_CUTS = ((1, 6, 4, [1, 1, 1]), (4, 12, 3, [4, 3, 2]))


@pytest.mark.parametrize("cutoff", ["full", "sqrt"])
@pytest.mark.parametrize("policy", list(OovPolicy), ids=lambda policy: policy.value)
def test_run_dataset_is_bit_identical_on_1_2_and_3_workers(monkeypatch, policy, cutoff):
    p, length = 3, 128
    table, ids = _pool_case(p)
    config = EstimatorConfig(length, FullBand() if cutoff == "full" else sqrt_cutoff(length))
    schedule = LearningRateSchedule(alpha0=0.9, tau=3.0)
    for slab_rows, batch_size, batches, cuts in _POOL_CUTS:
        monkeypatch.setattr(aggregator, "SLAB_BYTES", slab_rows * 8 * p * length)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to shake out an unordered sum
        try:
            runs = []
            for cpus in (1, 2, 3):
                sink = io.StringIO()
                outcome = _run_with_cpus(
                    monkeypatch, cpus, ids, table, config, policy, schedule, batch_size, progress=sink
                )
                runs.append((outcome["result"], sink.getvalue()))
        finally:
            sys.setswitchinterval(interval)
        (first, text), others = runs[0], runs[1:]
        assert [(result.workers, result.slab_rows) for result, _ in runs] == list(zip([1, 2, 3], cuts))
        assert first.n_skipped >= 7 and first.n_skipped_constant >= 7 and first.state.step == batches
        assert len(text.splitlines()) == batches
        for result, other_text in others:
            assert other_text == text
            assert np.array_equal(result.state.d_hat, first.state.d_hat)
            assert result.state.step == first.state.step
            assert np.array_equal(result.mean_periodogram.power, first.mean_periodogram.power)
            for field in ("d", "intercept", "slope_stderr", "pvalue"):
                assert np.array_equal(
                    getattr(result.pooled, field), getattr(first.pooled, field), equal_nan=True
                ), field
            counts = ("n_estimated", "n_skipped", "n_skipped_constant", "n_skipped_zero_power")
            assert [getattr(result, c) for c in counts] == [getattr(first, c) for c in counts]
            assert result.pooled.cutoff_used == first.pooled.cutoff_used


def test_run_dataset_workers_are_capped_by_the_slabs_of_a_batch(monkeypatch):
    p, length = 3, 128
    monkeypatch.setattr(aggregator, "SLAB_BYTES", 8 * p * length)  # one row a slab
    table, ids = _pool_case(p)
    config, schedule = EstimatorConfig(length), LearningRateSchedule()
    for batch_size, workers in ((1, 1), (3, 1), (4, 2), (6, 3), (29, 8), (64, 8)):
        outcome = _run_with_cpus(monkeypatch, 8, ids, table, config, OovPolicy.ZERO, schedule, batch_size)
        assert outcome["result"].workers == workers, batch_size


# rows of p = 2, L = 128 (2 KiB of series) stand for the perfbench shapes,
# with SLAB_BYTES scaled to keep each shape's rows a slab: (SLAB_BYTES,
# batch size, rows, CPUs, (workers, slab rows))
_ROW_BYTES = 8 * 2 * 128


@pytest.mark.parametrize(
    "slab_bytes, batch_size, n_rows, cpus, cut",
    [
        # estimate-long-oov: 128 KiB rows, 8 a 1 MiB slab and 16 a batch,
        # take 2 workers of 4-row slabs on 2 CPUs, and no more on 4
        (8 * _ROW_BYTES, 16, 96, 2, (2, 4)),
        (8 * _ROW_BYTES, 16, 96, 4, (2, 4)),
        (8 * _ROW_BYTES, 16, 96, 1, (1, 8)),
        # a batch of 20 rows (here, all the rows) feeds 2 workers of 5-row
        # slabs, and one of 48 three workers of full slabs
        (8 * _ROW_BYTES, 64, 20, 2, (2, 5)),
        (8 * _ROW_BYTES, 48, 96, 3, (3, 8)),
        # estimate-wide: 400 KiB rows, 2 a 1 MiB slab and 64 a batch
        (_ROW_BYTES * (1 << 20) // (400 << 10), 64, 128, 2, (2, 2)),
        # rows far under half a slab: a batch of 64 is one slab, on one worker
        (1 << 20, 64, 96, 2, (1, 64)),
    ],
    ids=["long-oov", "long-oov-4cpus", "long-oov-1cpu", "short-batch", "3-workers", "wide", "tiny-rows"],
)
def test_run_dataset_cuts_the_slabs_that_feed_the_workers_of_a_batch(
    monkeypatch, slab_bytes, batch_size, n_rows, cpus, cut
):
    # as many workers as can each take 2 slabs of at least half SLAB_BYTES,
    # on slabs of at most SLAB_BYTES cut as small as feeds them
    workspaces = []
    worker_init = aggregator._SlabWorker.__init__

    def recorded_init(self, *args):
        worker_init(self, *args)
        workspaces.append(self.series.nbytes)

    monkeypatch.setattr(aggregator._SlabWorker, "__init__", recorded_init)
    monkeypatch.setattr(aggregator, "SLAB_BYTES", slab_bytes)
    rng = np.random.default_rng(12)
    table = EmbeddingTable(rng.standard_normal((16, 2)))
    ids = rng.integers(0, 16, (n_rows, 100))
    config, schedule = EstimatorConfig(128), LearningRateSchedule()
    outcome = _run_with_cpus(monkeypatch, cpus, ids, table, config, OovPolicy.ZERO, schedule, batch_size)
    result = outcome["result"]
    assert (result.workers, result.slab_rows) == cut
    assert workspaces == [cut[1] * _ROW_BYTES] * cut[0]
    assert max(workspaces) <= slab_bytes and sum(workspaces) <= cpus * slab_bytes
    assert result.n_estimated == n_rows


def _overflowing_table(scale, rows):
    # a table whose first column is about `scale`, and `rows` rows of 200
    # ids. Padded to 256, each row is demeaned, so its DC bin, which the
    # periodogram squares with the rest, holds about nothing
    rng = np.random.default_rng(8)
    vectors = rng.standard_normal((8, 2))
    vectors[:, 0] *= scale
    return EmbeddingTable(vectors), rng.integers(0, 8, (rows, 200))


# at 1e200 the squares of a row's FFT bins overflow float64; at 1.4e152 a
# row's power peaks at 5.2e307, and the sum of the power overflows at row
# 19, slab 1 of batch 3: on 2 and on 3 workers, a helper's turn
@pytest.mark.parametrize("scale, rows", [(1e200, 24), (1.4e152, 48)], ids=["periodogram", "sum"])
def test_run_dataset_names_the_table_scale_when_the_periodogram_overflows(monkeypatch, scale, rows):
    table, ids = _overflowing_table(scale, rows)
    config, schedule = EstimatorConfig(256), LearningRateSchedule()
    monkeypatch.setattr(aggregator, "SLAB_BYTES", 8 * 2 * 256)  # one row a slab
    before = threading.active_count()
    messages = []
    for cpus in (1, 2, 3):
        with warnings.catch_warnings(record=True) as caught, np.errstate(over="ignore"):
            warnings.simplefilter("always")
            # the caller's errstate does not reach the slabs, on any thread
            outcome = _run_with_cpus(monkeypatch, cpus, ids, table, config, OovPolicy.ZERO, schedule, 6)
        assert not caught, [str(w.message) for w in caught]
        assert isinstance(outcome["error"], DomainError)
        messages.append(str(outcome["error"]))
        assert threading.active_count() == before  # no thread is left waiting on a turn
    assert messages[0] == messages[1] == messages[2]
    assert "embedding table's scale" in messages[0] and f"e+{int(math.log10(scale))}" in messages[0]
    if rows == 48:  # row 19 alone, and the sum of the rows before it, are finite
        for part in (ids[19:20], ids[:19]):
            run_dataset(part, table, config, OovPolicy.ZERO, schedule, 6)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_run_dataset_traps_an_overflow_in_any_slab_a_worker_runs(monkeypatch, cpus):
    # each worker enters its errstate once a run: the overflow of row 20,
    # a late slab of worker 0 on 1 and 2 workers and of a helper on 3,
    # still raises the scale error, after the progress lines of batches 0
    # and 2, and the calling thread's errstate is as it was
    p, length = 2, 256
    monkeypatch.setattr(aggregator, "SLAB_BYTES", 8 * p * length)  # one row a slab
    rng = np.random.default_rng(15)
    vectors = rng.standard_normal((8, p))
    vectors[7, 0] = 1e200
    table = EmbeddingTable(vectors)
    ids = rng.integers(0, 7, (24, 200))
    ids[6:12] = 0  # batch 1 is all skipped
    ids[20, 100] = 7
    config, schedule = EstimatorConfig(length), LearningRateSchedule()
    before, sink = threading.active_count(), io.StringIO()
    outcome = _run_with_cpus(monkeypatch, cpus, ids, table, config, OovPolicy.ZERO, schedule, 6, progress=sink)
    assert outcome["over"] == "warn"  # numpy's default, in a new thread
    assert isinstance(outcome["error"], DomainError)
    assert "embedding table's scale (max |v| = 1e+200)" in str(outcome["error"])
    assert [line.split()[0] for line in sink.getvalue().splitlines()] == ["batch=0", "batch=1"]
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_run_dataset_raises_a_slab_error_in_the_caller_and_ends_its_threads(monkeypatch, cpus):
    p, length = 3, 128
    monkeypatch.setattr(aggregator, "SLAB_BYTES", 8 * p * length)  # one row a slab
    table, ids = _pool_case(p)
    ids[17, 40] = 16  # one past the table, in the middle of batch 2
    config, schedule = EstimatorConfig(length), LearningRateSchedule()
    before = threading.active_count()
    sink = io.StringIO()
    outcome = _run_with_cpus(monkeypatch, cpus, ids, table, config, OovPolicy.ZERO, schedule, 6, progress=sink)
    assert isinstance(outcome["error"], DomainError)
    assert "symbol id 16 outside [0, 16)" in str(outcome["error"])
    assert len(sink.getvalue().splitlines()) == 1  # batch 0; batch 1 is all skipped
    assert threading.active_count() == before
    ids[17, 40] = 15
    outcome = _run_with_cpus(monkeypatch, cpus, ids, table, config, OovPolicy.ZERO, schedule, 6)
    assert outcome["result"].workers == cpus
    assert threading.active_count() == before


@pytest.mark.parametrize("slabs", [2, 32])
def test_run_dataset_starts_each_helper_thread_once_a_run(monkeypatch, slabs):
    # the threads do not grow with the slabs or the batches: a run of three
    # batches starts one thread per helper, W - 1 in all
    p, length = 3, 128
    monkeypatch.setattr(aggregator, "SLAB_BYTES", 8 * p * length)  # one row a slab
    monkeypatch.setattr(aggregator, "SLABS_PER_WORKER", 1)
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(
        aggregator,
        "threading",
        types.SimpleNamespace(Thread=CountedThread, Condition=threading.Condition, Lock=threading.Lock),
    )
    table, _ = _pool_case(p)
    ids = np.random.default_rng(9).integers(0, 16, (3 * slabs, 100))  # three batches
    config, schedule = EstimatorConfig(length), LearningRateSchedule()
    outcome = _run_with_cpus(monkeypatch, 3, ids, table, config, OovPolicy.ZERO, schedule, slabs)
    result = outcome["result"]
    assert (result.workers, result.state.step) == (min(3, slabs), 3)
    assert len(started) == result.workers - 1


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_run_dataset_raises_a_progress_sink_error_in_the_caller_and_ends_its_threads(monkeypatch, cpus):
    # one row a slab and 6 rows a batch: batch 1 is all skipped, so the
    # second line is batch 2's, written at the turn of slab 17, a helper's
    # on 2 and on 3 workers
    p, length = 3, 128
    monkeypatch.setattr(aggregator, "SLAB_BYTES", 8 * p * length)
    table, ids = _pool_case(p)

    class Sink(io.StringIO):
        def write(self, text):
            if self.getvalue():
                raise OSError("sink closed")
            return super().write(text)

    config, schedule = EstimatorConfig(length), LearningRateSchedule()
    before = threading.active_count()
    sink = Sink()
    outcome = _run_with_cpus(monkeypatch, cpus, ids, table, config, OovPolicy.ZERO, schedule, 6, progress=sink)
    assert isinstance(outcome["error"], OSError) and str(outcome["error"]) == "sink closed"
    assert sink.getvalue().startswith("batch=0 ") and len(sink.getvalue().splitlines()) == 1
    assert threading.active_count() == before


def test_run_dataset_lets_its_helpers_go_when_its_caller_is_interrupted(monkeypatch):
    # an interrupt in the calling thread's own slab, worker 0's, ends the
    # run; the helper, waiting on that slab's turn, is let through and ends
    class Interrupt(BaseException):
        pass

    p, length = 3, 128
    monkeypatch.setattr(aggregator, "SLAB_BYTES", 8 * p * length)  # one row a slab
    monkeypatch.setattr(aggregator, "usable_cpus", lambda: 2)
    table, ids = _pool_case(p)
    fit, raised = aggregator._SlabWorker._fit, []

    def interrupted_fit(self, rows):
        if threading.current_thread() is caller:
            raise Interrupt
        return fit(self, rows)

    def call():
        try:
            run_dataset(ids, table, EstimatorConfig(length), OovPolicy.ZERO, LearningRateSchedule(), 6)
        except Interrupt:
            raised.append(True)

    monkeypatch.setattr(aggregator._SlabWorker, "_fit", interrupted_fit)
    before = threading.active_count()
    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "run_dataset did not return"
    assert raised == [True]
    assert threading.active_count() == before
