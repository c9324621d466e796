"""Streaming EMA aggregation over per-sequence estimates."""

import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    lookup_sequence,
    pad_to_length,
)
from longmem.errors import (
    DimensionMismatchError,
    DomainError,
    EmptyInputError,
    LengthExceededError,
)
from longmem.estimator import (
    EstimatorConfig,
    LowFrequency,
    estimate_from_periodogram,
    estimate_report,
)
from longmem.spectral import periodogram
from longmem.synth import FgnSpec, generate_fgn, normal_bucket_table, quantize_to_symbols


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
        rows.append(quantize_to_symbols(x, vocab, table=table).ids)
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


def test_run_dataset_empty_yield_raises():
    table = normal_bucket_table(8)
    broken = np.full((3, 64), OOV_ID)
    config = EstimatorConfig(pad_length=64)
    with pytest.raises(EmptyInputError):
        run_dataset(
            broken, table, config, OovPolicy.ZERO, LearningRateSchedule(), batch_size=2
        )


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


def test_run_dataset_matches_manual_ema_composition():
    seqs, table = _quantized_fgn_dataset(6, length=256)
    config = EstimatorConfig(pad_length=256)
    schedule = LearningRateSchedule()
    result = run_dataset(
        seqs, table, config, OovPolicy.ZERO, schedule, batch_size=3
    )

    def estimate_one(row):
        series = lookup_sequence(table, SymbolSequence(row), OovPolicy.ZERO)
        return estimate_from_periodogram(periodogram(pad_to_length(series, 256)), config)

    state = ema_init(table.dim)
    for batch in (seqs[:3], seqs[3:]):
        ests = np.stack([estimate_one(row).d for row in batch])
        state = ema_update(state, ests, schedule)
    assert np.array_equal(result.state.d_hat, state.d_hat)
    # the mean periodogram adds the sequences' periodograms in stream order
    pgs = [periodogram(lookup_sequence(table, SymbolSequence(row), OovPolicy.ZERO)) for row in seqs]
    assert np.array_equal(result.mean_periodogram.power, sum(pg.power for pg in pgs) / 6)


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
    assert {k: report[k] for k in ("schema_version", "dim", "cutoff", "abscissa")} == {
        k: estimate_report(pooled)[k] for k in ("schema_version", "dim", "cutoff", "abscissa")
    }
