"""Log-log OLS, memory-coefficient estimation, and Gaussian MI."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from longmem.embeddings import (
    EmbeddedSeries,
    OovPolicy,
    SymbolSequence,
    lookup_sequence,
    pad_to_length,
)
from longmem.errors import DegenerateInputError, DomainError, ZeroPowerError
from longmem.estimator import (
    _NORMAL_APPROX_N,
    EstimatorConfig,
    FullBand,
    LowFrequency,
    estimate_from_periodogram,
    estimate_report,
    fit_d,
    fit_periodograms,
    gaussian_mutual_info,
    hurst_from_d,
    mi_decay_slope,
    ols_loglog,
    ols_loglog_rows,
    slope_pvalues,
    sqrt_cutoff,
)
from longmem.spectral import periodogram, periodograms
from longmem.synth import fgn_autocov, normal_bucket_table

from conftest import traced_peak


def test_ols_loglog_frozen_example():
    fit = ols_loglog([1.0, 2.0, 3.0, 4.0], [2.1, 1.0, 0.9, 0.4])
    # computed independently from the closed-form normal equations
    assert np.isclose(fit.slope, -1.0733762487101044, atol=1e-12)
    assert np.isclose(fit.intercept, 0.782883398953763, atol=1e-12)
    assert np.isclose(fit.slope_stderr, 0.2471424784075286, atol=1e-12)
    assert np.isclose(fit.pvalue, 0.04913923691823142, atol=1e-10)
    assert fit.n_points == 4


def test_ols_loglog_exact_power_law():
    xs = np.arange(1.0, 101.0)
    ys = 8.0 * xs**-2.0
    fit = ols_loglog(xs, ys)
    assert np.isclose(fit.slope, -2.0, atol=1e-12)
    assert np.isclose(fit.intercept, math.log(8.0), atol=1e-12)
    assert fit.slope_stderr < 1e-13
    assert fit.pvalue == 0.0


def test_ols_loglog_two_points():
    fit = ols_loglog([1.0, 2.0], [1.0, 4.0])
    assert np.isclose(fit.slope, 2.0)
    assert math.isnan(fit.slope_stderr)
    assert math.isnan(fit.pvalue)


def test_ols_loglog_rejects_bad_input():
    with pytest.raises(DomainError):
        ols_loglog([1.0, 2.0], [1.0, -1.0])
    with pytest.raises(DomainError):
        ols_loglog([0.0, 2.0], [1.0, 1.0])
    with pytest.raises(DomainError):
        ols_loglog([1.0], [1.0])
    with pytest.raises(DegenerateInputError):
        ols_loglog([3.0, 3.0, 3.0], [1.0, 2.0, 3.0])


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1), st.integers(3, 40))
def test_ols_loglog_matches_linregress(seed, n):
    rng = np.random.default_rng(seed)
    xs = np.exp(rng.normal(size=n))
    ys = np.exp(rng.normal(size=n))
    fit = ols_loglog(xs, ys)
    ref = stats.linregress(np.log(xs), np.log(ys))
    assert np.isclose(fit.slope, ref.slope, rtol=1e-10)
    assert np.isclose(fit.intercept, ref.intercept, rtol=1e-10)
    assert np.isclose(fit.slope_stderr, ref.stderr, rtol=1e-8)
    assert np.isclose(fit.pvalue, ref.pvalue, rtol=1e-6, atol=1e-300)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3, 4, 17, _NORMAL_APPROX_N + 1, _NORMAL_APPROX_N + 2, _NORMAL_APPROX_N + 3, 300]),
    st.integers(1, 6),
)
def test_ols_loglog_rows_match_scalar_fit(seed, n, rows):
    # n = 202 is the last t-tail fit (200 dof) and n = 203 the first normal one
    rng = np.random.default_rng(seed)
    xs = np.exp(rng.normal(size=n))
    ys = np.exp(rng.normal(size=(rows, n)))
    ys[0] = 3.0 * xs**-0.4  # an exact power law: zero residuals
    given_ys = ys.copy()
    batch = ols_loglog_rows(xs, ys)
    assert np.array_equal(ys, given_ys)  # the fit works in buffers of its own
    for i in range(rows):
        fit = ols_loglog(xs, ys[i])
        for name in ("slope", "intercept", "slope_stderr", "pvalue"):
            got, want = getattr(batch, name)[i], getattr(fit, name)
            if math.isnan(want):
                assert n == 2 and math.isnan(got)
            else:
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (name, i, got, want)
        assert batch.n_points == fit.n_points


def _t_values(seed):
    # |t| from 0 past the normal tail's underflow near |t|/sqrt 2 = 27, both signs
    rng = np.random.default_rng(seed)
    t = np.concatenate([[0.0, 1e-9, 1.0, 37.0, 38.0], rng.uniform(0.0, 40.0, 40)])
    return np.concatenate([t, -t])


def test_slope_pvalues_normal_tail_matches_scipy_erfc():
    for dof in range(_NORMAL_APPROX_N + 1, 601):
        t = _t_values(dof)
        got = slope_pvalues(t, np.ones_like(t), dof)
        want = special.erfc(np.abs(t) / math.sqrt(2.0))
        close = np.abs(got - want) <= 1e-13 * np.maximum(got, want)
        assert np.all(close | ((got <= 1e-300) & (want <= 1e-300))), dof


def test_slope_pvalues_t_tail_is_scipy_stdtr():
    for dof in range(1, _NORMAL_APPROX_N + 1):
        t = _t_values(dof)
        got = slope_pvalues(t, np.ones_like(t), dof)
        assert np.array_equal(got, 2.0 * special.stdtr(dof, -np.abs(t))), dof


@pytest.mark.parametrize("dof", [3, _NORMAL_APPROX_N + 1])
def test_slope_pvalues_of_an_infinite_t_or_a_zero_stderr(dof):
    slope = np.array([[2.0, 0.0], [-1.0, 1e300]])
    stderr = np.array([[0.0, 0.0], [0.0, 1e-300]])
    got = slope_pvalues(slope, stderr, dof)
    assert got.shape == (2, 2)
    assert got.tolist() == [[0.0, 1.0], [0.0, 0.0]]
    assert slope_pvalues(1.0, 2.0, dof).shape == ()


def test_ols_loglog_rows_rejects_bad_input():
    with pytest.raises(DomainError):
        ols_loglog_rows([1.0, 2.0], np.array([[1.0, -1.0]]))
    with pytest.raises(DomainError):
        ols_loglog_rows([1.0, 2.0, 3.0], np.ones((2, 2)))
    with pytest.raises(DegenerateInputError):
        ols_loglog_rows([3.0, 3.0, 3.0], np.ones((1, 3)))


def _power_law_periodogram(length=64, d=0.3, scale=1.0):
    # build a series whose half-spectrum power is exactly scale * k^(-2d)
    half = length // 2
    ks = np.arange(1, half + 1)
    mags = np.sqrt(scale) * ks.astype(np.float64) ** -d
    bins = np.zeros(half + 1, dtype=np.complex128)
    bins[1:] = mags
    x = np.fft.irfft(bins, n=length)
    return periodogram(EmbeddedSeries(x[:, None]))


def test_estimate_from_periodogram_exact_power_law():
    pg = _power_law_periodogram(d=0.3)
    est = estimate_from_periodogram(pg, EstimatorConfig(pad_length=64))
    assert np.isclose(est.d[0], 0.3, atol=1e-10)
    assert est.cutoff_used == 32


def test_estimate_cutoff_variants():
    pg = _power_law_periodogram(length=64, d=0.2)
    full = estimate_from_periodogram(pg, EstimatorConfig(64, cutoff=FullBand()))
    low = estimate_from_periodogram(pg, EstimatorConfig(64, cutoff=LowFrequency(8)))
    assert full.cutoff_used == 32
    assert low.cutoff_used == 8
    assert np.isclose(low.d[0], 0.2, atol=1e-10)
    assert sqrt_cutoff(2048) == LowFrequency(45)
    assert sqrt_cutoff(64) == LowFrequency(8)


def test_estimate_rejects_oversized_cutoff():
    pg = _power_law_periodogram(length=64)
    with pytest.raises(DomainError):
        estimate_from_periodogram(pg, EstimatorConfig(64, cutoff=LowFrequency(33)))


def test_estimate_zero_power_names_dim_and_bin():
    values = np.zeros((8, 2))
    values[:, 0] = np.random.default_rng(0).standard_normal(8)
    pg = periodogram(EmbeddedSeries(values))
    with pytest.raises(ZeroPowerError) as exc:
        estimate_from_periodogram(pg, EstimatorConfig(8))
    assert exc.value.dim == 1
    assert exc.value.bin_index == 1


def test_scaling_series_shifts_intercept_only():
    base = _power_law_periodogram(length=64, d=0.3, scale=1.0)
    scaled = _power_law_periodogram(length=64, d=0.3, scale=9.0)
    config = EstimatorConfig(64)
    est_base = estimate_from_periodogram(base, config)
    est_scaled = estimate_from_periodogram(scaled, config)
    assert np.isclose(est_scaled.d[0], est_base.d[0], atol=1e-10)
    assert np.isclose(
        est_scaled.intercept[0], est_base.intercept[0] + math.log(9.0), atol=1e-9
    )


def test_lookup_pad_periodogram_fit_pipeline():
    table = normal_bucket_table(4)
    rng = np.random.default_rng(3)
    seq = SymbolSequence([int(i) for i in rng.integers(0, 4, size=100)])
    config = EstimatorConfig(pad_length=128)
    series = pad_to_length(lookup_sequence(table, seq, OovPolicy.ZERO), config.pad_length)
    est = estimate_from_periodogram(periodogram(series), config)
    assert est.d.shape == (1,)
    assert np.isfinite(est.d[0])


def test_fit_periodograms_rows_equal_single_fits():
    block = np.random.default_rng(5).standard_normal((4, 64, 3))
    config = EstimatorConfig(64, cutoff=LowFrequency(8))
    batch = fit_periodograms(periodograms(block.transpose(0, 2, 1)), config.cutoff)
    assert batch.d.shape == (4, 3) and batch.cutoff_used == 8
    for b in range(4):
        single = estimate_from_periodogram(periodogram(EmbeddedSeries(block[b])), config)
        for name in ("d", "intercept", "slope_stderr", "pvalue"):
            assert np.array_equal(getattr(batch, name)[b], getattr(single, name)), name


@pytest.mark.parametrize(
    "cutoff", [FullBand(), LowFrequency(11), LowFrequency(2)], ids=["full", "m11", "m2"]
)
def test_fit_d_is_the_d_of_fit_periodograms(cutoff):
    power = periodograms(np.random.default_rng(8).standard_normal((6, 3, 64)))
    given_power = power.copy()
    views = (
        power,
        power[::2, ::-1],  # rows a stride apart
        np.ascontiguousarray(power.transpose(0, 2, 1)).transpose(0, 2, 1),  # bins a stride apart
    )
    for block in views:
        d = fit_d(block, cutoff)
        assert d.shape == block.shape[:-1]
        assert np.array_equal(d, fit_periodograms(block, cutoff).d)
    assert np.array_equal(power, given_power)


@pytest.mark.parametrize(
    "cutoff", [FullBand(), LowFrequency(11), LowFrequency(2)], ids=["full", "m11", "m2"]
)
def test_fit_d_into_a_work_array_equals_the_allocating_fit(cutoff):
    power = periodograms(np.random.default_rng(9).standard_normal((6, 3, 64)))
    work = np.full(6 * 3 * 32 + 5, np.nan)  # larger than the fit needs
    for block in (power, power[::2, ::-1], power[1]):
        assert np.array_equal(fit_d(block, cutoff, work=work), fit_d(block, cutoff))


def test_fit_d_logs_strided_fitted_bins_without_a_copy():
    # 400 fits of 64 of 512 bins: a copy of the fitted bins would be 205 kB,
    # twice the bound, which leaves room for numpy's 64 kB iterator buffer
    power = periodograms(np.random.default_rng(10).standard_normal((8, 50, 1024)))
    work = np.empty(power.size)
    d, peak = traced_peak(lambda: fit_d(power, LowFrequency(64), work=work))
    assert np.array_equal(d, fit_d(power, LowFrequency(64)))
    assert peak < 400 * 64 * 8 / 2


def test_estimate_report_fields():
    pg = _power_law_periodogram(length=64, d=0.1)
    config = EstimatorConfig(64)
    report = estimate_report(estimate_from_periodogram(pg, config))
    assert report["schema_version"] == 1
    assert report["dim"] == 1
    assert report["cutoff"] == 32
    assert report["abscissa"] == "index"
    for key in ("d", "intercept", "stderr", "pvalue"):
        assert isinstance(report[key], list) and len(report[key]) == 1
    assert np.isclose(report["d"][0], 0.1, atol=1e-9)
    assert report["d_stderr_asymptotic"] == math.pi / math.sqrt(24.0 * 32)  # Robinson, m = 32


def test_hurst_from_d():
    assert hurst_from_d(0.3) == 0.8
    assert hurst_from_d(0.0) == 0.5


def test_gaussian_mi_monovariate_closed_form():
    rho = 0.6
    joint = np.array([[1.0, rho], [rho, 1.0]])
    mi = gaussian_mutual_info(np.eye(1), np.eye(1), joint)
    assert np.isclose(mi, -0.5 * math.log(1.0 - rho**2), atol=1e-12)


def test_gaussian_mi_independence_is_zero():
    mi = gaussian_mutual_info(np.eye(2), np.eye(2), np.eye(4))
    assert abs(mi) < 1e-12


def test_gaussian_mi_scale_invariance():
    rho = 0.4
    joint = np.array([[4.0, 2.0 * rho], [2.0 * rho, 1.0]])  # sd 2 and 1
    mi = gaussian_mutual_info(np.array([[4.0]]), np.eye(1), joint)
    assert np.isclose(mi, -0.5 * math.log(1.0 - rho**2), atol=1e-12)


def test_gaussian_mi_rejects_bad_joint():
    with pytest.raises(DomainError):
        gaussian_mutual_info(np.eye(1), np.eye(1), np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(DomainError):
        gaussian_mutual_info(np.eye(1), np.eye(1), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(DomainError):
        gaussian_mutual_info(np.eye(2), np.eye(1), np.eye(4))


def test_mi_decay_slope_fgn():
    fit = mi_decay_slope(lambda h: fgn_autocov(0.9, h), range(32, 257))
    assert abs(fit.slope - (-0.4)) <= 0.1  # 2(2d-1) with d = 0.4


def test_mi_decay_slope_white_noise_degenerate():
    with pytest.raises(DegenerateInputError):
        mi_decay_slope(lambda h: 1.0 if h == 0 else 0.0, [1, 2, 4])


def test_mi_decay_slope_perfect_correlation_rejected():
    with pytest.raises(DomainError):
        mi_decay_slope(lambda h: 1.0, [1, 2, 4])


def test_mi_decay_slope_needs_two_lags():
    with pytest.raises(DomainError):
        mi_decay_slope(lambda h: fgn_autocov(0.8, h), [5])
