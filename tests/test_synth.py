"""Synthetic long-memory generators and the symbol quantizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal, special

from longmem.embeddings import EmbeddedSeries
from longmem.errors import DomainError
from longmem.estimator import EstimatorConfig, LowFrequency, estimate_from_periodogram
from longmem.spectral import Periodogram, periodograms
from longmem.synth import (
    _EIGENVALUE_RTOL,
    _normal_quantiles,
    FarimaSpec,
    FgnSpec,
    farima_ma_coeffs,
    fgn_autocov,
    generate_farima,
    generate_fgn,
    generate_series,
    generate_white,
    normal_bucket_table,
    quantize_to_symbols,
    shuffle_series,
    theoretical_d,
)


def test_fgn_autocov_reference_values():
    assert fgn_autocov(0.8, 0) == 1.0
    # frozen from the closed form 0.5 * (|h+1|^2H - 2|h|^2H + |h-1|^2H)
    assert np.isclose(fgn_autocov(0.8, 1), 0.5157165665103982, atol=1e-15)
    assert np.isclose(fgn_autocov(0.8, 2), 0.3683399343768481, atol=1e-15)
    assert np.isclose(fgn_autocov(0.6, 1), 0.14869835499703488, atol=1e-15)


def test_fgn_autocov_half_is_white():
    for h in (1, 2, 5, 100):
        assert abs(fgn_autocov(0.5, h)) < 1e-12
    assert fgn_autocov(0.5, 0) == 1.0


def test_fgn_autocov_negative_lag_symmetric():
    assert fgn_autocov(0.7, -3) == fgn_autocov(0.7, 3)


def test_fgn_autocov_domain():
    with pytest.raises(DomainError):
        fgn_autocov(1.0, 1)
    with pytest.raises(DomainError):
        fgn_autocov(0.0, 1)


def test_fgn_circulant_embedding_is_nonnegative():
    # generate_fgn raises DomainError below this floor; the embedding is
    # non-negative in exact arithmetic (Dietrich & Newsam 1997)
    for hurst in (0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999):
        for t in (2, 3, 5, 17, 1000, 1024, 4096, 65536):
            gamma = fgn_autocov(hurst, np.arange(t + 1))
            eigenvalues = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
            assert eigenvalues.min() >= -_EIGENVALUE_RTOL * eigenvalues.max(), (hurst, t)


def test_generate_fgn_deterministic():
    spec = FgnSpec(hurst=0.8, length=512, seed=42)
    assert np.array_equal(generate_fgn(spec), generate_fgn(spec))
    other = generate_fgn(FgnSpec(hurst=0.8, length=512, seed=43))
    assert not np.array_equal(generate_fgn(spec), other)


def test_generate_fgn_unit_variance():
    x = generate_fgn(FgnSpec(hurst=0.5, length=65536, seed=0))
    # sample variance of T iid normals has sd ~ sqrt(2/T) ~ 0.0055
    assert abs(float(x.var()) - 1.0) < 0.017


def test_generate_fgn_lag_one_autocovariance():
    target = fgn_autocov(0.8, 1)
    estimates = []
    for s in range(200):
        x = generate_fgn(FgnSpec(hurst=0.8, length=2048, seed=3000 + s))
        estimates.append(float(np.mean(x[:-1] * x[1:])))
    mean = float(np.mean(estimates))
    stderr = float(np.std(estimates, ddof=1)) / np.sqrt(len(estimates))
    assert abs(mean - target) < 4.0 * stderr + 1e-3


def test_generate_fgn_multi_lag_autocovariance():
    hurst = 0.7
    lags = [1, 2, 4, 8]
    per_series = np.empty((300, len(lags)))
    for s in range(300):
        x = generate_fgn(FgnSpec(hurst=hurst, length=512, seed=5000 + s))
        for j, h in enumerate(lags):
            per_series[s, j] = float(np.mean(x[:-h] * x[h:]))
    for j, h in enumerate(lags):
        mean = per_series[:, j].mean()
        stderr = per_series[:, j].std(ddof=1) / np.sqrt(300)
        assert abs(mean - fgn_autocov(hurst, h)) < 4.0 * stderr + 1e-3, f"lag {h}"


def test_generate_white_is_standard_normal():
    x = generate_white(65536, seed=1)
    assert abs(float(x.mean())) < 0.02
    assert abs(float(x.var()) - 1.0) < 0.017
    assert abs(float(np.mean(x[:-1] * x[1:]))) < 0.02


def test_farima_ma_coeffs_initial_terms():
    d = 0.3
    psi = farima_ma_coeffs(d, 4)
    assert psi[0] == 1.0
    assert np.isclose(psi[1], d, atol=1e-15)
    assert np.isclose(psi[2], d * (1 + d) / 2.0, atol=1e-15)
    assert psi.shape == (5,)


def test_farima_ma_coeffs_match_gamma_ratio():
    for d in (-0.4, -0.1, 0.1, 0.25, 0.4):
        psi = farima_ma_coeffs(d, 50)
        js = np.arange(51)
        direct = special.gamma(js + d) / (special.gamma(d) * special.gamma(js + 1.0))
        assert np.allclose(psi, direct, rtol=1e-10), f"d={d}"


def test_farima_ma_coeffs_zero_d_is_identity_filter():
    psi = farima_ma_coeffs(0.0, 10)
    assert psi[0] == 1.0
    assert np.array_equal(psi[1:], np.zeros(10))


def test_farima_spec_default_truncation():
    spec = FarimaSpec(d=0.3, length=100, seed=0)
    assert spec.truncation == 200
    assert FarimaSpec(d=0.3, length=100, seed=0, ma_truncation=64).truncation == 64


def test_generate_farima_deterministic():
    spec = FarimaSpec(d=0.25, length=256, seed=9)
    assert np.array_equal(generate_farima(spec), generate_farima(spec))


def test_generate_farima_is_the_full_convolution():
    # scipy's fftconvolve is the oracle; worst measured: 8.3e-14 relative
    spec = FarimaSpec(d=0.3, length=500, seed=4, ma_truncation=700)
    eps = np.random.default_rng(4).standard_normal(1200)
    want = signal.fftconvolve(eps, farima_ma_coeffs(0.3, 700), mode="full")[700:1200]
    got = generate_farima(spec)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_generate_farima_zero_d_is_white():
    x = generate_farima(FarimaSpec(d=0.0, length=32768, seed=2))
    assert abs(float(x.var()) - 1.0) < 0.03
    assert abs(float(np.mean(x[:-1] * x[1:]))) < 0.03


def test_generate_farima_recovers_d():
    config = EstimatorConfig(pad_length=2048, cutoff=LowFrequency(45))
    series = []
    for s in range(200):
        x = generate_farima(FarimaSpec(d=0.4, length=2048, seed=70000 + s, ma_truncation=4096))
        series.append(x[None])
    power = periodograms(np.stack(series)).mean(axis=0)
    mean_pg = Periodogram(length=2048, power=power)
    est = estimate_from_periodogram(mean_pg, config)
    assert 0.32 <= est.d[0] <= 0.48


def test_shuffle_series_permutes_rows():
    series = EmbeddedSeries(np.arange(12.0).reshape(6, 2))
    shuffled = shuffle_series(series, seed=0)
    assert shuffled.length == 6
    assert not np.array_equal(shuffled.values, series.values)
    assert np.array_equal(
        np.sort(shuffled.values, axis=0), np.sort(series.values, axis=0)
    )
    assert np.array_equal(shuffle_series(series, seed=0).values, shuffled.values)


def test_shuffle_series_single_row():
    series = EmbeddedSeries(np.array([[1.0, 2.0]]))
    assert np.array_equal(shuffle_series(series, seed=5).values, series.values)


def test_normal_bucket_table_structure():
    table = normal_bucket_table(8)
    assert table.vocab_size == 8
    assert table.dim == 1
    first = table.vectors[:, 0]
    assert np.all(np.diff(first) > 0)  # strictly increasing bucket centers
    assert abs(float(first.mean())) < 1e-10  # symmetric around zero
    assert table.token_ids == {str(i): i for i in range(8)}


@pytest.mark.parametrize("vocab", [2, 16, 64, 5000])
def test_bucket_mids_and_edges_are_the_normal_quantiles(vocab):
    # scipy's ndtri is the oracle; worst measured: 1.03e-15 relative, at V = 5000
    mids = normal_bucket_table(vocab).vectors[:, 0]
    want = special.ndtri((np.arange(vocab) + 0.5) / vocab)
    assert np.all(np.abs(mids - want) <= 2e-15 * np.abs(want))
    # the edges quantize_to_symbols cuts at
    edges = _normal_quantiles(np.arange(1, vocab) / vocab)
    want = special.ndtri(np.arange(1, vocab) / vocab)
    assert np.all(np.abs(edges - want) <= 2e-15 * np.abs(want))


def test_quantize_two_buckets_is_sign():
    x = np.array([-2.0, -0.1, 0.1, 2.0])
    seq = quantize_to_symbols(x, 2)
    assert seq.ids == (0, 0, 1, 1)


def test_quantize_ids_in_range_and_deterministic():
    x = generate_white(1000, seed=3)
    seq = quantize_to_symbols(x, 16)
    assert len(seq) == 1000
    assert all(0 <= i < 16 for i in seq.ids)
    assert seq.ids == quantize_to_symbols(x, 16).ids


def test_quantize_balanced_buckets_on_gaussian_input():
    x = generate_white(100000, seed=4)
    seq = quantize_to_symbols(x, 4)
    counts = np.bincount(np.array(seq.ids), minlength=4)
    assert np.all(np.abs(counts / 100000.0 - 0.25) < 0.01)


def test_quantized_fgn_preserves_memory_coefficient():
    table = normal_bucket_table(64)
    config = EstimatorConfig(pad_length=2048, cutoff=LowFrequency(45))
    from longmem.embeddings import OovPolicy, lookup_sequence

    series = []
    for s in range(200):
        x = generate_fgn(FgnSpec(hurst=0.8, length=2048, seed=81000 + s))
        seq = quantize_to_symbols(x, 64)
        series.append(lookup_sequence(table, seq, OovPolicy.ZERO).values.T)
    power = periodograms(np.stack(series)).mean(axis=0)
    mean_pg = Periodogram(length=2048, power=power)
    est = estimate_from_periodogram(mean_pg, config)
    assert abs(est.d[0] - 0.3) <= 0.08


def test_theoretical_d():
    assert np.isclose(theoretical_d("fgn", hurst=0.8), 0.3, atol=1e-12)
    assert theoretical_d("farima", d=0.25) == 0.25
    assert theoretical_d("white") == 0.0
    with pytest.raises(DomainError):
        theoretical_d("fgn")
    with pytest.raises(DomainError):
        theoretical_d("unknown", d=0.1)
    assert theoretical_d("farima", d=0.4, hurst=0.9) == 0.4
    for model in ("fgn", "farima", "white"):
        with pytest.raises(DomainError, match="disagree"):
            theoretical_d(model, d=0.3, hurst=0.9)


def test_generate_series_draws_column_i_from_seed_plus_i():
    columns = {
        "fgn": lambda seed: generate_fgn(FgnSpec(hurst=0.3 + 0.5, length=50, seed=seed)),
        "farima": lambda seed: generate_farima(FarimaSpec(0.3, 50, seed, 20)),
        "white": lambda seed: generate_white(50, seed),
    }
    for model, column in columns.items():
        truncation = 20 if model == "farima" else None
        matrix = generate_series(model, 0.3, 50, 3, 7, ma_truncation=truncation)
        assert matrix.shape == (50, 3)
        for i in range(3):
            assert matrix[:, i].tobytes() == column(7 + i).tobytes(), (model, i)
    for model, count in (("fgn", 0), ("unknown", 1)):
        with pytest.raises(DomainError):
            generate_series(model, 0.3, 50, count, 7)


def test_generate_series_names_the_sizes_numpy_cannot_index():
    # numpy refuses each of these as too big before it allocates
    for model in ("fgn", "farima", "white"):
        with pytest.raises(DomainError, match="^length 4611686018427387904 at count 1 needs ") as raised:
            generate_series(model, 0.3, 1 << 62, 1, 7)
        assert raised.value.__cause__ is None and raised.value.__suppress_context__
    with pytest.raises(DomainError, match="^length 2 at count 4611686018427387904 needs "):
        generate_series("white", 0.0, 2, 1 << 62, 7)


def test_quantize_names_a_vocab_numpy_cannot_index():
    # numpy refuses 2^62 - 1 bucket edges as too big before it allocates
    refused = "^vocab size 4611686018427387904 needs 36893488147419103224 bytes "
    with pytest.raises(DomainError, match=refused):
        quantize_to_symbols(np.zeros(8), 1 << 62)


@settings(max_examples=25)
@given(st.integers(0, 2**31), st.sampled_from([2, 4, 8, 32]))
def test_quantize_is_monotone_in_input(seed, vocab):
    x = np.random.default_rng(seed).standard_normal(64)
    ids = np.array(quantize_to_symbols(x, vocab).ids)
    order = np.argsort(x, kind="stable")
    assert np.all(np.diff(ids[order]) >= 0)
