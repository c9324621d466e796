"""DFT reference kernel, batched periodograms, and their one-series view."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longmem.embeddings import EmbeddedSeries
from longmem.errors import DimensionMismatchError, SpectralLengthError
from longmem.spectral import dft_naive, periodogram, periodograms, write_periodogram_csv


def test_dft_naive_constant():
    spec = dft_naive(np.array([1.0, 1.0, 1.0, 1.0]))
    assert np.allclose(spec, [4.0, 0.0, 0.0])


def test_dft_naive_impulse():
    spec = dft_naive(np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(spec, [1.0, 1.0, 1.0])


def test_dft_naive_pure_sine():
    spec = dft_naive(np.array([0.0, 1.0, 0.0, -1.0]))
    assert np.allclose(spec, [0.0, -2.0j, 0.0])


def test_rfft_matches_naive_small():
    rng = np.random.default_rng(0)
    for length in (2, 4, 8, 16, 32):
        x = rng.standard_normal(length)
        naive = np.abs(dft_naive(x)[1:]) ** 2
        assert np.allclose(periodograms(x[None])[0], naive, rtol=1e-12, atol=1e-12)


def test_rfft_rejects_non_power_of_two():
    for length in (1, 3, 6, 12, 100):  # length 1 has no bin
        with pytest.raises(SpectralLengthError):
            periodograms(np.zeros((1, length)))


def test_rfft_bin_count():
    power = periodograms(np.zeros((3, 2, 16)))
    assert power.shape == (3, 2, 8)  # k = 1..L/2: DC dropped, Nyquist kept


def test_periodogram_drops_dc_keeps_nyquist():
    series = EmbeddedSeries(np.ones((8, 1)))
    pg = periodogram(series)
    assert pg.power.shape == (1, 4)
    assert np.array_equal(pg.freq_indices, [1, 2, 3, 4])
    assert np.allclose(pg.power, 0.0)  # constant signal is pure DC


def test_periodogram_impulse_is_flat():
    x = np.zeros((8, 1))
    x[0, 0] = 1.0
    pg = periodogram(EmbeddedSeries(x))
    assert np.allclose(pg.power, 1.0)


def test_periodogram_matches_naive_dft():
    rng = np.random.default_rng(1)
    values = rng.standard_normal((64, 3))
    pg = periodogram(EmbeddedSeries(values))
    for j in range(3):
        naive = np.abs(dft_naive(values[:, j])[1:]) ** 2
        assert np.allclose(pg.power[j], naive, rtol=1e-10)


def test_periodogram_white_noise_mean_power_near_length():
    rng = np.random.default_rng(2)
    length = 1024
    powers = [
        periodogram(EmbeddedSeries(rng.standard_normal((length, 1)))).power
        for _ in range(100)
    ]
    mean_power = np.mean(np.stack(powers), axis=0)[0]
    # E|X_k|^2 = L for iid unit-variance input away from DC
    assert abs(float(mean_power.mean()) - length) / length < 0.02
    assert np.mean(np.abs(mean_power - length) / length < 0.4) > 0.99


def test_periodograms_block_rows_equal_single_series():
    block = np.random.default_rng(4).standard_normal((5, 32, 3))
    power = periodograms(block.transpose(0, 2, 1))
    for b in range(5):
        assert np.array_equal(power[b], periodogram(EmbeddedSeries(block[b])).power)
    # the mean over the leading axis adds the rows in order
    assert np.array_equal(power.mean(axis=0), sum(power) / 5)


@pytest.mark.parametrize("layout", ["contiguous", "transposed", "row-strided"])
def test_periodograms_leave_each_layout_unchanged_and_give_c_contiguous_power(layout):
    series = np.random.default_rng(6).standard_normal((4, 64, 3))
    power = periodograms(np.ascontiguousarray(series.transpose(0, 2, 1)))
    given, want = {
        "contiguous": (np.ascontiguousarray(series.transpose(0, 2, 1)), power),
        "transposed": (series[0].T, power[0]),  # as `periodogram` passes series.values.T
        "row-strided": (series.transpose(0, 2, 1)[::2, ::-1], power[::2, ::-1]),
    }[layout]
    given_copy = given.copy()
    got = periodograms(given)
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)
    assert np.array_equal(given, given_copy)


def test_periodograms_rejects_a_single_column():
    with pytest.raises(DimensionMismatchError):
        periodograms(np.ones(8))


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_parseval_identity(seed):
    x = np.random.default_rng(seed).standard_normal(256)
    power = periodograms(x[None])[0]
    # the pipeline drops the DC bin, whose power is (sum x)^2
    spectral = (x.sum() ** 2 + 2.0 * np.sum(power[:-1]) + power[-1]) / x.size
    assert np.isclose(spectral, np.sum(x**2), rtol=1e-9)


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1))
def test_dft_linearity_and_conjugate_symmetry(seed):
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(16), rng.standard_normal(16)
    fx, fy = dft_naive(x), dft_naive(y)
    fxy = dft_naive(x + 2.0 * y)
    assert np.allclose(fxy, fx + 2.0 * fy, atol=1e-10)
    # real input: interior bins of the full DFT come in conjugate pairs,
    # so DC and Nyquist bins of the half spectrum are real
    assert abs(fx[0].imag) < 1e-10
    assert abs(fx[-1].imag) < 1e-10


def test_write_periodogram_csv():
    pg = periodogram(EmbeddedSeries(np.arange(8.0).reshape(4, 2)))
    buffer = io.StringIO()
    write_periodogram_csv(pg, buffer)
    lines = buffer.getvalue().strip().split("\n")
    assert lines[0] == "k,dim0,dim1"
    assert len(lines) == 3  # header + L/2 bins
    k, p0, p1 = lines[1].split(",")
    assert k == "1"
    assert np.isclose(float(p0), pg.power[0, 0])
    assert np.isclose(float(p1), pg.power[1, 0])
