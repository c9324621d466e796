"""Real-input DFT periodograms, batched over blocks of series.

The forward transform is unnormalized (no 1/L factor): log-log slope
estimates are invariant to multiplicative scaling, so normalization would
only shift the regression intercept. The fast path requires power-of-two
lengths; `dft_naive` is the O(L^2) oracle used to verify it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .embeddings import EmbeddedSeries
from .errors import DimensionMismatchError, DomainError, SpectralLengthError


@dataclass(frozen=True)
class Periodogram:
    """Squared-magnitude spectrum per dimension over indices k = 1..L/2.

    The DC bin (k = 0) is removed; the Nyquist bin is retained. `power`
    is an (L/2) x p matrix.
    """

    length: int
    power: np.ndarray

    def __post_init__(self):
        power = np.asarray(self.power, dtype=np.float64)
        if power.ndim != 2 or power.shape[0] != self.length // 2:
            raise DimensionMismatchError(
                f"expected {self.length // 2} x p power matrix for length "
                f"{self.length}, got shape {power.shape}"
            )
        if np.any(power < 0):
            raise DomainError("periodogram power must be non-negative")
        object.__setattr__(self, "power", power)

    @property
    def dim(self) -> int:
        return self.power.shape[1]

    @property
    def freq_indices(self) -> np.ndarray:
        return np.arange(1, self.length // 2 + 1)


def dft_naive(signal: np.ndarray) -> np.ndarray:
    """O(L^2) reference DFT bins k = 0..floor(L/2):
    bin k = sum_t x_t exp(-2*pi*i*k*t/L)."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise DomainError("signal must be a non-empty 1-d real vector")
    length = x.size
    ks = np.arange(length // 2 + 1)
    ts = np.arange(length)
    kernel = np.exp(-2j * np.pi * np.outer(ks, ts) / length)
    return kernel @ x


def periodograms(block: np.ndarray) -> np.ndarray:
    """Power at k = 1..L/2 (DC removed) of every column of a (..., L, p)
    block of series, by one real FFT along the time axis; (..., L/2, p)."""
    values = np.asarray(block, dtype=np.float64)
    if values.ndim < 2:
        raise DimensionMismatchError(f"block must be (..., L, p), got shape {values.shape}")
    length = values.shape[-2]
    if length < 1 or length & (length - 1):
        raise SpectralLengthError(
            f"series length {length} is not a power of two; pad the series first"
        )
    spectrum = np.fft.rfft(values, axis=-2)
    return np.abs(spectrum[..., 1:, :]) ** 2


def periodogram(series: EmbeddedSeries) -> Periodogram:
    """Per-dimension squared magnitudes at k = 1..L/2 (DC removed)."""
    return Periodogram(length=series.length, power=periodograms(series.values))


def write_periodogram_csv(pg: Periodogram, stream: TextIO) -> None:
    """Dump a periodogram as CSV with header `k,dim0,...,dim{p-1}`."""
    header = "k," + ",".join(f"dim{j}" for j in range(pg.dim))
    stream.write(header + "\n")
    for k, row in zip(pg.freq_indices, pg.power):
        stream.write(f"{k}," + ",".join(repr(float(v)) for v in row) + "\n")
