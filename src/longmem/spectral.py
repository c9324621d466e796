"""Real-input DFT periodograms, batched over blocks of series.

Every spectrum is time-last: the power of p dimensions is a p x (L/2)
array, one contiguous row of bins per dimension, from the FFT to the fit;
only the CSV dump writes it bin by bin.

The forward transform is unnormalized (no 1/L factor): log-log slope
estimates are invariant to multiplicative scaling, so normalization would
only shift the regression intercept. The fast path requires power-of-two
lengths; `dft_naive` is the O(L^2) oracle used to verify it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TextIO

import numpy as np

from .embeddings import EmbeddedSeries
from .errors import DimensionMismatchError, DomainError, SpectralLengthError


@dataclass(frozen=True)
class Periodogram:
    """Squared-magnitude spectrum per dimension over indices k = 1..L/2.

    The DC bin (k = 0) is removed; the Nyquist bin is retained. `power`
    is a time-last p x (L/2) matrix, as `periodograms` gives it.
    """

    length: int
    power: np.ndarray

    def __post_init__(self):
        power = np.asarray(self.power, dtype=np.float64)
        if power.ndim != 2 or power.shape[1] != self.length // 2:
            raise DimensionMismatchError(
                f"expected p x {self.length // 2} power matrix for length "
                f"{self.length}, got shape {power.shape}"
            )
        if np.any(power < 0):
            raise DomainError("periodogram power must be non-negative")
        object.__setattr__(self, "power", power)

    @property
    def dim(self) -> int:
        return self.power.shape[0]

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


def check_length(length: int) -> None:
    """Refuse a series length the fast path cannot transform into one
    periodogram bin or more: one that is not a power of two >= 2."""
    if length < 2 or length & (length - 1):
        raise SpectralLengthError(
            f"series length {length} is not a power of two >= 2; pad the series first"
        )


def periodograms(block: np.ndarray) -> np.ndarray:
    """Power at k = 1..L/2 (DC removed) of every row of a time-last
    (..., p, L) block of series, by one real FFT along the last axis;
    (..., p, L/2), C-contiguous: `power_block` after the block's checks.
    The block is left as it is."""
    values = np.asarray(block, dtype=np.float64)
    if values.ndim < 2:
        raise DimensionMismatchError(f"block must be (..., p, L), got shape {values.shape}")
    length = values.shape[-1]
    check_length(length)
    # C-contiguous, so it has a float view: rfft's own result need not
    spectrum = np.empty(values.shape[:-1] + (length // 2 + 1,), dtype=np.complex128)
    return power_block(values, spectrum)


def power_block(
    values: np.ndarray, spectrum: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """The kernel of `periodograms`, unchecked: the power of a float64
    (..., p, L) block whose length `check_length` passed. The transform is
    written into `spectrum`, a C-contiguous complex128 (..., p, L/2 + 1)
    array, and the power into `out`, allocated when not given. `out` may
    share memory with `values`, which is dead once transformed. The
    spectrum is left squared part by part."""
    np.fft.rfft(values, axis=-1, out=spectrum)
    # re^2 + im^2 of bins 1..L/2. The parts are squared in place, DC too: an
    # in-place ufunc on the contiguous view runs ~4x faster than on [..., 2:]
    parts = spectrum.view(np.float64)
    parts *= parts
    return np.add(parts[..., 2::2], parts[..., 3::2], out=out)


def periodogram(series: EmbeddedSeries) -> Periodogram:
    """Per-dimension squared magnitudes at k = 1..L/2 (DC removed)."""
    return Periodogram(length=series.length, power=periodograms(series.values.T))


def write_periodogram_csv(pg: Periodogram, stream: TextIO) -> None:
    """Dump a periodogram as CSV with header `k,dim0,...,dim{p-1}`, one
    line per bin."""
    header = "k," + ",".join(f"dim{j}" for j in range(pg.dim))
    stream.write(header + "\n")
    for k, row in zip(pg.freq_indices, pg.power.T):
        stream.write(f"{k}," + ",".join(repr(float(v)) for v in row) + "\n")
