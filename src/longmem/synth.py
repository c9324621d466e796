"""Synthetic series with known memory coefficients.

Ground-truth oracles for validating the estimator: fractional Gaussian
noise (exact circulant-embedding simulation), FARIMA(0,d,0) by truncated
MA(infinity) convolution, white noise, row shuffling, and quantization of
real series into equiprobable symbol buckets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .embeddings import EmbeddedSeries, EmbeddingTable, SymbolSequence
from .errors import DomainError, allocating
from .estimator import hurst_from_d

#: Relative tolerance for clipping tiny negative circulant eigenvalues.
_EIGENVALUE_RTOL = 1e-8


@dataclass(frozen=True)
class FgnSpec:
    """Fractional Gaussian noise with Hurst index `hurst` (d = H - 1/2)."""

    hurst: float
    length: int
    seed: int

    def __post_init__(self):
        if not 0.0 < self.hurst < 1.0:
            raise DomainError(f"Hurst index must lie in (0, 1), got {self.hurst}")
        if self.length < 2:
            raise DomainError(f"length must be >= 2, got {self.length}")


@dataclass(frozen=True)
class FarimaSpec:
    """FARIMA(0,d,0) with MA coefficients truncated at `ma_truncation`.

    The psi_j tail decays like j^(d-1), so a truncation of 2T leaves a
    negligible remainder for |d| <= 0.4 at the lengths used here.
    """

    d: float
    length: int
    seed: int
    ma_truncation: int | None = None

    def __post_init__(self):
        if not abs(self.d) < 0.5:
            raise DomainError(f"d must lie in (-0.5, 0.5), got {self.d}")
        if self.length < 1:
            raise DomainError(f"length must be >= 1, got {self.length}")
        if self.ma_truncation is not None and self.ma_truncation < 1:
            raise DomainError(f"ma_truncation must be >= 1, got {self.ma_truncation}")

    @property
    def truncation(self) -> int:
        return self.ma_truncation if self.ma_truncation is not None else 2 * self.length


def fgn_autocov(hurst: float, h) -> float | np.ndarray:
    """Autocovariance 1/2(|h+1|^2H - 2|h|^2H + |h-1|^2H); 1 at lag 0."""
    if not 0.0 < hurst < 1.0:
        raise DomainError(f"Hurst index must lie in (0, 1), got {hurst}")
    ha = np.abs(np.asarray(h, dtype=np.float64))
    two_h = 2.0 * hurst
    out = 0.5 * ((ha + 1.0) ** two_h - 2.0 * ha**two_h + np.abs(ha - 1.0) ** two_h)
    return out if out.ndim else float(out)


def generate_fgn(spec: FgnSpec) -> np.ndarray:
    """Exact FGN sample path via circulant embedding of size 2T.

    The circulant eigenvalues of the FGN autocovariance are provably
    non-negative (Dietrich & Newsam 1997), so tiny negative values from
    rounding are clipped to zero; a materially negative one raises
    DomainError.
    """
    t = spec.length
    rng = np.random.default_rng(spec.seed)
    gamma = fgn_autocov(spec.hurst, np.arange(t + 1))
    circulant_row = np.concatenate([gamma, gamma[-2:0:-1]])
    eigenvalues = np.fft.fft(circulant_row).real
    if eigenvalues.min() < -_EIGENVALUE_RTOL * eigenvalues.max():
        raise DomainError("circulant embedding produced a negative eigenvalue")
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    m = 2 * t
    a = rng.standard_normal(t)
    b = rng.standard_normal(t)
    w = np.empty(m, dtype=np.complex128)
    w[0] = np.sqrt(eigenvalues[0] / m) * a[0]
    w[1:t] = np.sqrt(eigenvalues[1:t] / (2 * m)) * (a[1:] + 1j * b[1:])
    w[t] = np.sqrt(eigenvalues[t] / m) * b[0]
    w[t + 1 :] = np.sqrt(eigenvalues[t + 1 :] / (2 * m)) * (a[1:][::-1] - 1j * b[1:][::-1])
    return np.fft.fft(w)[:t].real


def generate_white(length: int, seed: int) -> np.ndarray:
    """IID standard normal draws (the d = 0 reference process)."""
    if length < 1:
        raise DomainError(f"length must be >= 1, got {length}")
    return np.random.default_rng(seed).standard_normal(length)


def farima_ma_coeffs(d: float, truncation: int) -> np.ndarray:
    """MA coefficients psi_0..psi_J by the recurrence psi_j = psi_{j-1}(j-1+d)/j.

    Equals the Gamma-ratio form Gamma(j+d)/(Gamma(d)Gamma(j+1)) without
    evaluating Gamma.
    """
    if not abs(d) < 0.5:
        raise DomainError(f"d must lie in (-0.5, 0.5), got {d}")
    if truncation < 0:
        raise DomainError(f"truncation must be >= 0, got {truncation}")
    psi = np.empty(truncation + 1)
    psi[0] = 1.0
    for j in range(1, truncation + 1):
        psi[j] = psi[j - 1] * (j - 1 + d) / j
    return psi


def generate_farima(spec: FarimaSpec) -> np.ndarray:
    """FARIMA(0,d,0): x_t = sum_j psi_j eps_{t-j}, burn-in of J discarded;
    the convolution is one FFT product, long enough not to wrap."""
    j = spec.truncation
    rng = np.random.default_rng(spec.seed)
    psi = farima_ma_coeffs(spec.d, j)
    eps = rng.standard_normal(spec.length + j)
    n = 1 << (eps.size + psi.size - 2).bit_length()
    full = np.fft.irfft(np.fft.rfft(eps, n) * np.fft.rfft(psi, n), n)
    return full[j : j + spec.length]


def shuffle_series(series: EmbeddedSeries, seed: int) -> EmbeddedSeries:
    """Uniform random permutation of rows; multiset of rows preserved."""
    perm = np.random.default_rng(seed).permutation(series.length)
    return EmbeddedSeries(values=series.values[perm])


def _normal_quantiles(q: np.ndarray) -> np.ndarray:
    """Standard-normal quantiles of the probabilities `q` (Wichura's AS 241)."""
    return np.fromiter(map(NormalDist().inv_cdf, q.tolist()), np.float64, q.size)


def normal_bucket_table(vocab_size: int) -> EmbeddingTable:
    """A 1-dim monotone table whose row i is the midpoint quantile of
    standard-normal bucket i; tokens are '0'..'V-1'."""
    if vocab_size < 2:
        raise DomainError(f"vocab size must be >= 2, got {vocab_size}")
    mids = _normal_quantiles((np.arange(vocab_size) + 0.5) / vocab_size)
    return EmbeddingTable(
        vectors=mids[:, None], token_ids={str(i): i for i in range(vocab_size)}
    )


def quantize_to_symbols(series: np.ndarray, vocab_size: int) -> SymbolSequence:
    """Map real values onto V equiprobable standard-normal buckets.

    Bucket edges are the normal quantiles at i/V; values on an edge fall
    into the upper bucket, so V = 2 is the sign quantizer. Embedded by
    `normal_bucket_table(V)`, whose rows rise with i, the ids keep the
    ordering of the raw values.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise DomainError("series must be a non-empty 1-d real vector")
    ids = np.searchsorted(bucket_edges(vocab_size), x, side="right")
    return SymbolSequence(ids=[int(i) for i in ids])


@functools.lru_cache(maxsize=1)
def bucket_edges(vocab_size: int) -> np.ndarray:
    """The V - 1 bucket edges of `quantize_to_symbols`, read-only, worked
    out once for the last V asked: a corpus quantizes every series at one
    V, and at V = 100,000 the edges cost nearly all of a short series."""
    if vocab_size < 2:
        raise DomainError(f"vocab size must be >= 2, got {vocab_size}")
    with allocating(f"vocab size {vocab_size}", 8 * (vocab_size - 1), "its bucket edges"):
        edges = _normal_quantiles(np.arange(1, vocab_size) / vocab_size)
    edges.flags.writeable = False
    return edges


def generate_series(
    model: str, d: float, length: int, count: int, seed: int, ma_truncation: int | None = None
) -> np.ndarray:
    """A (length, count) matrix of `model` series with memory coefficient d
    ("fgn", "farima" or "white", which ignores d); column i is drawn from
    seed + i. `ma_truncation` is read by farima alone. A matrix too large
    to allocate raises DomainError naming the sizes, before any draw."""
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")

    def draw(column_seed: int) -> np.ndarray:
        if model == "fgn":
            return generate_fgn(FgnSpec(hurst=d + 0.5, length=length, seed=column_seed))
        if model == "farima":
            return generate_farima(FarimaSpec(d, length, column_seed, ma_truncation))
        if model == "white":
            return generate_white(length, column_seed)
        raise DomainError(f"unknown model {model!r}")

    with allocating(
        f"length {length} at count {count}", 8 * length * count, "the series",
        "use a shorter length or fewer series",
    ):
        matrix = np.empty((max(length, 0), count))  # the first draw refuses a bad length
    for i in range(count):
        matrix[:, i] = draw(seed + i)
    return matrix


def theoretical_d(model: str, hurst: float | None = None, d: float | None = None) -> float:
    """The memory coefficient implied by a generator spec (d = H - 1/2); a d
    and a Hurst index given together must agree to 1e-12."""
    if d is not None and hurst is not None and abs(d - (hurst - 0.5)) > 1e-12:
        raise DomainError(f"d {d} and Hurst index {hurst} disagree (d = H - 1/2)")
    if model == "white":
        return 0.0
    if model == "fgn":
        if hurst is None:
            if d is None:
                raise DomainError("fgn requires a Hurst index or d")
            hurst = hurst_from_d(d)
        return hurst - 0.5
    if model == "farima":
        if d is None:
            if hurst is None:
                raise DomainError("farima requires d or a Hurst index")
            d = hurst - 0.5
        return d
    raise DomainError(f"unknown model {model!r}")
