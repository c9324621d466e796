"""Memory-coefficient estimation by log-periodogram regression.

For a series whose spectral density behaves like lambda^(-2d) near zero
frequency, the log periodogram is affine in log frequency with slope -2d.
Each embedding dimension is fitted independently by ordinary least squares,
and the returned coefficient is -slope/2, for a block of periodograms at
once (`fit_periodograms`). Estimates are reported as-is:
values outside (0, 1/2) indicate estimation failure and are not clamped.

Also provides the Hurst conversion H = d + 1/2, Gaussian mutual information
from covariance blocks, and the mutual-information decay-slope diagnostic
(log MI against log lag has slope 2(2d - 1) for long-memory Gaussians).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import DegenerateInputError, DomainError, ZeroPowerError
from .spectral import Periodogram

REPORT_SCHEMA_VERSION = 1

#: The regression abscissa is log k for the bin index k; reports name it.
REPORT_ABSCISSA = "index"

#: Fits with more points than this use the normal approximation to the t-tail.
_NORMAL_APPROX_N = 200


@dataclass(frozen=True)
class FullBand:
    """Regress over every available frequency index k = 1..L/2."""


@dataclass(frozen=True)
class LowFrequency:
    """Regress over k = 1..m only; the power law holds asymptotically at low
    frequencies, so a cutoff near sqrt(L) trades variance for reduced bias."""

    m: int


Cutoff = Union[FullBand, LowFrequency]


@dataclass(frozen=True)
class EstimatorConfig:
    pad_length: int
    cutoff: Cutoff = FullBand()


def sqrt_cutoff(pad_length: int) -> LowFrequency:
    """The calibrated low-frequency cutoff m = floor(sqrt(L))."""
    return LowFrequency(math.isqrt(pad_length))


@dataclass(frozen=True)
class OlsFit:
    """Least-squares fit of log y = a + b log x with slope inference (one
    entry per row in each field from `ols_loglog_rows`)."""

    intercept: float
    slope: float
    slope_stderr: float
    pvalue: float
    n_points: int


@dataclass(frozen=True)
class LrdEstimate:
    """Per-dimension memory coefficients with OLS inference; each array has
    shape (p,), or (B, p) for a block of B periodograms."""

    d: np.ndarray
    intercept: np.ndarray
    slope_stderr: np.ndarray
    pvalue: np.ndarray
    cutoff_used: int


def slope_pvalues(slope: np.ndarray, stderr: np.ndarray, dof: int) -> np.ndarray:
    """Two-sided p-values of the slope-zero test, element by element.

    Above `_NORMAL_APPROX_N` degrees of freedom the t-tail is the normal
    tail erfc(|t|/sqrt 2), taken from `math.erfc`; only a Student-t tail
    loads `scipy.special`. An infinite |t| has p-value 0, and a zero
    stderr gives 1 for a zero slope and 0 otherwise.
    """
    slope = np.asarray(slope, dtype=np.float64)
    stderr = np.asarray(stderr, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t_stat = np.abs(slope / stderr)
    if dof > _NORMAL_APPROX_N:
        scaled = (t_stat / math.sqrt(2.0)).ravel().tolist()
        tail = np.fromiter(map(math.erfc, scaled), np.float64, len(scaled)).reshape(t_stat.shape)
    else:
        from scipy import special

        tail = 2.0 * special.stdtr(dof, -t_stat)
    pvalue = np.where(np.isfinite(t_stat), tail, 0.0)
    return np.where(stderr == 0.0, np.where(slope == 0.0, 1.0, 0.0), pvalue)


def ols_loglog(xs: Sequence[float], ys: Sequence[float]) -> OlsFit:
    """OLS of log ys on log xs with slope standard error and p-value.

    With fewer than 3 points the residual variance has no degrees of
    freedom, so stderr and pvalue are reported as NaN.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DomainError(f"xs and ys must be 1-d and equal length, got {x.shape} vs {y.shape}")
    n = x.size
    if n < 2:
        raise DomainError(f"need at least 2 points, got {n}")
    if np.any(x <= 0) or np.any(y <= 0):
        raise DomainError("all xs and ys must be strictly positive for log-log regression")
    lx = np.log(x)
    ly = np.log(y)
    lx_mean = lx.mean()
    ly_mean = ly.mean()
    sxx = float(((lx - lx_mean) ** 2).sum())
    if sxx == 0.0:
        raise DegenerateInputError("log xs has zero variance; abscissa is degenerate")
    sxy = float(((lx - lx_mean) * (ly - ly_mean)).sum())
    slope = sxy / sxx
    intercept = ly_mean - slope * lx_mean
    if n == 2:
        return OlsFit(intercept, slope, float("nan"), float("nan"), n)
    residuals = ly - intercept - slope * lx
    rss = float(residuals @ residuals)
    stderr = math.sqrt(rss / (n - 2) / sxx)
    return OlsFit(intercept, slope, stderr, float(slope_pvalues(slope, stderr, n - 2)), n)


def _loglog_slopes(
    xs: Sequence[float], ys: np.ndarray, work: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray], float]:
    """The per-row OLS slopes of log ys on log xs for the K rows of a
    (..., n) array `ys` and shared `xs`, so rows do not interact; returns
    (slope, lx, ly, sxx) with ly the K x n logs. `ys` is left as it is; its
    rows need not be contiguous. Given `work`, a float64 array of at least
    K * n entries, the logs are taken there and the slopes formed over them
    in place, and ly is None: the slopes alone, in no array of their own."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 1 or y.ndim < 2 or y.shape[-1] != x.size:
        raise DomainError(f"need n xs and a K x n ys, got {x.shape} vs {y.shape}")
    if x.size < 2:
        raise DomainError(f"need at least 2 points, got {x.size}")
    # fmin skips NaN as `y <= 0` does, and needs no K x n mask
    if np.any(x <= 0) or np.fmin.reduce(y, axis=None, initial=np.inf) <= 0:
        raise DomainError("all xs and ys must be strictly positive for log-log regression")
    lx = np.log(x)
    logs = np.empty(y.shape) if work is None else work.reshape(-1)[: y.size].reshape(y.shape)
    ly = np.log(y, out=logs).reshape(-1, x.size)
    xc = lx - lx.mean()
    sxx = float((xc**2).sum())
    if sxx == 0.0:
        raise DegenerateInputError("log xs has zero variance; abscissa is degenerate")
    # sum (ly - mean ly) xc = sum ly xc, as sum xc = 0; one contiguous row per
    # fit, which numpy sums pairwise whatever K is
    products = np.multiply(ly, xc, out=None if work is None else ly)
    slope = products.sum(axis=1) / sxx
    return slope, lx, None if work is not None else ly, sxx


def ols_loglog_rows(xs: Sequence[float], ys: np.ndarray) -> OlsFit:
    """`ols_loglog` of each row of the K x n matrix `ys` on the shared `xs`:
    the slopes of `_loglog_slopes`, then the inference on top of them."""
    slope, lx, ly, sxx = _loglog_slopes(xs, ys)
    n = lx.size
    intercept = ly.mean(axis=1) - slope * lx.mean()
    if n == 2:
        nan = np.full(slope.shape, np.nan)
        return OlsFit(intercept, slope, nan, nan, n)
    # the residuals ly - intercept - slope * lx, written over ly
    residuals = ly
    residuals -= intercept[:, None]
    residuals -= slope[:, None] * lx
    # one dot product per row, as ols_loglog's `residuals @ residuals`
    rss = (residuals[:, None, :] @ residuals[:, :, None])[:, 0, 0]
    stderr = np.sqrt(rss / (n - 2) / sxx)
    return OlsFit(intercept, slope, stderr, slope_pvalues(slope, stderr, n - 2), n)


def fitted_bins(n_bins: int, cutoff: Cutoff) -> int:
    """How many of the `n_bins` = L/2 periodogram bins the cutoff fits."""
    m = n_bins if isinstance(cutoff, FullBand) else cutoff.m
    if not 2 <= m <= n_bins:
        raise DomainError(f"the cutoff must select 2 to {n_bins} bins, got {m}")
    return m


def fit_periodograms(power: np.ndarray, cutoff: Cutoff) -> LrdEstimate:
    """Fit every dimension of a time-last (..., p, L/2) block of
    periodograms, whose fitted bins must have positive power; the arrays
    have shape (..., p)."""
    m = fitted_bins(power.shape[-1], cutoff)
    shape = power.shape[:-1]
    fit = ols_loglog_rows(np.arange(1.0, m + 1.0), power[..., :m])
    fields = (-fit.slope / 2.0, fit.intercept, fit.slope_stderr, fit.pvalue)
    return LrdEstimate(*(a.reshape(shape) for a in fields), cutoff_used=m)


def fit_d(power: np.ndarray, cutoff: Cutoff, work: Optional[np.ndarray] = None) -> np.ndarray:
    """The memory coefficients alone of `fit_periodograms`, bit for bit:
    one slope per dimension of a time-last (..., p, L/2) block, no
    inference; shape (..., p). The fitted bins are logged straight from
    `power` into `work`, a float64 array of at least m entries per
    dimension fitted, or into an array of their own when it is not given."""
    m = fitted_bins(power.shape[-1], cutoff)
    slope = _loglog_slopes(np.arange(1.0, m + 1.0), power[..., :m], work)[0]
    return (-slope / 2.0).reshape(power.shape[:-1])


def estimate_from_periodogram(pg: Periodogram, config: EstimatorConfig) -> LrdEstimate:
    """Fit each dimension over the selected bins; returns d = -slope/2."""
    m = fitted_bins(pg.power.shape[0], config.cutoff)
    zero = np.argwhere(pg.power[:m].T <= 0.0)
    if zero.size:
        raise ZeroPowerError(dim=int(zero[0, 0]), bin_index=int(zero[0, 1]) + 1)
    return fit_periodograms(pg.power.T, config.cutoff)


def hurst_from_d(d: float) -> float:
    """Self-similarity index H = d + 1/2."""
    return d + 0.5


def d_stderr_asymptotic(m: int) -> float:
    """The asymptotic standard error pi / sqrt(24 m) of the log-periodogram
    d over m bins (Robinson 1995, Ann. Statist.): the log periodogram's
    error has variance pi^2/6, and d is half the slope."""
    return math.pi / math.sqrt(24.0 * m)


def estimate_report(est: LrdEstimate) -> dict:
    """Plain-JSON view of an estimate, including the cutoff and abscissa used.

    JSON has no NaN: the `stderr` and `pvalue` of a two-bin fit, which has
    no residual degrees of freedom, are written as None (null).
    `stderr` is the OLS standard error of the slope, twice that of d;
    `d_stderr_asymptotic` is a separate estimator, Robinson's (1995)
    asymptotic standard error of d over the fitted bins."""
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "dim": int(est.d.size),
        "cutoff": est.cutoff_used,
        "abscissa": REPORT_ABSCISSA,
        "d": [float(v) for v in est.d],
        "intercept": [float(v) for v in est.intercept],
        "stderr": [None if math.isnan(v) else float(v) for v in est.slope_stderr],
        "pvalue": [None if math.isnan(v) else float(v) for v in est.pvalue],
        "d_stderr_asymptotic": d_stderr_asymptotic(est.cutoff_used),
    }


def gaussian_mutual_info(
    sigma_u: np.ndarray, sigma_v: np.ndarray, sigma: np.ndarray
) -> float:
    """Mutual information of jointly Gaussian blocks from their covariances.

    I(U; V) = 1/2 log(det(sigma_u) det(sigma_v) / det(sigma)) where sigma is
    the joint covariance with sigma_u, sigma_v as diagonal blocks. In the
    mono-variate case this reduces to -1/2 log(1 - rho^2).
    """
    su = np.atleast_2d(np.asarray(sigma_u, dtype=np.float64))
    sv = np.atleast_2d(np.asarray(sigma_v, dtype=np.float64))
    s = np.atleast_2d(np.asarray(sigma, dtype=np.float64))
    p, q = su.shape[0], sv.shape[0]
    if su.shape != (p, p) or sv.shape != (q, q) or s.shape != (p + q, p + q):
        raise DomainError(
            f"expected block shapes ({p},{p}), ({q},{q}) and joint ({p + q},{p + q}), "
            f"got {su.shape}, {sv.shape}, {s.shape}"
        )
    if not np.allclose(s, s.T):
        raise DomainError("joint covariance must be symmetric")
    try:
        np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        raise DomainError("joint covariance must be positive definite") from None
    sign_u, logdet_u = np.linalg.slogdet(su)
    sign_v, logdet_v = np.linalg.slogdet(sv)
    sign_j, logdet_j = np.linalg.slogdet(s)
    if sign_u <= 0 or sign_v <= 0 or sign_j <= 0:
        raise DomainError("covariance blocks must have positive determinants")
    return 0.5 * (logdet_u + logdet_v - logdet_j)


AutocovFn = Callable[[int], float]


def mi_decay_slope(autocov: AutocovFn, lags: Sequence[int]) -> OlsFit:
    """Fit log MI against log lag for a mono-variate Gaussian process.

    MI at lag h is -1/2 log(1 - rho(h)^2) with rho = gamma(h)/gamma(0); for a
    memory coefficient d the fitted slope estimates 2(2d - 1).
    """
    lag_array = np.asarray(list(lags), dtype=np.int64)
    if lag_array.size < 2:
        raise DomainError("need at least 2 lags")
    if np.any(lag_array < 1):
        raise DomainError("lags must be >= 1")
    gamma0 = float(autocov(0))
    if gamma0 <= 0:
        raise DomainError("autocovariance at lag 0 must be positive")
    mi = np.empty(lag_array.size)
    for i, h in enumerate(lag_array):
        rho = float(autocov(int(h))) / gamma0
        if abs(rho) >= 1.0:
            raise DomainError(f"correlation at lag {h} has |rho| >= 1")
        if rho == 0.0:
            raise DegenerateInputError(
                f"zero mutual information at lag {h}; process has no dependence there"
            )
        mi[i] = -0.5 * math.log1p(-(rho * rho))
    return ols_loglog(lag_array.astype(np.float64), mi)
