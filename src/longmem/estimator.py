"""Memory-coefficient estimation by log-periodogram regression.

For a series whose spectral density behaves like lambda^(-2d) near zero
frequency, the log periodogram is affine in log frequency with slope -2d.
Each embedding dimension is fitted independently by ordinary least squares
over the rows of a time-last periodogram, and the returned coefficient is
-slope/2. `estimate_from_periodogram` is the checked fit with inference of
one periodogram: the reference, and the pooled fit of a run. `SlopeFit.d`
is its d alone, bit for bit and unchecked, for the blocks of a run's slabs.
Estimates are reported as-is: values outside (0, 1/2) indicate estimation
failure and are not clamped.

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

#: A step that changes the t-tail's continued fraction by at most this
#: factor ends it, and at most this many steps are taken (63 were the
#: most measured, at any dof from 1 to 1e8).
_EPS = float(np.finfo(np.float64).eps)
_MAX_STEPS = 300


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
    shape (p,)."""

    d: np.ndarray
    intercept: np.ndarray
    slope_stderr: np.ndarray
    pvalue: np.ndarray
    cutoff_used: int


def _t_tail(t: float, dof: int) -> float:
    """2 P(T > t) for a finite t >= 0 and T Student-t on `dof` degrees of
    freedom: I_x(a, b) at x = dof/(dof + t^2), a = dof/2 and b = 1/2, by
    Lentz's continued fraction (Numerical Recipes, sec. 6.4), taken as
    1 - I_(1-x)(b, a) from x = (a + 1)/(a + b + 2) up, where that converges faster."""
    t2 = t * t
    x = dof / (dof + t2)
    y = t2 / (dof + t2)  # 1 - x, without the cancellation of a difference
    if y == 0.0:
        return 1.0
    if x == 0.0:
        return 0.0
    a, b = 0.5 * dof, 0.5
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log(y)
    )
    upper = x >= (a + 1.0) / (a + b + 2.0)
    if upper:
        a, b, x = b, a, y
    # no denominator came within 4e-8 of zero at any dof to 1e8, so Lentz's
    # floor for a vanishing one is left out; this first one is >= 2/(a + b + 2)
    c = 1.0
    d = fraction = 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    for m in range(1, _MAX_STEPS + 1):
        # the even, then the odd coefficient of step m
        for coefficient in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 / (1.0 + coefficient * d)
            c = 1.0 + coefficient / c
            fraction *= d * c
        if abs(d * c - 1.0) <= _EPS:
            return 1.0 - front * fraction / a if upper else front * fraction / a
    raise ArithmeticError(f"the t tail at t = {t} on {dof} dof did not converge")


def slope_pvalues(slope: np.ndarray, stderr: np.ndarray, dof: int) -> np.ndarray:
    """Two-sided p-values of the slope-zero test, element by element: the
    Student-t tail at every dof, by continued fraction. An infinite |t| has
    p-value 0 and a NaN t has NaN, but a zero slope with a zero stderr has 1."""
    slope = np.asarray(slope, dtype=np.float64)
    stderr = np.asarray(stderr, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t_stat = np.abs(slope / stderr)
    finite = np.isfinite(t_stat)
    pvalue = np.where(np.isnan(t_stat), np.nan, 0.0)
    pvalue[finite] = [_t_tail(t, dof) for t in t_stat[finite].tolist()]
    return np.where((slope == 0.0) & (stderr == 0.0), 1.0, pvalue)


def ols_loglog(xs: Sequence[float], ys: Sequence[float]) -> OlsFit:
    """OLS of log ys on log xs with slope standard error and p-value: row 0
    of `ols_loglog_rows`, as scalars.

    With fewer than 3 points the residual variance has no degrees of
    freedom, so stderr and pvalue are reported as NaN.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DomainError(f"xs and ys must be 1-d and equal length, got {x.shape} vs {y.shape}")
    fit = ols_loglog_rows(x, y[None])
    fields = (fit.intercept, fit.slope, fit.slope_stderr, fit.pvalue)
    return OlsFit(*(float(field[0]) for field in fields), fit.n_points)


def _abscissa(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """What the OLS slopes of every row over the positive `x` share: log x,
    its deviations xc from their mean and sxx, the sum of their squares."""
    lx = np.log(x)
    xc = lx - lx.mean()
    sxx = float((xc**2).sum())
    if sxx == 0.0:
        raise DegenerateInputError("log xs has zero variance; abscissa is degenerate")
    return lx, xc, sxx


def _log_slopes(
    y: np.ndarray, xc: np.ndarray, sxx: float, logs: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """The OLS slopes of log y on the abscissa of `_abscissa`, one per row
    of the last axis of `y`, and the K x n logs, unchecked: the fit's
    kernel. The logs are taken into `logs`, an array of y's shape, and the
    slopes formed over them in place; without it they get an array of
    their own, which is left as it is."""
    ly = np.log(y, out=np.empty(y.shape) if logs is None else logs).reshape(-1, xc.size)
    # sum (ly - mean ly) xc = sum ly xc, as sum xc = 0; one contiguous row per
    # fit, which numpy sums pairwise whatever K is
    products = np.multiply(ly, xc, out=None if logs is None else ly)
    return np.add.reduce(products, axis=1) / sxx, ly


def ols_loglog_rows(xs: Sequence[float], ys: np.ndarray) -> OlsFit:
    """The log-log OLS with slope inference of each row of the K x n matrix
    `ys` on the shared `xs`, so rows do not interact. `ys` is left as it
    is; its rows need not be contiguous."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 2 or y.shape[1] != x.size:
        raise DomainError(f"need n xs and a K x n ys, got {x.shape} vs {y.shape}")
    if x.size < 2:
        raise DomainError(f"need at least 2 points, got {x.size}")
    # fmin skips NaN as `y <= 0` does, and needs no K x n mask
    if np.any(x <= 0) or np.fmin.reduce(y, axis=None, initial=np.inf) <= 0:
        raise DomainError("all xs and ys must be strictly positive for log-log regression")
    lx, xc, sxx = _abscissa(x)
    # a NaN or inf y gives a NaN or inf slope, quietly here; positive finite
    # ys never do
    with np.errstate(invalid="ignore"):
        slope, ly = _log_slopes(y, xc, sxx)
    if not np.isfinite(slope).all():
        raise DomainError("all ys must be finite for log-log regression")
    n = lx.size
    intercept = ly.mean(axis=1) - slope * lx.mean()
    if n == 2:
        nan = np.full(slope.shape, np.nan)
        return OlsFit(intercept, slope, nan, nan, n)
    # the residuals ly - intercept - slope * lx, written over ly
    residuals = ly
    residuals -= intercept[:, None]
    residuals -= slope[:, None] * lx
    # one dot product per row
    rss = (residuals[:, None, :] @ residuals[:, :, None])[:, 0, 0]
    stderr = np.sqrt(rss / (n - 2) / sxx)
    return OlsFit(intercept, slope, stderr, slope_pvalues(slope, stderr, n - 2), n)


def fitted_bins(n_bins: int, cutoff: Cutoff) -> int:
    """How many of the `n_bins` = L/2 periodogram bins the cutoff fits."""
    m = n_bins if isinstance(cutoff, FullBand) else cutoff.m
    if not 2 <= m <= n_bins:
        raise DomainError(f"the cutoff must select 2 to {n_bins} bins, got {m}")
    return m


class SlopeFit:
    """The one slope-only fit: the d of `estimate_from_periodogram` for one
    cutoff of L/2 bins, bit for bit, over the same `_abscissa` and
    `_log_slopes`, without inference or checks. What depends on the cutoff
    alone is worked out once: m, and log k for k = 1..m centred, with its
    sum of squares. `d` is for a run's slabs, whose kept rows have positive
    finite fitted bins by construction."""

    def __init__(self, n_bins: int, cutoff: Cutoff):
        self.m = fitted_bins(n_bins, cutoff)
        _, self.xc, self.sxx = _abscissa(np.arange(1.0, self.m + 1.0))

    def d(self, power: np.ndarray, logs: np.ndarray) -> np.ndarray:
        """The d of each row of a time-last (..., p, L/2) block whose fitted
        bins are all positive and finite, unchecked; shape (..., p). The
        fitted bins are logged into `logs`, a float64 (..., p, m) array."""
        slope = _log_slopes(power[..., : self.m], self.xc, self.sxx, logs)[0]
        return (-slope / 2.0).reshape(power.shape[:-1])


def estimate_from_periodogram(pg: Periodogram, config: EstimatorConfig) -> LrdEstimate:
    """Fit each dimension over the selected bins, with inference; returns
    d = -slope/2. Zero power in a fitted bin raises."""
    m = fitted_bins(pg.power.shape[1], config.cutoff)
    power = pg.power[:, :m]
    zero = np.argwhere(power <= 0.0)
    if zero.size:
        raise ZeroPowerError(dim=int(zero[0, 0]), bin_index=int(zero[0, 1]) + 1)
    fit = ols_loglog_rows(np.arange(1.0, m + 1.0), power)
    return LrdEstimate(-fit.slope / 2.0, fit.intercept, fit.slope_stderr, fit.pvalue, m)


def hurst_from_d(d: float) -> float:
    """Self-similarity index H = d + 1/2."""
    return d + 0.5


def d_stderr_asymptotic(m: int) -> float:
    """The asymptotic standard error pi / sqrt(24 m) of the log-periodogram
    d over m bins (Robinson 1995, Ann. Statist.): the log periodogram's
    error has variance pi^2/6, and d is half the slope."""
    return math.pi / math.sqrt(24.0 * m)


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
