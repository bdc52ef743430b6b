"""Cross-covariance/correlation, autocorrelation, and pattern-correlation fields."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateVariance, InvalidArgument
from .series import TimeSeries, _unit_scale
from .templates import correlation_diagram as pattern_correlation_field

__all__ = [
    "LagCurve",
    "cross_covariance",
    "cross_correlation",
    "autocorrelation",
    "pattern_correlation_field",
]


@dataclass(frozen=True)
class LagCurve:
    """Per-lag correlation (or covariance) estimates with an optional
    scalar standard-error band."""

    lags: np.ndarray
    values: np.ndarray
    se_band: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "lags", np.asarray(self.lags, dtype=int))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.lags.size != self.values.size:
            raise InvalidArgument("lags and values length mismatch")

    @property
    def argmax_lag(self) -> int:
        return int(self.lags[int(np.argmax(self.values))])


def _gamma_xy(x: np.ndarray, y: np.ndarray, k: int) -> float:
    """Lag-k cross-covariance estimate with divisor T (as printed)."""
    T = x.size
    xm, ym = x.mean(), y.mean()
    if k >= 0:
        return float(np.sum((x[: T - k] - xm) * (y[k:] - ym)) / T)
    return _gamma_xy(y, x, -k)


def cross_covariance(x: TimeSeries, y: TimeSeries, max_lag: int) -> LagCurve:
    xs, ys = x.values, y.values
    if xs.size != ys.size:
        raise InvalidArgument("series length mismatch")
    if not (0 <= max_lag < xs.size):
        raise InvalidArgument("max_lag must satisfy 0 <= max_lag < T")
    lags = np.arange(-max_lag, max_lag + 1)
    vals = np.array([_gamma_xy(xs, ys, int(k)) for k in lags])
    return LagCurve(lags, vals)


def cross_correlation(x: TimeSeries, y: TimeSeries, max_lag: int,
                      normalization: str = "geometric") -> LagCurve:
    """Cross-correlation over lags -max_lag..max_lag.

    ``normalization="geometric"`` divides by sqrt(var(x) var(y)) so the
    estimates stay in [-1, 1]. ``"self"`` divides by the lag-0
    cross-covariance (the literal printed estimator), which does not
    bound the result.
    """
    if len(x) != len(y):
        raise InvalidArgument("series length mismatch")
    xs, ys = _unit_scale(x.values)[0], _unit_scale(y.values)[0]
    if np.ptp(xs) == 0 or np.ptp(ys) == 0:
        raise DegenerateVariance("constant series has no correlation")
    cov = cross_covariance(x.with_values(xs), y.with_values(ys), max_lag)
    if normalization == "geometric":
        gxx = _gamma_xy(xs, xs, 0)
        gyy = _gamma_xy(ys, ys, 0)
        denom = np.sqrt(gxx * gyy)
    elif normalization == "self":
        denom = _gamma_xy(xs, ys, 0)
        if denom == 0:
            raise DegenerateVariance("zero lag-0 cross-covariance")
    else:
        raise InvalidArgument(f"unknown normalization {normalization!r}")
    return LagCurve(cov.lags, cov.values / denom)


def autocorrelation(x: TimeSeries, max_lag: Optional[int] = None) -> LagCurve:
    """Autocorrelation with default lag range T/4 and the 1/sqrt(T) band."""
    xs = _unit_scale(x.values)[0]
    T = xs.size
    if T < 8:
        raise InvalidArgument("series too short for autocorrelation")
    if max_lag is None:
        max_lag = T // 4
    if not (0 <= max_lag < T):
        raise InvalidArgument("max_lag must satisfy 0 <= max_lag < T")
    if np.ptp(xs) == 0:
        raise DegenerateVariance("constant series has no autocorrelation")
    g0 = _gamma_xy(xs, xs, 0)
    lags = np.arange(0, max_lag + 1)
    vals = np.array([_gamma_xy(xs, xs, int(k)) for k in lags]) / g0
    return LagCurve(lags, vals, se_band=1.0 / np.sqrt(T))
