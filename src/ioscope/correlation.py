"""Cross-covariance, cross-correlation and autocorrelation over lags."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateVariance, InvalidArgument
from .series import TimeSeries, _correlate, _unit_scale

__all__ = [
    "LagCurve",
    "cross_covariance",
    "cross_correlation",
    "autocorrelation",
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


def cross_covariance(x: TimeSeries, y: TimeSeries, max_lag: int) -> LagCurve:
    """Lag-k cross-covariance estimates with divisor T (as printed), for
    lags -max_lag..max_lag."""
    xs, ys = x.values, y.values
    if xs.size != ys.size:
        raise InvalidArgument("series length mismatch")
    if not (0 <= max_lag < xs.size):
        raise InvalidArgument("max_lag must satisfy 0 <= max_lag < T")
    c = _correlate(xs - xs.mean(), ys - ys.mean(), -max_lag, 2 * max_lag + 1)
    return LagCurve(np.arange(-max_lag, max_lag + 1), c / xs.size)


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
    # Both denominators are direct lag-0 sums, so an exactly zero one
    # is seen as zero.
    if normalization == "geometric":
        denom = np.sqrt(np.var(xs) * np.var(ys))
    elif normalization == "self":
        denom = np.mean((xs - xs.mean()) * (ys - ys.mean()))
        if denom == 0:
            raise DegenerateVariance("zero lag-0 cross-covariance")
    else:
        raise InvalidArgument(f"unknown normalization {normalization!r}")
    return LagCurve(cov.lags, cov.values / denom)


def autocorrelation(x: TimeSeries, max_lag: Optional[int] = None) -> LagCurve:
    """Autocorrelation with default lag range T/4 and the 1/sqrt(T) band.
    Each lag is divided by the lag-0 value, so lag 0 is exactly 1."""
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
    xc = xs - xs.mean()
    g = _correlate(xc, xc, 0, max_lag + 1) / T
    return LagCurve(np.arange(0, max_lag + 1), g / g[0],
                    se_band=1.0 / np.sqrt(T))
