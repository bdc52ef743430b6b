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


def _lag_products(x: np.ndarray, y: np.ndarray, max_lag: int) -> np.ndarray:
    """sum_t (x_t - mean x)(y_{t+k} - mean y) / T for k = -max_lag..max_lag.

    Every lag comes from one zero-padded rfft/irfft pair (Wiener-Khinchin):
    at length T + max_lag, the shortest with no wrap-around, the circular
    cross-correlation of the padded series is the linear one.
    """
    T = x.size
    n = T + max_lag
    spec = np.fft.rfft(x - x.mean(), n)
    if y is x:
        spec *= spec.conj()
    else:
        spec = spec.conj()
        spec *= np.fft.rfft(y - y.mean(), n)
    c = np.fft.irfft(spec, n)
    c /= T
    return np.concatenate([c[n - max_lag:], c[:max_lag + 1]])


def cross_covariance(x: TimeSeries, y: TimeSeries, max_lag: int) -> LagCurve:
    """Lag-k cross-covariance estimates with divisor T (as printed), for
    lags -max_lag..max_lag."""
    xs, ys = x.values, y.values
    if xs.size != ys.size:
        raise InvalidArgument("series length mismatch")
    if not (0 <= max_lag < xs.size):
        raise InvalidArgument("max_lag must satisfy 0 <= max_lag < T")
    return LagCurve(np.arange(-max_lag, max_lag + 1),
                    _lag_products(xs, ys, max_lag))


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
    g = _lag_products(xs, xs, max_lag)[max_lag:]
    return LagCurve(np.arange(0, max_lag + 1), g / g[0],
                    se_band=1.0 / np.sqrt(T))
