"""Time-series and scale-field containers, smoothing operators, and the
FFT correlation helper the transforms share."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from .errors import InvalidArgument

__all__ = [
    "TimeSeries",
    "ScaleField",
    "smooth",
    "deseasonalize_weekly",
]


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real-valued sequence.

    ``step`` is the sampling interval in abstract ticks (default one day).
    """

    values: np.ndarray
    step: float = 1.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise InvalidArgument("series must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(v)):
            raise InvalidArgument("series contains NaN or infinite samples")
        if not (0 < self.step < np.inf):
            raise InvalidArgument("step must be positive and finite")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.values.size) * self.step

    def with_values(self, values: np.ndarray,
                    allow_undefined: bool = False) -> "TimeSeries":
        """The same sampling with new values. ``allow_undefined`` lets NaN
        samples mark undefined positions; it is reserved for operator
        outputs (centered smoothing windows), so user input still goes
        through the strict constructor."""
        if not allow_undefined:
            return TimeSeries(values, step=self.step)
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise InvalidArgument("series must be a non-empty 1-D sequence")
        if np.any(np.isinf(v)):
            raise InvalidArgument("series contains infinite samples")
        out = object.__new__(TimeSeries)
        out.__dict__.update(values=v, step=float(self.step))
        return out


@dataclass
class ScaleField:
    """Real or complex matrix indexed by (scale/parameter, location).

    A NaN cell is undefined (a window that does not fit, a zero
    denominator); every other cell is defined. ``kind`` tags the producing
    operation (cwt | scalogram | coherence | gabor | deltaL | corr-diagram).
    """

    rows: np.ndarray
    cols: np.ndarray
    cells: np.ndarray
    kind: str = ""

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        self.cols = np.asarray(self.cols, dtype=float)
        self.cells = np.asarray(self.cells)
        if np.any(np.diff(self.rows) <= 0):
            raise InvalidArgument("field rows must be strictly increasing")
        if np.any(np.diff(self.cols) <= 0):
            raise InvalidArgument("field cols must be strictly increasing")
        if self.cells.shape != (self.rows.size, self.cols.size):
            raise InvalidArgument("cell matrix shape does not match axes")

    @property
    def mask(self) -> np.ndarray:
        """True where a cell is defined (not NaN)."""
        return ~np.isnan(self.cells)

    @property
    def col_step(self) -> float:
        """Spacing of the location axis (1.0 when there is one column)."""
        return float(self.cols[1] - self.cols[0]) if self.cols.size > 1 else 1.0

    def same_grid(self, other: "ScaleField") -> bool:
        return (self.rows.size == other.rows.size
                and self.cols.size == other.cols.size
                and np.allclose(self.rows, other.rows)
                and np.allclose(self.cols, other.cols))


# Cells per block of a blocked array pass (BFS sources in netimpact, sign
# rows in rankfuse): bounds the block's temporaries whatever the input size.
_BLOCK_CELLS = 2 ** 20


def _unit_scale(xs: np.ndarray) -> Tuple[np.ndarray, int]:
    """xs times the power of two 2**-e that brings max |xs| into [0.5, 1),
    and e: exact, and it keeps the products and squares of huge or tiny
    values in range, so the estimators that use it are scale-free."""
    e = int(np.frexp(np.max(np.abs(xs)))[1])
    return np.ldexp(xs, -e), e


def _distinct(xs: np.ndarray) -> np.ndarray:
    """The sorted distinct values of xs: ``np.unique`` on finite input,
    without the ``numpy.ma`` import that ``np.unique`` brings."""
    xs = np.sort(np.ravel(xs))
    keep = np.ones(xs.size, dtype=bool)
    keep[1:] = xs[1:] != xs[:-1]
    return xs[keep]


def _fast_len(n: int) -> int:
    """The least 2**a * 3**b * 5**c >= n: an FFT length with small factors."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << ((n - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _correlate(k: np.ndarray, x: np.ndarray, lo: int, count: int) -> np.ndarray:
    """sum_i conj(k[i]) * x[..., i + j] for the lags j = lo .. lo + count - 1,
    x taken as 0 outside its samples along its last axis: one FFT product
    (rfft when both are real; one spectrum when ``k is x``), zero-padded to
    the least 2**a 3**b 5**c >= max(len(x) - lo, lo + count - 1 + len(k)),
    the shortest length at which no lag with a nonzero sum wraps onto a
    requested one."""
    n = _fast_len(max(x.shape[-1] - lo, lo + count - 1 + k.size))
    real = not (np.iscomplexobj(k) or np.iscomplexobj(x))
    fft, ifft = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
    spec = fft(x, n)
    spec = spec * spec.conj() if k is x else fft(k, n).conj() * spec
    return ifft(spec, n)[..., np.arange(lo, lo + count) % n]


def _wma(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Centered weighted moving average, NaN where the window does not fit."""
    w = weights.size
    T = x.size
    out = np.full(T, np.nan)
    # weights apply as a_i * x_{t-i}: index runs backwards over the window;
    # the value for the window starting at i sits at its center i + floor(w/2)
    out[w // 2: T - w + 1 + w // 2] = np.convolve(x, weights, mode="valid")
    return out


def _ewma(x: np.ndarray, alpha: float) -> np.ndarray:
    # Over the samples as Python floats, which a memoryview yields one at a
    # time: the same double arithmetic as numpy scalars, at a third of the
    # cost, and no list of the whole series.
    beta = 1.0 - alpha
    return np.fromiter(itertools.accumulate(
        memoryview(x), lambda prev, v: alpha * v + beta * prev), float, x.size)


def smooth(series: TimeSeries, method: str,
           param: Union[int, float, Sequence[float]]) -> TimeSeries:
    """Smooth a series by SMA, WMA, or exponential weighting.

    SMA/WMA output is centered: the window average is written at the
    window's middle sample and edge positions where the full window does
    not fit are NaN. EWMA keeps the full length with y0 = x0.
    """
    x = series.values
    T = x.size
    if method == "sma":
        w = int(param)
        if w < 1:
            raise InvalidArgument("window width must be >= 1")
        if w > T:
            raise InvalidArgument(f"window {w} larger than series length {T}")
        return series.with_values(_wma(x, np.ones(w) / w), allow_undefined=True)
    if method == "wma":
        weights = np.asarray(param, dtype=float)
        if weights.ndim != 1 or weights.size < 1:
            raise InvalidArgument("WMA weights must be a non-empty vector")
        if weights.size > T:
            raise InvalidArgument("weight vector longer than series")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise InvalidArgument("WMA weights must sum to 1")
        return series.with_values(_wma(x, weights), allow_undefined=True)
    if method == "ewma":
        alpha = float(param)
        if not (0.0 < alpha <= 1.0):
            raise InvalidArgument("EWMA coefficient must lie in (0, 1]")
        return series.with_values(_ewma(x, alpha))
    raise InvalidArgument(f"unknown smoothing method {method!r}")


def deseasonalize_weekly(series: TimeSeries) -> TimeSeries:
    """Remove the weekly period by a centered 7-sample moving average."""
    if len(series) < 7:
        raise InvalidArgument("series shorter than one week")
    return smooth(series, "sma", 7)

