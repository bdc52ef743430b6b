"""Continuous wavelet transform machinery and two-series comparison metrics."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidArgument, UnsupportedWavelet
from .series import ScaleField, TimeSeries, _correlate

__all__ = [
    "Wavelet",
    "get_wavelet",
    "default_scale_grid",
    "cwt",
    "icwt",
    "scalogram",
    "wcc_measure",
    "wavelet_coherence",
]

_MORLET_OMEGA0 = 6.0


def _gaussian_wave(t):
    # first derivative of a Gaussian
    return -t * np.exp(-t * t / 2.0)


def _mexican_hat(t):
    return (1.0 - t * t) * np.exp(-t * t / 2.0)


def _haar(t):
    out = np.zeros_like(np.asarray(t, dtype=float))
    out[(t >= 0) & (t < 0.5)] = 1.0
    out[(t >= 0.5) & (t < 1.0)] = -1.0
    return out


def _morlet(t):
    w0 = _MORLET_OMEGA0
    corr = np.exp(-w0 * w0 / 2.0)  # zero-mean correction
    return np.pi ** -0.25 * (np.exp(1j * w0 * t) - corr) * np.exp(-t * t / 2.0)


@dataclass(frozen=True)
class Wavelet:
    """A mother wavelet with a numerically computed admissibility constant
    and center frequency (for scale-to-period conversion)."""

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    is_complex: bool
    support: float  # effective half-width of the support
    analytic: bool = False  # spectrum concentrated on positive frequencies
    invertible: bool = True

    @cached_property
    def _constants(self) -> Tuple[float, float]:
        """(C_g, f_c) from the spectrum of the wavelet sampled over a
        zero-padded span (64x the support) for fine frequency resolution."""
        n = 1 << 19
        dt = 64.0 * 2.0 * self.support / n
        t = (np.arange(n) - n // 2) * dt
        # continuous FT approximation; only |psi_hat| is ever used, so the
        # time-origin phase factor is irrelevant
        psi_hat = dt * np.fft.fft(self.evaluate(t))
        omega = 2.0 * np.pi * np.fft.fftfreq(n, d=dt)
        pos = omega > 0
        w = omega[pos]
        p2 = np.abs(psi_hat[pos]) ** 2
        dw = w[1] - w[0] if w.size > 1 else 1.0
        cg = float(np.sum(p2 / w) * dw)
        if not self.analytic:
            neg = omega < 0
            cg_neg = float(np.sum(np.abs(psi_hat[neg]) ** 2 / np.abs(omega[neg])) * dw)
            # real wavelets are symmetric; keep the one-sided value as C_g
            cg = 0.5 * (cg + cg_neg)
        return cg, float(w[np.argmax(p2)] / (2.0 * np.pi))

    @property
    def admissibility(self) -> float:
        """One-sided admissibility constant integral |psi_hat|^2 / omega."""
        return self._constants[0]

    @property
    def center_frequency(self) -> float:
        """Spectral-peak frequency in cycles per unit time at scale 1."""
        return self._constants[1]

    def pseudo_period(self, scale: float) -> float:
        return scale / self.center_frequency


WAVELETS = {w.name: w for w in (
    Wavelet("gaussian-wave", _gaussian_wave, False, 8.0),
    Wavelet("mexican-hat", _mexican_hat, False, 8.0),
    Wavelet("haar", _haar, False, 1.5, invertible=False),
    Wavelet("morlet", _morlet, True, 8.0, analytic=True),
)}


def get_wavelet(name: str) -> Wavelet:
    try:
        return WAVELETS[name]
    except KeyError:
        raise InvalidArgument(f"unknown wavelet {name!r}") from None


def default_scale_grid(series: TimeSeries) -> np.ndarray:
    """64 log-spaced scales from 2*step to (T/4)*step."""
    T = len(series)
    return np.geomspace(2.0 * series.step, max(2.5, T / 4.0) * series.step, 64)


def _kernel(w: Wavelet, scale: float, step: float) -> np.ndarray:
    half = int(np.ceil(w.support * scale / step))
    u = np.arange(-half, half + 1) * step
    return w.evaluate(u / scale) / np.sqrt(scale)


def cwt(x: TimeSeries, w: Wavelet, scales: Sequence[float]) -> ScaleField:
    """Continuous wavelet transform W(s, l) = (1/sqrt(s)) sum_t x_t
    psi*((t - l)/s) dt evaluated at every sample location."""
    s = np.asarray(list(scales), dtype=float)
    if s.size == 0:
        raise InvalidArgument("empty scale grid")
    if np.any(s <= 0):
        raise InvalidArgument("scales must be positive")
    if len(x) < 8:
        raise InvalidArgument("series too short for a wavelet transform")
    cells = np.empty((s.size, len(x)), dtype=complex if w.is_complex else float)
    for i, si in enumerate(s):
        kern = _kernel(w, si, x.step)
        cells[i] = _correlate(kern, x.values, -(kern.size // 2), len(x)) * x.step
    return ScaleField(rows=s, cols=x.times, cells=cells, kind="cwt")


def icwt(fld: ScaleField, w: Wavelet) -> TimeSeries:
    """Approximate inverse transform via the admissibility double integral."""
    if fld.kind != "cwt":
        raise InvalidArgument("inverse transform requires a cwt field")
    if not w.invertible:
        raise UnsupportedWavelet(f"{w.name} has no usable admissibility constant")
    scales = fld.rows
    step = fld.col_step
    ds = np.gradient(scales)
    acc = np.zeros(fld.cols.size, dtype=complex)
    for i, si in enumerate(scales):
        kern = np.conj(_kernel(w, si, step)[::-1])
        row = _correlate(kern, fld.cells[i], -(kern.size // 2), fld.cols.size)
        acc += row * step * ds[i] / si ** 2
    cg = w.admissibility
    if w.analytic:
        values = 2.0 * acc.real / cg
    else:
        values = acc.real / cg
    return TimeSeries(values, step=step)


def scalogram(fld: ScaleField) -> ScaleField:
    """Signal energy |W(s, l)|^2 per (scale, location) cell."""
    if fld.kind != "cwt":
        raise InvalidArgument("scalogram requires a cwt field")
    return ScaleField(rows=fld.rows, cols=fld.cols,
                      cells=np.abs(fld.cells) ** 2, kind="scalogram")


def wcc_measure(wx: ScaleField, wy: ScaleField) -> np.ndarray:
    """Per-scale wavelet cross-correlation measure in [0, 1]. Scales with
    zero energy on either side come back NaN."""
    if not wx.same_grid(wy):
        raise InvalidArgument("fields are on different (scale, location) grids")
    a, b = wx.cells, wy.cells
    num = np.abs(np.sum(np.conj(a) * b, axis=1))
    ex = np.sum(np.abs(a) ** 2, axis=1)
    ey = np.sum(np.abs(b) ** 2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where((ex > 0) & (ey > 0), num / np.sqrt(ex * ey), np.nan)
    return out


def _window_means(cells: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mean of each row of cells over the columns lo:hi, from two entries of
    a prefix sum of the row less its mean (small sums keep their digits)."""
    mean = cells.mean(axis=1, keepdims=True)
    cs = np.pad(np.cumsum(cells - mean, axis=1), ((0, 0), (1, 0)))
    return mean + (np.take_along_axis(cs, hi, 1) - np.take_along_axis(cs, lo, 1)) / (hi - lo)


def _smooth_local(cells: np.ndarray, scales: np.ndarray, step: float,
                  time_widths: Optional[np.ndarray] = None,
                  scale_width: int = 3) -> np.ndarray:
    """Boxcar smoothing over time (scale-dependent width w: the window
    [l - w // 2, l + (w - 1) // 2] clipped to the grid) then over the
    ``scale_width`` adjacent scale rows, each the mean of the cells in
    range."""
    n_s, n_l = cells.shape
    if time_widths is None:
        time_widths = np.maximum(1, np.ceil(scales / step).astype(int))
    w = np.minimum(time_widths, n_l)[:, None]
    l = np.arange(n_l)
    out = _window_means(cells, np.maximum(l - w // 2, 0),
                        np.minimum(l + (w - 1) // 2 + 1, n_l))
    if scale_width > 1 and n_s > 1:
        i, half = np.arange(n_s)[None, :], scale_width // 2
        out = _window_means(out.T, np.maximum(i - half, 0),
                            np.minimum(i + half + 1, n_s)).T
    return out


def wavelet_coherence(wx: ScaleField, wy: ScaleField,
                      time_widths: Optional[Sequence[int]] = None) -> ScaleField:
    """Squared wavelet coherence with local boxcar smoothing in time
    (width ~ scale by default, else ``time_widths``: one width per scale
    row, each from 1 to the location count) and across 3 adjacent scales."""
    if not wx.same_grid(wy):
        raise InvalidArgument("fields are on different (scale, location) grids")
    tw = None if time_widths is None else np.asarray(time_widths, dtype=int)
    if tw is not None and (tw.shape != wx.rows.shape or np.any(tw < 1)
                           or np.any(tw > wx.cols.size)):
        raise InvalidArgument("time_widths needs one width per scale, each "
                              "from 1 to the location count")
    args = (wx.rows, wx.col_step, tw)
    sx = _smooth_local(np.abs(wx.cells) ** 2, *args)
    sy = _smooth_local(np.abs(wy.cells) ** 2, *args)
    sc = _smooth_local(np.conj(wx.cells) * wy.cells, *args)
    denom = sx * sy
    ok = denom > 1e-300
    with np.errstate(divide="ignore", invalid="ignore"):
        coh = np.where(ok, np.abs(sc) ** 2 / np.where(ok, denom, 1.0), np.nan)
    coh = np.clip(coh, 0.0, 1.0)
    return ScaleField(rows=wx.rows, cols=wx.cols, cells=coh, kind="coherence")
