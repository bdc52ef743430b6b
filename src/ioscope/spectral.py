"""Discrete Fourier analysis, the windowed Gaussian transform, and the
spectrum-local sinusoid-removal filter."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidArgument
from .series import ScaleField, TimeSeries, _correlate, _distinct

__all__ = ["Spectrum", "dft", "idft", "gabor", "sinusoid_filter"]


@dataclass(frozen=True)
class Spectrum:
    """One-sided discrete spectrum: frequencies in cycles per tick
    (0..0.5) and the matching complex coefficients.

    ``length`` keeps the original sample count so the inverse transform
    can restore odd-length series exactly.
    """

    freqs: np.ndarray
    coeffs: np.ndarray
    length: int
    step: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "freqs", np.asarray(self.freqs, dtype=float))
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))
        if self.freqs.size != self.coeffs.size:
            raise InvalidArgument("freqs and coeffs length mismatch")

    @property
    def amplitude(self) -> np.ndarray:
        return np.abs(self.coeffs)


def dft(x: TimeSeries) -> Spectrum:
    """One-sided discrete Fourier transform of a series."""
    if len(x) < 2:
        raise InvalidArgument("series too short for a spectrum")
    coeffs = np.fft.rfft(x.values)
    freqs = np.fft.rfftfreq(len(x))
    return Spectrum(freqs=freqs, coeffs=coeffs, length=len(x), step=x.step)


def idft(spec: Spectrum) -> TimeSeries:
    """Inverse of :func:`dft`."""
    values = np.fft.irfft(spec.coeffs, n=spec.length)
    return TimeSeries(values, step=spec.step)


def gabor(x: TimeSeries, centers: Sequence[float], width: float,
          freqs: Sequence[float]) -> ScaleField:
    """Windowed transform with a Gaussian window exp(-(t-tau)^2/s^2).

    Returns a complex field with frequency rows and center columns, each
    center one of the sample times ``x.times``: one correlation of the
    waves x_t exp(-2 pi i nu t) with the window over offsets -(T-1)..T-1.
    """
    if not (width > 0):
        raise InvalidArgument("window width must be positive")
    taus = _distinct(np.asarray(list(centers), dtype=float))
    nus = _distinct(np.asarray(list(freqs), dtype=float))
    if taus.size == 0 or nus.size == 0:
        raise InvalidArgument("centers and freqs must be non-empty")
    t = x.times
    idx = np.minimum(np.searchsorted(t, taus), t.size - 1)
    if np.any(t[idx] != taus):
        raise InvalidArgument("window centers must be sample times")
    wx = np.exp(-2j * np.pi * nus[:, None] * t[None, :]) * x.values
    with np.errstate(over="ignore"):  # far from a narrow window: weight 0
        window = np.exp(-(np.arange(1 - t.size, t.size) * x.step / width) ** 2)
    cells = _correlate(window, wx, 1 - t.size, t.size)[:, idx] * x.step
    return ScaleField(rows=nus, cols=taus, cells=cells, kind="gabor")


def sinusoid_filter(x: TimeSeries, k: int, mode: str = "modulus-of-sum") -> TimeSeries:
    """Replace the spectrum magnitude at bin ``k`` by the neighbor rule
    0.5*|f(k-1) + f(k+1)| (or 0.5*(|f(k-1)| + |f(k+1)|) in
    ``"sum-of-moduli"`` mode), keep the original phase at ``k``, leave
    every other bin untouched, and inverse-transform.
    """
    spec = dft(x)
    n = spec.coeffs.size
    if not (1 <= k <= n - 2):
        raise InvalidArgument(f"bin index must lie in [1, {n - 2}]")
    if mode == "modulus-of-sum":
        new_mag = 0.5 * abs(spec.coeffs[k - 1] + spec.coeffs[k + 1])
    elif mode == "sum-of-moduli":
        new_mag = 0.5 * (abs(spec.coeffs[k - 1]) + abs(spec.coeffs[k + 1]))
    else:
        raise InvalidArgument(f"unknown filter mode {mode!r}")
    coeffs = spec.coeffs.copy()
    old, size = coeffs[k], abs(coeffs[k])
    # numpy's old / size on parts scaled by 2**-e: 1 / subnormal overflows
    e = np.frexp(size)[1]
    phase = complex(*np.ldexp([old.real, old.imag], -e)
                    * (1.0 / np.ldexp(size, -e))) if size > 0 else 1.0
    coeffs[k] = new_mag * phase
    return idft(Spectrum(spec.freqs, coeffs, spec.length, spec.step))
