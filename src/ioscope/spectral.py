"""Discrete Fourier analysis, the windowed Gaussian transform, and the
spectrum-local sinusoid-removal filter."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidArgument
from .series import ScaleField, TimeSeries, _distinct

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

    Returns a complex field with frequency rows and center columns:
    cells = ((waves * x) @ windows.T) * step, with the windows built a
    block of centers at a time, so memory is O((F + B) * T) for F
    frequencies, T samples and blocks of B <= 2**20 / T centers.
    """
    if not (width > 0):
        raise InvalidArgument("window width must be positive")
    taus = _distinct(np.asarray(list(centers), dtype=float))
    nus = _distinct(np.asarray(list(freqs), dtype=float))
    if taus.size == 0 or nus.size == 0:
        raise InvalidArgument("centers and freqs must be non-empty")
    t = x.times
    if taus.min() < t[0] or taus.max() > t[-1]:
        raise InvalidArgument("window centers must lie within the series span")
    # waves[nu_j, t] * x[t], then one windows[tau_i, t] block at a time
    wx = np.exp(-2j * np.pi * nus[:, None] * t[None, :]) * x.values
    cells = np.empty((nus.size, taus.size), dtype=complex)
    block = max(1, 2 ** 20 // t.size)
    for lo in range(0, taus.size, block):
        with np.errstate(over="ignore"):  # far from a narrow window: weight 0
            z = ((t[None, :] - taus[lo:lo + block, None]) / width) ** 2
        windows = np.exp(-z)
        cells[:, lo:lo + block] = (wx @ windows.T) * x.step
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
    old = coeffs[k]
    phase = old / abs(old) if abs(old) > 0 else 1.0
    coeffs[k] = new_mag * phase
    return idft(Spectrum(spec.freqs, coeffs, spec.length, spec.step))
