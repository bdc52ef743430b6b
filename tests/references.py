"""Slow reference implementations that tests compare the library against."""

from typing import Sequence

import numpy as np

from ioscope.series import ScaleField, TimeSeries
from ioscope.wavelet import Wavelet


def cwt_direct(x: TimeSeries, w: Wavelet, scales: Sequence[float]) -> ScaleField:
    """Direct quadratic-time evaluation of the transform definition.

    Reference path for correctness checks; O(T^2 |S|).
    """
    s = np.asarray(list(scales), dtype=float)
    xs = x.values
    t = x.times
    dtype = complex if w.is_complex else float
    cells = np.empty((s.size, xs.size), dtype=dtype)
    for i, si in enumerate(s):
        for j, l in enumerate(t):
            v = np.sum(xs * np.conj(w.evaluate((t - l) / si))) * x.step / np.sqrt(si)
            cells[i, j] = v if w.is_complex else v.real
    return ScaleField(rows=s, cols=t, cells=cells, kind="cwt")
