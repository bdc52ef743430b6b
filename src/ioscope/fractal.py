"""Self-similarity estimators: rescaled-range Hurst exponent, local
roughness fields, and three multifractal spectrum pipelines (fluctuation
analysis, modulus-maxima partition functions, wavelet leaders)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (DegenerateSignal, DegenerateVariance, InsufficientScales,
                     InsufficientStructure, InvalidArgument)
from .series import ScaleField, TimeSeries, _distinct, _unit_scale
from .wavelet import cwt, get_wavelet

__all__ = [
    "HurstResult",
    "MultifractalResult",
    "hurst_rs",
    "hurst_profile",
    "delta_l_field",
    "mfdfa",
    "wtmm",
    "wavelet_leaders",
]


@dataclass(frozen=True)
class HurstResult:
    exponent: float
    window_sizes: np.ndarray
    rs_values: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.exponent):
            raise DegenerateSignal("non-finite Hurst exponent")


def _concave_majorant(q: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Least concave majorant of the points (q, tau): the upper convex
    hull, evaluated back on the grid. Regression noise makes raw tau
    estimates wobble; the projection restores exact concavity while
    moving values by at most the noise amplitude."""
    idx = [0]
    for i in range(1, q.size):
        while len(idx) >= 2:
            i0, i1 = idx[-2], idx[-1]
            cross = ((q[i1] - q[i0]) * (tau[i] - tau[i0])
                     - (tau[i1] - tau[i0]) * (q[i] - q[i0]))
            if cross >= 0:  # middle point lies on/below the chord: drop it
                idx.pop()
            else:
                break
        idx.append(i)
    return np.interp(q, q[idx], tau[idx])


def _chord_hurst(q: np.ndarray, tau: np.ndarray,
                 h_raw: np.ndarray) -> np.ndarray:
    """Generalized Hurst exponents consistent with the concave tau.

    Off q = 0 these are the chord slopes (tau(q) + 1) / q, which are
    non-increasing for a concave tau through (0, -1); the q = 0 value is
    the raw estimate clamped between its neighbors.
    """
    h = np.array(h_raw, dtype=float)
    nz = q != 0
    h[nz] = (tau[nz] + 1.0) / q[nz]
    zi = np.flatnonzero(~nz)
    for i in zi:
        lo = h[i + 1] if i + 1 < h.size else -np.inf
        hi = h[i - 1] if i > 0 else np.inf
        h[i] = min(max(h[i], lo), hi)
    return np.minimum.accumulate(h)


def _legendre(q: np.ndarray, tau: np.ndarray):
    """Concavify, then alpha = dtau/dq and f = q alpha - tau."""
    tau_c = _concave_majorant(q, tau)
    alpha = np.gradient(tau_c, q)
    return tau_c, alpha, q * alpha - tau_c


@dataclass(frozen=True)
class MultifractalResult:
    """Scaling exponents tau(q) with the Legendre-transformed spectrum."""

    q: np.ndarray
    tau: np.ndarray
    alpha: np.ndarray
    f_alpha: np.ndarray
    h: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("q", "tau", "alpha", "f_alpha"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape != self.q.shape:
                raise InvalidArgument("mismatching multifractal arrays")
        if np.any(np.diff(self.tau, 2) > 1e-6):
            raise InvalidArgument("tau estimate is not concave")


def _q_grid(q: Sequence[float]) -> np.ndarray:
    qs = np.asarray(q, dtype=float)
    if qs.size < 3 or np.any(np.diff(qs) <= 0):
        raise InvalidArgument("q must be increasing with at least 3 values")
    return qs


def _log_moments(qs: np.ndarray, lg: np.ndarray,
                 offset: float = 0.0) -> np.ndarray:
    """offset + log(sum(exp(q * lg))) for every q, shifted by the largest
    term so that large |q| cannot overflow."""
    v = np.outer(qs, lg)
    m = v.max(axis=1)
    return offset + m + np.log(np.sum(np.exp(v - m[:, None]), axis=1))


def _fit_lines(x: np.ndarray, ys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Least-squares slope and intercept of every row of ys against x, or
    against the matching row of a 2-D x, in closed form on the centred
    abscissa."""
    xm = x.mean(axis=-1, keepdims=True)
    xc = x - xm
    ym = ys.mean(axis=-1, keepdims=True)
    if x.ndim == 1:
        slope = ((ys - ym) @ xc) / (xc @ xc)
    else:
        slope = (np.einsum("...j,...j->...", ys - ym, xc)
                 / np.einsum("...j,...j->...", xc, xc))
    return slope, ym[..., 0] - slope * xm[..., 0]


# The R/S ladder of a series of t samples: _RS_SCALES log-spaced widths
# from _RS_MIN_WINDOW samples to t // 2, rounded, repeats dropped.
_RS_MIN_WINDOW = 8
_RS_SCALES = 16


def _rs_ladders(h) -> np.ndarray:
    """The rounded widths of the ladder for t // 2 = h, repeats kept: one
    row of _RS_SCALES for a scalar h, one row per cell of an array h."""
    return np.geomspace(_RS_MIN_WINDOW, h, _RS_SCALES, axis=-1).round().astype(int)


# Samples gathered per pass of _rs_segments: bounds its temporaries
# (about 24 bytes a sample) whatever the series length and widths.
_RS_CHUNK = 1 << 13


def _rs_segments(vals: np.ndarray,
                 widths: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R/S of every whole segment of every width in vals, width by width:
    the ratios, whether each segment counts (its max exceeds its min, and
    its std is not 0 by underflow), and the offset of each width's first
    segment (one more offset closes the last width). A segment that does
    not count has ratio 0.

    The segments are gathered a chunk of at most _RS_CHUNK samples at a
    time (a longer segment alone) and reduced over their starts; the
    walk is one cumsum of the chunk's deviations, whose range within a
    segment ignores the offset carried in from the segments before it.
    """
    nseg = vals.size // widths
    off = np.concatenate([[0], np.cumsum(nseg)])
    lens = np.repeat(widths, nseg)
    starts = np.arange(off[-1]) - np.repeat(off[:-1], nseg)
    starts *= lens
    ends = np.cumsum(lens)
    ratio = np.zeros(off[-1])
    ok = np.zeros(off[-1], dtype=bool)
    a = 0
    while a < off[-1]:
        base = ends[a] - lens[a]
        b = max(a + 1, int(np.searchsorted(ends, base + _RS_CHUNK, "right")))
        w = lens[a:b]
        first = ends[a:b] - w - base
        # the chunk's samples, in place their deviations, then their squares
        dev = vals[np.arange(ends[b - 1] - base) + np.repeat(starts[a:b] - first, w)]
        ok[a:b] = np.maximum.reduceat(dev, first) > np.minimum.reduceat(dev, first)
        dev -= np.repeat(np.add.reduceat(dev, first) / w, w)
        walk = np.cumsum(dev)
        rng = np.maximum.reduceat(walk, first) - np.minimum.reduceat(walk, first)
        dev *= dev
        std = np.sqrt(np.add.reduceat(dev, first) / w)
        ok[a:b] &= std > 0
        np.divide(rng, std, out=ratio[a:b], where=ok[a:b])
        a = b
    return ratio, ok, off


def hurst_rs(x: TimeSeries) -> HurstResult:
    """Rescaled-range Hurst exponent of a series of increments.

    For each window size the series is cut into non-overlapping segments;
    per segment the range of the mean-adjusted cumulative sum is divided
    by the segment standard deviation, and the exponent is the slope of
    log mean(R/S) against log window size. A constant segment (max equal
    to min) has no rescaled range and is left out of the mean.
    """
    vals = _unit_scale(x.values)[0]
    if np.ptp(vals) == 0:
        raise DegenerateVariance("constant series has no rescaled range")
    if vals.size < 2 * _RS_MIN_WINDOW:
        raise InsufficientScales("series too short for rescaled-range ladder")
    sizes = _distinct(_rs_ladders(vals.size // 2))
    if sizes.size < 4:
        raise InsufficientScales("need at least 4 window sizes")
    ratio, ok, off = _rs_segments(vals, sizes)
    cnt = np.add.reduceat(ok, off[:-1])
    if not cnt.all():
        w = sizes[np.argmin(cnt)]
        raise DegenerateSignal(f"all segments constant at window size {w}")
    rs = np.add.reduceat(ratio, off[:-1]) / cnt
    slope, _ = _fit_lines(np.log(sizes.astype(float)), np.log(rs))
    return HurstResult(float(slope), sizes.astype(float), rs)


# hurst_profile's shortest prefix
_MIN_PREFIX = 32


def hurst_profile(x: TimeSeries) -> TimeSeries:
    """Hurst exponent of every growing prefix x[:t], t >= 32, as
    :func:`hurst_rs` would give it; nan where hurst_rs raises (constant
    prefix, fewer than 4 window sizes, a size whose segments are all
    constant, non-finite slope).

    The segments of x[:t] at width w are the first t // w segments of x,
    so each segment's R/S is computed once, and a prefix's mean R/S per
    width comes from prefix sums over segments. The ladder depends on
    t // 2 only: all ladders are one (ladders, _RS_SCALES) matrix, and the
    ladders with the same number of distinct widths share one
    closed-form regression. Cost: the segments of all distinct widths
    (about n / 2 of them) go through chunked array passes of bounded
    memory, but their element work is still O(n^2).
    """
    vals = _unit_scale(x.values)[0]
    n = vals.size
    if n < _MIN_PREFIX:
        raise InvalidArgument("series shorter than the minimum prefix")
    out = np.full(n, np.nan)
    hs = np.arange(max(_MIN_PREFIX // 2, _RS_MIN_WINDOW), n // 2 + 1)
    ladders = _rs_ladders(hs)  # one row per t // 2
    fresh = np.diff(ladders, axis=1, prepend=0) > 0  # distinct within a row
    nsizes = fresh.sum(axis=1)
    widths = _distinct(ladders[nsizes >= 4])
    ratio, ok, off = _rs_segments(vals, widths)
    # prefix sums over each width's segments: a row of nseg + 1 per width,
    # the widths with equal nseg (neighbours, nseg falls with w) in one block
    nseg = np.diff(off)
    first = off + np.arange(widths.size + 1)
    sums = np.zeros(first[-1])
    counts = np.zeros(first[-1], dtype=int)
    cut = np.flatnonzero(np.diff(nseg, prepend=-1, append=-1))
    for i, j in zip(cut[:-1], cut[1:]):
        m = nseg[i]
        blk = slice(first[i], first[j])
        seg = slice(off[i], off[j])
        sums[blk].reshape(j - i, m + 1)[:, 1:] = np.cumsum(
            ratio[seg].reshape(j - i, m), axis=1)
        counts[blk].reshape(j - i, m + 1)[:, 1:] = np.cumsum(
            ok[seg].reshape(j - i, m), axis=1)
    nonconst = np.maximum.accumulate(vals) > np.minimum.accumulate(vals)
    with np.errstate(divide="ignore", invalid="ignore"):
        for size in range(4, _RS_SCALES + 1):
            rows = np.flatnonzero(nsizes == size)
            # t = 2h and 2h + 1, within [_MIN_PREFIX, n], not constant
            t = (2 * hs[rows, None] + np.arange(2)).ravel()
            keep = (t >= _MIN_PREFIX) & (t <= n) & nonconst[np.minimum(t, n) - 1]
            sizes = ladders[rows][fresh[rows]].reshape(-1, size)
            sizes = np.repeat(sizes, 2, axis=0)[keep]
            t = t[keep]
            at = first[np.searchsorted(widths, sizes)]
            at += t[:, None] // sizes
            slope, _ = _fit_lines(np.log(sizes), np.log(sums[at] / counts[at]))
            good = np.isfinite(slope)  # a size with no counted segment gives 0/0
            out[t[good] - 1] = slope[good]
    return x.with_values(out, allow_undefined=True)


def _direct_rms(vals: np.ndarray, s: int, starts: np.ndarray) -> np.ndarray:
    """RMS residual of the least-squares line over each window
    vals[l:l+s], l in starts, from the windows themselves."""
    win = np.lib.stride_tricks.sliding_window_view(vals, s)[starts]
    tc = np.arange(s, dtype=float) - (s - 1) / 2.0
    slope, mid = _fit_lines(tc, win)
    resid = win - mid[:, None] - slope[:, None] * tc
    return np.sqrt(np.mean(resid * resid, axis=1))


def delta_l_field(x: TimeSeries) -> ScaleField:
    """Local linear-trend deviation Delta L(s, l): the RMS residual of a
    least-squares line over the window of length s starting at l, stored
    at the window centre l + s // 2, for s = 3 .. n // 4.

    Cost O(n * S) for S window sizes. A window's residual is unchanged
    when a line is subtracted from the series, so the series v is taken
    about its global least-squares line. Each window's sums S0 = sum v,
    S1 = sum j v (local index j) and S2 = sum v^2 grow by one sample from
    length s to s + 1, and the residual sum of squares is
    S2 - S0^2/s - (S1 - tbar S0)^2 / D with tbar = (s - 1)/2,
    D = s(s^2 - 1)/12. That difference cancels on near-linear windows: a
    cell whose residual is not above 1e9 times its rounding bound
    (16 s eps S2) is recomputed from the window itself.
    """
    vals, e = _unit_scale(x.values)
    n = vals.size
    max_window = n // 4
    if max_window < 3:
        raise InsufficientScales("series too short for roughness field")
    sizes = np.arange(3, max_window + 1)
    cells = np.full((sizes.size, n), np.nan)
    eps = np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.arange(n, dtype=float)
        slope, icpt = _fit_lines(t, vals)
        # the line on a power-of-two grid coarse enough that each of its
        # values is exact, so that v takes one rounding per sample
        g = np.ldexp(1.0, np.frexp(abs(icpt) + abs(slope) * n)[1] - 52)
        v = vals - (np.round(icpt / g) * g + np.round(slope / g) * g * t)
        v2 = v * v
        s0 = np.zeros(n)
        s1 = np.zeros(n)
        s2 = np.zeros(n)
        for s in range(1, max_window + 1):
            k = n - s + 1  # windows of length s start at 0..n-s
            s0 = s0[:k] + v[s - 1:]
            s1 = s1[:k] + (s - 1) * v[s - 1:]
            s2 = s2[:k] + v2[s - 1:]
            if s < 3:
                continue
            u = s1 - 0.5 * (s - 1) * s0
            ss = s2 - s0 * s0 / s - u * u / (s * (s * s - 1) / 12.0)
            rms = np.sqrt(ss / s)
            # a window whose S2 is exactly 0 lies on the line: its rms is 0
            redo = np.flatnonzero(~(ss > 1e9 * 16 * s * eps * s2) & (s2 > 0))
            if redo.size:
                rms[redo] = _direct_rms(vals, s, redo)
            cells[s - 3, s // 2: s // 2 + k] = rms
    rows = sizes.astype(float) * x.step
    return ScaleField(rows, x.times, np.ldexp(cells, e), kind="deltaL")


def _mfdfa_scales(n: int) -> np.ndarray:
    smin = max(10, n // 100)
    smax = min(20 * smin, n // 10)
    if smax <= smin:
        raise InsufficientScales("series too short for fluctuation analysis")
    return _distinct(np.geomspace(smin, smax, 100).round().astype(int))


def mfdfa(x: TimeSeries, q: Sequence[float],
          scales: Optional[Sequence[int]] = None,
          aggregated: bool = False) -> MultifractalResult:
    """Multifractal detrended fluctuation analysis of an increment series.

    The profile is the cumulative sum of the mean-subtracted values; a
    series flagged ``aggregated`` is already a profile and is used as-is.
    Segments of each scale (both sweep directions) are detrended by a
    least-squares line, and the q-th order fluctuation functions give
    h(q) by log-log regression, with tau(q) = q h(q) - 1 and the
    spectrum by a numerical Legendre transform. A segment whose residual
    is zero to rounding (the profile is a line there) has no finite
    negative moment, and the series is rejected.
    """
    qs = _q_grid(q)
    nz = qs != 0
    if nz.all():
        raise InvalidArgument("q grid must contain 0")
    vals = _unit_scale(x.values)[0]
    n = vals.size
    if np.ptp(vals) == 0:
        raise DegenerateSignal("constant series")
    profile = vals if aggregated else np.cumsum(vals - vals.mean())
    sizes = np.asarray(scales, dtype=int) if scales is not None else _mfdfa_scales(n)
    if sizes.size < 4:
        raise InsufficientScales("need at least 4 scales")
    logF = np.empty((qs.size, sizes.size))
    for j, s in enumerate(sizes):
        ns = n // s
        off = np.arange(ns) * s
        starts = np.concatenate([off, off + n - ns * s])
        rms = _direct_rms(profile, s, starts)
        peak = np.abs(np.lib.stride_tricks.sliding_window_view(
            profile, s)[starts]).max(axis=1)
        if np.any(rms <= 1e3 * np.finfo(float).eps * peak):
            raise DegenerateSignal(f"a segment with zero fluctuation at scale {s}")
        lr = np.log(rms)
        logF[nz, j] = _log_moments(qs[nz], lr, -np.log(lr.size)) / qs[nz]
        logF[~nz, j] = lr.mean()
    hq, _ = _fit_lines(np.log(sizes.astype(float)), logF)
    tau, alpha, f_alpha = _legendre(qs, qs * hq - 1.0)
    return MultifractalResult(qs, tau, alpha, f_alpha,
                              h=_chord_hurst(qs, tau, hq))


def _modulus_maxima(row: np.ndarray) -> np.ndarray:
    """Indices l with |W(l-1)| < |W(l)| >= |W(l+1)| (or the mirrored
    strictness), the standard plateau-safe local-maximum test."""
    m = row
    left = m[1:-1] > m[:-2]
    right = m[1:-1] >= m[2:]
    left2 = m[1:-1] >= m[:-2]
    right2 = m[1:-1] > m[2:]
    keep = (left & right) | (left2 & right2)
    return np.nonzero(keep)[0] + 1


def _maxima_lines(mod: np.ndarray, radius: np.ndarray) -> List[Tuple[int, List[int]]]:
    """Chain the modulus maxima of the rows of mod into maxima lines,
    each as (first row, [column on each row]).

    Lines start from the maxima of row 0 and, row by row, link to the
    nearest maximum of the next row r within radius[r] columns that no
    line before them took; a line that links to none ends, and a
    maximum that no line takes starts a line.
    """
    maxima = [_modulus_maxima(row) for row in mod]
    lines = [(0, [c]) for c in maxima[0].tolist()]
    open_lines = lines
    for r in range(1, mod.shape[0]):
        cand = maxima[r]
        taken = set()
        still_open = []
        for line in open_lines if cand.size else ():
            last_c = line[1][-1]
            c = int(cand[np.argmin(np.abs(cand - last_c))])
            if abs(c - last_c) <= radius[r] and c not in taken:
                line[1].append(c)
                taken.add(c)
                still_open.append(line)
        for c in cand.tolist():
            if c not in taken:
                lines.append((r, [c]))
                still_open.append(lines[-1])
        open_lines = still_open
    return lines


def _l1_modulus_field(x: TimeSeries, wavelet: str, scales: Sequence[float],
                      coi: float = 0.0) -> np.ndarray:
    """The transform's modulus, one row per scale."""
    fld = cwt(x, get_wavelet(wavelet), scales)
    # renormalize from energy (1/sqrt(s)) to amplitude (1/s) convention so
    # a pure singularity of exponent h scales as s**h along its line
    mod = np.abs(fld.cells) / np.sqrt(fld.rows)[:, None]
    if coi > 0:
        # zero the cone of influence, where the wavelet overruns the series
        # (truncated moduli); NaN there would hide the maxima beside it
        n = fld.cols.size
        pad = np.minimum(n // 2, np.ceil(coi * fld.rows / x.step))[:, None]
        cols = np.arange(n)
        mod[(cols < pad) | (cols >= n - pad)] = 0.0
    return mod


def wtmm(x: TimeSeries, q: Sequence[float],
         wavelet: str = "mexican-hat") -> MultifractalResult:
    """Multifractal exponents from wavelet-transform modulus maxima.

    The transform runs on 24 log-spaced scales from 2 steps to
    max(8, n / 33) steps. Builds partition functions Z(q, s) over the
    maxima lines spanning at least 5 scales (each scale links maxima
    within one scale-width) with the sup-over-finer-scales stabilization
    and reads tau(q) off the log-log slope, then applies the numerical
    Legendre transform. Maxima inside the boundary cone of influence
    (4 scale-widths from either edge) are excluded.
    """
    qs = _q_grid(q)
    scales = np.geomspace(2.0 * x.step, max(8.0, len(x) / 33.0) * x.step, 24)
    mod = _l1_modulus_field(x, wavelet, scales, coi=4.0)
    lines = [ln for ln in _maxima_lines(mod, np.maximum(1.0, scales / x.step))
             if len(ln[1]) >= 5]
    if not lines:
        raise InsufficientStructure("no maxima lines of the required length")
    # running supremum of the modulus along each line; a line holds one
    # maximum on every row from its first to its last, and counts only there
    sup_at_row = np.full((len(lines), scales.size), np.nan)
    for i, (r0, cols) in enumerate(lines):
        rows = np.arange(r0, r0 + len(cols))
        sup_at_row[i, rows] = np.maximum.accumulate(mod[rows, cols])
    good = np.isfinite(sup_at_row) & (sup_at_row > 0)
    usable = np.count_nonzero(good, axis=0) >= 3
    if np.count_nonzero(usable) < 4:
        raise InsufficientStructure("too few scales carry maxima lines")
    logZ = np.stack([_log_moments(qs, np.log(sup_at_row[good[:, r], r]))
                     for r in np.flatnonzero(usable)], axis=1)
    tau, _ = _fit_lines(np.log(scales[usable]), logZ)
    tau, alpha, f_alpha = _legendre(qs, tau)
    return MultifractalResult(qs, tau, alpha, f_alpha)


def wavelet_leaders(x: TimeSeries, q: Sequence[float],
                    wavelet: str = "mexican-hat") -> MultifractalResult:
    """Multifractal exponents from wavelet leaders on dyadic scales.

    Leaders are neighborhood maxima of the amplitude-normalized modulus;
    structure functions use the scale-proportional weight s/T and tau(q)
    is the log-log slope minus one.
    """
    qs = _q_grid(q)
    n = len(x)
    span = n * x.step
    scales = []
    s = 2.0 * x.step
    while s <= span / 8.0:
        scales.append(s)
        s *= 2.0
    if len(scales) < 4:
        raise InsufficientScales("series too short for dyadic leader scales")
    # a leader is one window maximum of the modulus maxed over finer scales
    finest = np.maximum.accumulate(_l1_modulus_field(x, wavelet, scales), axis=0)
    logZ = np.empty((qs.size, len(scales)))
    for j, sj in enumerate(scales):
        half = max(1, int(round(sj / x.step)))
        # windows [c - half, c + half], c = half, 2 half, ... < n - half: 6 or more
        win = np.lib.stride_tricks.sliding_window_view(finest[j], 2 * half + 1)
        leaders = np.maximum(win[::half].max(axis=1), 1e-300)
        logZ[:, j] = _log_moments(qs, np.log(leaders), np.log(sj / span))
    ok = np.all(np.isfinite(logZ), axis=0)
    if np.count_nonzero(ok) < 3:
        raise InsufficientScales("too few usable dyadic scales")
    tau, _ = _fit_lines(np.log(np.asarray(scales)[ok]), logZ[:, ok])
    tau, alpha, f_alpha = _legendre(qs, tau - 1.0)
    return MultifractalResult(qs, tau, alpha, f_alpha)
