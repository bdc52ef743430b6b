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
from .wavelet import cwt, default_scale_grid, get_wavelet

__all__ = [
    "HurstResult",
    "MultifractalResult",
    "Skeleton",
    "hurst_rs",
    "hurst_profile",
    "delta_l_field",
    "mfdfa",
    "find_skeleton",
    "wtmm",
    "wavelet_leaders",
    "brownian",
    "binomial_cascade",
    "binomial_cascade_tau",
]


@dataclass(frozen=True)
class HurstResult:
    exponent: float
    window_sizes: np.ndarray
    rs_values: np.ndarray
    intercept: float

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
    """Least-squares slope and intercept of every row of ys against x,
    in closed form on the centred abscissa."""
    xm = x.mean()
    xc = x - xm
    ym = ys.mean(axis=-1)
    slope = ((ys - ym[..., None]) @ xc) / (xc @ xc)
    return slope, ym - slope * xm


def _rs_ladder(n: int, min_window: int, n_scales: int) -> np.ndarray:
    if n < 2 * min_window:
        raise InsufficientScales("series too short for rescaled-range ladder")
    sizes = _distinct(np.geomspace(min_window, n // 2, n_scales).round().astype(int))
    return sizes[sizes >= min_window]


def _segment_rs(vals: np.ndarray, w: int) -> Tuple[np.ndarray, np.ndarray]:
    """R/S of every whole segment of width w in vals, and whether the
    segment has std > 0; the ratio is 0 where it does not."""
    nseg = vals.size // w
    seg = vals[: nseg * w].reshape(nseg, w)
    dev = seg - seg.mean(axis=1, keepdims=True)
    walk = np.cumsum(dev, axis=1)
    rng = walk.max(axis=1) - walk.min(axis=1)
    std = seg.std(axis=1)
    ok = std > 0
    return np.divide(rng, std, out=np.zeros(nseg), where=ok), ok


def hurst_rs(x: TimeSeries, min_window: int = 8,
             n_scales: int = 16) -> HurstResult:
    """Rescaled-range Hurst exponent of a series of increments.

    For each window size the series is cut into non-overlapping segments;
    per segment the range of the mean-adjusted cumulative sum is divided
    by the segment standard deviation, and the exponent is the slope of
    log mean(R/S) against log window size.
    """
    vals = _unit_scale(x.values)[0]
    if np.ptp(vals) == 0:
        raise DegenerateVariance("constant series has no rescaled range")
    sizes = _rs_ladder(vals.size, min_window, n_scales)
    if sizes.size < 4:
        raise InsufficientScales("need at least 4 window sizes")
    rs = np.empty(sizes.size)
    for i, w in enumerate(sizes):
        ratio, ok = _segment_rs(vals, w)
        if not np.any(ok):
            raise DegenerateSignal(f"all segments constant at window size {w}")
        rs[i] = np.mean(ratio[ok])
    slope, intercept = _fit_lines(np.log(sizes.astype(float)), np.log(rs))
    return HurstResult(float(slope), sizes.astype(float), rs, float(intercept))


def hurst_profile(x: TimeSeries, min_prefix: int = 32,
                  min_window: int = 8) -> TimeSeries:
    """Hurst exponent of every growing prefix x[:t], t >= min_prefix, as
    :func:`hurst_rs` would give it; nan where hurst_rs raises (constant
    prefix, fewer than 4 window sizes, a size whose segments are all
    constant, non-finite slope).

    The segments of x[:t] at width w are the first t // w segments of x,
    so each segment's R/S is computed once per width, and a prefix's
    mean R/S per width comes from prefix sums over segments. The ladder
    depends on t // 2 only. Cost: one O(n) segment pass per distinct
    ladder width (about n / 2 of them) and one small closed-form
    regression per ladder, where n full hurst_rs calls made up to 16
    passes each.
    """
    vals = _unit_scale(x.values)[0]
    n = vals.size
    if n < min_prefix:
        raise InvalidArgument("series shorter than the minimum prefix")
    out = np.full(n, np.nan)
    ts = np.arange(n + 1)
    nonconst = np.maximum.accumulate(vals) > np.minimum.accumulate(vals)
    ladders = {}
    for h in range(max(min_prefix // 2, min_window), n // 2 + 1):
        sizes = _rs_ladder(2 * h, min_window, 16)  # hurst_rs's n_scales
        if sizes.size >= 4:
            ladders[h] = sizes
    sums, counts = {}, {}
    for w in {int(w) for sizes in ladders.values() for w in sizes}:
        ratio, ok = _segment_rs(vals, w)
        sums[w] = np.concatenate([[0.0], np.cumsum(ratio)])
        counts[w] = np.concatenate([[0], np.cumsum(ok)])
    with np.errstate(divide="ignore", invalid="ignore"):
        for h, sizes in ladders.items():
            t = ts[max(2 * h, min_prefix): 2 * h + 2]
            t = t[nonconst[t - 1]]
            if t.size == 0:
                continue
            k = t[:, None] // sizes[None, :]
            tot = np.stack([sums[w][k[:, i]] for i, w in enumerate(sizes)], 1)
            cnt = np.stack([counts[w][k[:, i]] for i, w in enumerate(sizes)], 1)
            slope, _ = _fit_lines(np.log(sizes.astype(float)),
                                  np.log(tot / cnt))
            good = np.isfinite(slope)  # a size with cnt = 0 gives 0/0
            out[t[good] - 1] = slope[good]
    return x.with_values(out, label=f"hurst({x.label})" if x.label else "hurst",
                         allow_undefined=True)


def _direct_rms(vals: np.ndarray, s: int,
                starts: Optional[np.ndarray] = None) -> np.ndarray:
    """RMS residual of the least-squares line over each window
    vals[l:l+s], l in starts (default: every l), from the windows
    themselves."""
    win = np.lib.stride_tricks.sliding_window_view(vals, s)
    if starts is not None:
        win = win[starts]
    tc = np.arange(s, dtype=float) - (s - 1) / 2.0
    slope, mid = _fit_lines(tc, win)
    resid = win - mid[:, None] - slope[:, None] * tc
    return np.sqrt(np.mean(resid * resid, axis=1))


def delta_l_field(x: TimeSeries, max_window: Optional[int] = None) -> ScaleField:
    """Local linear-trend deviation Delta L(s, l): the RMS residual of a
    least-squares line over the window of length s starting at l, stored
    at the window centre l + s // 2.

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
    if max_window is None:
        max_window = n // 4
    if max_window < 3:
        raise InsufficientScales("series too short for roughness field")
    sizes = np.arange(3, max_window + 1)
    cells = np.zeros((sizes.size, n))
    mask = np.zeros((sizes.size, n), dtype=bool)
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
            if redo.size == k:
                rms = _direct_rms(vals, s)
            elif redo.size:
                rms[redo] = _direct_rms(vals, s, redo)
            cells[s - 3, s // 2: s // 2 + k] = rms
            mask[s - 3, s // 2: s // 2 + k] = True
    rows = sizes.astype(float) * x.step
    return ScaleField(rows, x.times, np.ldexp(cells, e), mask=mask,
                      kind="deltaL")


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


@dataclass(frozen=True)
class Skeleton:
    """Chained modulus-maxima lines of a wavelet transform field."""

    scales: np.ndarray
    lines: Tuple[Tuple[Tuple[int, int], ...], ...]  # each: ((row, col), ...)
    moduli: Tuple[np.ndarray, ...]

    @property
    def n_lines(self) -> int:
        return len(self.lines)


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


def find_skeleton(fld: ScaleField, min_length: int = 3) -> Skeleton:
    """Chain modulus maxima across scales into maxima lines.

    Lines start from maxima at the smallest scale and, row by row, link
    to the nearest maximum of the next scale within one scale-width;
    lines spanning fewer than ``min_length`` rows are discarded.
    """
    mod = np.abs(fld.cells)
    step = fld.col_step
    maxima = [_modulus_maxima(mod[r]) for r in range(fld.rows.size)]
    lines: List[List[Tuple[int, int]]] = [[(0, int(c))] for c in maxima[0]]
    open_lines = list(range(len(lines)))
    for r in range(1, fld.rows.size):
        cand = maxima[r]
        radius = max(1.0, fld.rows[r] / step)
        taken = set()
        still_open = []
        for li in open_lines:
            _, last_c = lines[li][-1]
            if cand.size == 0:
                continue
            j = int(np.argmin(np.abs(cand - last_c)))
            c = int(cand[j])
            if abs(c - last_c) <= radius and c not in taken:
                lines[li].append((r, c))
                taken.add(c)
                still_open.append(li)
        for c in cand:
            if int(c) not in taken:
                lines.append([(r, int(c))])
                still_open.append(len(lines) - 1)
        open_lines = still_open
    kept = [ln for ln in lines if len(ln) >= min_length]
    if not kept:
        raise InsufficientStructure("no maxima lines of the required length")
    moduli = tuple(np.array([mod[r, c] for r, c in ln]) for ln in kept)
    return Skeleton(fld.rows.copy(), tuple(tuple(ln) for ln in kept), moduli)


def _l1_modulus_field(x: TimeSeries, wavelet: str,
                      scales: Optional[Sequence[float]],
                      coi: float = 0.0) -> ScaleField:
    w = get_wavelet(wavelet)
    if scales is None:
        scales = default_scale_grid(x)
    fld = cwt(x, w, scales)
    # renormalize from energy (1/sqrt(s)) to amplitude (1/s) convention so
    # a pure singularity of exponent h scales as s**h along its line
    mod = np.abs(fld.cells) / np.sqrt(fld.rows)[:, None]
    if coi > 0:
        # zero out the cone of influence: cells whose wavelet reaches
        # past either end of the series carry truncated (biased) moduli
        n = fld.cols.size
        pad = np.minimum(n // 2, np.ceil(coi * fld.rows / x.step))[:, None]
        cols = np.arange(n)
        mod[(cols < pad) | (cols >= n - pad)] = 0.0
    return ScaleField(fld.rows, fld.cols, mod, mask=fld.mask, kind="wtmm-mod")


def wtmm(x: TimeSeries, q: Sequence[float], wavelet: str = "mexican-hat",
         scales: Optional[Sequence[float]] = None,
         min_line_length: int = 5, coi: float = 4.0) -> MultifractalResult:
    """Multifractal exponents from wavelet-transform modulus maxima.

    Builds partition functions Z(q, s) over the maxima skeleton with the
    sup-over-finer-scales stabilization and reads tau(q) off the log-log
    slope, then applies the numerical Legendre transform. Maxima inside
    the boundary cone of influence (``coi`` scale-widths from either
    edge) are excluded.
    """
    qs = _q_grid(q)
    if scales is None:
        n = len(x)
        smax = max(8.0, n / 33.0) * x.step
        scales = np.geomspace(2.0 * x.step, smax, 24)
    fld = _l1_modulus_field(x, wavelet, scales, coi=coi)
    skel = find_skeleton(fld, min_length=min_line_length)
    # running supremum of the modulus along each line; a line holds one
    # maximum on every row from its first to its last, and counts only there
    sup_at_row = np.full((skel.n_lines, fld.rows.size), np.nan)
    for i, (ln, mods) in enumerate(zip(skel.lines, skel.moduli)):
        sup_at_row[i, ln[0][0]: ln[0][0] + len(ln)] = np.maximum.accumulate(mods)
    good = np.isfinite(sup_at_row) & (sup_at_row > 0)
    usable = np.count_nonzero(good, axis=0) >= 3
    if np.count_nonzero(usable) < 4:
        raise InsufficientStructure("too few scales carry maxima lines")
    logZ = np.stack([_log_moments(qs, np.log(sup_at_row[good[:, r], r]))
                     for r in np.flatnonzero(usable)], axis=1)
    tau, _ = _fit_lines(np.log(fld.rows[usable]), logZ)
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
    fld = _l1_modulus_field(x, wavelet, scales)
    # a leader is one window maximum of the modulus maxed over finer scales
    finest = np.maximum.accumulate(fld.cells, axis=0)
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


def brownian(n: int, seed: Optional[int] = None, step: float = 1.0) -> TimeSeries:
    """Standard Brownian path: zero start, cumulative sum of unit
    Gaussian increments."""
    if n < 2:
        raise InvalidArgument("need at least 2 samples")
    rng = np.random.default_rng(seed)
    incr = rng.standard_normal(n)
    incr[0] = 0.0
    return TimeSeries(np.cumsum(incr), step=step, label="brownian")


def binomial_cascade(levels: int = 14, p: float = 0.3,
                     seed: Optional[int] = None,
                     shuffle: bool = False) -> TimeSeries:
    """Deterministic binomial measure on 2**levels cells: each cell's mass
    splits into fractions p (left) and 1-p (right) at every level."""
    if not (0.0 < p < 1.0):
        raise InvalidArgument("p must lie in (0, 1)")
    if levels < 4:
        raise InvalidArgument("need at least 4 levels")
    mass = np.ones(1)
    for _ in range(levels):
        mass = np.concatenate([(mass * p)[:, None],
                               (mass * (1.0 - p))[:, None]], axis=1).ravel()
    if shuffle:
        rng = np.random.default_rng(seed)
        rng.shuffle(mass)
    return TimeSeries(mass, label="binomial-cascade")


def binomial_cascade_tau(q: Sequence[float], p: float = 0.3) -> np.ndarray:
    """Closed-form scaling exponents of the binomial measure,
    tau(q) = -log2(p**q + (1-p)**q)."""
    qs = np.asarray(q, dtype=float)
    return -np.log2(p ** qs + (1.0 - p) ** qs)
