"""IO-phase template bank, resampling, correlation-diagram detection, and
polynomial template recognition with an efficiency score."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import (DegenerateSignal, IllConditionedBasis, InvalidArgument)
from .series import ScaleField, TimeSeries

__all__ = [
    "Template",
    "KuntchenkoBasis",
    "io_phase_template",
    "snake_template",
    "builtin_bank",
    "resample_template",
    "correlation_diagram",
    "kuntchenko_fit",
    "kuntchenko_efficiency",
    "scan_detect",
    "Detection",
]

PHASE_LABELS = ("background", "calm", "shelling", "calm2", "attack",
                "peak", "disillusion", "realization", "productivity")


@dataclass(frozen=True)
class Template:
    """A sampled detection pattern with optional lifecycle phase marks."""

    samples: np.ndarray
    name: str = ""
    phase_marks: Tuple[Tuple[int, str], ...] = ()

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.size < 3:
            raise InvalidArgument("template needs at least 3 samples")
        if not np.all(np.isfinite(s)):
            raise InvalidArgument("template samples must be finite")
        if np.ptp(s) == 0:
            raise InvalidArgument("template must not be constant")
        object.__setattr__(self, "samples", s)
        for idx, label in self.phase_marks:
            if label not in PHASE_LABELS:
                raise InvalidArgument(f"unknown phase label {label!r}")
            if not (0 <= idx < s.size):
                raise InvalidArgument("phase mark index out of range")

    def __len__(self) -> int:
        return self.samples.size


def io_phase_template(length: int, variant: str = "attack-front",
                      a: float = 0.0, b: float = 1.0,
                      tail_damping: float = 0.5) -> Template:
    """Publication-dynamics template y = A + B x sin(x).

    ``attack-front`` spans x in [0, 5pi/2] and ends on the rising attack
    arc; ``full-lifecycle`` continues through the decline/recovery arcs,
    damped by exp(-tail_damping (x - 5pi/2)) past the peak (tail amplitude
    is a parameter, not a claim).
    """
    if length < 5:
        raise InvalidArgument("template length must be >= 5")
    if b == 0:
        raise InvalidArgument("slope parameter B must be nonzero")
    x_peak = 2.5 * np.pi
    mark_xs = [(0.0, "background"), (np.pi, "calm"), (1.5 * np.pi, "shelling"),
               (2.0 * np.pi, "calm2"), (2.25 * np.pi, "attack")]
    if variant == "attack-front":
        x = np.linspace(0.0, x_peak, length)
    elif variant == "full-lifecycle":
        x = np.linspace(0.0, 4.5 * np.pi, length)
        mark_xs += [(2.5 * np.pi, "peak"), (3.5 * np.pi, "disillusion"),
                    (4.0 * np.pi, "realization"), (4.5 * np.pi, "productivity")]
    else:
        raise InvalidArgument(f"unknown template variant {variant!r}")
    # exp(-0.0) is exactly 1, so the undamped arc is untouched
    y = a + b * x * np.sin(x) * np.exp(-tail_damping * np.maximum(x - x_peak, 0.0))
    # short templates collapse neighboring marks; the first label wins
    marks = {}
    for mx, label in mark_xs:
        marks.setdefault(int(np.argmin(np.abs(x - mx))), label)
    return Template(y, name=f"io-{variant}", phase_marks=tuple(marks.items()))


def snake_template(length: int = 20) -> Template:
    """Oscillating pattern on a rising trend (the multi-point wiggle used
    for multi-scale scanning)."""
    if length < 5:
        raise InvalidArgument("template length must be >= 5")
    x = np.linspace(0.0, 4.0 * np.pi, length)
    return Template(0.25 * x + np.sin(x), name="snake")


def builtin_bank(length: int = 45) -> List[Template]:
    return [io_phase_template(length, "attack-front"),
            io_phase_template(length, "full-lifecycle"),
            snake_template(length)]


def _resample(samples: np.ndarray, k: int) -> np.ndarray:
    """Linear interpolation of samples onto k equally spaced points over
    their index span; k == samples.size returns them unchanged."""
    L = samples.size
    if k == L:
        return samples
    return np.interp(np.linspace(0.0, L - 1.0, k), np.arange(L, dtype=float),
                     samples)


def resample_template(t: Template, k: int) -> Template:
    """The template resampled by :func:`_resample` onto k >= 3 points,
    with its phase marks moved to the nearest new index."""
    if k < 3:
        raise InvalidArgument("resampled length must be >= 3")
    L = len(t)
    marks = tuple((int(round(idx * (k - 1) / (L - 1))), label)
                  for idx, label in t.phase_marks)
    return Template(_resample(t.samples, k), name=t.name, phase_marks=marks)


def correlation_diagram(x: TimeSeries, t: Template,
                        k_range: Sequence[int]) -> ScaleField:
    """Correlation C(l, k) between each series window of length k
    starting at l and the template resampled to k, for every k in
    ``k_range`` (also exported as
    ``correlation.pattern_correlation_field``).

    Cells are undefined where the window overruns the series or either
    side is constant; a whole row is undefined where the template
    resamples to a constant.
    """
    ks = sorted({int(k) for k in k_range})
    if not ks:
        raise InvalidArgument("empty window-length range")
    T = len(x)
    xs = x.values
    cells = np.full((len(ks), T), np.nan)
    mask = np.zeros((len(ks), T), dtype=bool)
    for r, k in enumerate(ks):
        if k < 3:
            raise InvalidArgument("window length must be >= 3")
        if k > T:
            continue
        p = _resample(t.samples, k)
        if np.ptp(p) == 0:
            continue
        pm = p - p.mean()
        npnorm = np.sqrt(np.sum(pm * pm))
        win = np.lib.stride_tricks.sliding_window_view(xs, k)
        wc = win - win.mean(axis=1, keepdims=True)
        wnorm = np.sqrt(np.sum(wc * wc, axis=1))
        dot = wc @ pm
        denom = wnorm * npnorm
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.where(denom > 0, dot / denom, np.nan)
        cells[r, :T - k + 1] = corr
        mask[r, :T - k + 1] = np.isfinite(corr)
    return ScaleField(rows=np.asarray(ks, dtype=float),
                      cols=np.arange(T, dtype=float),
                      cells=cells, mask=mask, kind="corr-diagram")


@dataclass(frozen=True)
class KuntchenkoBasis:
    """Linearly independent transforms over a fixed window length.

    ``transforms[0]`` must be the constant-one sequence; the remaining
    rows are the non-constant transforms the signal is projected onto.
    """

    transforms: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.transforms, dtype=float)
        if f.ndim != 2 or f.shape[0] < 2:
            raise InvalidArgument("basis needs the constant transform plus "
                                  "at least one non-constant transform")
        if not np.allclose(f[0], f[0][0]) or f[0][0] == 0:
            raise InvalidArgument("transforms[0] must be a constant sequence")
        norms = np.linalg.norm(f, axis=1)
        if np.any(norms == 0):
            raise InvalidArgument("zero transform in basis")
        gram = (f / norms[:, None]) @ (f / norms[:, None]).T
        if abs(np.linalg.det(gram)) <= 1e-12:
            raise InvalidArgument("basis transforms are linearly dependent")
        object.__setattr__(self, "transforms", f)

    @property
    def window_length(self) -> int:
        return self.transforms.shape[1]

    @property
    def order(self) -> int:
        return self.transforms.shape[0] - 1


def _solve_correlants(signal: np.ndarray, basis: KuntchenkoBasis):
    """The signal as floats, the solution c_1..c_n of the centered-correlant
    system F c = rhs, and its right-hand side rhs[i] = F[i, s]."""
    sig = np.asarray(signal, dtype=float)
    if sig.size != basis.window_length:
        raise InvalidArgument("signal length does not match basis window")
    f0, fs = basis.transforms[0], basis.transforms[1:]
    d00 = float(f0 @ f0)
    proj = (fs @ f0) / d00  # mean-like component of each transform
    sproj = float(sig @ f0) / d00
    F = fs @ fs.T - np.outer(proj, proj) * d00
    rhs = fs @ sig - proj * sproj * d00
    if np.linalg.cond(F) > 1e12:
        raise IllConditionedBasis("correlant system is numerically singular")
    return sig, np.linalg.solve(F, rhs), rhs


def kuntchenko_fit(signal: np.ndarray, basis: KuntchenkoBasis) -> np.ndarray:
    """Least-distance polynomial coefficients c_0..c_n.

    c_1..c_n solve the centered-correlant system; c_0 follows from the
    closed form with the Euclidean inner product over the window.
    """
    sig, c, _ = _solve_correlants(signal, basis)
    f = basis.transforms
    c0 = (sig @ f[0] - c @ (f[1:] @ f[0])) / (f[0] @ f[0])
    return np.concatenate(([c0], c))


def kuntchenko_efficiency(signal: np.ndarray, basis: KuntchenkoBasis) -> float:
    """Approximation-quality indicator d_n in [0, 1].

    Computed from the centered correlants (the fraction of the signal's
    centered energy captured by the fitted polynomial), which makes the
    in-span value exactly 1 and the centered-orthogonal value exactly 0.
    """
    sig, c, rhs = _solve_correlants(signal, basis)
    f0 = basis.transforms[0]
    s_energy = float(sig @ sig) - (float(sig @ f0) ** 2) / float(f0 @ f0)
    if s_energy <= 0:
        raise DegenerateSignal("signal has zero energy after centering")
    return float(c @ rhs / s_energy)


@dataclass(frozen=True)
class Detection:
    template: str
    scale: int
    location: int
    score: float


def scan_detect(x: TimeSeries, bank: Sequence[Template],
                k_range: Sequence[int], threshold: float) -> List[Detection]:
    """Scan a series against a template bank over multiple scales.

    Returns every (template, k, l) with correlation >= threshold after
    greedy non-maximum suppression: per template, candidates in order of
    score descending, then earlier location, then smaller scale, are kept
    unless a kept one lies within k // 2 in both location and scale. The
    result is sorted the same way across the bank.
    """
    if not (0.0 < threshold <= 1.0):
        raise InvalidArgument("threshold must lie in (0, 1]")
    if not bank:
        raise InvalidArgument("template bank is empty")
    detections: List[Detection] = []
    for tpl in bank:
        fld = correlation_diagram(x, tpl, k_range)
        ks = fld.rows.astype(int)
        half = ks // 2
        # rows lo[r]:hi[r] hold the scales within k // 2 of row r's scale k
        lo = np.searchsorted(ks, ks - half, side="left").tolist()
        hi = np.searchsorted(ks, ks + half, side="right").tolist()
        ks, half = ks.tolist(), half.tolist()
        r, c = np.nonzero(fld.mask & (fld.cells >= threshold))
        score = fld.cells[r, c]
        order = np.lexsort((r, c, -score))  # rows ascend with the scale
        kept = np.zeros(fld.cells.shape, dtype=bool)
        for ri, ci, si in zip(r[order].tolist(), c[order].tolist(),
                              score[order].tolist()):
            h = half[ri]
            if not kept[lo[ri]:hi[ri], max(0, ci - h):ci + h + 1].any():
                kept[ri, ci] = True
                detections.append(Detection(tpl.name, ks[ri], ci, si))
    detections.sort(key=lambda d: (-d.score, d.location, d.scale))
    return detections
