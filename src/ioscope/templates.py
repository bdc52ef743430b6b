"""IO-phase template bank, resampling, correlation diagrams, and the
multi-scale scan detector over them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import InvalidArgument
from .series import ScaleField, TimeSeries, _unit_scale

__all__ = [
    "Template",
    "io_phase_template",
    "snake_template",
    "builtin_bank",
    "resample_template",
    "correlation_diagram",
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
        if s.max() == s.min():  # np.ptp overflows on samples of both signs
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


def builtin_bank() -> List[Template]:
    """The two IO-phase variants and the snake, 45 samples each."""
    return [io_phase_template(45, "attack-front"),
            io_phase_template(45, "full-lifecycle"),
            snake_template(45)]


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
    with its phase marks moved to the nearest new index. The samples are
    interpolated scaled by a power of two, then scaled back: ordinary
    samples resample bit for bit as they would unscaled, and the slopes
    between huge ones stay finite."""
    if k < 3:
        raise InvalidArgument("resampled length must be >= 3")
    L = len(t)
    marks = tuple((int(round(idx * (k - 1) / (L - 1))), label)
                  for idx, label in t.phase_marks)
    samples, e = _unit_scale(t.samples)
    return Template(np.ldexp(_resample(samples, k), e), name=t.name,
                    phase_marks=marks)


def correlation_diagram(x: TimeSeries, t: Template,
                        k_range: Sequence[int]) -> ScaleField:
    """Correlation C(l, k) between each series window of length k
    starting at l and the template resampled to k, k in ``k_range``.

    The series and the template are first scaled by powers of two, which
    leaves every correlation as it is and keeps the window norms from
    overflowing or underflowing. Cells are undefined where the window
    overruns the series or either side is constant; a whole row is
    undefined where the template resamples to a constant.
    """
    ks = sorted({int(k) for k in k_range})
    if not ks:
        raise InvalidArgument("empty window-length range")
    T = len(x)
    xs = _unit_scale(x.values)[0]
    samples = _unit_scale(t.samples)[0]
    cells = np.full((len(ks), T), np.nan)
    for r, k in enumerate(ks):
        if k < 3:
            raise InvalidArgument("window length must be >= 3")
        if k > T:
            continue
        p = _resample(samples, k)
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
    return ScaleField(rows=np.asarray(ks, dtype=float),
                      cols=np.arange(T, dtype=float),
                      cells=cells, kind="corr-diagram")


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
        r, c = np.nonzero(fld.cells >= threshold)
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
