import warnings

import numpy as np
import pytest

from ioscope.errors import InvalidArgument
from ioscope.series import TimeSeries
from ioscope.spectral import Spectrum, dft, gabor, idft, sinusoid_filter


def naive_dft(values):
    n = len(values)
    k = np.arange(n // 2 + 1)
    t = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, t) / n) @ values


class TestDft:
    def test_pure_sinusoid_single_peak(self):
        t = np.arange(256.0)
        spec = dft(TimeSeries(np.sin(2 * np.pi * t / 16)))
        amp = np.abs(spec.coeffs)
        peak = int(np.argmax(amp))
        assert spec.freqs[peak] == pytest.approx(1 / 16)
        others = np.delete(amp, peak)
        assert others.max() < 1e-9 * amp[peak]

    def test_three_sinusoids_three_peaks(self):
        t = np.arange(512.0)
        x = (np.sin(2 * np.pi * t / 8) + np.sin(2 * np.pi * t / 32)
             + np.sin(2 * np.pi * t / 64))
        amp = np.abs(dft(TimeSeries(x)).coeffs)
        dominant = np.flatnonzero(amp > 0.1 * amp.max())
        assert len(dominant) == 3

    def test_round_trip(self, rng):
        x = TimeSeries(rng.standard_normal(100))
        y = idft(dft(x))
        np.testing.assert_allclose(y.values, x.values, atol=1e-10)

    def test_matches_quadratic_definition(self, rng):
        vals = rng.standard_normal(37)  # deliberately non power of two
        spec = dft(TimeSeries(vals))
        np.testing.assert_allclose(spec.coeffs, naive_dft(vals), atol=1e-9)

    def test_parseval(self, rng):
        vals = rng.standard_normal(128)
        spec = dft(TimeSeries(vals))
        c = np.abs(spec.coeffs) ** 2
        # one-sided layout: interior bins carry their conjugate twins
        total = c[0] + 2 * c[1:-1].sum() + c[-1]
        assert total / 128 == pytest.approx(np.sum(vals ** 2), rel=1e-9)

    def test_linearity(self, rng):
        x = rng.standard_normal(64)
        y = rng.standard_normal(64)
        lhs = dft(TimeSeries(2.0 * x + 3.0 * y)).coeffs
        rhs = 2.0 * dft(TimeSeries(x)).coeffs + 3.0 * dft(TimeSeries(y)).coeffs
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_freqs_one_sided(self, rng):
        spec = dft(TimeSeries(rng.standard_normal(50)))
        assert spec.freqs[0] == 0.0
        assert spec.freqs[-1] <= 0.5 + 1e-15


def broadcast_gabor(x, centers, width, freqs):
    """The F x C x T product summed over time, one frequency at a time."""
    t, xs = x.times, x.values
    windows = np.exp(-((t[None, :] - np.asarray(centers)[:, None]) ** 2)
                     / width ** 2)
    rows = []
    for nu in freqs:
        wave = np.exp(-2j * np.pi * nu * t)
        rows.append((wave[None, :] * windows * xs[None, :]).sum(axis=1) * x.step)
    return np.array(rows)


class TestGabor:
    @pytest.mark.parametrize("n,width,step", [(200, 16.0, 1.0),
                                              (1500, 40.0, 0.5)])
    def test_matches_broadcast_formulation(self, rng, n, width, step):
        # n = 1500 pads to 3000, a length with a factor 3
        x = TimeSeries(rng.standard_normal(n), step=step)
        centers = x.times[n // 8: n - n // 8]
        freqs = np.linspace(1.0 / n, 0.5, 5) / step
        fld = gabor(x, centers, width * step, freqs)
        want = broadcast_gabor(x, centers, width * step, freqs)
        assert np.max(np.abs(fld.cells - want)) <= 1e-12 * np.max(np.abs(want))

    def test_zero_series(self):
        fld = gabor(TimeSeries(np.zeros(64)), [16.0, 32.0], 8.0, [0.1, 0.2])
        np.testing.assert_allclose(np.abs(fld.cells), 0.0)

    def test_stationary_tone_flat_in_time(self):
        t = np.arange(256.0)
        x = TimeSeries(np.sin(2 * np.pi * t / 16))
        centers = np.arange(64.0, 192.0, 8.0)
        fld = gabor(x, centers, 16.0, [1 / 16])
        mags = np.abs(fld.cells[0])
        assert (mags.max() - mags.min()) / mags.mean() < 0.05

    def test_two_tones_localized(self):
        t = np.arange(256.0)
        x = np.where(t < 128, np.sin(2 * np.pi * t / 8),
                     np.sin(2 * np.pi * t / 32))
        fld = gabor(TimeSeries(x), [64.0, 192.0], 12.0, [1 / 8, 1 / 32])
        mag = np.abs(fld.cells)
        # rows are freqs sorted ascending: 1/32 first, 1/8 second
        assert mag[1, 0] > 3 * mag[1, 1]
        assert mag[0, 1] > 3 * mag[0, 0]

    def test_huge_width_is_a_flat_window(self, rng):
        x = TimeSeries(rng.standard_normal(64))
        flat = gabor(x, [8.0, 40.0], np.inf, [0.1, 0.2])
        assert np.array_equal(gabor(x, [8.0, 40.0], 1e200, [0.1, 0.2]).cells,
                              flat.cells)

    def test_tiny_width_picks_the_center_sample_without_warning(self, rng):
        x = TimeSeries(rng.standard_normal(64), step=0.5)
        centers, freqs = np.array([4.0, 20.0]), np.array([0.1, 0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fld = gabor(x, centers, 1e-300, freqs)
        want = (np.exp(-2j * np.pi * np.outer(freqs, centers))
                * x.values[(centers / x.step).astype(int)] * x.step)
        np.testing.assert_allclose(fld.cells, want, rtol=1e-12)

    def test_nonpositive_width(self):
        with pytest.raises(InvalidArgument):
            gabor(TimeSeries(np.ones(16)), [8.0], 0.0, [0.1])

    def test_centers_must_be_sample_times(self):
        with pytest.raises(InvalidArgument, match="sample times"):
            gabor(TimeSeries(np.ones(16)), [3.5], 4.0, [0.1])


class TestSinusoidFilter:
    def test_neighbor_rule_magnitude(self, rng):
        x = TimeSeries(rng.standard_normal(128))
        before = dft(x).coeffs
        after = dft(sinusoid_filter(x, 10)).coeffs
        want = 0.5 * abs(before[9] + before[11])
        assert abs(after[10]) == pytest.approx(want, abs=1e-9)

    def test_only_bin_k_changes(self, rng):
        x = TimeSeries(rng.standard_normal(128))
        before = dft(x).coeffs
        after = dft(sinusoid_filter(x, 20)).coeffs
        keep = np.ones(len(before), bool)
        keep[20] = False
        np.testing.assert_allclose(after[keep], before[keep], atol=1e-12)

    def test_sum_of_moduli_mode(self, rng):
        x = TimeSeries(rng.standard_normal(128))
        before = dft(x).coeffs
        after = dft(sinusoid_filter(x, 10, mode="sum-of-moduli")).coeffs
        want = 0.5 * (abs(before[9]) + abs(before[11]))
        assert abs(after[10]) == pytest.approx(want, abs=1e-9)

    def test_idempotent_when_neighbors_fixed(self, rng):
        x = TimeSeries(rng.standard_normal(128))
        once = sinusoid_filter(x, 10)
        twice = sinusoid_filter(once, 10)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-9)

    def test_boundary_bin_rejected(self, rng):
        x = TimeSeries(rng.standard_normal(64))
        n_bins = len(dft(x).coeffs)
        for bad in (0, n_bins - 1):
            with pytest.raises(InvalidArgument):
                sinusoid_filter(x, bad)

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
    def test_phase_is_complex_division(self, rng, scale):
        # the kept phase is bit for bit numpy's old / |old| where that is finite
        x = TimeSeries(scale * rng.standard_normal(256))
        spec = dft(x)
        c = spec.coeffs.copy()
        c[10] = 0.5 * abs(c[9] + c[11]) * (c[10] / abs(c[10]))
        want = idft(Spectrum(spec.freqs, c, spec.length, spec.step)).values
        assert np.array_equal(sinusoid_filter(x, 10).values, want)

    def test_subnormal_series(self, rng):
        x = TimeSeries(1e-310 * rng.uniform(size=512))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = sinusoid_filter(x, 10)
        assert np.all(np.isfinite(y.values))
        assert np.angle(dft(y).coeffs[10]) == pytest.approx(
            np.angle(dft(x).coeffs[10]), abs=1e-9)

    def test_unknown_mode(self, rng):
        with pytest.raises(InvalidArgument):
            sinusoid_filter(TimeSeries(rng.standard_normal(64)), 5, mode="avg")
