import numpy as np
import pytest
from scipy.integrate import quad

from ioscope.errors import InvalidArgument, UnsupportedWavelet
from ioscope.series import TimeSeries, _correlate, _fast_len
from ioscope.wavelet import (_smooth_local, cwt, default_scale_grid,
                             get_wavelet, icwt, scalogram, wavelet_coherence,
                             wcc_measure)

from references import (cwt_direct, smooth_local_convolve,
                        wavelet_constants_loop)

ALL_NAMES = ["gaussian-wave", "mexican-hat", "haar", "morlet"]


def band_limited_signal(n=256):
    """Smooth band-limited test signal with decaying edges."""
    t = np.arange(float(n))
    env = np.exp(-((t - n / 2) ** 2) / (2 * (n / 8) ** 2))
    return TimeSeries(env * (np.sin(2 * np.pi * t / 24)
                             + 0.5 * np.sin(2 * np.pi * t / 40)))


class TestWaveletFunctions:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_finite_energy(self, name):
        w = get_wavelet(name)
        energy, _ = quad(lambda t: abs(w.evaluate(np.array([t]))[0]) ** 2,
                         -w.support, w.support, limit=200)
        assert 0 < energy < np.inf

    @pytest.mark.parametrize("name", ["gaussian-wave", "mexican-hat", "haar"])
    def test_zero_mean(self, name):
        w = get_wavelet(name)
        integral, _ = quad(lambda t: w.evaluate(np.array([t]))[0].real,
                           -w.support, w.support, limit=200,
                           points=[-w.support / 2, 0.0, w.support / 2])
        assert abs(integral) < 1e-6

    def test_unknown_name(self):
        with pytest.raises(InvalidArgument):
            get_wavelet("shannon")

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_one_instance_per_name(self, name):
        assert get_wavelet(name) is get_wavelet(name)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_constants_match_spectrum_sums(self, name):
        w = get_wavelet(name)
        assert (w.admissibility, w.center_frequency) == wavelet_constants_loop(w)

    def test_admissibility_positive(self):
        for name in ALL_NAMES:
            assert get_wavelet(name).admissibility > 0

    def test_default_scale_grid(self, rng):
        x = TimeSeries(rng.standard_normal(400))
        grid = default_scale_grid(x)
        assert len(grid) == 64
        assert grid[0] == pytest.approx(2.0)
        assert grid[-1] == pytest.approx(100.0)
        assert np.all(np.diff(grid) > 0)


def correlate_direct(k, x, lo, count):
    """sum_i conj(k[i]) x[i + j] for j = lo .. lo + count - 1 from
    np.correlate's full output, 0 at lags where k and x do not overlap."""
    full = np.correlate(x, k, "full")  # lags -(len(k) - 1) .. len(x) - 1
    j = np.arange(lo, lo + count) + k.size - 1
    inside = (j >= 0) & (j < full.size)
    return np.where(inside, full[np.clip(j, 0, full.size - 1)], 0)


class TestCorrelate:
    """The FFT correlation is np.correlate at every requested lag, with 0
    where the two sides do not overlap."""

    @pytest.mark.parametrize("n_x, n_k", [(64, 9), (64, 10), (20, 129),
                                          (7, 8), (1, 1)])
    @pytest.mark.parametrize("complex_side", [None, "x", "kern"])
    @pytest.mark.parametrize("window", ["transform", "negative lo", "partial count"])
    def test_matches_np_correlate(self, n_x, n_k, complex_side, window, rng):
        x, kern = rng.standard_normal(n_x), rng.standard_normal(n_k)
        if complex_side == "x":
            x = x + 1j * rng.standard_normal(n_x)
        elif complex_side == "kern":
            kern = kern + 1j * rng.standard_normal(n_k)
        if window == "transform":  # the len(x) lags centred on the kernel
            lo, count = -(n_k // 2), n_x
        elif window == "negative lo":  # every lag with a sum, zeros past both ends
            lo, count = -(n_k + 3), n_x + 2 * n_k + 5
        else:
            lo, count = n_x // 3, max(1, n_x // 2)
        want = correlate_direct(kern, x, lo, count)
        got = _correlate(kern, x, lo, count)
        assert got.shape == want.shape
        assert np.iscomplexobj(got) == (complex_side is not None)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("complex_side", [None, "x", "kern"])
    def test_two_dimensional_x_row_by_row(self, complex_side, rng):
        x, kern = rng.standard_normal((3, 40)), rng.standard_normal(11)
        if complex_side == "x":
            x = x + 1j * rng.standard_normal(x.shape)
        elif complex_side == "kern":
            kern = kern + 1j * rng.standard_normal(kern.shape)
        got = _correlate(kern, x, -20, 45)
        want = np.array([correlate_direct(kern, row, -20, 45) for row in x])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_padded_length_is_the_least_5_smooth(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1
        for n in range(1, 2000):
            assert _fast_len(n) == next(m for m in range(n, 2 * n + 1) if smooth(m))

    @pytest.mark.parametrize("is_complex", [False, True])
    def test_k_is_x(self, is_complex, rng):
        x = rng.standard_normal(50)
        if is_complex:
            x = x + 1j * rng.standard_normal(50)
        got = _correlate(x, x, -49, 99)
        want = correlate_direct(x, x.copy(), -49, 99)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestCwt:
    def test_zero_series(self):
        fld = cwt(TimeSeries(np.zeros(64)), get_wavelet("mexican-hat"),
                  [2.0, 4.0, 8.0])
        assert fld.kind == "cwt"
        np.testing.assert_allclose(np.abs(fld.cells), 0.0, atol=1e-14)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_matches_direct_quadrature(self, name, rng):
        x = TimeSeries(rng.standard_normal(128))
        w = get_wavelet(name)
        scales = [2.0, 5.0, 11.0]
        fast = cwt(x, w, scales)
        slow = cwt_direct(x, w, scales)
        np.testing.assert_allclose(fast.cells, slow.cells, atol=1e-6)

    def test_two_sinusoid_bands(self):
        t = np.arange(1024.0)
        x = TimeSeries(np.sin(2 * np.pi * t / 16) + np.sin(2 * np.pi * t / 96))
        w = get_wavelet("mexican-hat")
        scales = np.geomspace(2, 64, 40)
        e = np.sum(np.abs(cwt(x, w, scales).cells) ** 2, axis=1)
        peaks = [i for i in range(1, len(e) - 1)
                 if e[i] > e[i - 1] and e[i] > e[i + 1]
                 and e[i] > 0.05 * e.max()]
        assert len(peaks) == 2
        got = sorted(w.pseudo_period(scales[i]) for i in peaks)
        assert abs(got[0] - 16) / 16 < 0.15
        assert abs(got[1] - 96) / 96 < 0.15

    def test_linearity(self, rng):
        a = rng.standard_normal(100)
        b = rng.standard_normal(100)
        w = get_wavelet("morlet")
        scales = [3.0, 6.0]
        lhs = cwt(TimeSeries(2 * a + 3 * b), w, scales).cells
        rhs = (2 * cwt(TimeSeries(a), w, scales).cells
               + 3 * cwt(TimeSeries(b), w, scales).cells)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_constant_series_vanishing(self):
        x = TimeSeries(np.full(256, 7.0))
        fld = cwt(x, get_wavelet("mexican-hat"), [4.0])
        interior = np.abs(fld.cells[0, 64:192])
        assert interior.max() < 1e-6

    def test_empty_scales(self, rng):
        with pytest.raises(InvalidArgument):
            cwt(TimeSeries(rng.standard_normal(64)),
                get_wavelet("mexican-hat"), [])

    def test_morlet_cells_complex(self, rng):
        fld = cwt(TimeSeries(rng.standard_normal(64)),
                  get_wavelet("morlet"), [4.0])
        assert np.iscomplexobj(fld.cells)


class TestIcwt:
    def test_zero_field(self):
        w = get_wavelet("mexican-hat")
        fld = cwt(TimeSeries(np.zeros(128)), w, np.geomspace(0.5, 64, 48))
        y = icwt(fld, w)
        np.testing.assert_allclose(y.values, 0.0, atol=1e-12)

    @pytest.mark.parametrize("name,scales", [
        ("gaussian-wave", None), ("mexican-hat", None),
        ("morlet", "coarse"),
    ])
    def test_round_trip(self, name, scales):
        x = band_limited_signal()
        w = get_wavelet(name)
        grid = (np.geomspace(2.0, 512.0, 96) if scales == "coarse"
                else np.geomspace(0.5, 512.0, 96))
        y = icwt(cwt(x, w, grid), w)
        err = np.linalg.norm(y.values - x.values) / np.linalg.norm(x.values)
        assert err <= 5e-2

    def test_linearity(self, rng):
        w = get_wavelet("gaussian-wave")
        grid = np.geomspace(0.5, 128, 64)
        f = cwt(TimeSeries(rng.standard_normal(128)), w, grid)
        g = cwt(TimeSeries(rng.standard_normal(128)), w, grid)
        mixed = f.__class__(f.rows, f.cols, 2 * f.cells + 3 * g.cells, f.kind)
        lhs = icwt(mixed, w).values
        rhs = 2 * icwt(f, w).values + 3 * icwt(g, w).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_haar_not_invertible(self):
        w = get_wavelet("haar")
        fld = cwt(TimeSeries(np.sin(np.arange(128.0))), w,
                  np.geomspace(2, 32, 40))
        with pytest.raises(UnsupportedWavelet):
            icwt(fld, w)


class TestScalogram:
    def test_cells_are_squared_moduli(self, rng):
        w = get_wavelet("morlet")
        fld = cwt(TimeSeries(rng.standard_normal(128)), w, [3.0, 9.0])
        sg = scalogram(fld)
        assert sg.kind == "scalogram"
        np.testing.assert_array_equal(sg.cells, np.abs(fld.cells) ** 2)
        assert np.all(sg.cells >= 0)

    def test_energy_peak_at_matching_period(self):
        t = np.arange(1024.0)
        period = 32.0
        x = TimeSeries(np.sin(2 * np.pi * t / period))
        w = get_wavelet("morlet")
        scales = np.geomspace(2, 128, 80)
        e = np.sum(np.abs(cwt(x, w, scales).cells) ** 2, axis=1)
        best = w.pseudo_period(scales[int(np.argmax(e))])
        assert abs(best - period) / period < 0.10


class TestWccMeasure:
    def test_self_is_one(self, rng):
        w = get_wavelet("morlet")
        f = cwt(TimeSeries(rng.standard_normal(256)), w, [4.0, 8.0, 16.0])
        np.testing.assert_allclose(wcc_measure(f, f), 1.0, atol=1e-9)

    def test_bounded_by_one(self, rng):
        w = get_wavelet("morlet")
        scales = [4.0, 8.0, 16.0]
        f = cwt(TimeSeries(rng.standard_normal(256)), w, scales)
        g = cwt(TimeSeries(rng.standard_normal(256)), w, scales)
        assert np.all(wcc_measure(f, g) <= 1 + 1e-9)

    def test_phase_shifted_tones_correlated(self):
        t = np.arange(512.0)
        w = get_wavelet("morlet")
        scales = np.geomspace(4, 64, 24)
        f = cwt(TimeSeries(np.sin(2 * np.pi * t / 32)), w, scales)
        g = cwt(TimeSeries(2.0 * np.sin(2 * np.pi * t / 32 + 1.1)), w, scales)
        vals = wcc_measure(f, g)
        # scale row closest to the tone's pseudo-period
        row = int(np.argmin([abs(w.pseudo_period(s) - 32) for s in scales]))
        assert vals[row] >= 0.9


class TestWaveletCoherence:
    def test_identical_fields(self, rng):
        w = get_wavelet("morlet")
        f = cwt(TimeSeries(rng.standard_normal(128)), w, [4.0, 8.0, 16.0])
        out = wavelet_coherence(f, f)
        np.testing.assert_allclose(out.cells[out.mask], 1.0, atol=1e-9)
        assert out.kind == "coherence"

    def test_range_and_noise_level(self):
        gen = np.random.default_rng(7)
        w = get_wavelet("morlet")
        scales = np.geomspace(8, 96, 10)
        f = cwt(TimeSeries(gen.standard_normal(1024)), w, scales)
        g = cwt(TimeSeries(gen.standard_normal(1024)), w, scales)
        out = wavelet_coherence(f, g)
        vals = out.cells[out.mask]
        assert vals.min() >= -1e-9
        assert vals.max() <= 1 + 1e-9
        assert vals.mean() <= 0.5


class TestCoherenceSmoothing:
    @pytest.mark.parametrize("name", ["mexican-hat", "morlet"])
    @pytest.mark.parametrize("part", ["power", "cross"])
    @pytest.mark.parametrize("widths", [None, "explicit"])
    def test_prefix_sums_match_fft_boxcars(self, rng, name, part, widths):
        w = get_wavelet(name)
        scales = np.geomspace(2, 80, 17)
        f = cwt(TimeSeries(rng.standard_normal(300)), w, scales)
        g = cwt(TimeSeries(rng.standard_normal(300)), w, scales)
        cells = np.abs(f.cells) ** 2 if part == "power" else np.conj(f.cells) * g.cells
        tw = None if widths is None else rng.integers(1, 301, scales.size)
        got = _smooth_local(cells, scales, 1.0, tw)
        want = smooth_local_convolve(cells, scales, 1.0, tw)
        assert got.dtype == want.dtype
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(cells))

    @pytest.mark.parametrize("scale_width", [1, 2, 3, 5])
    def test_scale_widths_match(self, rng, scale_width):
        cells = rng.standard_normal((9, 40))
        scales = np.arange(1.0, 10.0)
        got = _smooth_local(cells, scales, 1.0, scale_width=scale_width)
        want = smooth_local_convolve(cells, scales, 1.0, scale_width=scale_width)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad", [[4, 4], [4, 0, 4], [4, -2, 4], 4])
    def test_time_widths_one_positive_width_per_scale(self, rng, bad):
        w = get_wavelet("morlet")
        f = cwt(TimeSeries(rng.standard_normal(64)), w, [2.0, 4.0, 8.0])
        with pytest.raises(InvalidArgument):
            wavelet_coherence(f, f, time_widths=bad)

    def test_time_widths_wider_than_grid_rejected(self, rng):
        w = get_wavelet("morlet")
        f = cwt(TimeSeries(rng.standard_normal(64)), w, [2.0, 4.0, 8.0])
        with pytest.raises(InvalidArgument):
            wavelet_coherence(f, f, time_widths=[4, 65, 4])

    def test_explicit_widths_identical_fields(self, rng):
        w = get_wavelet("morlet")
        f = cwt(TimeSeries(rng.standard_normal(64)), w, [2.0, 4.0, 8.0])
        out = wavelet_coherence(f, f, time_widths=[1, 7, 64])
        np.testing.assert_allclose(out.cells[out.mask], 1.0, atol=1e-9)
