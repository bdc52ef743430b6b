import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ioscope.correlation import autocorrelation, cross_correlation, cross_covariance
from ioscope.errors import DegenerateVariance, InvalidArgument
from ioscope.series import TimeSeries
from ioscope.templates import Template, correlation_diagram

from references import gamma_xy


def pearson(a, b):
    a = a - a.mean()
    b = b - b.mean()
    return float(a @ b / np.sqrt((a @ a) * (b @ b)))


class TestCrossCorrelation:
    def test_self_at_zero_lag(self, noise_series):
        curve = cross_correlation(noise_series, noise_series, 5)
        i = list(curve.lags).index(0)
        assert curve.values[i] == pytest.approx(1.0)
        assert np.argmax(curve.values) == i

    def test_detects_shift(self, rng):
        base = rng.standard_normal(600)
        x = TimeSeries(base[:500])
        y = TimeSeries(np.concatenate([np.zeros(3), base[:497]]))
        curve = cross_correlation(x, y, 10)
        best = curve.lags[int(np.argmax(curve.values))]
        assert best == 3
        assert max(curve.values) >= 0.99

    def test_swap_symmetry(self, rng):
        x = TimeSeries(rng.standard_normal(128))
        y = TimeSeries(rng.standard_normal(128))
        a = cross_correlation(x, y, 7)
        b = cross_correlation(y, x, 7)
        np.testing.assert_allclose(a.values, b.values[::-1], atol=1e-12)

    def test_bounded(self, rng):
        x = TimeSeries(rng.standard_normal(200))
        y = TimeSeries(rng.standard_normal(200))
        curve = cross_correlation(x, y, 40)
        assert np.all(np.abs(curve.values) <= 1 + 1e-9)

    def test_constant_input_rejected(self, noise_series):
        with pytest.raises(DegenerateVariance):
            cross_correlation(noise_series, TimeSeries(np.ones(512)), 3)

    def test_self_normalization_rejects_zero_lag0(self):
        x = TimeSeries(np.array([1.0, -1, 1, -1, 0, 0, 0, 0]))
        y = TimeSeries(np.array([1.0, 1, -1, -1, 0, 0, 0, 0]))
        with pytest.raises(DegenerateVariance):
            cross_correlation(x, y, 3, normalization="self")

    def test_length_mismatch(self, rng):
        with pytest.raises(InvalidArgument):
            cross_correlation(TimeSeries(rng.standard_normal(64)),
                              TimeSeries(rng.standard_normal(65)), 3)

    def test_huge_values_scale_exactly(self, rng):
        x = TimeSeries(rng.standard_normal(300))
        y = TimeSeries(np.roll(x.values, 4))
        want = cross_correlation(x, y, 20).values
        with np.errstate(all="raise"):
            got = cross_correlation(x.with_values(x.values * 1e300),
                                    y.with_values(y.values * 2.0 ** -900), 20)
        assert got.argmax_lag == 4
        np.testing.assert_allclose(got.values, want, rtol=1e-12, atol=1e-15)


class TestAutocorrelation:
    def test_huge_values_scale_exactly(self, noise_series):
        big = noise_series.with_values(noise_series.values * 2.0 ** 600)
        with np.errstate(all="raise"):
            got = autocorrelation(big).values
        np.testing.assert_array_equal(got, autocorrelation(noise_series).values)

    def test_lag_zero_is_one(self, noise_series):
        curve = autocorrelation(noise_series)
        assert curve.values[0] == pytest.approx(1.0)

    def test_default_max_lag(self, noise_series):
        curve = autocorrelation(noise_series)
        assert curve.lags[-1] == len(noise_series) // 4

    def test_se_band(self, noise_series):
        curve = autocorrelation(noise_series)
        assert curve.se_band == pytest.approx(1 / np.sqrt(512))

    def test_white_noise_band_coverage(self):
        x = TimeSeries(np.random.default_rng(7).standard_normal(1000))
        curve = autocorrelation(x, 50)
        vals = np.asarray(curve.values[1:51])
        frac = np.mean(np.abs(vals) > 2 / np.sqrt(1000))
        assert frac <= 0.10

    def test_trend_decays_slowly(self):
        curve = autocorrelation(TimeSeries(np.arange(365.0)), 20)
        assert curve.values[10] > 0.5

    def test_constant_rejected(self):
        with pytest.raises(DegenerateVariance):
            autocorrelation(TimeSeries(np.ones(64)))


@st.composite
def lag_cases(draw):
    """Two series of one length T >= 8 (noise, counts or a trend, drawn
    from a seed) and a max_lag, with 0 and T - 1 among the choices."""
    T = draw(st.sampled_from([8, 9, 10, 33, 100, 257]))
    max_lag = draw(st.one_of(st.just(0), st.just(T - 1),
                             st.integers(0, T - 1)))
    kind = draw(st.sampled_from(["noise", "counts", "trend"]))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "noise":
        x, y = gen.standard_normal((2, T)) * draw(st.sampled_from([1e-3, 1.0, 1e4]))
    elif kind == "counts":
        x, y = gen.poisson(5.0, (2, T)).astype(float)
    else:
        x, y = np.arange(T) * 0.5 + gen.standard_normal((2, T))
    x[0] += 1.0  # never constant
    y[-1] -= 1.0
    return x, y, max_lag


def covariance_loop(x, y, max_lag):
    return np.array([gamma_xy(x, y, k) for k in range(-max_lag, max_lag + 1)])


def covariance_scale(x, y):
    """sqrt(gamma_xx(0) gamma_yy(0)), which bounds every |gamma_xy(k)|: the
    scale of the FFT's rounding, where max |value| may be 0 (an exactly
    uncorrelated pair at max_lag = 0)."""
    return np.sqrt(gamma_xy(x, x, 0) * gamma_xy(y, y, 0))


class TestLagSumsOracle:
    """The FFT lag sums against the direct per-lag sum."""

    @settings(max_examples=150, deadline=None)
    @given(lag_cases())
    def test_cross_covariance(self, case):
        x, y, max_lag = case
        got = cross_covariance(TimeSeries(x), TimeSeries(y), max_lag)
        want = covariance_loop(x, y, max_lag)
        np.testing.assert_array_equal(got.lags, np.arange(-max_lag, max_lag + 1))
        np.testing.assert_allclose(got.values, want, rtol=0,
                                   atol=1e-12 * covariance_scale(x, y))

    @settings(max_examples=150, deadline=None)
    @given(lag_cases())
    def test_cross_correlation(self, case):
        x, y, max_lag = case
        cov = covariance_loop(x, y, max_lag)
        got = cross_correlation(TimeSeries(x), TimeSeries(y), max_lag)
        want = cov / covariance_scale(x, y)
        np.testing.assert_allclose(got.values, want, rtol=0, atol=1e-12)
        lag0 = gamma_xy(x, y, 0)
        if abs(lag0) > 1e-3 * covariance_scale(x, y):
            got = cross_correlation(TimeSeries(x), TimeSeries(y), max_lag,
                                    normalization="self")
            want = cov / lag0
            np.testing.assert_allclose(got.values, want, rtol=0,
                                       atol=1e-12 * np.max(np.abs(want)))

    @settings(max_examples=150, deadline=None)
    @given(lag_cases())
    def test_autocorrelation(self, case):
        x, _, max_lag = case
        got = autocorrelation(TimeSeries(x), max_lag)
        want = covariance_loop(x, x, max_lag)[max_lag:] / gamma_xy(x, x, 0)
        assert got.values[0] == 1.0
        np.testing.assert_array_equal(got.lags, np.arange(max_lag + 1))
        np.testing.assert_allclose(got.values, want, rtol=0, atol=1e-12)

    def test_sizes_and_extreme_lags(self, rng):
        for T in (8, 9, 100, 1024, 16384):
            x, y = rng.standard_normal((2, T))
            for max_lag in {0, 1, T // 4, T - 1}:
                if T > 1024 and max_lag > T // 4:
                    continue  # the direct sum is O(T * max_lag)
                want = covariance_loop(x, y, max_lag)
                got = cross_covariance(TimeSeries(x), TimeSeries(y), max_lag)
                np.testing.assert_allclose(got.values, want, rtol=0,
                                           atol=1e-12 * covariance_scale(x, y))
                acf = autocorrelation(TimeSeries(x), max_lag).values
                assert acf[0] == 1.0
                np.testing.assert_allclose(
                    acf, covariance_loop(x, x, max_lag)[max_lag:] / gamma_xy(x, x, 0),
                    rtol=0, atol=1e-12)


class TestPatternCorrelationField:
    def test_window_copy_scores_one(self, rng):
        vals = rng.standard_normal(60)
        pat = Template(tuple(vals[10:20]), "win", ())
        fld = correlation_diagram(TimeSeries(vals), pat, [10])
        assert fld.cells[0, 10] == pytest.approx(1.0)

    def test_negated_window_scores_minus_one(self, rng):
        vals = rng.standard_normal(60)
        pat = Template(tuple(-vals[10:20]), "neg", ())
        fld = correlation_diagram(TimeSeries(vals), pat, [10])
        assert fld.cells[0, 10] == pytest.approx(-1.0)

    def test_matches_pearson_oracle(self, rng):
        vals = rng.standard_normal(50)
        x = TimeSeries(vals)
        pat_vals = rng.standard_normal(8)
        pat = Template(tuple(pat_vals), "p", ())
        fld = correlation_diagram(x, pat, [8])
        for l in range(50 - 8 + 1):
            assert fld.cells[0, l] == pytest.approx(
                pearson(vals[l:l + 8], pat_vals), abs=1e-12)

    def test_affine_pattern_invariance(self, rng):
        vals = rng.standard_normal(50)
        x = TimeSeries(vals)
        pat_vals = rng.standard_normal(8)
        a = correlation_diagram(x, Template(tuple(pat_vals), "p", ()), [8])
        b = correlation_diagram(
            x, Template(tuple(3.0 * pat_vals + 5.0), "q", ()), [8])
        np.testing.assert_allclose(a.cells[a.mask], b.cells[b.mask], atol=1e-12)

    def test_empty_k_range(self, noise_series):
        pat = Template((1.0, 2.0, 3.0), "p", ())
        with pytest.raises(InvalidArgument):
            correlation_diagram(noise_series, pat, [])

    def test_out_of_range_windows_masked(self, rng):
        vals = rng.standard_normal(20)
        pat = Template(tuple(rng.standard_normal(6)), "p", ())
        fld = correlation_diagram(TimeSeries(vals), pat, [6])
        assert not fld.mask[0, 15:].any()
        assert fld.mask[0, :15].all()
