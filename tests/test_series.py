import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from ioscope.errors import InvalidArgument
from ioscope.series import TimeSeries, _distinct, deseasonalize_weekly, smooth

from references import ewma_loop

finite_arrays = arrays(
    np.float64,
    st.integers(min_value=1, max_value=64),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


class TestTimeSeries:
    def test_rejects_nan(self):
        with pytest.raises(InvalidArgument):
            TimeSeries([1.0, np.nan, 2.0])

    def test_rejects_inf(self):
        with pytest.raises(InvalidArgument):
            TimeSeries([1.0, np.inf])

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgument):
            TimeSeries([])

    def test_rejects_nonpositive_step(self):
        with pytest.raises(InvalidArgument):
            TimeSeries([1.0, 2.0], step=0.0)

    def test_rejects_infinite_step(self):
        with pytest.raises(InvalidArgument):
            TimeSeries([1.0, 2.0], step=math.inf)

    def test_length(self):
        assert len(TimeSeries([1.0, 2.0, 3.0])) == 3


class TestSmooth:
    def test_sma_window_one_is_identity(self):
        x = TimeSeries([1.0, 2.0, 3.0, 4.0, 5.0])
        y = smooth(x, "sma", 1)
        np.testing.assert_array_equal(y.values, x.values)

    def test_sma_width_three_center(self):
        x = TimeSeries([0.0, 3.0, 6.0])
        y = smooth(x, "sma", 3)
        assert y.values[1] == pytest.approx(3.0)
        assert np.isnan(y.values[0]) and np.isnan(y.values[2])

    def test_ewma_recursion(self):
        x = TimeSeries([0.0, 1.0])
        y = smooth(x, "ewma", 0.5)
        np.testing.assert_allclose(y.values, [0.0, 0.5])

    def test_ewma_alpha_one_is_identity(self):
        x = TimeSeries([3.0, -1.0, 7.0])
        y = smooth(x, "ewma", 1.0)
        np.testing.assert_array_equal(y.values, x.values)

    @pytest.mark.parametrize("n", [1, 2, 2 ** 14])
    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.3, 1e-3, 0.1 + 0.2])
    def test_ewma_matches_loop(self, n, alpha):
        x = TimeSeries(np.random.default_rng(n).normal(size=n) * 1e3)
        np.testing.assert_array_equal(smooth(x, "ewma", alpha).values,
                                      ewma_loop(x.values, alpha))

    def test_window_larger_than_series(self):
        with pytest.raises(InvalidArgument):
            smooth(TimeSeries([1.0, 2.0]), "sma", 5)

    def test_wma_weights_must_sum_to_one(self):
        x = TimeSeries([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(InvalidArgument):
            smooth(x, "wma", [0.5, 0.4])

    def test_wma_equal_weights_match_sma(self):
        x = TimeSeries(np.arange(10.0) ** 2)
        a = smooth(x, "wma", [1 / 3] * 3).values
        b = smooth(x, "sma", 3).values
        np.testing.assert_allclose(a, b, equal_nan=True)

    def test_sma_defined_count(self):
        x = TimeSeries(np.arange(20.0))
        for w in (1, 4, 7, 20):
            y = smooth(x, "sma", w)
            assert np.count_nonzero(~np.isnan(y.values)) == 20 - w + 1

    @given(finite_arrays, st.integers(min_value=1, max_value=8))
    def test_constant_maps_to_constant(self, vals, w):
        c = float(vals[0])
        x = TimeSeries(np.full(max(len(vals), w), c))
        y = smooth(x, "sma", w)
        defined = y.values[~np.isnan(y.values)]
        np.testing.assert_allclose(defined, c, atol=1e-9 * (1 + abs(c)))


class TestDeseasonalize:
    def test_weekly_square_wave(self):
        base = np.array([0, 0, 0, 0, 7, 7, 7], float)
        x = TimeSeries(np.tile(base, 4))
        y = deseasonalize_weekly(x)
        defined = y.values[~np.isnan(y.values)]
        np.testing.assert_allclose(defined, base.mean())

    def test_constant(self):
        y = deseasonalize_weekly(TimeSeries(np.full(14, 2.5)))
        np.testing.assert_allclose(y.values[~np.isnan(y.values)], 2.5)

    def test_ramp_passthrough(self):
        t = np.arange(28.0)
        y = deseasonalize_weekly(TimeSeries(t))
        defined = ~np.isnan(y.values)
        np.testing.assert_allclose(y.values[defined], t[defined])

    def test_too_short(self):
        with pytest.raises(InvalidArgument):
            deseasonalize_weekly(TimeSeries([1.0] * 6))


class TestWithValues:
    def test_undefined_samples_only_when_allowed(self):
        x = TimeSeries([1.0, 2.0, 3.0], step=0.5, label="x")
        y = x.with_values([np.nan, 1.0, np.nan], allow_undefined=True)
        assert (y.step, y.label) == (0.5, "x")
        assert np.isnan(y.values[[0, 2]]).all() and y.values[1] == 1.0
        assert x.with_values([4.0, 5.0], label="y").label == "y"
        with pytest.raises(InvalidArgument):
            x.with_values([np.nan, 1.0])
        for bad in ([np.inf, 1.0], [], [[1.0]]):
            with pytest.raises(InvalidArgument):
                x.with_values(bad, allow_undefined=True)


class TestDistinct:
    @given(arrays(np.float64, st.integers(min_value=0, max_value=40),
                  elements=st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1.0, 1e300])))
    def test_matches_unique_on_floats(self, xs):
        got, want = _distinct(xs), np.unique(xs)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @given(arrays(np.int64, st.integers(min_value=0, max_value=40),
                  elements=st.integers(min_value=-5, max_value=5)))
    def test_matches_unique_on_ints(self, xs):
        got, want = _distinct(xs), np.unique(xs)
        assert got.dtype == want.dtype and np.array_equal(got, want)
