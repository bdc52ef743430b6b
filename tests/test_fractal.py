import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ioscope import fractal
from ioscope.errors import (DegenerateSignal, DegenerateVariance,
                            InsufficientScales, InsufficientStructure,
                            InvalidArgument, IoscopeError)
from ioscope.fractal import (MultifractalResult, delta_l_field, find_skeleton,
                             hurst_profile, hurst_rs, mfdfa, wavelet_leaders,
                             wtmm)
from ioscope.series import TimeSeries
from ioscope.wavelet import cwt, get_wavelet

from references import (_segment_rs, binomial_cascade, binomial_cascade_tau,
                        brownian, mfdfa_loop, wavelet_leaders_loop, wtmm_loop)

Q_GRID = np.arange(-4.0, 4.01, 0.5)


class TestBrownian:
    def test_starts_at_zero(self):
        assert brownian(100, seed=1).values[0] == 0.0

    def test_increment_variance(self):
        incr = np.diff(brownian(10000, seed=2).values)
        assert abs(incr.var() - 1.0) < 0.1

    def test_seed_determinism(self):
        a = brownian(500, seed=3)
        b = brownian(500, seed=3)
        np.testing.assert_array_equal(a.values, b.values)


class TestBinomialCascade:
    def test_length_and_positivity(self):
        x = binomial_cascade(10, p=0.3)
        assert len(x) == 1024
        assert np.all(x.values > 0)

    def test_mass_conservation(self):
        x = binomial_cascade(10, p=0.3)
        assert x.values.sum() == pytest.approx(1.0)

    def test_analytic_tau_endpoints(self):
        tau = binomial_cascade_tau([0.0, 1.0], p=0.3)
        np.testing.assert_allclose(tau, [-1.0, 0.0], atol=1e-12)

    def test_invalid_p(self):
        with pytest.raises(InvalidArgument):
            binomial_cascade(8, p=0.0)


class TestHurst:
    def test_monotone_ramp_persistent(self):
        res = hurst_rs(TimeSeries(np.arange(1024.0)))
        assert res.exponent > 0.9

    def test_affine_invariance(self, rng):
        x = rng.standard_normal(512)
        h0 = hurst_rs(TimeSeries(x)).exponent
        h1 = hurst_rs(TimeSeries(3.5 * x + 100.0)).exponent
        assert h1 == pytest.approx(h0, abs=1e-12)

    def test_constant_rejected(self):
        with pytest.raises(DegenerateVariance):
            hurst_rs(TimeSeries(np.ones(512)))

    def test_fit_points_recorded(self, rng):
        res = hurst_rs(TimeSeries(rng.standard_normal(1024)))
        assert len(res.window_sizes) >= 4
        assert len(res.rs_values) == len(res.window_sizes)

    def test_constant_segments_do_not_count(self):
        # the ladder on 256 samples is 8, 10, 12, 14, 17, 20, 24, 29, 35,
        # 42, 51, 61, 74, 88, 106, 128; 29 is a multiple of no other
        # width, so the step from 0.3 to 0.9 at sample 29 lies inside a
        # segment of every width but 29. Each width-29 segment is a run
        # of 0.3 or of 0.9, whose rounded std is above 0 but whose max
        # is its min
        vals = np.r_[np.full(29, 0.3), np.full(227, 0.9)]
        assert np.full(29, 0.3).std() > 0 and np.full(29, 0.9).std() > 0
        with pytest.raises(DegenerateSignal, match="window size 29"):
            hurst_rs(TimeSeries(vals))

    def test_white_noise_near_half(self):
        hs = [hurst_rs(TimeSeries(
            np.random.default_rng(s).standard_normal(2048))).exponent
            for s in range(5)]
        assert abs(np.mean(hs) - 0.5) < 0.12


class TestHurstProfile:
    def test_stationary_noise_stable(self):
        x = TimeSeries(np.random.default_rng(11).standard_normal(2048))
        prof = hurst_profile(x)
        half = prof.values[len(prof) // 2:]
        assert half.max() - half.min() <= 0.2

    def test_minimum_prefix(self, rng):
        prof = hurst_profile(TimeSeries(rng.standard_normal(256)))
        assert len(prof) == 256
        assert np.isnan(prof.values[:31]).all()
        assert np.isfinite(prof.values[31:]).all()

    def test_burst_lowers_profile(self):
        gen = np.random.default_rng(13)
        calm = np.cumsum(gen.standard_normal(512)) * 0.1
        burst = calm[-1] + np.cumsum(
            gen.choice([-25.0, 25.0], size=512))
        prof = hurst_profile(TimeSeries(np.concatenate([calm, burst])))
        n = len(prof)
        before = np.nanmean(prof.values[:n // 3])
        after = np.nanmean(prof.values[-n // 4:])
        assert after < before


def reference_hurst_profile(x):
    """One full hurst_rs call per prefix of 32 samples or more, nan where
    it raises."""
    vals = np.asarray(x.values, dtype=float)
    out = np.full(vals.size, np.nan)
    for t in range(32, vals.size + 1):
        try:
            out[t - 1] = hurst_rs(TimeSeries(vals[:t])).exponent
        except (InsufficientScales, DegenerateSignal, DegenerateVariance):
            pass
    return out


def reference_delta_l_field(vals, max_window):
    """Every window of every size materialised, residual from the
    centred window and its least-squares slope."""
    n = vals.size
    sizes = np.arange(3, max_window + 1)
    cells = np.full((sizes.size, n), np.nan)
    mask = np.zeros((sizes.size, n), dtype=bool)
    for r, s in enumerate(sizes):
        win = np.lib.stride_tricks.sliding_window_view(vals, s)
        t = np.arange(s, dtype=float)
        tc = t - t.mean()
        wc = win - win.mean(axis=1, keepdims=True)
        slope = (wc @ tc) / float(tc @ tc)
        resid = wc - slope[:, None] * tc[None, :]
        centers = np.arange(win.shape[0]) + s // 2
        cells[r, centers] = np.sqrt(np.mean(resid * resid, axis=1))
        mask[r, centers] = True
    return cells, mask


# the Brownian oracle series times 2**power: squares of the tiny one
# underflow and those of the huge one overflow without unit scaling
SCALED_BROWNIAN = {"brownian-tiny": -600, "brownian-huge": 560}


def oracle_series(kind, n):
    gen = np.random.default_rng(21)
    t = np.arange(float(n))
    if kind == "poisson":
        return gen.poisson(4.0 + 3.0 * np.sin(t / 17.0)).astype(float)
    if kind == "brownian":
        return np.cumsum(gen.standard_normal(n))
    if kind in SCALED_BROWNIAN:
        return np.ldexp(oracle_series("brownian", n), SCALED_BROWNIAN[kind])
    if kind == "offset-trend":
        return 1e6 + 0.5 * t + gen.normal(0.0, 1e-3, n)
    if kind == "line":
        return 2.0 * t + 5.0
    if kind == "spiky":
        return np.where(gen.random(n) < 0.03, 1e6, gen.standard_normal(n))
    if kind == "sparse":
        return gen.poisson(0.05, n).astype(float)
    if kind == "constant-lead":
        # a run of 0.3 has a rounded std above 0; its segments count for
        # no window size, since their max is their min
        return np.concatenate([np.full(n // 3, 0.3),
                               gen.standard_normal(n - n // 3)])
    raise ValueError(kind)


def assert_profile_matches_reference(x):
    want = reference_hurst_profile(x)
    got = hurst_profile(x).values
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    assert ok.any()
    np.testing.assert_allclose(got[ok], want[ok], rtol=0, atol=1e-12)
    return want


class TestHurstProfileOracle:
    @pytest.mark.parametrize("kind", ["poisson", "brownian", "sparse",
                                      "constant-lead"])
    def test_matches_per_prefix_hurst_rs(self, kind):
        assert_profile_matches_reference(TimeSeries(oracle_series(kind, 300)))

    @pytest.mark.parametrize("kind,n", [
        ("poisson", 32), ("poisson", 47), ("spiky", 150),
        ("constant-lead", 150)])
    def test_other_kinds_and_lengths(self, kind, n):
        assert_profile_matches_reference(TimeSeries(oracle_series(kind, n)))

    def test_nan_where_a_window_size_is_all_constant(self):
        # one spike at 45: prefixes from t = 46 on are not constant, but
        # stay nan until each ladder size has a whole segment holding it
        vals = np.zeros(200)
        vals[45] = 1.0
        want = assert_profile_matches_reference(TimeSeries(vals))
        assert np.isnan(want[45:65]).all() and np.isfinite(want[65:]).all()

    def test_nan_where_a_window_size_has_only_constant_runs(self):
        # up to t = 135 every whole segment of some ladder width lies in
        # the leading run of 0.3 (the first 100 samples); counting those
        # segments by their rounded std gave t = 114-117, 120-125 and
        # 128-135 exponents of 0.8-1.3 from rounding residue
        got = hurst_profile(TimeSeries(oracle_series("constant-lead", 300)))
        assert np.isnan(got.values[:135]).all()
        assert np.isfinite(got.values[135:]).all()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_reference_on_counts_and_runs(self, data):
        n = data.draw(st.integers(32, 400), label="n")
        gen = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        pieces = []
        while sum(map(len, pieces)) < n:
            size = data.draw(st.integers(1, 150))
            if data.draw(st.booleans()):
                pieces.append(gen.poisson(data.draw(st.sampled_from(
                    [0.2, 3.0, 40.0])), size).astype(float))
            else:
                pieces.append(np.full(size, data.draw(st.sampled_from(
                    [0.3, 0.1, 1.0 / 3.0, 2.2]))))
        vals = np.concatenate(pieces)[:n]
        x = TimeSeries(vals)
        want = reference_hurst_profile(x)
        got = hurst_profile(x).values
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        ok = ~np.isnan(want)
        np.testing.assert_allclose(got[ok], want[ok], rtol=0, atol=1e-12)

    def test_does_not_call_hurst_rs(self, monkeypatch, rng):
        def refuse(*args, **kwargs):
            raise AssertionError("hurst_rs called")
        monkeypatch.setattr(fractal, "hurst_rs", refuse)
        assert np.isfinite(hurst_profile(TimeSeries(rng.standard_normal(128)))
                           .values[-1])


class TestSegmentRS:
    @pytest.mark.parametrize("budget,n", [(37, 500),
                                          (fractal._RS_CHUNK, 12_000)])
    def test_matches_per_width_reference(self, monkeypatch, budget, n):
        # the widths' segments fill many chunks, so some widths straddle a
        # chunk edge; every width's segments together exceed the budget,
        # and at budget 37 a segment of width 40 or more does alone
        monkeypatch.setattr(fractal, "_RS_CHUNK", budget)
        gen = np.random.default_rng(5)
        vals = gen.poisson(3.0, n).astype(float)
        vals[n // 3: n // 3 + 60] = 0.3
        widths = np.array([2, 3, 7, 11, 40, 41, 97, n // 3, n // 2])
        assert (n // widths) @ widths > 2 * budget
        assert (n // widths * widths > budget).all()
        ratio, ok, off = fractal._rs_segments(vals, widths)
        np.testing.assert_array_equal(off, np.r_[0, np.cumsum(n // widths)])
        for i, w in enumerate(widths):
            want_ratio, want_ok = _segment_rs(vals, w)
            np.testing.assert_array_equal(ok[off[i]: off[i + 1]], want_ok)
            np.testing.assert_allclose(ratio[off[i]: off[i + 1]], want_ratio,
                                       rtol=1e-12, atol=0)
        assert not ok.all() and ok.any()

    def test_segment_whose_std_underflows_does_not_count(self):
        # the second segment is not constant, but its squared deviations
        # (2.5e-601) underflow to 0
        vals = np.r_[0.75, np.zeros(7), np.tile([1e-300, 2e-300], 4)]
        with np.errstate(divide="raise", invalid="raise"):
            ratio, ok, _ = fractal._rs_segments(vals, np.array([8]))
        assert ok.tolist() == [True, False] and ratio[1] == 0.0


class TestDeltaLFieldOracle:
    @pytest.mark.parametrize("kind", ["poisson", "brownian", "offset-trend",
                                      "line", "spiky"])
    def test_matches_all_windows_reference(self, kind):
        vals = oracle_series(kind, 240)
        fld = delta_l_field(TimeSeries(vals))
        want, want_mask = reference_delta_l_field(vals, 60)
        np.testing.assert_array_equal(fld.mask, want_mask)
        np.testing.assert_allclose(fld.cells, want, rtol=1e-9, atol=0)
        if kind == "line":
            np.testing.assert_allclose(fld.cells[fld.mask], 0.0, atol=1e-10)

    def test_falls_back_on_few_windows(self, monkeypatch):
        # the running-sum residual serves ordinary data; only
        # ill-conditioned windows are recomputed one by one
        redone = []
        direct = fractal._direct_rms

        def counting(vals, s, starts=None):
            redone.append(vals.size - s + 1 if starts is None else starts.size)
            return direct(vals, s, starts)

        monkeypatch.setattr(fractal, "_direct_rms", counting)
        fld = delta_l_field(TimeSeries(oracle_series("brownian", 512)))
        assert sum(redone) <= 0.01 * np.count_nonzero(fld.mask)

    @pytest.mark.parametrize("kind", ["offset-trend", "line"])
    def test_offset_and_trend_stay_on_the_running_sums(self, monkeypatch,
                                                        kind):
        # the windows' residuals are far below the offset and the trend;
        # about the global line, v is as small as those residuals, and on
        # an exact line v is 0, so no window needs recomputing
        calls = []
        direct = fractal._direct_rms

        def counting(vals, s, starts=None):
            calls.append(s)
            return direct(vals, s, starts)

        monkeypatch.setattr(fractal, "_direct_rms", counting)
        delta_l_field(TimeSeries(oracle_series(kind, 2048)))
        assert len(calls) <= 5


class TestDeltaLField:
    def test_straight_line_zero(self):
        fld = delta_l_field(TimeSeries(2.0 * np.arange(64.0) + 5.0))
        assert fld.kind == "deltaL"
        np.testing.assert_allclose(fld.cells[fld.mask], 0.0, atol=1e-10)

    def test_single_cell_vs_regression_oracle(self, rng):
        vals = rng.standard_normal(40)
        fld = delta_l_field(TimeSeries(vals))
        r = list(fld.rows).index(7)
        c = 15
        assert fld.mask[r, c]
        window = vals[c - 3:c + 4]
        t = np.arange(7.0)
        coef = np.polyfit(t, window, 1)
        resid = window - np.polyval(coef, t)
        want = np.sqrt(np.mean(resid ** 2))
        assert fld.cells[r, c] == pytest.approx(want, abs=1e-10)

    def test_trend_invariance(self, rng):
        vals = rng.standard_normal(64)
        a = delta_l_field(TimeSeries(vals))
        b = delta_l_field(TimeSeries(vals + 3.0 * np.arange(64.0) - 7.0))
        np.testing.assert_allclose(a.cells[a.mask], b.cells[b.mask],
                                   atol=1e-9)

    def test_sinusoid_row_periodicity(self):
        t = np.arange(256.0)
        period = 16
        fld = delta_l_field(TimeSeries(np.sin(2 * np.pi * t / period)))
        row = fld.cells[0][fld.mask[0]]
        row = row - row.mean()
        ac = float(row[:-period] @ row[period:]
                   / np.sqrt((row[:-period] @ row[:-period])
                             * (row[period:] @ row[period:])))
        assert ac >= 0.9


class TestMultifractalResult:
    def test_rejects_nonconcave_tau(self):
        q = np.array([-1.0, 0.0, 1.0])
        tau = np.array([0.0, -1.0, 0.5])  # convex kink
        with pytest.raises(InvalidArgument):
            MultifractalResult(q, tau, tau, tau, tau)


class TestMfdfa:
    def test_legendre_identity(self):
        res = mfdfa(brownian(2048, seed=5), Q_GRID, aggregated=True)
        np.testing.assert_allclose(res.f_alpha,
                                   res.q * res.alpha - res.tau, atol=1e-9)

    def test_tau_concave(self):
        res = mfdfa(brownian(2048, seed=6), Q_GRID, aggregated=True)
        assert np.all(np.diff(res.tau, 2) <= 1e-6)

    def test_h_non_increasing(self):
        res = mfdfa(brownian(2048, seed=7), Q_GRID, aggregated=True)
        assert np.all(np.diff(res.h) <= 1e-6)

    def test_single_path_near_monofractal(self):
        res = mfdfa(brownian(4096, seed=8), Q_GRID, aggregated=True,
                    scales=np.unique(np.geomspace(20, 200, 25).astype(int)))
        assert abs(res.tau[list(Q_GRID).index(2.0)] - 0.0) < 0.25

    def test_insufficient_scales(self):
        with pytest.raises(InsufficientScales):
            mfdfa(brownian(2048, seed=9), Q_GRID, aggregated=True, scales=[16, 32])

    def test_q_grid_must_contain_zero(self):
        with pytest.raises(InvalidArgument):
            mfdfa(brownian(512, seed=10), [1.0, 2.0])

    def test_zero_fluctuation_segment_rejected(self):
        # the profile of the leading zeros is a line: those segments have
        # no residual, so log F at q <= 0 is not finite
        counts = np.random.default_rng(5).poisson(3.0, 1400)
        x = TimeSeries(np.concatenate([np.zeros(600), counts]))
        with pytest.raises(DegenerateSignal, match="scale 20"):
            mfdfa(x, np.arange(-5.0, 5.01, 0.5))


def parity_inputs():
    """Brownian paths, binomial cascades (in place and shuffled) and
    Poisson counts, over several seeds."""
    out = []
    for seed in range(3):
        out.append(pytest.param(brownian(1024 + 300 * seed, seed=seed),
                                id=f"brownian-{seed}"))
        out.append(pytest.param(binomial_cascade(10 + seed % 2, p=0.3,
                                                 seed=seed, shuffle=seed > 0),
                                id=f"cascade-{seed}"))
        counts = np.random.default_rng(seed).poisson(3.0, 800 + 200 * seed)
        out.append(pytest.param(TimeSeries(counts.astype(float)),
                                id=f"poisson-{seed}"))
    return out


def assert_spectra_match(got, want):
    for name in ("tau", "alpha", "f_alpha", "h"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None
            continue
        np.testing.assert_allclose(a, b, rtol=0,
                                   atol=1e-12 * np.max(np.abs(b)), err_msg=name)


class TestMultifractalLoopParity:
    @pytest.mark.parametrize("x", parity_inputs())
    @pytest.mark.parametrize("aggregated", [False, True])
    def test_mfdfa(self, x, aggregated):
        q = np.arange(-5.0, 5.01, 0.5)
        assert_spectra_match(mfdfa(x, q, aggregated=aggregated),
                             mfdfa_loop(x, q, aggregated=aggregated))

    @pytest.mark.parametrize("x", parity_inputs())
    def test_wtmm(self, x):
        q = np.arange(-2.0, 4.01, 0.5)
        assert_spectra_match(wtmm(x, q), wtmm_loop(x, q))

    @pytest.mark.parametrize("x", parity_inputs())
    def test_wavelet_leaders(self, x):
        q = np.arange(-2.0, 4.01, 0.5)
        assert_spectra_match(wavelet_leaders(x, q), wavelet_leaders_loop(x, q))


ESTIMATORS = {
    "hurst_rs": hurst_rs,
    "hurst_profile": hurst_profile,
    "delta_l_field": delta_l_field,
    "mfdfa": lambda x: mfdfa(x, np.arange(-5.0, 5.01, 0.5)),
    "wtmm": lambda x: wtmm(x, np.arange(-2.0, 4.01, 0.5)),
    "wavelet_leaders": lambda x: wavelet_leaders(x, np.arange(-2.0, 4.01, 0.5)),
}


SCALE_FREE = {"hurst_rs", "hurst_profile", "delta_l_field", "mfdfa"}


def assert_same_bits(got, want, power):
    """Every field of two results equal; a delta-L field's cells are the
    unscaled ones times 2**power."""
    for name in vars(want):
        a, b = getattr(got, name), getattr(want, name)
        if name == "cells":
            b = np.ldexp(b, power)
        np.testing.assert_array_equal(a, b, err_msg=name)


@pytest.mark.parametrize("kind", ["poisson", "brownian", "offset-trend", "line",
                                  "spiky", "sparse", "constant-lead",
                                  *SCALED_BROWNIAN])
@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_estimators_raise_no_floating_point_error(kind, name):
    # every estimator returns a result or rejects the series with one of
    # the library's errors; no step overflows, divides by zero or makes
    # an invalid value on the way
    x = TimeSeries(oracle_series(kind, 512))
    with np.errstate(all="raise"):
        try:
            got = ESTIMATORS[name](x)
        except IoscopeError:
            got = None
        if kind in SCALED_BROWNIAN and name in SCALE_FREE:
            # scaled by a power of two first, so the result is bit for bit
            # the unscaled one
            want = ESTIMATORS[name](TimeSeries(oracle_series("brownian", 512)))
            assert_same_bits(got, want, SCALED_BROWNIAN[kind])


class TestSkeleton:
    def test_points_are_row_maxima(self, rng):
        x = TimeSeries(rng.standard_normal(256))
        fld = cwt(x, get_wavelet("mexican-hat"), np.geomspace(2, 16, 8))
        mod = np.abs(fld.cells)
        sk = find_skeleton(fld)
        assert sk.lines
        for line in sk.lines:
            for row, col in line:
                if 0 < col < mod.shape[1] - 1:
                    assert (mod[row, col] >= mod[row, col - 1]
                            and mod[row, col] >= mod[row, col + 1])

    def test_isolated_peak_single_line(self):
        vals = np.zeros(256)
        vals[128] = 1.0
        fld = cwt(TimeSeries(vals), get_wavelet("mexican-hat"),
                  np.geomspace(2, 8, 6))
        sk = find_skeleton(fld)
        first_row_lines = [ln for ln in sk.lines if ln[0][0] == 0]
        at_peak = [ln for ln in first_row_lines
                   if abs(ln[0][1] - 128) <= 2]
        assert len(at_peak) == 1

    def test_sinusoid_line_count(self):
        t = np.arange(512.0)
        period = 32
        x = TimeSeries(np.sin(2 * np.pi * t / period))
        fld = cwt(x, get_wavelet("mexican-hat"), np.geomspace(2, 16, 8))
        sk = find_skeleton(fld)
        n_extrema = 2 * 512 // period
        first_row = sum(1 for ln in sk.lines if ln[0][0] == 0)
        assert abs(first_row - n_extrema) <= 4


class TestWtmm:
    def test_legendre_identity_and_concavity(self):
        res = wtmm(brownian(1024, seed=20), np.arange(-2.0, 4.01, 0.5))
        np.testing.assert_allclose(res.f_alpha,
                                   res.q * res.alpha - res.tau, atol=1e-9)
        assert np.all(np.diff(res.tau, 2) <= 1e-6)

    def test_cone_of_influence_is_zero_not_undefined(self):
        # the cone's cells are 0.0, not NaN: a maximum test against NaN is
        # False, which would drop the maxima beside the cone
        fld = fractal._l1_modulus_field(brownian(256, seed=22), "mexican-hat",
                                        [2.0, 8.0, 32.0], coi=4.0)
        assert not np.isnan(fld.cells).any()
        np.testing.assert_array_equal(fld.cells[2, :128], 0.0)
        assert np.all(fld.cells[0, 8:-8] > 0)

    def test_insufficient_structure(self):
        # 64 samples: the grid runs from 2 to 8 steps, and the cone of
        # influence covers the whole series from scale 8 on
        x = TimeSeries(np.sin(np.arange(64.0) / 64))
        with pytest.raises(InsufficientStructure):
            wtmm(x, [-1.0, 0.0, 1.0])


class TestWaveletLeaders:
    def test_legendre_identity(self):
        res = wavelet_leaders(brownian(2048, seed=21),
                              np.arange(-2.0, 4.01, 0.5))
        np.testing.assert_allclose(res.f_alpha,
                                   res.q * res.alpha - res.tau, atol=1e-9)

    def test_agrees_with_mfdfa_on_brownian(self):
        paths = [brownian(2048, seed=s) for s in range(3)]
        q = np.arange(-2.0, 4.01, 0.5)
        i2 = list(q).index(2.0)
        tl = np.mean([wavelet_leaders(p, q).tau[i2] for p in paths])
        tm = np.mean([
            mfdfa(p, q, aggregated=True,
                  scales=np.unique(np.geomspace(20, 200, 25).astype(int))
                  ).tau[i2]
            for p in paths])
        assert abs(tl - tm) <= 0.1
