import numpy as np
import pytest

from ioscope.errors import DegenerateSignal, InvalidArgument
from ioscope.series import TimeSeries
from ioscope.templates import (Template, builtin_bank, correlation_diagram,
                               io_phase_template, resample_template,
                               scan_detect, snake_template)

from references import (KuntchenkoBasis, io_phase_samples_two_branch,
                        kuntchenko_efficiency, kuntchenko_fit,
                        scan_detect_loop)


def embed(rng, tpl_samples, n, offset, noise_scale=0.0):
    vals = rng.standard_normal(n) * noise_scale
    vals[offset:offset + len(tpl_samples)] += tpl_samples
    return TimeSeries(vals)


class TestTemplateType:
    def test_too_short(self):
        with pytest.raises(InvalidArgument):
            Template((1.0, 2.0), "t", ())

    def test_constant_rejected(self):
        with pytest.raises(InvalidArgument):
            Template((2.0, 2.0, 2.0), "t", ())

    def test_bad_phase_label(self):
        with pytest.raises(InvalidArgument):
            Template((1.0, 2.0, 3.0), "t", ((0, "launch"),))


class TestIoPhaseTemplate:
    def test_b_zero_rejected(self):
        with pytest.raises(InvalidArgument):
            io_phase_template(20, b=0.0)

    def test_too_short_rejected(self):
        with pytest.raises(InvalidArgument):
            io_phase_template(4)

    def test_attack_front_shape(self):
        t = io_phase_template(45, "attack-front", a=0.0, b=1.0)
        samples = np.asarray(t.samples)
        assert samples[0] == pytest.approx(0.0)
        assert samples[-1] == pytest.approx(samples.max())

    @pytest.mark.parametrize("length", [5, 20, 45])
    @pytest.mark.parametrize("variant", ["attack-front", "full-lifecycle"])
    def test_standard_lengths(self, length, variant):
        t = io_phase_template(length, variant)
        assert len(t.samples) == length

    def test_lifecycle_decays_after_peak(self):
        t = io_phase_template(90, "full-lifecycle")
        samples = np.asarray(t.samples)
        peak = int(np.argmax(samples))
        assert peak < len(samples) - 1
        assert samples[-1] < samples[peak]

    def test_phase_marks_present(self):
        t = io_phase_template(45, "attack-front")
        assert len(t.phase_marks) >= 2
        idx = [i for i, _ in t.phase_marks]
        assert idx == sorted(idx)

    @pytest.mark.parametrize("length", [5, 20, 45, 90])
    @pytest.mark.parametrize("variant", ["attack-front", "full-lifecycle"])
    @pytest.mark.parametrize("a, b, damping", [(0.0, 1.0, 0.5), (2.5, -0.7, 0.0),
                                               (-1.0, 3.0, 1.3)])
    def test_samples_match_two_branch_formula(self, length, variant, a, b,
                                              damping):
        t = io_phase_template(length, variant, a=a, b=b, tail_damping=damping)
        want = io_phase_samples_two_branch(length, variant, a, b, damping)
        assert np.array_equal(t.samples, want)

    def test_short_template_first_label_wins(self):
        # x = 0, 1.125pi, ..., 4.5pi: calm beats shelling to index 1, calm2
        # beats attack and peak to 2, realization beats productivity to 4
        t = io_phase_template(5, "full-lifecycle")
        assert t.phase_marks == ((0, "background"), (1, "calm"), (2, "calm2"),
                                 (3, "disillusion"), (4, "realization"))

    def test_builtin_bank(self):
        bank = builtin_bank()
        assert len(bank) == 3
        assert {t.name for t in bank} == {"io-attack-front",
                                          "io-full-lifecycle", "snake"}

    def test_snake_shape(self):
        t = snake_template(40)
        x = np.linspace(0, 4 * np.pi, 40)
        np.testing.assert_allclose(t.samples, 0.25 * x + np.sin(x),
                                   atol=1e-12)


class TestResample:
    @pytest.mark.parametrize("length, variant", [(45, "attack-front"),
                                                 (45, "full-lifecycle")])
    @pytest.mark.parametrize("k", [3, 17, 44, 45, 60])
    def test_bits_unchanged_by_the_scaling(self, length, variant, k):
        t = io_phase_template(length, variant)
        n = t.samples.size
        want = np.interp(np.linspace(0.0, n - 1.0, k), np.arange(n, dtype=float),
                         t.samples)
        np.testing.assert_array_equal(resample_template(t, k).samples, want)

    def test_same_length_is_identity(self):
        t = io_phase_template(30)
        np.testing.assert_array_equal(resample_template(t, 30).samples,
                                      t.samples)

    def test_linear_ramp_exact(self):
        ramp = Template(tuple(np.linspace(0, 9, 10)), "ramp", ())
        for k in (3, 5, 17):
            out = np.asarray(resample_template(ramp, k).samples)
            np.testing.assert_allclose(out, np.linspace(0, 9, k), atol=1e-12)

    def test_downsample_keeps_correlation(self):
        t = io_phase_template(45)
        for k in (23, 30, 40):
            small = resample_template(t, k)
            back = np.interp(np.linspace(0, 1, 45), np.linspace(0, 1, k),
                             small.samples)
            orig = np.asarray(t.samples)
            r = np.corrcoef(back, orig)[0, 1]
            assert r >= 0.99


class TestCorrelationDiagram:
    def test_embedded_template_is_global_argmax(self, rng):
        tpl = io_phase_template(45)
        target = np.asarray(resample_template(tpl, 20).samples)
        x = embed(rng, target, 200, 73, noise_scale=0.02 * np.ptp(target))
        fld = correlation_diagram(x, tpl, [10, 20, 30])
        cells = np.where(fld.mask, fld.cells, -np.inf)
        r, c = np.unravel_index(np.argmax(cells), cells.shape)
        assert fld.rows[r] == 20
        assert abs(c - 73) <= 1
        assert cells[r, c] >= 0.95

    def test_constant_series_all_masked(self):
        fld = correlation_diagram(TimeSeries(np.ones(50)),
                                  io_phase_template(20), [5, 10])
        assert not fld.mask.any()

    def test_two_embeddings_two_maxima(self, rng):
        tpl = io_phase_template(45)
        a = np.asarray(resample_template(tpl, 12).samples)
        b = np.asarray(resample_template(tpl, 30).samples)
        vals = rng.standard_normal(250) * 0.02 * np.ptp(a)
        vals[30:42] += a
        vals[150:180] += b
        fld = correlation_diagram(TimeSeries(vals), tpl, [12, 30])
        assert fld.cells[0, 30] > 0.9
        assert fld.cells[1, 150] > 0.9

    @pytest.mark.parametrize("base", [0.0, 0.11])
    def test_constant_resample_row_undefined(self, rng, base):
        # at k = 5 the 9-sample spike samples indices 0, 2, 4, 6, 8 only,
        # all equal to base; five 0.11s average to 0.11000000000000001, so
        # a zero-norm test on the centered samples would not catch that one
        tpl = Template(base + np.array([0, 0, 0, 1, 0, 0, 0, 0, 0.0]))
        x = TimeSeries(rng.standard_normal(60))
        fld = correlation_diagram(x, tpl, range(4, 9))
        assert not fld.mask[1].any() and np.isnan(fld.cells[1]).all()
        for r, k in enumerate(range(4, 9)):
            if k != 5:
                assert fld.mask[r, :60 - k + 1].all()


    @pytest.mark.parametrize("tpl", builtin_bank(), ids=lambda t: t.name)
    def test_cells_match_kuntchenko_efficiency(self, tpl):
        # over the basis {1, p_k} the least-distance fit's efficiency is the
        # squared correlation of the window with the resampled template p_k
        xs = np.random.default_rng(3).poisson(3.0, 300).astype(float)
        ks = [5, 17, 45]
        fld = correlation_diagram(TimeSeries(xs), tpl, ks)
        for r, k in enumerate(ks):
            basis = KuntchenkoBasis(np.vstack([
                np.ones(k), resample_template(tpl, k).samples]))
            defined = np.flatnonzero(fld.mask[r])
            assert defined.size > 0
            for l in defined:
                d = kuntchenko_efficiency(xs[l:l + k], basis)
                assert abs(d - fld.cells[r, l] ** 2) <= 1e-12


class TestKuntchenko:
    def make_basis(self, rng, length=20, order=2):
        rows = [np.ones(length)]
        for _ in range(order):
            rows.append(rng.standard_normal(length))
        return KuntchenkoBasis(np.vstack(rows))

    def test_constant_first_row_required(self):
        with pytest.raises(InvalidArgument):
            KuntchenkoBasis(np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]]))

    def test_dependent_transforms_rejected(self):
        with pytest.raises(InvalidArgument):
            KuntchenkoBasis(np.array([[1.0, 1.0, 1.0],
                                      [1.0, 2.0, 3.0],
                                      [2.0, 4.0, 6.0]]))

    def test_exact_member_recovered(self, rng):
        f1 = rng.standard_normal(16)
        f1 -= f1.mean()  # keep c_0 = 0 exactly
        basis = KuntchenkoBasis(np.vstack([np.ones(16), f1]))
        c = kuntchenko_fit(f1, basis)
        np.testing.assert_allclose(c, [0.0, 1.0], atol=1e-10)

    def test_orthogonal_signal_zero_coefficients(self):
        length = 12
        basis = KuntchenkoBasis(np.vstack([
            np.ones(length),
            np.sin(2 * np.pi * np.arange(length) / length),
        ]))
        sig = np.cos(2 * np.pi * np.arange(length) / length)
        c = kuntchenko_fit(sig, basis)
        np.testing.assert_allclose(c[1:], 0.0, atol=1e-10)

    def test_matches_least_squares_oracle(self, rng):
        for _ in range(100):
            basis = self.make_basis(rng, order=int(rng.integers(1, 4)))
            sig = rng.standard_normal(20)
            c = kuntchenko_fit(sig, basis)
            recon = c @ basis.transforms
            oracle, *_ = np.linalg.lstsq(basis.transforms.T, sig, rcond=None)
            np.testing.assert_allclose(recon, oracle @ basis.transforms,
                                       atol=1e-9)

    def test_residual_orthogonality(self, rng):
        basis = self.make_basis(rng)
        sig = rng.standard_normal(20)
        c = kuntchenko_fit(sig, basis)
        resid = sig - c @ basis.transforms
        for f in basis.transforms:
            assert abs(resid @ f) < 1e-8

    def test_efficiency_in_span_is_one(self, rng):
        basis = self.make_basis(rng)
        sig = 2.0 * basis.transforms[1] - 0.5 * basis.transforms[2] + 3.0
        assert kuntchenko_efficiency(sig, basis) == pytest.approx(1.0,
                                                                  abs=1e-9)

    def test_efficiency_orthogonal_is_zero(self):
        length = 12
        basis = KuntchenkoBasis(np.vstack([
            np.ones(length),
            np.sin(2 * np.pi * np.arange(length) / length),
        ]))
        sig = np.cos(2 * np.pi * np.arange(length) / length)
        assert kuntchenko_efficiency(sig, basis) == pytest.approx(0.0,
                                                                  abs=1e-9)

    def test_efficiency_bounds_and_scaling(self, rng):
        for _ in range(100):
            basis = self.make_basis(rng)
            sig = rng.standard_normal(20)
            d = kuntchenko_efficiency(sig, basis)
            assert -1e-9 <= d <= 1 + 1e-9
            assert kuntchenko_efficiency(4.2 * sig, basis) == pytest.approx(
                d, abs=1e-9)

    def test_efficiency_monotone_in_basis(self, rng):
        for _ in range(100):
            rows = [np.ones(20), rng.standard_normal(20),
                    rng.standard_normal(20)]
            small = KuntchenkoBasis(np.vstack(rows[:2]))
            big = KuntchenkoBasis(np.vstack(rows))
            sig = rng.standard_normal(20)
            assert (kuntchenko_efficiency(sig, big)
                    >= kuntchenko_efficiency(sig, small) - 1e-9)

    def test_zero_signal_rejected(self, rng):
        basis = self.make_basis(rng)
        with pytest.raises(DegenerateSignal):
            kuntchenko_efficiency(np.ones(20), basis)


class TestScanDetect:
    def test_threshold_one_on_noise_empty(self, rng):
        x = TimeSeries(rng.standard_normal(300))
        out = scan_detect(x, [io_phase_template(45)], [10, 20], 1.0)
        assert out == []

    def test_exact_embedding_single_detection(self, rng):
        tpl = io_phase_template(45)
        target = np.asarray(resample_template(tpl, 20).samples)
        x = embed(rng, target, 200, 60, noise_scale=0.01 * np.ptp(target))
        out = scan_detect(x, [tpl], [20], 0.95)
        assert len(out) == 1
        assert out[0].scale == 20
        assert abs(out[0].location - 60) <= 1

    def test_threshold_out_of_range(self, rng):
        x = TimeSeries(rng.standard_normal(100))
        for theta in (0.0, 1.01, -0.5):
            with pytest.raises(InvalidArgument):
                scan_detect(x, [io_phase_template(20)], [10], theta)

    def test_empty_bank(self, rng):
        with pytest.raises(InvalidArgument):
            scan_detect(TimeSeries(rng.standard_normal(100)), [], [10], 0.9)

    def test_scores_within_threshold_and_one(self, rng):
        x = TimeSeries(rng.standard_normal(400))
        out = scan_detect(x, builtin_bank(), [5, 10, 20], 0.5)
        for d in out:
            assert 0.5 <= d.score <= 1.0

    def test_sorted_by_score(self, rng):
        x = TimeSeries(rng.standard_normal(400))
        out = scan_detect(x, builtin_bank(), [5, 10, 20], 0.4)
        scores = [d.score for d in out]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("k", [-1000, -500, 500, 990])
    def test_scale_free(self, rng, k):
        """Counts times 2**k, huge or tiny, give the counts' detections."""
        counts = rng.poisson(3.0, 1024).astype(float)
        want = scan_detect(TimeSeries(counts), builtin_bank(), range(5, 61), 0.9)
        assert want
        assert scan_detect(TimeSeries(np.ldexp(counts, k)), builtin_bank(),
                           range(5, 61), 0.9) == want

    @pytest.mark.parametrize("k", [-1000, 1000])
    def test_template_scale_free(self, k):
        """A template times 2**k, huge or tiny, gives the template's
        detections."""
        x = TimeSeries(np.random.default_rng(2).poisson(3.0, 300).astype(float))
        base = np.array([1.0, 2.0, 3.0, -1.0, 0.5])
        want = scan_detect(x, [Template(base, "t")], range(5, 40), 0.9)
        assert want
        assert scan_detect(x, [Template(base * 2.0 ** k, "t")],
                           range(5, 40), 0.9) == want


def random_bank(seed):
    gen = np.random.default_rng(seed)
    return [Template(gen.standard_normal(12), "rand12"),
            Template(np.cumsum(gen.standard_normal(33)), "walk33")]


class TestScanParity:
    """The array scan against the per-cell loop with pairwise suppression."""

    @pytest.mark.parametrize("threshold", [0.05, 0.3, 0.9, 1.0])
    @pytest.mark.parametrize("n, k_range", [(400, range(5, 61, 1)),
                                            (400, range(5, 61, 7)),
                                            (300, range(3, 201, 3))])
    @pytest.mark.parametrize("bank", ["builtin", "random"])
    def test_matches_loop(self, threshold, n, k_range, bank):
        x = TimeSeries(np.random.default_rng(n + len(k_range))
                       .standard_normal(n))
        tpls = builtin_bank() if bank == "builtin" else random_bank(n)
        want = scan_detect_loop(x, tpls, k_range, threshold)
        assert scan_detect(x, tpls, k_range, threshold) == want

    @pytest.mark.parametrize("threshold", [0.3, 0.9])
    def test_periodic_series_tie_order(self, threshold):
        period = resample_template(io_phase_template(45), 25).samples
        x = TimeSeries(np.tile(period, 12))
        want = scan_detect_loop(x, builtin_bank(), range(10, 40, 3), threshold)
        assert want
        assert scan_detect(x, builtin_bank(), range(10, 40, 3),
                           threshold) == want
