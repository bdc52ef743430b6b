import numpy as np
import pytest

from ioscope.agentsim import (SimConfig, like_count_distribution,
                              lifespan_survival, make_phi,
                              simulate_population, transition_row,
                              weibull_mle)
from ioscope.errors import InvalidArgument, NoConvergence

BASE_CFG = SimConfig(p_l0=0.4, p_r0=0.1)


class TestPhi:
    def test_constant_one(self):
        phi = make_phi("one")
        assert phi(1) == 1.0 and phi(100) == 1.0

    def test_saturating(self):
        phi = make_phi("saturating", e_ref=10.0)
        assert phi(5) == pytest.approx(0.5)
        assert phi(10) == 1.0
        assert phi(50) == 1.0

    def test_unknown_tag(self):
        with pytest.raises(InvalidArgument):
            make_phi("quadratic")


class TestSimConfig:
    def test_probability_range_enforced(self):
        with pytest.raises(InvalidArgument):
            SimConfig(p_l0=1.2)
        with pytest.raises(InvalidArgument):
            SimConfig(p_r0=-0.1)

    def test_e0_positive(self):
        with pytest.raises(InvalidArgument):
            SimConfig(e0=0)

    def test_seed_non_negative(self):
        with pytest.raises(InvalidArgument):
            SimConfig(seed=-3)


class TestTransitionRow:
    def test_reference_case(self):
        row = transition_row(10, BASE_CFG)
        np.testing.assert_allclose(row, [0.04, 0.06, 0.36, 0.54], atol=1e-12)

    def test_certain_decay(self):
        row = transition_row(5, SimConfig(p_l0=0.0, p_r0=0.0))
        np.testing.assert_allclose(row, [0.0, 0.0, 0.0, 1.0])

    def test_sums_to_one(self, rng):
        for _ in range(50):
            cfg = SimConfig(p_l0=float(rng.uniform()),
                            p_r0=float(rng.uniform()),
                            phi="saturating", phi_e_ref=8.0)
            assert transition_row(int(rng.integers(1, 30)), cfg).sum() \
                == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_energy(self):
        with pytest.raises(InvalidArgument):
            transition_row(0, BASE_CFG)


class TestLifespanSurvival:
    def test_certain_survival_before_e0_steps(self):
        for t in range(10):
            assert lifespan_survival(10, BASE_CFG, t) == 1.0

    def test_non_increasing_in_horizon(self):
        vals = [lifespan_survival(5, BASE_CFG, t) for t in range(0, 40, 5)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_non_decreasing_in_e0(self):
        vals = [lifespan_survival(e0, BASE_CFG, 20) for e0 in range(1, 12)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_one_step_hand_value(self):
        # from energy 1, dying in one step happens iff delta = -1
        cfg = BASE_CFG
        p_die = (1 - cfg.p_l0) * (1 - cfg.p_r0)
        assert lifespan_survival(1, cfg, 1) == pytest.approx(1 - p_die)

    def test_bounds(self):
        for t in (0, 7, 30):
            v = lifespan_survival(4, BASE_CFG, t)
            assert 0.0 <= v <= 1.0


class TestSimulatePopulation:
    def test_no_spawn_population_bounded(self):
        cfg = SimConfig(p_l0=0.4, p_r0=0.0, p_s=0.0, e0=5, seed=42)
        out = simulate_population(cfg, 60)
        assert max(out.alive) <= 1
        diffs = np.diff(np.asarray(out.alive))
        assert np.all(diffs <= 0)  # only death possible

    def test_seed_determinism(self):
        cfg = SimConfig(p_l0=0.4, p_r0=0.3, p_s=0.05, e0=5, seed=7)
        a = simulate_population(cfg, 30)
        b = simulate_population(cfg, 30)
        np.testing.assert_array_equal(a.alive, b.alive)
        np.testing.assert_array_equal(a.births, b.births)
        np.testing.assert_array_equal(a.deaths, b.deaths)

    def test_energy_rules_in_traces(self):
        cfg = SimConfig(p_l0=0.5, p_r0=0.3, e0=5, seed=3)
        out = simulate_population(cfg, 40)
        for trace in out.traces:
            e = np.asarray(trace.energies)
            assert np.all(e >= 0)
            deltas = set(np.diff(e[e > 0])) if len(e) > 1 else set()
            assert deltas <= {-1.0, 0.0, 1.0, 2.0}

    def test_first_tick_spawn_expectation(self):
        cfg_base = SimConfig(p_l0=0.4, p_r0=0.2, p_s=0.1, e0=10)
        n = 100000
        births = 0
        for seed in range(n):
            cfg = SimConfig(p_l0=0.4, p_r0=0.2, p_s=0.1, e0=10, seed=seed)
            births += simulate_population(cfg, 1).births[1]
        expect = cfg_base.p_r0 * make_phi("one")(10) + cfg_base.p_s
        sigma = np.sqrt(expect * (1 - expect) / n)  # Bernoulli-ish bound
        assert abs(births / n - expect) <= 4 * sigma

    def test_population_cap_flag(self):
        cfg = SimConfig(p_l0=0.9, p_r0=0.9, p_s=0.5, e0=20, seed=1)
        out = simulate_population(cfg, 200, cap=500)
        assert out.capped
        assert max(out.alive) <= 500 * 2 + 1


class TestLikeCountDistribution:
    def test_no_likes_when_p_like_zero(self):
        pmf = like_count_distribution(5, SimConfig(p_l0=0.0, p_r0=0.1))
        assert pmf[0] == pytest.approx(1.0, abs=1e-9)

    def test_masses_sum_to_one(self):
        pmf = like_count_distribution(8, BASE_CFG)
        assert np.all(pmf >= -1e-12)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)

    def test_net_increment_composition(self):
        # like +1/repost +2 with universal -1 decay span exactly {-1,0,1,2}
        deltas = {like + 2 * repost - 1
                  for like in (0, 1) for repost in (0, 1)}
        assert deltas == {-1, 0, 1, 2}


class TestWeibullMle:
    def sample(self, k, lam, n, seed):
        gen = np.random.default_rng(seed)
        return lam * gen.weibull(k, size=n)

    def test_recovers_reference_shape(self):
        k, lam = weibull_mle(self.sample(1.9, 3.8, 10000, 0))
        assert abs(k - 1.9) / 1.9 < 0.05
        assert abs(lam - 3.8) / 3.8 < 0.05

    def test_exponential_special_case(self):
        k, _ = weibull_mle(self.sample(1.0, 2.0, 10000, 1))
        assert abs(k - 1.0) < 0.05

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidArgument):
            weibull_mle([1.0, 0.0] + [2.0] * 40)

    def test_rejects_small_sample(self):
        with pytest.raises(InvalidArgument):
            weibull_mle([1.0] * 10)

    @pytest.mark.parametrize("k, lam, n, seed", [
        (1.9, 3.8, 10000, 0), (0.4, 0.01, 200, 2), (7.0, 1e4, 100, 3),
        (1.0, 2.0, 30, 4)])
    def test_matches_brentq_oracle(self, k, lam, n, seed):
        from scipy.optimize import brentq
        x = self.sample(k, lam, n, seed)
        logx = np.log(x)

        def profile(kk):
            xk = x ** kk
            return np.sum(xk * logx) / np.sum(xk) - 1.0 / kk - logx.mean()

        k_ref = brentq(profile, 1e-3, 64.0, xtol=1e-14, rtol=1e-15)
        lam_ref = np.mean(x ** k_ref) ** (1.0 / k_ref)
        k_hat, lam_hat = weibull_mle(x)
        assert abs(k_hat - k_ref) <= 1e-9 * k_ref
        assert abs(lam_hat - lam_ref) <= 1e-9 * lam_ref

    def test_scale_invariant_shape_for_huge_samples(self):
        x = self.sample(1.9, 3.8, 500, 5)
        k, lam = weibull_mle(x)
        k_big, lam_big = weibull_mle(x * 1e200)
        assert k_big == pytest.approx(k, rel=1e-9)
        assert lam_big == pytest.approx(lam * 1e200, rel=1e-9)

    @pytest.mark.parametrize("value", [1.0, 5.0, 0.5])
    def test_equal_samples_do_not_converge(self, value):
        with pytest.raises(NoConvergence):
            weibull_mle([value] * 40)
