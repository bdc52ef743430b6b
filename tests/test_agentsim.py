import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ioscope import agentsim
from ioscope.agentsim import (SimConfig, _forward, like_count_distribution,
                              lifespan_survival, make_phi,
                              simulate_population, weibull_mle)
from ioscope.errors import InvalidArgument, NoConvergence

from references import (like_count_distribution_loop,
                        lifespan_survival_backward, simulate_population_loop)

BASE_CFG = SimConfig(p_l0=0.4, p_r0=0.1)
PROB = st.floats(min_value=0.0, max_value=1.0)
PHI = st.sampled_from(["one", "saturating"])
E_REF = st.floats(min_value=0.5, max_value=50.0)


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

    def test_elementwise_on_arrays(self):
        e = np.array([0, 5, 10, 50])
        np.testing.assert_array_equal(make_phi("one")(e), [1.0, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(make_phi("saturating", 10.0)(e),
                                      [0.0, 0.5, 1.0, 1.0])

    @pytest.mark.parametrize("tag", ["one", "saturating"])
    @pytest.mark.parametrize("e_ref", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_e_ref_not_finite_positive(self, tag, e_ref):
        with pytest.raises(InvalidArgument):
            make_phi(tag, e_ref)
        with pytest.raises(InvalidArgument):
            SimConfig(phi=tag, phi_e_ref=e_ref)


class TestSimConfig:
    def test_probability_range_enforced(self):
        with pytest.raises(InvalidArgument):
            SimConfig(p_l0=1.2)
        with pytest.raises(InvalidArgument):
            SimConfig(p_r0=-0.1)

    def test_e0_positive(self):
        with pytest.raises(InvalidArgument):
            SimConfig(e0=0)

    def test_e0_fits_int64(self):
        assert SimConfig(e0=2 ** 62 - 1).e0 == 2 ** 62 - 1
        for e0 in (2 ** 62, 10 ** 20):
            with pytest.raises(InvalidArgument, match="e0"):
                SimConfig(e0=e0)

    def test_seed_non_negative(self):
        with pytest.raises(InvalidArgument):
            SimConfig(seed=-3)


class TestTransitionRow:
    """The one-tick distribution of the energy change, read from the
    exact chain run forward one tick."""

    @staticmethod
    def row(e, cfg):
        # live row i holds energy i: energies e + 2 down to e - 2 (e >= 3)
        live, _ = _forward(e, cfg, 1, likes=False)
        return live[e + 2:e - 3:-1, 0]

    def test_reference_case(self):
        row = self.row(10, BASE_CFG)
        np.testing.assert_allclose(row, [0.04, 0.06, 0.36, 0.54, 0.0], atol=1e-12)

    def test_certain_decay(self):
        row = self.row(5, SimConfig(p_l0=0.0, p_r0=0.0))
        np.testing.assert_allclose(row, [0, 0, 0, 1, 0])

    def test_sums_to_one(self, rng):
        for _ in range(50):
            cfg = SimConfig(p_l0=float(rng.uniform()),
                            p_r0=float(rng.uniform()),
                            phi="saturating", phi_e_ref=8.0)
            # from e <= 2 part of the mass dies and lands in ``dead``
            live, dead = _forward(int(rng.integers(1, 30)), cfg, 1, likes=False)
            assert live.sum() + dead.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dislikes_hand_value(self):
        # delta = -2 is decay and a dislike with neither a like nor a repost
        cfg = SimConfig(p_l0=0.4, p_d0=0.5, p_r0=0.1)
        row = self.row(10, cfg)
        assert row[4] == pytest.approx(0.6 * 0.9 * 0.5, abs=1e-15)
        np.testing.assert_allclose(
            row, [0.02, 0.03 + 0.02, 0.18 + 0.03, 0.27 + 0.18, 0.27],
            atol=1e-15)


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

    def test_one_step_hand_value_with_dislikes(self):
        # from energy 2 a tick kills only by decay and a dislike alone
        cfg = SimConfig(p_l0=0.4, p_d0=0.5, p_r0=0.1)
        assert lifespan_survival(2, cfg, 1) == pytest.approx(1 - 0.6 * 0.9 * 0.5)

    def test_dislikes_shorten_lifespans(self):
        cfgs = [SimConfig(p_l0=0.4, p_d0=pd, p_r0=0.1) for pd in (0, 0.2, 0.6)]
        vals = [lifespan_survival(10, cfg, 15) for cfg in cfgs]
        assert vals[0] > vals[1] > vals[2] > 0

    @settings(max_examples=40, deadline=None)
    @given(p_l0=PROB, p_r0=PROB, phi=PHI, e_ref=E_REF,
           e0=st.integers(1, 40), t=st.integers(0, 80))
    @example(p_l0=0.0, p_r0=1e-10, phi="one", e_ref=1.0, e0=1, t=65)
    def test_matches_backward_recursion(self, p_l0, p_r0, phi, e_ref, e0, t):
        cfg = SimConfig(p_l0=p_l0, p_r0=p_r0, phi=phi, phi_e_ref=e_ref)
        got = lifespan_survival(e0, cfg, t)
        want = lifespan_survival_backward(e0, cfg, t)
        assert got <= 1.0
        # a few subnormal steps: below ~1e-308 the relative bound is
        # finer than the spacing of the numbers themselves
        assert abs(got - want) <= 1e-13 * want + 4 * 5e-324


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

    @pytest.mark.parametrize("phi", ["one", "saturating"])
    def test_likes_alone_balance_energy(self, phi):
        # energy = e0 + likes - lifespan while live, and a dead agent hit 0
        cfg = SimConfig(p_l0=0.5, p_r0=0.0, p_d0=0.0, p_link0=0.0, p_s=1.0,
                        e0=6, phi=phi, phi_e_ref=8.0, seed=3)
        out = simulate_population(cfg, 60)
        spent = out.lifespans - out.like_counts
        assert np.all(spent <= cfg.e0)
        assert np.sum(spent == cfg.e0) == out.deaths.sum() > 0
        assert np.sum(spent < cfg.e0) == out.alive[-1]

    @pytest.mark.parametrize("e0", [1, 2, 5, 8])
    def test_certain_dislike_halves_lifespan(self, e0):
        # -2 per tick: each agent lives ceil(e0 / 2) ticks; one is born
        # per tick, so the youngest are cut off by the horizon
        ticks = 12
        cfg = SimConfig(p_l0=0.0, p_r0=0.0, p_d0=1.0, p_s=1.0, e0=e0, seed=2)
        out = simulate_population(cfg, ticks)
        expect = np.minimum(math.ceil(e0 / 2), ticks - np.arange(ticks + 1))
        np.testing.assert_array_equal(out.lifespans, expect)

    def test_links_keep_population_books(self):
        cfg = SimConfig(p_l0=0.3, p_r0=0.25, p_d0=0.1, p_link0=0.6, p_s=0.2,
                        e0=4, phi="saturating", phi_e_ref=6.0, seed=9)
        out = simulate_population(cfg, 40)
        assert out.births.sum() == out.lifespans.size > 1
        assert out.lifespans.size == out.like_counts.size
        np.testing.assert_array_equal(
            out.alive[1:], out.alive[:-1] + out.births[1:] - out.deaths[1:])
        assert np.all(out.like_counts <= out.lifespans)

    def test_links_credit_another_live_agent(self):
        # links only, one agent born per tick at e0 = 2: tick 3 starts at
        # energies 1, 2, 2 and each agent links to one of the other two,
        # so the oldest dies exactly when neither picks it, P = 1/4
        n = 4000
        died = 0
        for seed in range(n):
            cfg = SimConfig(p_l0=0.0, p_r0=0.0, p_link0=1.0, p_s=1.0, e0=2,
                            seed=seed)
            out = simulate_population(cfg, 3)
            assert out.deaths[:3].sum() == 0
            died += out.deaths[3]
        sigma = np.sqrt(0.25 * 0.75 / n)
        assert abs(died / n - 0.25) <= 4 * sigma

    @settings(max_examples=40, deadline=None)
    @given(p_l0=PROB, p_d0=PROB, p_r0=PROB, p_s=PROB, phi=PHI, e_ref=E_REF,
           e0=st.integers(1, 12), ticks=st.integers(1, 30),
           cap=st.integers(1, 200), seed=st.integers(0, 2 ** 32))
    def test_matches_agent_loop_without_links(self, p_l0, p_d0, p_r0, p_s, phi,
                                              e_ref, e0, ticks, cap, seed):
        cfg = SimConfig(p_l0=p_l0, p_d0=p_d0, p_r0=p_r0, p_s=p_s, e0=e0,
                        phi=phi, phi_e_ref=e_ref, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(agentsim, "POPULATION_CAP", cap)
            out = simulate_population(cfg, ticks)
        ref = simulate_population_loop(cfg, ticks, cap)
        for name in ("alive", "births", "deaths", "lifespans", "like_counts"):
            got, want = getattr(out, name), getattr(ref, name)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)
        assert out.capped == ref.capped

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

    def test_population_cap_flag(self, monkeypatch):
        monkeypatch.setattr(agentsim, "POPULATION_CAP", 500)
        cfg = SimConfig(p_l0=0.9, p_r0=0.9, p_s=0.5, e0=20, seed=1)
        out = simulate_population(cfg, 200)
        assert out.capped
        assert max(out.alive) <= 500 * 2 + 1


class TestLikeCountDistribution:
    def test_no_likes_when_p_like_zero(self):
        pmf = like_count_distribution(5, SimConfig(p_l0=0.0, p_r0=0.1), t_max=100)
        assert pmf[0] == pytest.approx(1.0, abs=1e-9)

    def test_masses_sum_to_one(self):
        pmf = like_count_distribution(8, BASE_CFG, t_max=100)
        assert np.all(pmf >= -1e-12)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("t_max", [-1, -3])
    def test_rejects_negative_horizon(self, t_max):
        with pytest.raises(InvalidArgument):
            like_count_distribution(5, BASE_CFG, t_max=t_max)

    @settings(max_examples=25, deadline=None)
    @given(p_l0=PROB, p_r0=PROB, phi=PHI, e_ref=E_REF,
           e0=st.integers(1, 40), t_max=st.integers(0, 80))
    def test_matches_per_energy_loop(self, p_l0, p_r0, phi, e_ref, e0, t_max):
        cfg = SimConfig(p_l0=p_l0, p_r0=p_r0, phi=phi, phi_e_ref=e_ref)
        got = like_count_distribution(e0, cfg, t_max=t_max)
        want = like_count_distribution_loop(e0, cfg, t_max)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("phi", ["one", "saturating"])
    def test_large_e0_vs_monte_carlo(self, phi):
        cfg = SimConfig(p_l0=0.3, p_r0=0.05, phi=phi, phi_e_ref=20.0)
        n = 20000
        exact = like_count_distribution(60, cfg, t_max=150)
        assert exact.sum() == pytest.approx(1.0, abs=1e-12)
        estimate = mc_like_pmf(60, cfg, 150, n, seed=4)
        sigma = np.sqrt(exact * (1.0 - exact) / n)
        assert np.all(np.abs(estimate - exact) <= 5.0 * sigma + 1.0 / n)

    def test_net_increment_composition(self):
        # like +1/repost +2 with universal -1 decay span exactly {-1,0,1,2}
        deltas = {like + 2 * repost - 1
                  for like in (0, 1) for repost in (0, 1)}
        assert deltas == {-1, 0, 1, 2}


def mc_like_pmf(e0, cfg, t_max, n, seed):
    """Like-count frequencies of ``n`` independent single-agent walks."""
    gen = np.random.default_rng(seed)
    energy = np.full(n, e0)
    likes = np.zeros(n, dtype=int)
    for _ in range(t_max):
        live = np.flatnonzero(energy > 0)
        phi = cfg.phi_fn(energy[live])
        like = gen.random(live.size) < cfg.p_l0 * phi
        repost = gen.random(live.size) < cfg.p_r0 * phi
        likes[live] += like
        energy[live] += like.astype(int) + 2 * repost - 1
    return np.bincount(likes, minlength=t_max + 1) / n


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
