import math

import numpy as np
import pytest

from ccg.reward import (RewardConfig, anneal, curiosity_surrogate,
                        generate_counterfactual, js_bernoulli, kl_bernoulli)

LN2 = math.log(2.0)


class TestBernoulliDivergences:
    def test_kl_zero_at_equal(self):
        p = np.array([0.1, 0.5, 0.9])
        np.testing.assert_allclose(kl_bernoulli(p, p), 0.0, atol=1e-12)

    def test_kl_nonnegative(self, rng):
        p = rng.uniform(0.01, 0.99, 100)
        q = rng.uniform(0.01, 0.99, 100)
        assert (kl_bernoulli(p, q) >= 0).all()

    def test_kl_hand_value(self):
        # KL(Bern(0.5) || Bern(0.25)) = 0.5 ln 2 + 0.5 ln(2/3)
        expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        assert kl_bernoulli(0.5, 0.25) == pytest.approx(expected, rel=1e-12)

    def test_js_zero_at_equal_and_symmetric(self, rng):
        p = rng.uniform(0.01, 0.99, 50)
        q = rng.uniform(0.01, 0.99, 50)
        np.testing.assert_allclose(js_bernoulli(p, p), 0.0, atol=1e-12)
        np.testing.assert_allclose(js_bernoulli(p, q), js_bernoulli(q, p),
                                   atol=1e-12)

    def test_js_bounded_by_ln2(self, rng):
        p = rng.uniform(0, 1, 200)
        q = rng.uniform(0, 1, 200)
        js = js_bernoulli(p, q)
        assert (js >= 0).all() and (js <= LN2 + 1e-9).all()

    def test_js_approaches_ln2_at_opposite_certainty(self):
        assert js_bernoulli(1e-9, 1 - 1e-9) == pytest.approx(LN2, abs=1e-4)


class TestJsDivergence:
    """js_bernoulli, the divergence the counterfactual term scores."""

    def test_identical_distributions(self):
        p = np.array([0.2, 0.3, 0.5])
        assert (js_bernoulli(p, p) == 0.0).all()

    def test_disjoint_support_is_ln2(self):
        # up to the PROB_EPS clamp
        assert js_bernoulli(1.0, 0.0) == pytest.approx(LN2, abs=1e-4)
        assert js_bernoulli(0.0, 1.0) == pytest.approx(LN2, abs=1e-4)

    def test_symmetry(self, rng):
        p = rng.random(6)
        q = rng.random(6)
        np.testing.assert_allclose(js_bernoulli(p, q), js_bernoulli(q, p),
                                   rtol=1e-12)


def surrogate(P, P_cf, P_rest, Y, subsets, freq=(9, 1, 4, 3)):
    """curiosity_surrogate on one sample, with beta = gamma_R = 1. P_rest
    is what the other players output, so on each label it is the mean of
    the players that do not own it."""
    return curiosity_surrogate(np.atleast_2d(P), np.atleast_2d(P_cf),
                               np.atleast_2d(P_rest),
                               np.atleast_2d(np.asarray(Y, dtype=float)),
                               subsets, np.asarray(freq, dtype=float),
                               1.0, 1.0)


REST = np.full(4, 0.5)


class TestCfConsistency:
    def test_range(self, rng):
        for _ in range(20):
            a = rng.uniform(0, 1, 4)
            b = rng.uniform(0, 1, 4)
            cf_js = surrogate(a, b, REST, np.zeros(4), [[0, 1, 2, 3]])[1]
            assert 0.0 <= cf_js <= LN2 + 1e-9

    def test_identical_predictions_are_perfectly_consistent(self):
        p = np.array([0.2, 0.8, 0.5, 0.5])
        cf_js = surrogate(p, p, REST, np.zeros(4), [[0, 1, 2, 3]])[1]
        assert cf_js == pytest.approx(0.0, abs=1e-12)


class TestGenerateCounterfactual:
    def test_perturbation_count(self):
        x = np.arange(1.0, 11.0)  # 10 nonzero features
        sal = np.arange(10.0)
        out = generate_counterfactual(x, sal, 0.3, seed=0)
        changed = np.flatnonzero(out != x)
        assert len(changed) <= math.ceil(0.3 * 10) == 3

    def test_lowest_salience_features_chosen_and_masked(self):
        x = np.ones(10)
        sal = np.arange(10.0)  # features 0,1,2 have lowest salience
        out = generate_counterfactual(x, sal, 0.3, seed=1)
        # ceil(3/2) = 2 masked (lowest salience first), 1 resampled
        assert out[0] == 0.0 and out[1] == 0.0
        assert (out[3:] == 1.0).all()

    def test_resampled_values_come_from_batch_column(self):
        x = np.ones(4)
        sal = np.array([0.0, 1.0, 2.0, 3.0])
        batch = np.full((5, 4), 7.0)
        out = generate_counterfactual(x, sal, 1.0, seed=2, batch=batch)
        n_mask = math.ceil(4 / 2)
        assert (out == 0.0).sum() == n_mask
        assert all(v in (0.0, 7.0) for v in out)

    def test_zero_features_untouched(self):
        x = np.array([0.0, 5.0, 0.0, 5.0])
        out = generate_counterfactual(x, np.ones(4), 1.0, seed=3)
        assert out[0] == 0.0 and out[2] == 0.0

    def test_all_zero_input_returned_unchanged(self):
        x = np.zeros(6)
        out = generate_counterfactual(x, np.zeros(6), 0.5, seed=0)
        np.testing.assert_array_equal(out, x)
        assert out is not x

    def test_deterministic_given_seed(self, rng):
        x = rng.normal(size=20)
        sal = rng.normal(size=20)
        a = generate_counterfactual(x, sal, 0.4, seed=9)
        b = generate_counterfactual(x, sal, 0.4, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_frac_validation(self):
        with pytest.raises(ValueError):
            generate_counterfactual(np.ones(3), np.ones(3), 0.0, seed=0)
        with pytest.raises(ValueError):
            generate_counterfactual(np.ones(3), np.ones(3), 1.5, seed=0)


class TestPlayerReward:
    subsets = [[0, 1], [2, 3]]

    def test_hand_computed_breakdown(self):
        # on the labels it does not own each player outputs P_rest: player 1
        # gives (0.3, 0.7) on {0, 1}, player 0 gives (0.6, 0.4) on {2, 3}
        preds = np.array([0.9, 0.2, 0.8, 0.1])
        rest = np.array([0.3, 0.7, 0.6, 0.4])
        y = np.array([1, 0, 1, 0])
        pi_cf = np.array([0.8, 0.3, 0.8, 0.3])
        div, cf_js, rare_acc, _, _, _ = surrogate(preds, pi_cf, rest, y,
                                                  self.subsets)
        # player 0 scores labels {0, 1}: preds (0.9, 0.2) -> (1, 0), both
        # correct; player 1 scores {2, 3}: preds (0.8, 0.1) -> (1, 0), both
        # correct; each weighted by 1 / (1 + freq)
        assert rare_acc == pytest.approx(0.5 * (
            0.5 * (1 / 10 + 1 / 2) + 0.5 * (1 / 5 + 1 / 4)))
        assert div == pytest.approx(0.5 * (
            np.mean([kl_bernoulli(0.9, 0.3), kl_bernoulli(0.2, 0.7)])
            + np.mean([kl_bernoulli(0.8, 0.6), kl_bernoulli(0.1, 0.4)])))
        assert cf_js == pytest.approx(0.5 * (
            np.mean([js_bernoulli(0.9, 0.8), js_bernoulli(0.2, 0.3)])
            + np.mean([js_bernoulli(0.8, 0.8), js_bernoulli(0.1, 0.3)])))

    def test_single_player_has_zero_diversity(self):
        p = np.array([0.6, 0.4, 0.5, 0.5])
        div, _, _, dP, _, dP_rest = surrogate(p, p, np.full(4, 0.3),
                                              np.zeros(4), [[0, 1, 2, 3]])
        assert div == 0.0
        assert not dP.any() and not dP_rest.any()

    def test_wrong_predictions_zero_rare_acc(self):
        preds = np.full(4, 0.9)
        rare_acc = surrogate(preds, preds, REST, np.zeros(4), self.subsets)[2]
        assert rare_acc == 0.0


class TestAnneal:
    def test_endpoints(self):
        cfg = RewardConfig()
        assert anneal(0, 100, cfg) == (1.0, 0.2)
        assert anneal(100, 100, cfg) == pytest.approx((0.2, 1.0))

    def test_midpoint(self):
        cfg = RewardConfig()
        beta, gamma_r = anneal(50, 100, cfg)
        assert beta == pytest.approx(0.6)
        assert gamma_r == pytest.approx(0.6)

    def test_monotone(self):
        cfg = RewardConfig()
        betas = [anneal(s, 10, cfg)[0] for s in range(11)]
        gammas = [anneal(s, 10, cfg)[1] for s in range(11)]
        assert betas == sorted(betas, reverse=True)
        assert gammas == sorted(gammas)

    def test_step_out_of_range(self):
        cfg = RewardConfig()
        with pytest.raises(ValueError):
            anneal(11, 10, cfg)
        with pytest.raises(ValueError):
            anneal(-1, 10, cfg)
