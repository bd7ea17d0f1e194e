import math

import numpy as np
import pytest

from ccg.reward import (anneal, curiosity_surrogate, generate_counterfactual,
                        js_bernoulli, kl_bernoulli)
from ccg.training import TrainConfig

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
        # up to the PROB_EPS clamp
        for p, q in ((1e-9, 1 - 1e-9), (1.0, 0.0), (0.0, 1.0)):
            assert js_bernoulli(p, q) == pytest.approx(LN2, abs=1e-4)


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


def per_row_counterfactual(X, salience, frac, rng):
    """Oracle: one sample at a time. Sort each row's nonzero features by
    |salience| (ties by index), zero the first ceil(count / 2) of the
    ceil(frac * nnz) chosen, and resample the rest from the batch column,
    one draw each."""
    out = X.copy()
    for i, x in enumerate(X):
        nz = [f for f in range(len(x)) if x[f] != 0.0]
        order = sorted(nz, key=lambda f: (abs(salience[i, f]), f))
        count = math.ceil(frac * len(nz))
        n_mask = math.ceil(count / 2)
        for f in order[:n_mask]:
            out[i, f] = 0.0
        for f in order[n_mask:count]:
            out[i, f] = X[rng.integers(0, len(X)), f]
    return out


def counterfactual(X, salience, frac, seed=0):
    return generate_counterfactual(np.atleast_2d(X), np.atleast_2d(salience),
                                   frac, np.random.default_rng(seed))


class TestGenerateCounterfactual:
    def test_perturbation_count(self, rng):
        # rows with 10, 7 and 3 nonzero features
        X = rng.uniform(1.0, 2.0, (3, 10))
        X[1, 7:] = 0.0
        X[2, 3:] = 0.0
        out = counterfactual(X, rng.normal(size=(3, 10)), 0.3, seed=0)
        changed = (out != X).sum(axis=1)
        assert (changed <= [3, 3, 1]).all()  # ceil(0.3 * nnz)
        # ceil(count / 2) of the chosen features are zeroed in each row; a
        # resampled one can also draw a zero from another row
        zeroed = ((out == 0.0) & (X != 0.0)).sum(axis=1)
        assert (zeroed >= [2, 2, 1]).all() and (zeroed <= changed).all()

    def test_lowest_salience_features_chosen_and_masked(self):
        X = np.ones((2, 10))
        # row 0 ranks features 0, 1, 2 lowest; row 1 ranks 9, 8, 7 lowest
        sal = np.stack([np.arange(10.0), -np.arange(10.0)[::-1]])
        out = counterfactual(X, sal, 0.3, seed=1)
        # ceil(3/2) = 2 masked (lowest salience first), 1 resampled
        assert out[0, 0] == 0.0 and out[0, 1] == 0.0
        assert (out[0, 3:] == 1.0).all()
        assert out[1, 9] == 0.0 and out[1, 8] == 0.0
        assert (out[1, :7] == 1.0).all()

    def test_resampled_values_come_from_batch_column(self):
        X = np.tile(np.arange(1.0, 5.0), (5, 1))
        X[:, 3] *= 7.0
        out = counterfactual(X, np.tile([0.0, 1.0, 2.0, 3.0], (5, 1)), 1.0,
                             seed=2)
        n_mask = math.ceil(4 / 2)
        assert ((out == 0.0).sum(axis=1) == n_mask).all()
        # features 2 and 3 are resampled, each from its own column
        np.testing.assert_array_equal(out[:, :2], 0.0)
        np.testing.assert_array_equal(out[:, 2:], X[:, 2:])

    def test_zero_features_untouched(self):
        X = np.array([[0.0, 5.0, 0.0, 5.0], [0.0, 0.0, 3.0, 0.0]])
        out = counterfactual(X, np.ones((2, 4)), 1.0, seed=3)
        assert (out[X == 0.0] == 0.0).all()

    def test_all_zero_input_returned_unchanged(self):
        X = np.zeros((3, 6))
        rng = np.random.default_rng(0)
        out = generate_counterfactual(X, np.zeros((3, 6)), 0.5, rng)
        np.testing.assert_array_equal(out, X)
        assert out is not X
        # nothing was resampled, so no draw was taken
        assert rng.integers(1 << 30) == np.random.default_rng(0).integers(
            1 << 30)

    def test_deterministic_given_seed(self, rng):
        X = rng.normal(size=(4, 20))
        sal = rng.normal(size=(4, 20))
        np.testing.assert_array_equal(counterfactual(X, sal, 0.4, seed=9),
                                      counterfactual(X, sal, 0.4, seed=9))

    def test_frac_validation(self):
        with pytest.raises(ValueError):
            counterfactual(np.ones(3), np.ones(3), 0.0)
        with pytest.raises(ValueError):
            counterfactual(np.ones(3), np.ones(3), 1.5)

    def test_equals_per_row_oracle_bitwise(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            B, d = int(rng.integers(1, 12)), int(rng.integers(1, 30))
            X = rng.normal(size=(B, d)) * (rng.random((B, d)) < rng.random())
            X[rng.random(B) < 0.2] = 0.0  # whole zero rows
            # integer salience with both signs gives ties in |salience|
            sal = rng.integers(-3, 4, size=(B, d)).astype(np.float64)
            frac = float(rng.choice([0.12, 0.3, 0.5, 1.0]))
            seed = int(rng.integers(1 << 30))
            want = per_row_counterfactual(X, sal, frac,
                                          np.random.default_rng(seed))
            got = generate_counterfactual(X, sal, frac,
                                          np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes()


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
        cfg = TrainConfig()
        assert anneal(0, 100, cfg) == (1.0, 0.2)
        assert anneal(100, 100, cfg) == pytest.approx((0.2, 1.0))

    def test_midpoint(self):
        cfg = TrainConfig()
        beta, gamma_r = anneal(50, 100, cfg)
        assert beta == pytest.approx(0.6)
        assert gamma_r == pytest.approx(0.6)

    def test_monotone(self):
        cfg = TrainConfig()
        betas = [anneal(s, 10, cfg)[0] for s in range(11)]
        gammas = [anneal(s, 10, cfg)[1] for s in range(11)]
        assert betas == sorted(betas, reverse=True)
        assert gammas == sorted(gammas)

    def test_reads_the_train_config_schedule(self):
        cfg = TrainConfig(beta0=2.0, beta_t=0.0, gamma_r0=0.0, gamma_r_t=4.0)
        assert anneal(1, 4, cfg) == (1.5, 1.0)

    def test_step_out_of_range(self):
        cfg = TrainConfig()
        with pytest.raises(ValueError):
            anneal(11, 10, cfg)
        with pytest.raises(ValueError):
            anneal(-1, 10, cfg)
