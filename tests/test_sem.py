import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from ccg import sem
from ccg.sem import (head, head_backward, init_model, pair_backward,
                     pair_features, predict_batch)
from ccg.training import ObjectiveSpec, composite_value_and_grads

from conftest import (dense_grads, fd_probe, freeze_counterfactuals,
                      gradient_of, objective_config, toy_setup)


def tiny_model(d=3, L=2, hidden=2, seed=0):
    return init_model(d, L, hidden, seed)


def predict_one(m, x):
    """predict_batch on the one-sample batch x."""
    return predict_batch(m, np.asarray(x)[None, :])[0]


def pair_pos(m, i, j):
    """The position of the pair (i, j) in m's pair index."""
    return int(np.flatnonzero((m.pairs == (i, j)).all(axis=1))[0])


class TestPredict:
    def test_all_zero_parameters_give_half(self):
        m = tiny_model()
        for arr in m.param_arrays().values():
            arr[...] = 0.0
        np.testing.assert_allclose(predict_one(m, np.ones(3)), 0.5)

    def test_hand_evaluated_forward_pass(self):
        m = tiny_model(d=2, L=2, hidden=2, seed=1)
        x = np.array([0.3, -0.7])
        p01, p10 = pair_pos(m, 0, 1), pair_pos(m, 1, 0)
        m.w1[p01] = [[1.0, 2.0], [-1.0, 0.5]]
        m.b1[p01] = [0.1, -0.2]
        m.w2[p01] = [0.5, 2.0]
        m.b2[p01] = 0.3
        m.w1[p10] = [[0.0, 1.0], [1.0, 1.0]]
        m.b1[p10] = [0.0, 0.0]
        m.w2[p10] = [1.0, -1.0]
        m.b2[p10] = 0.0
        m.W = np.array([[0.0, 0.8], [-0.4, 0.0]])
        m.b = np.array([0.05, -0.1])
        # hand-computed forward
        h01 = 0.5 * max(1.0 * 0.3 + 2.0 * -0.7 + 0.1, 0) + 2.0 * max(-0.3 - 0.35 - 0.2, 0) + 0.3
        h10 = 1.0 * max(-0.7, 0) - 1.0 * max(0.3 - 0.7, 0)
        expected = expit(np.array([0.8 * h01 + 0.05, -0.4 * h10 - 0.1]))
        np.testing.assert_allclose(predict_one(m, x), expected, atol=1e-12)

    def test_bias_only_when_weights_zero(self):
        m = tiny_model(seed=4)
        m.W[...] = 0.0
        m.b = np.array([1.3, -0.4])
        np.testing.assert_allclose(predict_one(m, np.array([1.0, 2.0, 3.0])),
                                   expit(m.b), atol=1e-14)

    def test_outputs_in_open_interval(self, rng):
        m = tiny_model(d=4, L=3, hidden=4, seed=7)
        for _ in range(10):
            p = predict_one(m, rng.normal(size=4))
            assert ((p > 0) & (p < 1)).all()


class TestPredictMasked:
    """A model predicts through the mask its pair index is; keep_pairs puts
    an (L, L) mask on a model holding every pair."""

    def test_identity_mask_equals_predict(self, rng):
        # a model holding every off-diagonal pair keeps all of them
        m = tiny_model(d=4, L=3, hidden=3, seed=2)
        m.W += rng.normal(0, 0.5, (3, 3))
        np.fill_diagonal(m.W, 0.0)
        X = rng.normal(size=(5, 4))
        kept = m.keep_pairs(1.0 - np.eye(3))
        np.testing.assert_array_equal(kept.pairs, m.pairs)
        np.testing.assert_array_equal(predict_batch(kept, X),
                                      predict_batch(m, X))

    def test_zero_mask_gives_bias_sigmoid(self, rng):
        m = tiny_model(d=4, L=3, hidden=3, seed=3)
        m.b = rng.normal(size=3)
        X = rng.normal(size=(5, 4))
        kept = m.keep_pairs(np.zeros((3, 3)))
        assert kept.pairs.shape == (0, 2) and kept.w1.shape == (0, 3, 4)
        np.testing.assert_allclose(predict_batch(kept, X),
                                   np.tile(expit(m.b), (5, 1)), atol=1e-14)

    def test_equivalence_with_premultiplied_weights(self, rng):
        m = tiny_model(d=4, L=3, hidden=3, seed=5)
        m.W += rng.normal(0, 0.5, (3, 3))
        np.fill_diagonal(m.W, 0.0)
        mask = (rng.random((3, 3)) < 0.5).astype(float)
        m2 = m.copy()
        m2.W = m.W * mask
        X = rng.normal(size=(5, 4))
        np.testing.assert_array_equal(predict_batch(m.keep_pairs(mask), X),
                                      predict_batch(m2, X))

    def test_invariant_to_cross_mask_entries(self, rng):
        m = tiny_model(d=4, L=3, hidden=3, seed=6)
        mask = np.zeros((3, 3))
        mask[1, 0] = 1.0
        X = rng.normal(size=(5, 4))
        kept = m.keep_pairs(mask)
        before = predict_batch(kept, X)
        kept.W[2, 0] = 99.0  # outside the mask
        np.testing.assert_array_equal(predict_batch(kept, X), before)


class TestExpit:
    """sem.expit against scipy.special.expit, the oracle. Both compute
    1 / (1 + exp(-x)), but numpy's SIMD exp is not libm's, so on a normal
    draw about 2 % of the values differ by 1 ulp and 0.4 % by 2."""

    def test_normal_draw_within_two_ulp(self, rng):
        x = rng.normal(0.0, 3.0, size=(200, 50))
        np.testing.assert_array_max_ulp(sem.expit(x), expit(x), maxulp=2)

    def test_extremes_nan_and_no_warning(self):
        x = np.array([-np.inf, -1000, -745, -709, 0, 709, 1000, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            p, p_nan = sem.expit(x), sem.expit(np.array([np.nan]))
        np.testing.assert_array_max_ulp(p, expit(x), maxulp=1)
        assert p[0] == p[1] == p[2] == 0.0 and p[-1] == 1.0
        assert np.isnan(p_nan).all()


class TestInit:
    @pytest.mark.parametrize("d,L,hidden,seed", [(3, 2, 1, 0), (7, 5, 3, 4),
                                                 (96, 12, 16, 9)])
    def test_equals_the_whole_draw_oracle(self, d, L, hidden, seed):
        # init_model draws w1 one row of the (L, L, hidden, d) layout at a
        # time; the oracle draws it whole and gathers the off-diagonal
        rng = np.random.default_rng(seed)
        a1, a2 = np.sqrt(6.0 / (d + hidden)), np.sqrt(6.0 / (hidden + 1))
        off = ~np.eye(L, dtype=bool)
        w1 = rng.uniform(-a1, a1, size=(L, L, hidden, d))[off]
        w2 = rng.uniform(-a2, a2, size=(L, L, hidden))[off]
        W = np.where(off, rng.normal(0.0, 0.01, size=(L, L)), 0.0)
        m = init_model(d, L, hidden, seed)
        for got, want in ((m.w1, w1), (m.w2, w2), (m.W, W)):
            assert got.tobytes() == want.tobytes()

    def test_deterministic(self):
        a = init_model(5, 3, 4, seed=42)
        b = init_model(5, 3, 4, seed=42)
        for ka, kb in zip(a.param_arrays().values(), b.param_arrays().values()):
            np.testing.assert_array_equal(ka, kb)

    def test_predictions_finite(self, rng):
        m = init_model(8, 4, 16, seed=0)
        p = predict_one(m, rng.normal(size=8))
        assert np.isfinite(p).all() and ((p > 0) & (p < 1)).all()

    def test_diagonal_zero(self):
        m = init_model(6, 5, 3, seed=1)
        assert np.diag(m.W).sum() == 0.0

    def test_copy_and_zeros_like_walk_every_array(self):
        m = init_model(4, 3, 2, seed=2, players=2, enc_dim=3)
        assert list(m.param_arrays()) == ["w1", "b1", "w2", "b2", "W", "b",
                                          "enc_w", "enc_b"]
        c, z = m.copy(), m.zeros_like()
        for name, a in m.param_arrays().items():
            assert c.param_arrays()[name] is not a
            np.testing.assert_array_equal(c.param_arrays()[name], a)
            g = z.param_arrays()[name]
            assert g.shape == a.shape and g.flags.c_contiguous
            assert not g.any()


def random_model(L, hidden, d, seed, subset):
    """Model with every held pair slot and bias random. It holds every
    off-diagonal pair, or with subset two pairs of every three."""
    m = init_model(d, L, hidden, seed)
    if subset:
        m = m.keep_pairs(np.arange(L * L).reshape(L, L) % 3 != 1)
        assert 0 < len(m.pairs) < L * (L - 1)
    rng = np.random.default_rng(seed)
    for arr in m.param_arrays().values():
        arr[...] = rng.normal(size=arr.shape)
    return m


def einsum_pair_oracle(m, X, dHp):
    """Pair-MLP forward (B, P) Hp, parameter gradients and input gradient
    for a (B, P) dHp, written as plain einsums over the stacked
    (P, hidden, d) arrays."""
    z = np.einsum("phd,bd->bph", m.w1, X) + m.b1
    a = np.maximum(z, 0.0)
    Hp = np.einsum("ph,bph->bp", m.w2, a) + m.b2
    dz = dHp[:, :, None] * m.w2[None] * (z > 0.0)
    grads = {"w1": np.einsum("bph,bd->phd", dz, X), "b1": dz.sum(axis=0),
             "w2": np.einsum("bp,bph->ph", dHp, a), "b2": dHp.sum(axis=0)}
    dx = np.einsum("bph,phd->bd", dz, m.w1)
    return Hp, grads, dx


# id -> (L, hidden, d, B, subset). At 6-14-6-7 there are P*hidden = 420
# first-layer rows, or 280 holding a subset, more than one block of the
# w1-gradient accumulation
KERNEL_CASES = {"3-4-5-7": (3, 4, 5, 7, False),
                "5-11-6-7": (5, 11, 6, 7, False),
                "6-14-6-7": (6, 14, 6, 7, False),
                "3-4-5-7-subset": (3, 4, 5, 7, True),
                "6-14-6-7-subset": (6, 14, 6, 7, True)}


@pytest.mark.parametrize("L,hidden,d,B,subset", list(KERNEL_CASES.values()),
                         ids=list(KERNEL_CASES))
class TestPairKernels:
    def test_forward_matches_einsum_oracle(self, L, hidden, d, B,
                                           subset):
        m = random_model(L, hidden, d, L, subset)
        X = np.random.default_rng(1).normal(size=(B, d))
        Hp, _ = pair_features(m, X)
        assert Hp.shape == (B, len(m.pairs))
        Hp_ref, _, _ = einsum_pair_oracle(m, X, np.zeros(Hp.shape))
        np.testing.assert_allclose(Hp, Hp_ref, rtol=1e-12, atol=1e-12)

    def test_backward_matches_einsum_oracle(self, L, hidden, d, B,
                                            subset):
        m = random_model(L, hidden, d, L + 1, subset)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(B, d))
        dH = rng.normal(size=(B, len(m.pairs)))
        _, g_ref, dx_ref = einsum_pair_oracle(m, X, dH)
        _, cache = pair_features(m, X)
        # gradients accumulate into what the gradient already holds: w1's
        # factors stack below the exact factors of a dense start
        start = {k: rng.normal(size=getattr(m, k).shape)
                 for k in ("w1", "b1", "w2", "b2")}
        grads = gradient_of(m, start)
        assert pair_backward(m, cache, dH, grads) is None
        got = dense_grads(grads)
        for k in start:
            np.testing.assert_allclose(got[k], start[k] + g_ref[k],
                                       rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(pair_backward(m, cache, dH), dx_ref,
                                   rtol=1e-12, atol=1e-12)

    def test_backward_reads_leading_rows_of_stacked_cache(self, L, hidden, d,
                                                          B, subset):
        # one forward over stacked views serves a backward over view 0 only
        m = random_model(L, hidden, d, L + 3, subset)
        rng = np.random.default_rng(4)
        X = rng.normal(size=(B, d))
        dH = rng.normal(size=(B, len(m.pairs)))
        _, cache = pair_features(m, X)
        others = rng.normal(size=(2 * B, d))
        _, stacked = pair_features(m, np.vstack([X, others]))
        g_own, g_stacked = m.gradient(), m.gradient()
        pair_backward(m, cache, dH, g_own)
        pair_backward(m, stacked, dH, g_stacked)
        want = dense_grads(g_own)
        for k, b in dense_grads(g_stacked).items():
            np.testing.assert_allclose(b, want[k], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(pair_backward(m, stacked, dH),
                                   pair_backward(m, cache, dH),
                                   rtol=1e-12, atol=1e-12)

    def test_input_gradient_matches_finite_differences(self, L, hidden, d, B,
                                                       subset):
        m = random_model(L, hidden, d, L + 2, subset)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(B, d))
        c = rng.normal(size=(B, len(m.pairs)))  # loss = sum(c * Hp)
        _, cache = pair_features(m, X)
        dx = pair_backward(m, cache, c)
        step = 1e-6
        for b, f in [(0, 0), (B - 1, d - 1), (B // 2, d // 2), (1, d - 2)]:
            Xp, Xm = X.copy(), X.copy()
            Xp[b, f] += step
            Xm[b, f] -= step
            fd = ((c * pair_features(m, Xp)[0]).sum()
                  - (c * pair_features(m, Xm)[0]).sum()) / (2 * step)
            assert dx[b, f] == pytest.approx(fd, rel=1e-6, abs=1e-8)


# id -> the batch sizes of two backward passes into one gradient, at d = 8:
# R = 5 rows of factors take the Gram branch of the norm, R = 13 the
# row-block one
STACKED_CASES = {"R5-Gram": (2, 3), "R13-row-blocks": (6, 7)}


@pytest.mark.parametrize("B1,B2", list(STACKED_CASES.values()),
                         ids=list(STACKED_CASES))
class TestFactoredGrad:
    def two_passes(self, B1, B2):
        """w1's gradient from two pair_backward calls into one gradient,
        and the einsum oracle's sum of theirs."""
        m = random_model(4, 5, 8, 6, True)
        rng = np.random.default_rng(7)
        grads, want = m.gradient(), 0.0
        for B in (B1, B2):
            X = rng.normal(size=(B, m.d))
            dH = rng.normal(size=(B, len(m.pairs)))
            want = want + einsum_pair_oracle(m, X, dH)[1]["w1"]
            pair_backward(m, pair_features(m, X)[1], dH, grads)
        assert grads.w1.D.shape == (B1 + B2, want[..., 0].size)
        return grads, want

    def test_stacked_factors_match_einsum_oracle(self, B1, B2):
        grads, want = self.two_passes(B1, B2)
        n = want[..., 0].size
        np.testing.assert_allclose(
            dense_grads(grads)["w1"], want, rtol=1e-12, atol=1e-12)
        # any row block is the same rows of the product
        np.testing.assert_allclose(grads.w1.rows(3, 17),
                                   want.reshape(n, -1)[3:17],
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_norm_from_factors_matches_dense_norm(self, B1, B2, block):
        grads, want = self.two_passes(B1, B2)
        assert math.sqrt(grads.w1.sqnorm(block)) == pytest.approx(
            np.linalg.norm(want), rel=1e-12)


class TestHead:
    def test_pair_head_matches_dense_oracle(self, rng):
        # the pair-space head and its gradients against the masked dense
        # head sigmoid((W * mask) H + b) over a (B, L, L) H that is zero
        # off the held pairs; label 2 holds no pair
        L, B = 5, 6
        mask = (rng.random((L, L)) < 0.6).astype(float)
        mask[2] = 0.0
        m = init_model(3, L, 2, seed=8).keep_pairs(mask)
        m.W = rng.normal(size=(L, L))  # read only at the held pairs
        m.b = rng.normal(size=L)
        i, j = m.pairs.T
        assert 2 not in i and 0 < len(i)
        Hp = rng.normal(size=(B, len(i)))
        H = np.zeros((B, L, L))
        H[:, i, j] = Hp
        held = np.zeros((L, L))
        held[i, j] = 1.0
        Wm = m.W * held
        probs_ref = expit(np.einsum("ij,bij->bi", Wm, H) + m.b)
        probs = head(m, Hp)
        np.testing.assert_allclose(probs, probs_ref, rtol=1e-13, atol=1e-15)
        np.testing.assert_array_equal(probs[:, 2], sem.expit(m.b[2]))

        dprobs = rng.normal(size=(B, L))
        dlogits = dprobs * probs * (1.0 - probs)
        dHp_ref = (dlogits[:, :, None] * Wm[None])[:, i, j]
        # gradients accumulate into what the gradient already holds
        grads = m.zeros_like()
        grads.W[...] = W0 = rng.normal(size=(L, L))
        grads.b[...] = b0 = rng.normal(size=L)
        dHp = head_backward(m, Hp, probs, dprobs, grads)
        np.testing.assert_allclose(
            grads.W, W0 + np.einsum("bi,bij->ij", dlogits, H) * held,
            rtol=1e-13, atol=1e-15)
        np.testing.assert_array_equal(grads.W[held == 0], W0[held == 0])
        np.testing.assert_allclose(grads.b, b0 + dlogits.sum(axis=0),
                                   rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(dHp, dHp_ref, rtol=1e-13, atol=1e-15)
        # without a gradient it returns the same dHp
        np.testing.assert_array_equal(
            head_backward(m, Hp, probs, dprobs, None), dHp)


def ce_objective(stats, alpha=1.0, **cfg_kw):
    """A warm-up step's objective (no players) with CE weights alpha."""
    L = len(stats.freq)
    return ObjectiveSpec(cfg=objective_config(**cfg_kw),
                         alpha=np.full(L, alpha), stats=stats,
                         wtilde=np.zeros((L, L)))


class TestLossAndGradients:
    def test_gradients_match_finite_differences(self, monkeypatch):
        ds, stats, model, _, masks, wt = toy_setup(seed=1)
        cfg = objective_config(lambda_rare=0.5, lambda_graph=0.4,
                               lambda_inv=0.3, lambda_env=0.6,
                               lambda_rwd=0.8, m_envs=3, perturb_frac=0.3)
        obj = ObjectiveSpec(cfg=cfg, alpha=np.ones(ds.L), stats=stats,
                            wtilde=wt, masks=masks,
                            beta=0.7, gamma_r=0.9, rng_seed=(5,))
        # finite differences probe the smooth surrogate on frozen
        # counterfactual inputs
        freeze_counterfactuals(monkeypatch)

        def value_fn():
            loss, grads, _ = composite_value_and_grads(model, ds.X, ds.Y, obj)
            return loss, dense_grads(grads)

        worst = fd_probe(value_fn, model.param_arrays(), n_probes=20,
                         skip=lambda k, idx: k == "W" and idx[0] == idx[1])
        assert worst < 1e-4

    def test_duplicated_batch_mean_invariance(self):
        ds, stats, model, _, masks, wt = toy_setup(seed=2)
        obj = ce_objective(stats, lambda_rare=0.3)
        l1, g1, _ = composite_value_and_grads(model, ds.X, ds.Y, obj)
        X2 = np.vstack([ds.X, ds.X])
        Y2 = np.vstack([ds.Y, ds.Y])
        l2, g2, _ = composite_value_and_grads(model, X2, Y2, obj)
        assert l1 == pytest.approx(l2, rel=1e-12)
        g1 = dense_grads(g1)
        for k, b in dense_grads(g2).items():
            np.testing.assert_allclose(g1[k], b, atol=1e-12)

    def test_all_zero_coefficients(self):
        ds, stats, model, _, masks, wt = toy_setup(seed=3)
        obj = ce_objective(stats, alpha=0.0)
        loss, grads, _ = composite_value_and_grads(model, ds.X, ds.Y, obj)
        assert loss == 0.0
        for a in dense_grads(grads).values():
            assert np.abs(a).sum() == 0.0
