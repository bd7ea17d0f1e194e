import math

import numpy as np
import pytest

from ccg.data import PlantedWorld, generate_synthetic
from ccg.invariance import contrastive_inv_loss, make_env_views_batch
from ccg.training import weighted_ce


def planted_world():
    return PlantedWorld(L=2, d=8, edges=[(0, 1, 0.8)],
                        causal_blocks={0: [0, 1], 1: [2, 3]},
                        spurious_blocks={(0, 1): [4, 5]},
                        env_params=[{"mean_mult": 1.0, "var_mult": 1.0}])


def views_for(X, M, planted=None, seed=0):
    return make_env_views_batch(X, M, planted, np.random.default_rng(seed))


class TestMakeEnvViews:
    def test_view_zero_is_input(self, rng):
        X = rng.normal(size=(4, 8))
        views = views_for(X, 3, seed=1)
        np.testing.assert_array_equal(views[0], X)
        assert len(views) == 3

    def test_m_one_only_raw(self, rng):
        X = rng.normal(size=(2, 5))
        assert len(views_for(X, 1)) == 1

    def test_m_validation(self):
        with pytest.raises(ValueError):
            views_for(np.ones((2, 3)), 0)

    def test_planted_world_touches_only_spurious_features(self, rng):
        world = planted_world()
        X = rng.normal(size=(4, 8))
        views = views_for(X, 3, planted=world, seed=4)
        sp = sorted(world.spurious_indices())
        keep = [f for f in range(8) if f not in sp]
        for v in views[1:]:
            np.testing.assert_array_equal(v[:, keep], X[:, keep])
        # and the spurious block actually moves
        assert any(not np.array_equal(v[:, sp], X[:, sp]) for v in views[1:])

    def test_generic_perturbation_zeroes_active_fraction(self):
        X = np.ones((3, 20))
        v = views_for(X, 2, seed=7)[1]
        np.testing.assert_array_equal((v == 0.0).sum(axis=1),
                                      [math.ceil(0.1 * 20)] * 3)
        # rows with 20, 15, 11, 9, 1 and 0 active features; every view
        # jitters all features, so only the picked ones read exactly zero
        X = np.ones((6, 20))
        for row, nnz in enumerate([20, 15, 11, 9, 1, 0]):
            X[row, np.random.default_rng(row).permutation(20)[nnz:]] = 0.0
        want = [math.ceil(0.1 * n) for n in (X != 0.0).sum(axis=1)]
        assert want == [2, 2, 2, 1, 1, 0]
        for seed in range(20):
            for v in views_for(X, 3, seed=seed)[1:]:
                np.testing.assert_array_equal((v == 0.0).sum(axis=1), want)
                assert (v[X == 0.0] != 0.0).all()

    def test_deterministic(self, rng):
        X = rng.normal(size=(3, 10))
        for va, vb in zip(views_for(X, 3, seed=5), views_for(X, 3, seed=5)):
            np.testing.assert_array_equal(va, vb)

    def test_batch_views_shapes(self, rng):
        X = rng.normal(size=(6, 8))
        views = make_env_views_batch(X, 3, None, np.random.default_rng(0))
        assert len(views) == 3
        assert all(v.shape == X.shape for v in views)
        np.testing.assert_array_equal(views[0], X)


class TestContrastiveInvLoss:
    def test_identical_views_zero(self, rng):
        enc = rng.normal(size=(3, 4, 5))
        enc[1] = enc[0]
        enc[2] = enc[0]
        value, d_enc = contrastive_inv_loss([enc])
        assert value == 0.0
        assert not np.any(d_enc)

    def test_hand_oracle_two_views(self):
        # one player, two views, batch of 2, encoding dim 2
        enc = np.array([[[1.0, 0.0], [0.0, 0.0]],
                        [[0.0, 0.0], [0.0, 2.0]]])
        # squared distances per sample: 1 and 4, batch mean = 2.5
        value, d_enc = contrastive_inv_loss([enc])
        assert value == pytest.approx(2.5)
        # d/d(view 0) of the batch mean is 2 * (view 0 - view 1) / B
        np.testing.assert_allclose(d_enc[0][0], enc[0] - enc[1])
        np.testing.assert_allclose(d_enc[0][1], enc[1] - enc[0])

    def test_sums_over_players_and_pairs(self, rng):
        enc1 = rng.normal(size=(3, 2, 4))
        enc2 = rng.normal(size=(3, 2, 4))
        total, _ = contrastive_inv_loss([enc1, enc2])
        oracle = 0.0
        for enc in (enc1, enc2):
            for m in range(3):
                for n in range(m + 1, 3):
                    oracle += ((enc[m] - enc[n]) ** 2).sum(axis=1).mean()
        assert total == pytest.approx(oracle)

    def test_nonnegative(self, rng):
        enc = rng.normal(size=(4, 3, 6))
        assert contrastive_inv_loss([enc])[0] >= 0.0


def env_loss(P_views, Y):
    """The environment-consistency term as the composite computes it:
    weighted_ce with unit weights over the views' stacked rows."""
    P = np.vstack([np.atleast_2d(P) for P in P_views])
    return weighted_ce(P, np.tile(np.atleast_2d(Y), (len(P_views), 1)),
                       np.ones(P.shape[1]))[0]


class TestEnvConsistencyLoss:
    def test_hand_oracle_single_env(self):
        # one env, one sample, two labels
        p = np.array([0.8, 0.3])
        y = np.array([1.0, 0.0])
        oracle = -(math.log(0.8) + math.log(0.7))
        assert env_loss([p], y) == pytest.approx(oracle)

    def test_averages_over_environments(self):
        p1 = np.array([0.9])
        p2 = np.array([0.6])
        y = np.array([1.0])
        both = env_loss([p1, p2], y)
        assert both == pytest.approx(0.5 * (env_loss([p1], y)
                                            + env_loss([p2], y)))

    def test_sums_over_players(self):
        # labels 0 and 1 belong to different players: the loss over all
        # labels is the sum of the players' losses on their own labels
        p = np.array([0.7, 0.4])
        y = np.array([1.0, 0.0])
        assert env_loss([p], y) == pytest.approx(
            env_loss([p[:1]], y[:1]) + env_loss([p[1:]], y[1:]))

    def test_perfect_predictions_near_zero(self):
        p = np.array([1.0 - 1e-6, 1e-6])
        y = np.array([1.0, 0.0])
        assert env_loss([p], y) == pytest.approx(0.0, abs=1e-5)


class TestSpuriousFilteringInvariance:
    def test_planted_batch_views_only_move_spurious_columns(self):
        dss, world = generate_synthetic(L=4, d=24, n=30, n_envs=1, seed=6,
                                        edge_density=0.4)
        X = dss[0].X
        views = make_env_views_batch(X, 3, world, np.random.default_rng(2))
        sp = set(world.spurious_indices())
        keep = [f for f in range(world.d) if f not in sp]
        for v in views[1:]:
            np.testing.assert_array_equal(v[:, keep], X[:, keep])
