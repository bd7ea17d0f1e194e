import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from ccg.data import LabelStats, generate_synthetic
from ccg.errors import DimensionError, NumericalError
from ccg.invariance import contrastive_inv_loss, make_env_views_batch
from ccg.reward import clamp_probs, curiosity_surrogate
from ccg import evaluation, training
from ccg.sem import PAIR_ARRAYS, init_model, predict_batch
from ccg.training import (ADAM_GROUPS, FIELD_RULES, AdamW, ObjectiveSpec,
                          TrainConfig, alpha_weights,
                          composite_value_and_grads, load_run, save_run,
                          train, weighted_ce)

from conftest import (dense_grads, fd_probe, gradient_of,
                      objective_config, toy_setup)


def stats_for(freq, rare=()):
    return LabelStats(freq=np.asarray(freq), rare_set=frozenset(rare),
                      rare_pct=30.0)


class TestAlphaWeights:
    def test_quarter_power_ratio(self):
        a = alpha_weights(stats_for([16, 1]))
        assert a[1] / a[0] == pytest.approx(2.0)

    def test_three_way_ratios(self):
        a = alpha_weights(stats_for([81, 16, 1]))
        np.testing.assert_allclose(a / a[2], [1 / 3, 1 / 2, 1.0], rtol=1e-12)

    def test_mean_one(self, rng):
        a = alpha_weights(stats_for(rng.integers(1, 500, 12)))
        assert a.mean() == pytest.approx(1.0)

    def test_zero_frequency_floored(self):
        a = alpha_weights(stats_for([0, 1]))
        assert np.isfinite(a).all()
        assert a[0] == a[1]


class TestLossHelpers:
    def test_weighted_ce_hand_oracle(self):
        preds = np.array([[0.9, 0.2]])
        y = np.array([[1, 0]])
        alpha = np.array([2.0, 0.5])
        oracle = -(2.0 * math.log(0.9) + 0.5 * math.log(0.8))
        assert weighted_ce(preds, y, alpha)[0] == pytest.approx(oracle)

    def test_weighted_ce_batch_mean(self):
        preds = np.array([[0.9], [0.5]])
        y = np.array([[1], [1]])
        oracle = -(math.log(0.9) + math.log(0.5)) / 2
        assert weighted_ce(preds, y, np.ones(1))[0] == pytest.approx(oracle)

    # the rare-label regularizer is weighted_ce with weight 1 on the rare
    # labels and 0 on the rest
    def test_rare_reg_restricted_to_rare_columns(self):
        preds = np.array([[0.9, 0.2]])
        y = np.array([[1, 0]])
        value, dP = weighted_ce(preds, y, np.array([0.0, 1.0]))
        assert value == pytest.approx(-math.log(0.8))
        assert dP[0, 0] == 0.0 and dP[0, 1] == pytest.approx(1 / 0.8)

    def test_rare_reg_empty_set_zero(self):
        value, dP = weighted_ce(np.array([[0.5, 0.5]]), np.array([[1, 0]]),
                                np.zeros(2))
        assert value == 0.0
        assert not dP.any()


def _probs(rng, shape):
    """Probabilities well inside (PROB_EPS, 1 - PROB_EPS), where no clamp
    is active and every term is smooth."""
    return rng.uniform(0.05, 0.95, shape)


def _term_case(name, rng):
    """(value_fn, input arrays) for one loss term at a small shape:
    B=5 samples, L=4 labels, 3 environment views, 2 players. The rare and
    environment terms are weighted_ce as the composite calls it: 0/1
    weights on the rare labels, and unit weights over the 3 views' stacked
    rows."""
    B, L = 5, 4
    Y = (rng.random((B, L)) < 0.5).astype(np.float64)
    if name in ("weighted_ce", "rare_reg", "env_consistency"):
        M = 3 if name == "env_consistency" else 1
        P = _probs(rng, (M * B, L))
        weights = {"weighted_ce": rng.uniform(0.5, 2.0, L),
                   "rare_reg": np.array([0.0, 1.0, 0.0, 1.0]),
                   "env_consistency": np.ones(L)}[name]

        def value_fn():
            value, dP = weighted_ce(P, np.tile(Y, (M, 1)), weights)
            return value, [dP]
        return value_fn, [P]
    if name == "contrastive_inv":
        encs = [[rng.normal(size=(B, 3)) for _ in range(3)] for _ in range(2)]

        def value_fn():
            value, d_enc = contrastive_inv_loss(encs)
            return value, [d for dk in d_enc for d in dk]
        return value_fn, [e for ek in encs for e in ek]
    P, P_cf, P_rest = (_probs(rng, (B, L)) for _ in range(3))
    freq = rng.integers(0, 9, L).astype(np.float64)
    beta, gamma_r = 0.7, 0.9

    def value_fn():
        div, js, _, dP, dP_cf, dP_rest = curiosity_surrogate(
            P, P_cf, P_rest, Y, [[0, 2], [1, 3]], freq, beta, gamma_r)
        return -beta * div + gamma_r * js, [dP, dP_cf, dP_rest]
    return value_fn, [P, P_cf, P_rest]


@pytest.mark.parametrize("name", ["weighted_ce", "rare_reg", "env_consistency",
                                  "contrastive_inv", "curiosity"])
def test_term_gradient_matches_finite_differences(name):
    # each term's gradient against its own inputs; criterion 01 checks the
    # same terms chained through the model by the composite
    value_fn, arrays = _term_case(name, np.random.default_rng(4))
    assert fd_probe(value_fn, arrays, n_probes=30, step=1e-6) < 1e-6


class TestCompositeObjective:
    def make_obj(self, ds, stats, masks, wt, beta=1.0, gamma_r=0.2,
                 **cfg_kw):
        return ObjectiveSpec(cfg=objective_config(**cfg_kw),
                             alpha=np.ones(ds.L), stats=stats, wtilde=wt,
                             masks=masks, beta=beta, gamma_r=gamma_r,
                             rng_seed=(3,))

    def test_total_is_weighted_sum_of_breakdown(self):
        ds, stats, model, _, masks, wt = toy_setup(seed=6)
        obj = self.make_obj(ds, stats, masks, wt,
                            lambda_rare=0.5, lambda_graph=0.4,
                            lambda_inv=0.3, lambda_env=0.6, lambda_rwd=0.8,
                            beta=0.7, gamma_r=0.9, m_envs=3)
        total, _, bd = composite_value_and_grads(model, ds.X, ds.Y, obj)
        recon = (1.0 * bd["ce"] + 0.5 * bd["rare"] + 0.4 * bd["graph"]
                 + 0.3 * bd["inv"] + 0.6 * bd["env"]
                 + 0.8 * (-0.7 * bd["diversity"] + 0.9 * bd["cf_js"]))
        assert total == pytest.approx(recon, rel=1e-12)

    def test_terms_scale_linearly_with_coefficients(self):
        ds, stats, model, _, masks, wt = toy_setup(seed=7)
        obj1 = self.make_obj(ds, stats, masks, wt,
                             lambda_graph=1.0)
        obj2 = self.make_obj(ds, stats, masks, wt,
                             lambda_graph=3.0)
        t1, g1, bd1 = composite_value_and_grads(model, ds.X, ds.Y, obj1)
        t2, g2, bd2 = composite_value_and_grads(model, ds.X, ds.Y, obj2)
        assert bd1["graph"] == bd2["graph"]  # breakdown is unweighted
        assert t2 == pytest.approx(bd1["ce"] + 3 * bd1["graph"])

    def test_deterministic_given_seed(self):
        ds, stats, model, _, masks, wt = toy_setup(seed=8)
        obj = self.make_obj(ds, stats, masks, wt,
                            lambda_rwd=1.0, lambda_inv=1.0, lambda_env=1.0,
                            m_envs=3, beta=0.5, gamma_r=0.5)
        t1, g1, _ = composite_value_and_grads(model, ds.X, ds.Y, obj)
        t2, g2, _ = composite_value_and_grads(model, ds.X, ds.Y, obj)
        assert t1 == t2
        g1 = dense_grads(g1)
        for k, b in dense_grads(g2).items():
            np.testing.assert_array_equal(g1[k], b)

    @pytest.mark.parametrize("M", [3, 5])
    def test_full_step_kernel_calls_do_not_grow_with_views(self, M,
                                                           monkeypatch):
        # the M views run as one stacked batch: one forward for all of them
        # and one backward for them and the counterfactual rows stacked
        # under them, besides the salience pass, and one encoder call for
        # every player
        ds, stats, model, _, masks, wt = toy_setup(L=6, N=5, seed=11)
        calls = dict.fromkeys(("pair_features", "pair_backward", "head",
                               "head_backward", "encode_batch"), 0)
        for name in calls:
            def counted(*args, _fn=getattr(training, name), _name=name, **kw):
                calls[_name] += 1
                return _fn(*args, **kw)
            monkeypatch.setattr(training, name, counted)
        obj = self.make_obj(ds, stats, masks, wt,
                            lambda_rare=0.5, lambda_graph=0.4, lambda_inv=0.3,
                            lambda_env=0.6, lambda_rwd=0.8, m_envs=M)
        composite_value_and_grads(model, ds.X, ds.Y, obj)
        assert calls == {"pair_features": 2, "pair_backward": 2, "head": 2,
                         "head_backward": 2, "encode_batch": 1}

    def test_bce_terms_match_their_formulas(self):
        # the environment term is the unweighted BCE, summed over labels and
        # averaged over rows, of each of the M views the composite builds
        # from its seed, averaged over the views; the rare term is that BCE
        # over the rare labels alone, on the raw rows
        ds, stats, model, _, masks, wt = toy_setup(L=5, N=2, seed=12)
        assert 0 < len(stats.rare_set) < ds.L
        obj = self.make_obj(ds, stats, masks, wt, lambda_rare=0.5,
                            lambda_env=0.6, lambda_inv=0.3, m_envs=3)
        _, _, bd = composite_value_and_grads(model, ds.X, ds.Y, obj)
        views = make_env_views_batch(ds.X, 3, None, np.random.default_rng(
            list(obj.rng_seed) + [1]))
        y = ds.Y.astype(np.float64)

        def bce(X):
            p = clamp_probs(predict_batch(model, X))
            return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
        env = np.mean([bce(V).sum(axis=1).mean() for V in views])
        assert bd["env"] == pytest.approx(env, rel=0, abs=1e-12)
        rare = sorted(stats.rare_set)
        assert bd["rare"] == pytest.approx(
            bce(ds.X)[:, rare].sum(axis=1).mean(), rel=0, abs=1e-12)

        # with no rare label the term is 0 and moves no gradient
        stats = dataclasses.replace(stats, rare_set=frozenset())
        grads = []
        for lam in (0.5, 0.0):
            obj = self.make_obj(ds, stats, masks, wt, lambda_rare=lam,
                                lambda_env=0.6, lambda_rwd=0.8, m_envs=3)
            _, g, bd = composite_value_and_grads(model, ds.X, ds.Y, obj)
            assert bd["rare"] == 0.0
            grads.append(dense_grads(g))
        for name, a in grads[0].items():
            np.testing.assert_array_equal(a, grads[1][name])

    def test_nonfinite_probability_raises_numerical_error(self):
        ds, stats, model, _, masks, wt = toy_setup(seed=9)
        model.b[...] = np.nan
        obj = self.make_obj(ds, stats, masks, wt)
        with pytest.raises(NumericalError):
            composite_value_and_grads(model, ds.X, ds.Y, obj)


def textbook_clipped_adamw(params, grad_steps, lrs, decays, clip,
                           beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference AdamW: clip all gradients to global norm `clip`, update
    both moments, bias-correct, then apply the step and decoupled decay."""
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, gs in enumerate(grad_steps, start=1):
        norm = math.sqrt(sum(float((g ** 2).sum()) for g in gs))
        if norm > clip:
            gs = [g * (clip / norm) for g in gs]
        for i, g in enumerate(gs):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * g ** 2
            m_hat = m[i] / (1.0 - beta1 ** t)
            v_hat = v[i] / (1.0 - beta2 ** t)
            params[i] = params[i] - lrs[i] * (
                m_hat / (np.sqrt(v_hat) + eps) + decays[i] * params[i])
    return params


class TestAdamW:
    def test_single_step_matches_hand_formula(self):
        model = init_model(3, 2, 2, seed=0)
        cfg = TrainConfig(lr_main=0.1, lr_aux=0.2, weight_decay=0.0,
                          grad_clip=0.0)
        opt = AdamW(model, cfg)
        grads = model.gradient()
        g = 0.5
        grads.b[...] = g
        b_before = model.b.copy()
        opt.step(grads)
        # first Adam step with constant gradient moves by ~lr * sign(g)
        m_hat = g
        v_hat = g ** 2
        expected = b_before - 0.2 * m_hat / (math.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(model.b, expected, rtol=1e-9)

    def test_decoupled_decay_shrinks_mlp_weights_only(self):
        model = init_model(3, 2, 2, seed=1)
        cfg = TrainConfig(lr_main=0.0, lr_aux=0.0, weight_decay=0.5,
                          grad_clip=0.0)
        # zero lr means only decay could act, and lr scales decay too
        opt = AdamW(model, cfg)
        w1_before = model.w1.copy()
        opt.step(model.gradient())
        np.testing.assert_array_equal(model.w1, w1_before)

    def test_global_norm_clipping(self):
        model = init_model(3, 2, 2, seed=2)
        cfg = TrainConfig(lr_main=1.0, lr_aux=1.0, weight_decay=0.0,
                          grad_clip=1.0)
        opt = AdamW(model, cfg)
        g1 = model.gradient()
        g1.W[...] = 1e6
        before = model.W.copy()
        opt.step(g1)
        # clipped update stays bounded by lr regardless of gradient scale
        assert np.abs(model.W - before).max() < 1.1

    def test_non_contiguous_parameter_rejected(self):
        # updates go through flat views, which a strided array cannot give
        model = init_model(3, 3, 2, seed=6)
        model.W = model.W.T
        with pytest.raises(ValueError):
            AdamW(model, TrainConfig())

    @pytest.mark.parametrize("grad_clip", [0.0, 1.0])
    def test_step_after_keep_pairs_equals_the_full_step(self, grad_clip):
        # keep_pairs trims both moments with the parameters and keeps t, so
        # the trimmed optimizer's step is the full one's on the kept pairs
        # when the other pairs' gradients are zero, as after a partition
        rng = np.random.default_rng(9)
        mask = np.zeros((4, 4))
        mask[[0, 1, 3, 3], [2, 0, 1, 2]] = 1.0
        cfg = TrainConfig(lr_main=0.05, lr_aux=0.2, weight_decay=0.3,
                          grad_clip=grad_clip)
        full, trimmed = (init_model(5, 4, 3, seed=4, players=2, enc_dim=2)
                         for _ in range(2))
        opt_full, opt_trim = AdamW(full, cfg), AdamW(trimmed, cfg)

        def random_grads():
            return {k: rng.normal(0.0, 3.0, a.shape)
                    for k, a in full.param_arrays().items()}

        for _ in range(2):
            g = gradient_of(full, random_grads())
            opt_full.step(g)
            opt_trim.step(g)
        trimmed = opt_trim.keep_pairs(trimmed, mask)
        assert len(trimmed.pairs) == 4 and opt_trim.t == 2
        g = random_grads()
        i, j = full.pairs.T
        kept = mask[i, j] != 0
        for name in PAIR_ARRAYS:
            g[name][~kept] = 0.0
        opt_full.step(gradient_of(full, g))
        opt_trim.step(gradient_of(trimmed, {
            k: a[kept] if k in PAIR_ARRAYS else a for k, a in g.items()}))
        assert opt_trim.t == opt_full.t == 3
        for got, want in ((trimmed, full), (opt_trim.m, opt_full.m),
                          (opt_trim.v, opt_full.v)):
            for name, a in want.keep_pairs(mask).param_arrays().items():
                np.testing.assert_array_equal(got.param_arrays()[name], a)
        # later steps update the trimmed model in place
        assert all(p is a for p, a in zip(opt_trim.params,
                                          trimmed.param_arrays().values()))

    def test_clipped_steps_match_textbook_formula(self):
        # w1 has 7*6*8 = 336 rows of d = 64, more than the 256 rows of one
        # update block. Even steps give w1's gradient as d = 64 rows of
        # factors, whose norm is summed over the row blocks; odd steps as
        # R = 5 rows, whose norm comes from the Grams
        model = init_model(64, 7, 8, seed=3, players=2, enc_dim=4)
        cfg = TrainConfig(lr_main=0.05, lr_aux=0.2, weight_decay=0.3,
                          grad_clip=1.0)
        opt = AdamW(model, cfg)
        before = [p.copy() for p in opt.params]
        rng = np.random.default_rng(5)
        steps = []
        for t in range(4):
            arrays = {k: rng.normal(0.0, 3.0, a.shape)
                      for k, a in model.param_arrays().items()}
            if t % 2:
                D, X = rng.normal(size=(5, 336)), rng.normal(size=(5, 64))
                arrays["w1"] = (D.T @ X).reshape(model.w1.shape)
                g = gradient_of(model, {k: a for k, a in arrays.items()
                                        if k != "w1"})
                g.w1.add(D, X)
            else:
                g = gradient_of(model, arrays)
            assert math.sqrt(sum(float((a ** 2).sum()) for a in
                                 arrays.values())) > cfg.grad_clip
            steps.append(list(arrays.values()))
            opt.step(g)
        expected = textbook_clipped_adamw(before, steps, opt.lrs, opt.decays,
                                          cfg.grad_clip)
        # atol covers entries where a parameter and its update nearly cancel:
        # both are O(0.1) and differ from the reference by a few ulp
        for got, want in zip(opt.params, expected):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_rows_wider_than_one_block_match_textbook_formula(self):
        # with d > ADAM_BLOCK each w1 block is one row of d elements, more
        # than an elementwise block of any other array
        d = training.ADAM_BLOCK + 1
        model = init_model(d, 2, 1, seed=8)
        cfg = TrainConfig(lr_main=0.05, lr_aux=0.2, weight_decay=0.3,
                          grad_clip=1.0)
        opt = AdamW(model, cfg)
        before = [p.copy() for p in opt.params]
        rng = np.random.default_rng(6)
        steps, clips = [], []
        for _ in range(2):
            arrays = {k: rng.normal(0.0, 3.0, a.shape)
                      for k, a in model.param_arrays().items()}
            D, X = rng.normal(size=(3, 2)), rng.normal(size=(3, d))
            arrays["w1"] = (D.T @ X).reshape(model.w1.shape)
            g = gradient_of(model, {k: a for k, a in arrays.items()
                                    if k != "w1"})
            g.w1.add(D, X)
            steps.append(list(arrays.values()))
            clips.append(opt.step(g)[1])
        assert clips == [True, True]
        expected = textbook_clipped_adamw(before, steps, opt.lrs, opt.decays,
                                          cfg.grad_clip)
        for got, want in zip(opt.params, expected):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


class TestTrain:
    def small_ds(self, seed=0):
        dss, world = generate_synthetic(L=4, d=20, n=80, n_envs=1, seed=seed,
                                        edge_density=0.3)
        return dss[0], world

    def small_cfg(self, **kw):
        base = dict(max_epochs=4, warmup_epochs=2, patience=3, n_players=2,
                    hidden=4, enc_dim=4, batch_size=16, seed=0, m_envs=2)
        base.update(kw)
        return TrainConfig(**base)

    def test_deterministic_given_seed(self):
        ds, world = self.small_ds()
        cfg = self.small_cfg()
        r1 = train(ds, cfg, planted=world)
        r2 = train(ds, cfg, planted=world)
        assert r1.log == r2.log
        for a, b in zip(r1.model.param_arrays().values(),
                        r2.model.param_arrays().values()):
            np.testing.assert_array_equal(a, b)
        assert r1.masks.subsets == r2.masks.subsets

    def test_training_reduces_cross_entropy(self):
        ds, world = self.small_ds(seed=1)
        r = train(ds, self.small_cfg(max_epochs=6), planted=world)
        assert r.log[-1]["ce"] < r.log[0]["ce"]

    def test_peak_memory_below_five_copies_of_the_pair_arrays(self):
        # the model, AdamW's two moments and one gradient would be four
        # copies of the L(L-1) pair arrays: init draws w1 a row at a time,
        # and a step's gradient is freed before the next step makes its own.
        # w1's gradient is held as its factors, so the peak stays below four
        ds = generate_synthetic(L=20, d=96, n=120, n_envs=1, seed=3)[0][0]
        cfg = TrainConfig(max_epochs=2, warmup_epochs=1, n_players=3)
        model = init_model(ds.d, ds.L, cfg.hidden, cfg.seed)
        pair_bytes = sum(getattr(model, k).nbytes for k in PAIR_ARRAYS)
        del model
        tracemalloc.start()
        try:
            train(ds, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * pair_bytes, peak / pair_bytes
        assert peak < 4 * pair_bytes, peak / pair_bytes

    def test_log_holds_the_pre_clip_norm_and_clip_rate(self, monkeypatch):
        # one warm-up step over all 64 training rows: its logged norm is the
        # norm of the step's gradient, multiplied out, and a norm above
        # grad_clip is clipped on that step
        ds, _ = self.small_ds(seed=7)
        dense = []
        step = AdamW.step

        def recorded_step(opt, grads):
            dense.append(np.linalg.norm(np.concatenate(
                [a.ravel() for a in dense_grads(grads).values()])))
            return step(opt, grads)

        monkeypatch.setattr(AdamW, "step", recorded_step)
        cfg = self.small_cfg(max_epochs=1, batch_size=64, grad_clip=1e-3)
        (entry,) = train(ds, cfg).log
        assert entry["grad_norm"] == pytest.approx(dense[0], rel=1e-12)
        assert dense[0] > cfg.grad_clip and entry["clip_rate"] == 1.0
        # with the clip off no step is clipped, and the norm is still logged
        log = train(ds, self.small_cfg(max_epochs=3, grad_clip=0.0)).log
        assert [e["clip_rate"] for e in log] == [0.0] * 3
        assert all(e["grad_norm"] > 0 for e in log)

    def test_max_epochs_zero_returns_initial_model(self):
        ds, _ = self.small_ds(seed=2)
        cfg = self.small_cfg(max_epochs=0)
        r = train(ds, cfg)
        assert r.log == [] and r.masks is None
        ref = init_model(ds.d, ds.L, cfg.hidden, cfg.seed)
        np.testing.assert_array_equal(r.model.W, ref.W)

    def test_partition_built_at_warmup_boundary(self):
        ds, world = self.small_ds(seed=3)
        r = train(ds, self.small_cfg(warmup_epochs=2, max_epochs=4),
                  planted=world)
        assert r.log[1]["n_players"] == 0       # still warming up
        assert r.log[2]["n_players"] == 2       # players active
        assert len(r.masks.subsets) == 2

    def test_w_diagonal_stays_exactly_zero(self, monkeypatch):
        # no loss term, weight decay or projection touches W's diagonal, so
        # the zero it starts at survives every warm-up and full step
        ds, world = self.small_ds(seed=3)
        diag = []
        step = AdamW.step

        def checked_step(opt, grads):
            out = step(opt, grads)
            W = opt.params[opt.names.index("W")]
            diag.append(np.abs(np.diag(W)).max())
            return out

        monkeypatch.setattr(AdamW, "step", checked_step)
        r = train(ds, self.small_cfg(warmup_epochs=2, max_epochs=4,
                                     patience=4), planted=world)
        assert [e["n_players"] for e in r.log] == [0, 0, 2, 2]
        assert len(diag) == 4 * 4  # 64 training samples in batches of 16
        assert max(diag) == 0.0
        assert (np.diag(r.model.W) == 0.0).all()

    def test_log_length_bounded_by_max_epochs(self):
        ds, _ = self.small_ds(seed=4)
        r = train(ds, self.small_cfg(max_epochs=5, patience=1))
        assert 1 <= len(r.log) <= 5

    def test_anneal_endpoints_in_log(self):
        ds, _ = self.small_ds(seed=5)
        r = train(ds, self.small_cfg(max_epochs=3, patience=10,
                                     warmup_epochs=0))
        assert r.log[0]["beta"] <= 1.0
        assert r.log[-1]["gamma_r"] > r.log[0]["gamma_r"]

    def test_partition_source_cooccur(self):
        ds, _ = self.small_ds(seed=6)
        r = train(ds, self.small_cfg(partition_source="cooccur",
                                     lambda_graph=0.0))
        assert r.masks is not None and len(r.masks.subsets) == 2

    @pytest.mark.parametrize("n,val_frac,on_train", [
        (2, 0.2, True),     # round(0.4) = 0 validation samples
        (80, 0.0, True),
        (200, 0.2, False),
    ])
    def test_log_says_when_validation_reads_the_training_set(self, n, val_frac,
                                                             on_train):
        dss, _ = generate_synthetic(L=4, d=20, n=200, n_envs=1, seed=0,
                                    edge_density=0.3)
        r = train(dss[0].subset(np.arange(n)),
                  self.small_cfg(max_epochs=2, warmup_epochs=1,
                                 val_frac=val_frac))
        assert [e["val_on_train"] for e in r.log] == [on_train] * 2

    def test_returns_the_model_of_its_returned_entry(self):
        # the returned model scores the returned entry's val_map on the
        # validation split train draws, the first val_frac of its
        # permutation; here that is epoch 4 of 0-5
        ds, world = self.small_ds(seed=4)
        cfg = self.small_cfg(max_epochs=6, warmup_epochs=1, patience=6,
                             lr_main=0.03)
        r = train(ds, cfg, planted=world)
        best = r.returned_entry
        assert best is r.log[4] and best["n_players"] == 2
        assert best["val_map"] == max(e["val_map"] for e in r.log[1:])
        perm = np.random.default_rng([cfg.seed, 11]).permutation(ds.n)
        val = ds.subset(perm[:int(round(cfg.val_frac * ds.n))])
        assert evaluation.evaluate(r.model, None, r.masks, val, None, r.stats,
                                   [cfg.rare_pct]).map == best["val_map"]

    # without a full epoch train returns the last epoch's model
    @pytest.mark.parametrize("maps,players,want", [
        ([0.5, 0.9, 0.7], [0, 0, 0], 2),
        ([], [], None),
    ])
    def test_returned_entry_without_a_full_epoch(self, maps, players, want):
        log = [{"epoch": e, "val_map": m, "n_players": n}
               for e, (m, n) in enumerate(zip(maps, players))]
        r = training.TrainResult(model=None, masks=None, graph=None,
                                 stats=None, config=TrainConfig(), log=log)
        got = r.returned_entry
        assert (None if got is None else got["epoch"]) == want

    def test_empty_dataset_rejected(self):
        ds, _ = self.small_ds()
        with pytest.raises(ValueError):
            train(ds.subset(np.array([], dtype=int)), self.small_cfg())


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        dss, world = generate_synthetic(L=4, d=16, n=60, n_envs=1, seed=7,
                                        edge_density=0.3)
        cfg = TrainConfig(max_epochs=3, warmup_epochs=1, n_players=2,
                          hidden=4, enc_dim=4, seed=1)
        r = train(dss[0], cfg, planted=world)
        run_dir = tmp_path / "run"
        save_run(run_dir, r)
        model, encoders, subsets, masks, graph, stats, cfg2 = load_run(run_dir)
        for a, b in zip(model.param_arrays().values(),
                        r.model.param_arrays().values()):
            np.testing.assert_array_equal(a, b)
        # the pair index is rebuilt from graph.json and the players
        np.testing.assert_array_equal(model.pairs, r.model.pairs)
        np.testing.assert_array_equal(model.pairs, masks.pairs)
        np.testing.assert_array_equal(masks.pairs, r.masks.pairs)
        assert subsets == masks.subsets == r.masks.subsets
        assert graph.edges == r.graph.edges
        assert stats.rare_set == r.stats.rare_set
        assert cfg2 == r.config

    def test_load_run_rejects_a_bad_config(self, tmp_path):
        dss, _ = generate_synthetic(L=3, d=12, n=40, n_envs=1, seed=8)
        r = train(dss[0], TrainConfig(max_epochs=0, hidden=3, enc_dim=3))
        save_run(tmp_path, r)
        path = tmp_path / "config.json"
        good = json.loads(path.read_text())
        for key, val in (("typo_key", 1), ("gamma", "0.5"), ("gamma", 2.0)):
            path.write_text(json.dumps({**good, key: val}))
            with pytest.raises(ValueError, match=f"config.json: .*{key}"):
                load_run(tmp_path)
        path.write_text("[]")
        with pytest.raises(ValueError, match="config.json must hold"):
            load_run(tmp_path)

    def test_log_file_deterministic(self, tmp_path):
        dss, _ = generate_synthetic(L=3, d=12, n=40, n_envs=1, seed=8)
        cfg = TrainConfig(max_epochs=2, warmup_epochs=1, n_players=2,
                          hidden=3, enc_dim=3, seed=2)
        out = []
        for sub in ("a", "b"):
            r = train(dss[0], cfg)
            d = tmp_path / sub
            save_run(d, r)
            out.append((d / "log.jsonl").read_bytes()
                       + (d / "model.json").read_bytes()
                       + (d / "model.npz").read_bytes())
        assert out[0] == out[1]

    def test_log_writes_a_non_finite_value_as_null(self, tmp_path):
        dss, _ = generate_synthetic(L=3, d=12, n=40, n_envs=1, seed=8)
        r = train(dss[0], TrainConfig(max_epochs=1, hidden=3, enc_dim=3))
        r.log[0].update(grad_norm=math.inf, clip_rate=math.nan)
        save_run(tmp_path, r)
        (entry,) = [json.loads(line, parse_constant=pytest.fail) for line in
                    (tmp_path / "log.jsonl").read_text().splitlines()]
        assert entry["grad_norm"] is entry["clip_rate"] is None
        assert entry["epoch"] == 0 and entry["ce"] == r.log[0]["ce"]

    def test_run_without_graph_removes_a_stale_graph(self, tmp_path):
        dss, _ = generate_synthetic(L=3, d=12, n=40, n_envs=1, seed=8)
        trained = train(dss[0], TrainConfig(max_epochs=2, warmup_epochs=1,
                                            n_players=2, hidden=3, enc_dim=3))
        save_run(tmp_path, trained)
        assert (tmp_path / "graph.json").exists()
        untrained = train(dss[0], TrainConfig(max_epochs=0, hidden=3,
                                              enc_dim=3))
        assert untrained.graph is None
        save_run(tmp_path, untrained)
        assert not (tmp_path / "graph.json").exists()
        _, _, subsets, masks, graph, _, _ = load_run(tmp_path)
        assert graph is subsets is masks is None

    def test_every_array_has_one_adam_group_and_one_npz_entry(self,
                                                               tmp_path):
        # SemModel's array fields are the one parameter layout: AdamW's
        # groups and model.npz's keys are exactly its param_arrays()
        dss, _ = generate_synthetic(L=3, d=12, n=40, n_envs=1, seed=8)
        r = train(dss[0], TrainConfig(max_epochs=0, hidden=3, enc_dim=3))
        names = list(r.model.param_arrays())
        assert sorted(ADAM_GROUPS) == sorted(names)
        save_run(tmp_path, r)
        with np.load(tmp_path / "model.npz") as npz:
            assert npz.files == names


# one value per TrainConfig field that its rule rejects
BAD_VALUES = {
    **dict.fromkeys(("batch_size", "n_players", "k_topk", "m_envs", "hidden",
                     "enc_dim"), 0),
    **dict.fromkeys(("max_epochs", "warmup_epochs", "patience", "seed"), -1),
    **dict.fromkeys(("lr_main", "lr_aux", "weight_decay", "grad_clip",
                     "lambda_graph", "lambda_inv", "lambda_env", "lambda_rwd",
                     "lambda_rare", "beta0", "beta_t", "gamma_r0",
                     "gamma_r_t"), -1e-9),
    "val_frac": 1.0,
    "perturb_frac": 0.0,
    "gamma": 1.5,
    "rare_pct": 100.5,
    "eta": 0.5,
    "partition_source": "learnd",
    "uniform_alpha": 1,
}
FIELDS = [f.name for f in dataclasses.fields(TrainConfig)]
FLOAT_FIELDS = [name for name in FIELDS if FIELD_RULES[name][0] is float]


class TestTrainConfig:
    def test_every_field_has_one_rule(self):
        assert sorted(FIELD_RULES) == sorted(FIELDS)
        assert sorted(BAD_VALUES) == sorted(FIELDS)

    def test_defaults_pass_their_rules(self):
        TrainConfig()

    def test_first_bad_field_in_field_order_is_named(self):
        with pytest.raises(ValueError, match=r"^lr_main must be"):
            TrainConfig(batch_size=0, lr_main=-1)

    @pytest.mark.parametrize("name", FIELDS)
    def test_bad_value_rejected_naming_the_field(self, name):
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            TrainConfig(**{name: BAD_VALUES[name]})

    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_nan_rejected(self, name):
        with pytest.raises(ValueError, match=rf"^{name} must be in"):
            TrainConfig(**{name: math.nan})

    @pytest.mark.parametrize("name,value", [
        ("eta", True), ("batch_size", 16.0), ("batch_size", "16"),
        ("uniform_alpha", "yes"), ("partition_source", 3), ("seed", None)])
    def test_wrong_type_rejected(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be of type"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name,value", [
        ("val_frac", 0.0), ("perturb_frac", 1.0), ("gamma", 0.0),
        ("gamma", 1.0), ("rare_pct", 0.0), ("rare_pct", 100.0), ("eta", 1),
        ("grad_clip", 0.0), ("max_epochs", 0), ("m_envs", 1),
        ("partition_source", "cooccur"), ("uniform_alpha", True)])
    def test_interval_ends_accepted(self, name, value):
        assert getattr(TrainConfig(**{name: value}), name) == value

    def test_values_are_kept_as_given(self):
        # an int will do for a float field and stays an int, so a saved
        # config.json keeps its bytes
        cfg = TrainConfig(eta=2, lr_main=0)
        assert type(cfg.eta) is int and type(cfg.lr_main) is int

    def test_frozen_and_replace_checks(self):
        cfg = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 3
        with pytest.raises(ValueError, match="m_envs"):
            dataclasses.replace(cfg, m_envs=0)

    def test_from_dict(self):
        assert TrainConfig.from_dict({}, "here") == TrainConfig()
        assert TrainConfig.from_dict({"seed": 4}, "here").seed == 4
        with pytest.raises(ValueError, match="here must hold a JSON object"):
            TrainConfig.from_dict([("seed", 4)], "here")
        with pytest.raises(ValueError, match="^here: .*'learning_rate'"):
            TrainConfig.from_dict({"learning_rate": 0.1}, "here")
        with pytest.raises(ValueError, match="^here: perturb_frac must be"):
            TrainConfig.from_dict({"perturb_frac": 0}, "here")


class TestExtraEnvs:
    def test_ood_of_another_shape_rejected_before_training(self):
        dss, _ = generate_synthetic(L=3, d=12, n=40, n_envs=1, seed=8)
        other, _ = generate_synthetic(L=3, d=16, n=40, n_envs=1, seed=8)
        cfg = TrainConfig(max_epochs=2, warmup_epochs=1, n_players=2,
                          hidden=3, enc_dim=3)
        with pytest.raises(DimensionError, match=r"\(16, 3\).*\(12, 3\)"):
            train(dss[0], cfg, ood=other[0])
