"""End-to-end acceptance checks. Each test prints one PASS/FAIL line."""

import json
import math
import time

import numpy as np
import pytest

from ccg.cli import apply_ablations, main as cli_main
from ccg.data import (compute_label_stats, generate_from_world,
                      generate_synthetic)
from ccg.evaluation import (average_precision, mean_average_precision,
                            per_label_average_precision, predict_dataset,
                            rare_f1, structure_score)
from ccg.graph import extract_graph, graph_loss, rare_indicator_matrix
from ccg.players import build_masks, partition_labels
from ccg.reward import anneal, clamp_probs, js_bernoulli, kl_bernoulli
from ccg.sem import init_model, predict_batch
from ccg.training import (ObjectiveSpec, TrainConfig, alpha_weights,
                          composite_value_and_grads, train)

from conftest import (dense_grads, fd_probe, freeze_counterfactuals,
                      objective_config, toy_dataset)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


# -------------------------------------------------------------------------
# 1. gradient suite

def _gradient_setup(seed):
    rng = np.random.default_rng(seed)
    L = 2 + seed % 5         # 2..6
    d = 4 + seed % 5         # 4..8
    hidden = 3 + seed % 6    # 3..8
    ds = toy_dataset(n=6, d=d, L=L, seed=seed + 100)
    stats = compute_label_stats(ds, 50)
    model = init_model(d, L, hidden, seed=seed + 200, players=min(2, L),
                       enc_dim=4)
    model.W += rng.normal(0, 0.3, (L, L))
    np.fill_diagonal(model.W, 0.0)
    g = extract_graph(rng.normal(0.4, 0.3, (L, L)), 2)
    masks = build_masks(partition_labels(g, min(2, L), stats.freq), g)
    model = model.keep_pairs(masks.union())
    wt = np.clip(rng.normal(0.3, 0.2, (L, L)), 0.0, 1.0)
    np.fill_diagonal(wt, 0.0)
    alpha = rng.uniform(0.5, 2.0, L)
    return ds, stats, model, masks, wt, alpha


def test_criterion_01_gradient_suite(monkeypatch):
    # each term's finite differences see the counterfactuals of its first
    # evaluation; their salience ranking has no derivative
    frozen = freeze_counterfactuals(monkeypatch)
    t0 = time.perf_counter()
    worst_overall = 0.0
    for seed in range(20):
        ds, stats, model, masks, wt, alpha = _gradient_setup(seed)
        # (term, CE on, lambdas, beta, gamma_r); alpha = 0 turns CE off
        term_configs = [
            ("weighted_ce", True, {}, 1.0, 0.2),
            ("rare_reg", False, dict(lambda_rare=1.0), 1.0, 0.2),
            ("graph_quadratic", False, dict(lambda_graph=1.0), 1.0, 0.2),
            ("contrastive_inv", False, dict(lambda_inv=1.0), 1.0, 0.2),
            ("env_consistency", False, dict(lambda_env=1.0), 1.0, 0.2),
            ("diversity", False, dict(lambda_rwd=1.0), 1.0, 0.0),
            ("js_cf", False, dict(lambda_rwd=1.0), 0.0, 1.0),
            ("composite", True, dict(lambda_rare=0.5, lambda_graph=0.4,
                                     lambda_inv=0.3, lambda_env=0.6,
                                     lambda_rwd=0.8), 0.7, 0.9),
        ]
        for name, with_ce, lambdas, beta, gamma_r in term_configs:
            obj = ObjectiveSpec(
                cfg=objective_config(m_envs=3, perturb_frac=0.3, **lambdas),
                alpha=alpha if with_ce else 0.0 * alpha, stats=stats,
                wtilde=wt, masks=masks,
                beta=beta, gamma_r=gamma_r, rng_seed=(seed, 17))
            frozen.clear()

            def value_fn():
                total, grads, _ = composite_value_and_grads(
                    model, ds.X, ds.Y, obj)
                return total, dense_grads(grads)

            n = 8 if name == "composite" else 4
            worst = fd_probe(value_fn, model.param_arrays(), n_probes=n,
                             seed=seed,
                             skip=lambda k, idx: k == "W" and idx[0] == idx[1])
            worst_overall = max(worst_overall, worst)
    elapsed = time.perf_counter() - t0
    _report(1, "gradient suite", worst_overall < 1e-4 and elapsed < 30,
            f"max rel err {worst_overall:.2e}, {elapsed:.1f}s")


# -------------------------------------------------------------------------
# 2. divergence suite

def test_criterion_02_divergence_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    ln2 = math.log(2.0)
    ok = True
    for _ in range(1000):
        # k Bernoulli parameters per side, some at the clamped extremes
        k = int(rng.integers(2, 8))
        p = rng.random(k)
        q = rng.random(k)
        p[rng.random(k) < 0.1] = 0.0
        q[rng.random(k) < 0.1] = 1.0
        js_pq = js_bernoulli(p, q)
        ok &= bool((np.abs(js_pq - js_bernoulli(q, p)) < 1e-12).all())
        ok &= bool(((-1e-12 <= js_pq) & (js_pq <= ln2 + 1e-12)).all())
        ok &= bool((js_bernoulli(p, p) == 0.0).all())
        ok &= bool(((js_pq > 0.0) == (clamp_probs(p) != clamp_probs(q))).all())
        ok &= float(kl_bernoulli(rng.random(), rng.random())) >= 0.0
        ok &= float(kl_bernoulli(0.0, 1.0)) >= 0.0  # clamped extremes finite
    elapsed = time.perf_counter() - t0
    _report(2, "divergence suite", ok and elapsed < 5, f"{elapsed:.1f}s")


# -------------------------------------------------------------------------
# 3. exact formulas

def test_criterion_03_exact_formulas():
    # psi(eta, I) = eta**I, with I = 1 on edges that touch a rare label
    ind = rare_indicator_matrix(3, {2})
    ok = ind[0, 1] == 0 and ind[2, 0] == 1 and ind[0, 2] == 1
    unit = np.array([[0.0, 1.0], [0.0, 0.0]])
    ok &= graph_loss(unit, np.zeros((2, 2)), 1.5, ())[0] == 1.0
    ok &= graph_loss(unit, np.zeros((2, 2)), 1.5, {0})[0] == 1.5

    # rare-edge loss ratio is exactly eta for equal deviations
    W = np.array([[0.0, 0.4], [0.0, 0.0]])
    Wt = np.zeros((2, 2))
    plain = graph_loss(W, Wt, 1.5, ())[0]
    rare = graph_loss(W, Wt, 1.5, {1})[0]
    ok &= rare / plain == 1.5

    from ccg.data import LabelStats
    a = alpha_weights(LabelStats(freq=np.array([16, 1]),
                                 rare_set=frozenset(), rare_pct=30.0))
    ok &= a[1] / a[0] == pytest.approx(2.0, abs=1e-12)

    cfg = TrainConfig()
    ok &= anneal(0, 100, cfg) == (1.0, 0.2)
    b_end, g_end = anneal(100, 100, cfg)
    ok &= abs(b_end - 0.2) < 1e-12 and abs(g_end - 1.0) < 1e-12
    b_mid, g_mid = anneal(50, 100, cfg)
    ok &= abs(b_mid - 0.6) < 1e-12 and abs(g_mid - 0.6) < 1e-12
    _report(3, "exact formulas", ok)


# -------------------------------------------------------------------------
# 4. partition / mask suite

def test_criterion_04_partition_mask_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    ok = True
    for trial in range(100):
        L = int(rng.integers(2, 31))
        N = int(rng.integers(1, L + 1))
        W = rng.uniform(-0.5, 1.0, (L, L))
        np.fill_diagonal(W, 0.0)
        W[rng.random((L, L)) > 0.3] = 0.0
        g = extract_graph(W, 3)
        freq = rng.integers(1, 50, L)
        subsets = partition_labels(g, N, freq)

        # disjoint cover with exactly N subsets
        flat = sorted(x for sub in subsets for x in sub)
        ok &= len(subsets) == N and flat == list(range(L))

        # mask definition by re-evaluation: the pairs (i, j) of the edges
        # j -> i inside one subset, in row-major order
        masks = build_masks(subsets, g)
        edge_set = g.edge_set()
        expect = sorted((i, j) for sub in subsets for i in sub for j in sub
                        if (j, i) in edge_set)
        ok &= masks.pairs.tolist() == [list(p) for p in expect]

        # the prediction of a model kept to the players' pairs is exactly
        # invariant to cross-subset W entries
        if trial % 10 == 0 and N >= 2:
            model = init_model(5, L, 3, seed=trial).keep_pairs(masks.union())
            x = rng.normal(size=5)
            before = predict_batch(model, x[None])
            i = subsets[0][0]
            j = subsets[1][0]
            model.W[i, j] += 100.0
            ok &= np.array_equal(predict_batch(model, x[None]), before)
    elapsed = time.perf_counter() - t0
    _report(4, "partition/mask suite", ok and elapsed < 10, f"{elapsed:.1f}s")


# -------------------------------------------------------------------------
# 5. metric oracles

def test_criterion_05_metric_oracles():
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 11))
        scores = rng.random(n)
        y = (rng.random(n) < 0.5).astype(int)
        if y.sum() == 0:
            y[int(rng.integers(n))] = 1
        order = sorted(range(n), key=lambda i: (-scores[i], i))
        hits, precs = 0, []
        for rank, i in enumerate(order, 1):
            if y[i]:
                hits += 1
                precs.append(hits / rank)
        ok &= abs(average_precision(scores, y) - np.mean(precs)) < 1e-12

        # mAP against per-label oracle
        Y = (rng.random((n, 3)) < 0.5).astype(int)
        P = rng.random((n, 3))
        aps = [average_precision(P[:, c], Y[:, c])
               for c in range(3) if Y[:, c].sum() > 0]
        expected = float(np.mean(aps)) if aps else 0.0
        ok &= abs(mean_average_precision(P, Y) - expected) < 1e-12

    # rare_f1 at p=100 equals macro-F1 over all labels
    from ccg.data import LabelStats
    preds = rng.random((40, 5))
    y = (rng.random((40, 5)) < 0.5).astype(int)
    stats = LabelStats(freq=y.sum(axis=0), rare_set=frozenset(), rare_pct=100.0)
    yhat = (preds >= 0.5).astype(int)
    per_label = []
    for c in range(5):
        tp = int(((yhat[:, c] == 1) & (y[:, c] == 1)).sum())
        fp = int(((yhat[:, c] == 1) & (y[:, c] == 0)).sum())
        fn = int(((yhat[:, c] == 0) & (y[:, c] == 1)).sum())
        if tp == 0:
            per_label.append(0.0)
        else:
            pr, rc = tp / (tp + fp), tp / (tp + fn)
            per_label.append(2 * pr * rc / (pr + rc))
    ok &= abs(rare_f1(preds, y, stats, 100) - np.mean(per_label)) < 1e-12
    _report(5, "metric oracles", ok)


# -------------------------------------------------------------------------
# 6. planted-structure recovery

def test_criterion_06_structure_recovery():
    L, d, n, n_edges = 10, 64, 4000, 5
    passes, details = 0, []
    for seed in (0, 1, 2):
        t0 = time.perf_counter()
        dss, world = generate_synthetic(L=L, d=d, n=n, n_envs=1, seed=seed,
                                        edge_density=n_edges / (L * (L - 1) / 2))
        assert len(world.edges) == n_edges
        cfg = TrainConfig(max_epochs=8, warmup_epochs=5, seed=seed)
        result = train(dss[0], cfg, planted=world)
        elapsed = time.perf_counter() - t0
        prec, rec = structure_score(result.graph, world)
        baseline = n_edges / (L * (L - 1))
        hit = prec >= 2 * baseline and elapsed < 300
        passes += hit
        details.append(f"seed{seed} prec={prec:.3f} rec={rec:.3f} "
                       f"{elapsed:.0f}s")
    _report(6, "planted-structure recovery", passes >= 2,
            f"{passes}/3: " + "; ".join(details))


# -------------------------------------------------------------------------
# 7. directional OOD-shift check

def _ood_drop(seed, flags):
    dss, world = generate_synthetic(L=6, d=36, n=600, n_envs=2, seed=seed,
                                    edge_density=0.3)
    cfg = TrainConfig(max_epochs=12, warmup_epochs=4, seed=seed, n_players=3)
    cfg = apply_ablations(cfg, flags)
    result = train(dss[0], cfg, planted=world)
    f1 = [rare_f1(predict_dataset(result.model, ds), ds.Y,
                  result.stats, cfg.rare_pct) for ds in dss]
    return f1[0] - f1[1]


def test_criterion_07_ood_shift_direction():
    passes, details = 0, []
    for seed in (0, 1, 2):
        t0 = time.perf_counter()
        drop_full = _ood_drop(seed, None)
        drop_cil = _ood_drop(seed, ["cil"])
        elapsed = time.perf_counter() - t0
        hit = drop_full <= drop_cil and elapsed < 600
        passes += hit
        details.append(f"seed{seed} full={drop_full:.3f} "
                       f"w/o-CIL={drop_cil:.3f}")
    _report(7, "OOD-shift direction (full vs w/o CIL)", passes >= 2,
            f"{passes}/3: " + "; ".join(details))


# -------------------------------------------------------------------------
# 8. player-count sweep direction

def test_criterion_08_player_sweep_direction():
    dss, world = generate_synthetic(L=6, d=36, n=500, n_envs=1, seed=4,
                                    edge_density=0.3)
    maps = {}
    for N in (1, 2, 3, 4):
        cfg = TrainConfig(max_epochs=8, warmup_epochs=3, seed=4, n_players=N)
        result = train(dss[0], cfg, planted=world)
        probs = predict_dataset(result.model, dss[0])
        maps[N] = mean_average_precision(probs, dss[0].Y)
    best = max(maps.values())
    _report(8, "player-sweep direction (best over N >= N=1)",
            best >= maps[1],
            "; ".join(f"N={n} mAP={m:.3f}" for n, m in maps.items()))


# -------------------------------------------------------------------------
# 9. determinism of the training command

def test_criterion_09_train_determinism(tmp_path):
    gen = tmp_path / "data"
    assert cli_main(["gen", "--labels", "5", "--dim", "24", "--samples", "120",
                     "--seed", "6", "--out", str(gen)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hidden": 6, "enc_dim": 6, "max_epochs": 4,
                               "warmup_epochs": 2, "n_players": 2}))
    outs = []
    for sub in ("run1", "run2"):
        out = tmp_path / sub
        assert cli_main(["train", "--data", str(gen / "env0.jsonl"),
                         "--world", str(gen / "world.json"),
                         "--config", str(cfg), "--seed", "6",
                         "--out", str(out)]) == 0
        outs.append(out)
    ok = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
             for f in ("model.json", "model.npz", "log.jsonl", "graph.json",
                       "config.json"))
    _report(9, "training determinism (byte-identical reruns)", ok)


# -------------------------------------------------------------------------
# 10. ablation harness

def test_criterion_10_ablation_harness(tmp_path):
    gen = tmp_path / "data"
    assert cli_main(["gen", "--labels", "5", "--dim", "20", "--samples", "120",
                     "--seed", "8", "--out", str(gen)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hidden": 6, "enc_dim": 6, "max_epochs": 4,
                               "warmup_epochs": 2, "n_players": 2}))
    table = tmp_path / "ablation.csv"
    assert cli_main(["ablate", "--data", str(gen / "env0.jsonl"),
                     "--world", str(gen / "world.json"),
                     "--config", str(cfg), "--out", str(table)]) == 0
    lines = table.read_text().strip().split("\n")
    variants = [ln.split(",")[0] for ln in lines[1:]]
    ok_table = variants == ["full", "w/o CGM", "w/o CCR", "w/o CIL",
                            "w/o MPD", "w/o RLE"]

    passes, details = 0, []
    for seed in (0, 1, 2):
        dss, world = generate_synthetic(L=8, d=48, n=300, n_envs=1,
                                        seed=seed + 10, edge_density=0.3)
        test_ds = generate_from_world(world, 400, seed=seed + 500)[0]
        f1 = {}
        for name, flags in (("full", None), ("rle", ["rle"])):
            tcfg = TrainConfig(max_epochs=12, warmup_epochs=4, seed=seed,
                               n_players=3)
            tcfg = apply_ablations(tcfg, flags)
            result = train(dss[0], tcfg, planted=world)
            probs = predict_dataset(result.model, test_ds)
            f1[name] = rare_f1(probs, test_ds.Y, result.stats, tcfg.rare_pct)
        passes += f1["full"] >= f1["rle"]
        details.append(f"seed{seed} full={f1['full']:.3f} "
                       f"w/o-RLE={f1['rle']:.3f}")
    _report(10, "ablation harness (6-row table; full >= w/o RLE)",
            ok_table and passes >= 2, f"{passes}/3: " + "; ".join(details))
