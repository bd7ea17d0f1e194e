import numpy as np
import pytest

from ccg.data import LabelStats, PlantedWorld, generate_synthetic, rare_set_for
from ccg.evaluation import (MetricsReport, average_precision, evaluate,
                            mean_average_precision, predict_dataset, rare_f1,
                            structure_score)
from ccg.graph import CausalGraph
from ccg.training import TrainConfig, train


def stats_for(freq):
    return LabelStats(freq=np.asarray(freq), rare_set=frozenset(),
                      rare_pct=30.0)


def rank_loop_ap(scores, y):
    """AP walking the stable descending ranking one sample at a time; None
    without a positive."""
    hits, precs = 0, []
    for rank, i in enumerate(np.argsort(-scores, kind="stable"), 1):
        if y[i] == 1:
            hits += 1
            precs.append(hits / rank)
    return float(np.mean(precs)) if precs else None


def rare_f1_loop(probs, y, freq, p):
    """Macro F1 over rare_set_for(freq, p), counting each label's tp, fp and
    fn one sample at a time."""
    f1s = []
    for c in sorted(rare_set_for(freq, p)):
        tp = fp = fn = 0
        for prob, label in zip(probs[:, c], y[:, c]):
            tp += bool(prob >= 0.5 and label == 1)
            fp += bool(prob >= 0.5 and label == 0)
            fn += bool(prob < 0.5 and label == 1)
        if tp == 0:
            f1s.append(0.0)
        else:
            prec, rec = tp / (tp + fp), tp / (tp + fn)
            f1s.append(2 * prec * rec / (prec + rec))
    return float(np.mean(f1s)) if f1s else 0.0


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision(np.array([0.9, 0.8, 0.1]),
                                 np.array([1, 1, 0])) == 1.0

    def test_worst_ranking(self):
        # single positive ranked last among 4
        assert average_precision(np.array([0.1, 0.9, 0.8, 0.7]),
                                 np.array([1, 0, 0, 0])) == pytest.approx(0.25)

    def test_hand_oracle_interleaved(self):
        # ranking: pos, neg, pos -> AP = (1/1 + 2/3) / 2
        scores = np.array([0.9, 0.8, 0.7])
        y = np.array([1, 0, 1])
        assert average_precision(scores, y) == pytest.approx((1.0 + 2 / 3) / 2)

    def test_ties_broken_by_sample_index(self):
        # equal scores: index order decides; positive at index 0 ranks first
        scores = np.array([0.5, 0.5])
        assert average_precision(scores, np.array([1, 0])) == 1.0
        assert average_precision(scores, np.array([0, 1])) == 0.5

    def test_requires_a_positive(self):
        with pytest.raises(ValueError):
            average_precision(np.array([0.1]), np.array([0]))

    def test_brute_force_oracle_random_instances(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 30))
            scores = rng.random(n)
            y = (rng.random(n) < 0.4).astype(int)
            if y.sum() == 0:
                y[int(rng.integers(n))] = 1
            order = sorted(range(n), key=lambda i: (-scores[i], i))
            hits, precs = 0, []
            for rank, i in enumerate(order, 1):
                if y[i]:
                    hits += 1
                    precs.append(hits / rank)
            assert average_precision(scores, y) == pytest.approx(
                np.mean(precs), abs=1e-12)

    def test_equals_rank_loop_exactly_with_ties(self, rng):
        # scores on a coarse grid, so most ranks are decided by index
        for _ in range(200):
            n = int(rng.integers(1, 40))
            scores = np.round(rng.random(n), 1)
            y = (rng.random(n) < 0.4).astype(int)
            y[int(rng.integers(n))] = 1
            hits, precs = 0, []
            for rank, i in enumerate(np.argsort(-scores, kind="stable"), 1):
                if y[i]:
                    hits += 1
                    precs.append(hits / rank)
            assert average_precision(scores, y) == float(np.mean(precs))


class TestMatrixAveragePrecision:
    def test_columns_equal_the_rank_loop_bit_for_bit(self, rng):
        # scores on a coarse grid, so most ranks are decided by index; column
        # 0 is constant, as a label without a feature path predicts, column
        # 1 has no positive and column 2 no negative
        for _ in range(100):
            n, L = int(rng.integers(1, 40)), int(rng.integers(3, 8))
            S = np.round(rng.random((n, L)), 1)
            Y = (rng.random((n, L)) < 0.4).astype(np.int8)
            S[:, 0], Y[:, 1], Y[:, 2] = 0.5, 0, 1
            aps = average_precision(S, Y)
            assert len(aps) == L and aps[1] is None
            for c in range(L):
                assert aps[c] == rank_loop_ap(S[:, c], Y[:, c])
                if aps[c] is not None:
                    assert average_precision(S[:, c], Y[:, c]) == aps[c]

    def test_one_sample(self):
        assert average_precision(np.array([[0.2, 0.9, 0.4]]),
                                 np.array([[1, 0, 1]])) == [1.0, None, 1.0]
        assert average_precision(np.array([0.3]), np.array([1])) == 1.0

    def test_evaluate_equals_per_label_and_per_p_loops(self):
        # a trained toy run; label 1 is a player of its own holding no
        # pair, so it predicts a constant and every sample ties
        dss, _ = generate_synthetic(L=5, d=20, n=90, n_envs=2, seed=4,
                                    edge_density=0.3)
        r = train(dss[0], TrainConfig(max_epochs=3, warmup_epochs=1,
                                      n_players=2, hidden=4, enc_dim=4))
        pcts = [20.0, 40.0, 60.0, 100.0]
        for ds in dss:
            probs = predict_dataset(r.model, ds)
            report = evaluate(r.model, None, r.masks, ds, None, r.stats, pcts)
            aps = [rank_loop_ap(probs[:, c], ds.Y[:, c]) for c in range(ds.L)]
            assert report.per_label_ap == aps
            assert report.map == float(np.mean([a for a in aps
                                                 if a is not None]))
            assert report.rare_f1 == {p: rare_f1_loop(probs, ds.Y,
                                                      r.stats.freq, p)
                                      for p in pcts}


class TestMeanAveragePrecision:
    def test_skips_labels_without_positives(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.3]])
        Y = np.array([[1, 0], [0, 0]])
        per = average_precision(probs, Y)
        assert per[1] is None
        assert mean_average_precision(probs, Y) == per[0]

    def test_monte_carlo_random_scores_near_prevalence(self, rng):
        # with random scores, AP concentrates near the positive rate
        n, prev = 4000, 0.3
        y = (rng.random(n) < prev).astype(int)
        scores = rng.random(n)
        ap = average_precision(scores, y)
        assert abs(ap - prev) < 0.05

    def test_all_negative_matrix_gives_zero(self):
        assert mean_average_precision(np.zeros((3, 2)), np.zeros((3, 2))) == 0.0


class TestRareF1:
    def test_hand_oracle_macro(self):
        # label 1 is rarest; preds threshold at 0.5
        preds = np.array([[0.9, 0.6], [0.1, 0.4], [0.9, 0.7]])
        y = np.array([[1, 1], [0, 0], [1, 0]])
        st = stats_for([10, 2])
        # bottom 50% = label 1: tp=1 fp=1 fn=0 -> f1 = 2/3
        assert rare_f1(preds, y, st, 50) == pytest.approx(2 / 3)

    def test_p_100_equals_macro_f1_over_all_labels(self, rng):
        preds = rng.random((30, 4))
        y = (rng.random((30, 4)) < 0.5).astype(int)
        st = stats_for(y.sum(axis=0))
        scores = []
        yhat = (preds >= 0.5).astype(int)
        for c in range(4):
            tp = int(((yhat[:, c] == 1) & (y[:, c] == 1)).sum())
            fp = int(((yhat[:, c] == 1) & (y[:, c] == 0)).sum())
            fn = int(((yhat[:, c] == 0) & (y[:, c] == 1)).sum())
            if tp == 0:
                scores.append(0.0)
            else:
                p_ = tp / (tp + fp)
                r_ = tp / (tp + fn)
                scores.append(2 * p_ * r_ / (p_ + r_))
        assert rare_f1(preds, y, st, 100) == pytest.approx(np.mean(scores))

    def test_p_zero_returns_zero(self):
        st = stats_for([3, 1])
        assert rare_f1(np.ones((2, 2)), np.ones((2, 2)), st, 0) == 0.0


class TestStructureScore:
    def world(self):
        return PlantedWorld(L=3, d=6, edges=[(0, 1, 0.8), (1, 2, 0.7)],
                            causal_blocks={}, spurious_blocks={},
                            env_params=[{"mean_mult": 1.0, "var_mult": 1.0}])

    def test_exact_recovery(self):
        g = CausalGraph(L=3, edges=[(0, 1, 0.5), (1, 2, 0.5)])
        assert structure_score(g, self.world()) == (1.0, 1.0)

    def test_direction_sensitive(self):
        g = CausalGraph(L=3, edges=[(1, 0, 0.5), (2, 1, 0.5)])
        assert structure_score(g, self.world()) == (0.0, 0.0)

    def test_partial(self):
        g = CausalGraph(L=3, edges=[(0, 1, 0.5), (0, 2, 0.5)])
        prec, rec = structure_score(g, self.world())
        assert prec == pytest.approx(0.5)
        assert rec == pytest.approx(0.5)

    def test_empty_learned_graph(self):
        g = CausalGraph(L=3, edges=[])
        assert structure_score(g, self.world()) == (0.0, 0.0)

    def test_label_count_mismatch(self):
        g = CausalGraph(L=4, edges=[])
        with pytest.raises(ValueError):
            structure_score(g, self.world())


class TestMetricsReport:
    def report(self):
        # binary fractions, so each drop is exact
        ood = MetricsReport(map=0.5, rare_f1={20.0: 0.25, 30.0: 0.625},
                            per_label_ap=[0.5, None])
        return MetricsReport(map=0.75, rare_f1={20.0: 0.5, 30.0: 0.75},
                             per_label_ap=[0.8, None], ood=ood,
                             structure=(0.6, 0.4))

    def test_to_dict_keys(self):
        d = self.report().to_dict()
        assert d["map"] == 0.75
        assert d["rare_f1"]["20.0"] == 0.5
        assert d["ood_delta"] == {"map_drop": 0.25,
                                  "rare_f1_drop": {"20.0": 0.25,
                                                   "30.0": 0.125}}
        assert d["structure"] == {"precision": 0.6, "recall": 0.4}

    def test_to_csv_rows(self):
        csv = self.report().to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "metric,value"
        assert "map,0.75" in lines
        assert "rare_f1@20.0,0.5" in lines
        assert "ood_map_drop,0.25" in lines
        assert "ood_rare_f1_drop@20.0,0.25" in lines
        assert "ood_rare_f1_drop@30.0,0.125" in lines
        assert "structure_recall,0.4" in lines
