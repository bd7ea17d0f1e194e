import json

import numpy as np
import pytest

from ccg.data import (Dataset, PlantedWorld, co_occurrence, compute_label_stats,
                      generate_from_world, generate_synthetic, load_dataset,
                      save_dataset, semantic_similarity)
from ccg.errors import CapacityError, DatasetError


def write_lines(tmp_path, lines):
    path = tmp_path / "ds.jsonl"
    path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
    return path


class TestLoadDataset:
    def test_two_lines(self, tmp_path):
        path = write_lines(tmp_path, [
            {"features": [1.0, 2.0, 3.0], "labels": [0, 1]},
            {"features": [0.5, 0.0, -1.0], "labels": [1, 1]},
        ])
        ds = load_dataset(path)
        assert (ds.n, ds.d, ds.L) == (2, 3, 2)
        assert ds.X[1, 2] == -1.0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DatasetError, match="empty dataset"):
            load_dataset(path)

    def test_nonbinary_label(self, tmp_path):
        path = write_lines(tmp_path, [{"features": [1.0], "labels": [0, 2]}])
        with pytest.raises(DatasetError, match="label not binary"):
            load_dataset(path)

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        for bad in ('not json',
                    '{"features": null, "labels": [0]}',
                    '{"features": [1.0], "labels": null}',
                    '{"features": ["abc"], "labels": [0]}',
                    '{"features": "abc", "labels": [0]}',
                    '{"features": 1.0, "labels": [0]}',
                    '{"features": [1.0], "labels": 0}',
                    '{"features": [NaN], "labels": [0]}',
                    '{"features": [-Infinity], "labels": [0]}',
                    # a string or bool is no number, a bool or 1.0 no label
                    '{"features": ["1.5", true], "labels": [true, 1.0]}',
                    '{"features": ["1.5"], "labels": [0]}',
                    '{"features": [true], "labels": [0]}',
                    '{"features": [null], "labels": [0]}',
                    '{"features": [[1.0]], "labels": [0]}',
                    '{"features": [1.0], "labels": [true]}',
                    '{"features": [1.0], "labels": [1.0]}',
                    # an int too large for a float
                    '{"features": [%s], "labels": [0]}' % ("9" * 400),
                    # as wide as line 1 or not at all
                    '{"features": [], "labels": [0]}',
                    '{"features": [1.0], "labels": []}'):
            path.write_text('{"features": [1.0], "labels": [0]}\n' + bad
                            + "\n")
            with pytest.raises(DatasetError, match="line 2"):
                load_dataset(path)

    def test_non_finite_feature_names_its_line_past_blank_lines(self,
                                                                tmp_path):
        path = tmp_path / "nan.jsonl"
        good = '{"features": [1.0, 2.0], "labels": [0]}'
        path.write_text(f"{good}\n\n{good}\n"
                        '{"features": [1.0, NaN], "labels": [1]}\n')
        with pytest.raises(DatasetError,
                           match="^line 4: non-finite feature value$"):
            load_dataset(path)

    def test_inconsistent_dims(self, tmp_path):
        path = write_lines(tmp_path, [
            {"features": [1.0, 2.0], "labels": [0]},
            {"features": [1.0], "labels": [0]},
        ])
        with pytest.raises(DatasetError, match="inconsistent"):
            load_dataset(path)

    def test_saved_line_format(self, tmp_path):
        ds = Dataset(np.array([[1.5, -0.1, 3.0, 1e-05]]), np.array([[1, 0]]))
        save_dataset(ds, tmp_path / "one.jsonl")
        assert (tmp_path / "one.jsonl").read_text() == (
            '{"features": [1.5, -0.1, 3.0, 1e-05], "labels": [1, 0]}\n')

    def test_roundtrip(self, tmp_path):
        ds = Dataset(np.array([[1.5, -0.5], [0.0, 2.0]]),
                     np.array([[1, 0, 1], [0, 0, 1]]))
        path = tmp_path / "rt.jsonl"
        save_dataset(ds, path)
        ds2 = load_dataset(path)
        np.testing.assert_array_equal(ds.X, ds2.X)
        np.testing.assert_array_equal(ds.Y, ds2.Y)


class TestDataset:
    @pytest.mark.parametrize("Y", [[[0.5, 1.7]], [[300, 1]]])
    def test_label_not_binary_before_the_int8_cast(self, Y):
        with pytest.raises(DatasetError, match="label not binary"):
            Dataset(np.zeros((1, 2)), Y)

    @pytest.mark.parametrize("X,Y", [
        (np.zeros((0, 2)), np.zeros((0, 1))),
        (np.zeros((2, 0)), np.zeros((2, 1))),
        (np.zeros((2, 2)), np.zeros((2, 0))),
        ([], []),
    ])
    def test_empty_rejected(self, X, Y):
        with pytest.raises(DatasetError, match="empty dataset"):
            Dataset(X, Y)

    def test_bad_value_carries_its_row(self):
        X = np.zeros((4, 2))
        X[2, 1] = np.inf
        with pytest.raises(DatasetError) as exc:
            Dataset(X, np.zeros((4, 1)))
        assert exc.value.row == 2
        with pytest.raises(DatasetError) as exc:
            Dataset(np.zeros((4, 2)), [[0], [1], [1], [2]])
        assert exc.value.row == 3
        with pytest.raises(DatasetError) as exc:
            Dataset(np.zeros((2, 2)), np.zeros((3, 1)))
        assert exc.value.row is None

    @pytest.mark.parametrize("big", [10 ** 400, -10 ** 400,
                                     2 ** 1024 - 2 ** 970])
    def test_int_too_large_for_a_float_carries_its_row(self, big):
        # 2**1024 - 2**970 is the least int float() refuses, and
        # 2**1024 - 2**971 the largest float; numpy scalars may sit beside
        with pytest.raises(DatasetError, match="non-finite") as exc:
            Dataset([[1.0, np.float64(2)], [3, 4.5], [5, big]],
                    [[0], [1], [0]])
        assert exc.value.row == 2
        ds = Dataset([[1.0, 2], [2 ** 1024 - 2 ** 971, 4]], [[0], [1]])
        assert ds.X[1, 0] == np.finfo(np.float64).max


class TestLabelStats:
    def test_counting(self):
        Y = np.array([[1, 0], [1, 0], [1, 1], [0, 0]])
        ds = Dataset(np.zeros((4, 2)), Y)
        stats = compute_label_stats(ds, 50)
        np.testing.assert_array_equal(stats.freq, [3, 1])
        assert stats.rare_set == {1}

    def test_p_zero(self):
        ds = Dataset(np.zeros((2, 3)), np.ones((2, 3), dtype=int))
        assert compute_label_stats(ds, 0).rare_set == frozenset()

    def test_bottom_30_pct_matches_sort_oracle(self):
        # freqs 10, 9, ..., 1 across ten labels
        rows = []
        for lab in range(10):
            for _ in range(10 - lab):
                row = np.zeros(10, dtype=int)
                row[lab] = 1
                rows.append(row)
        Y = np.array(rows)
        ds = Dataset(np.zeros((len(Y), 2)), Y)
        stats = compute_label_stats(ds, 30)
        oracle = set(sorted(range(10), key=lambda i: (stats.freq[i], i))[:3])
        assert stats.rare_set == oracle == {7, 8, 9}

    def test_rare_labels_never_beat_common_ones(self):
        dss, _ = generate_synthetic(L=6, d=24, n=200, n_envs=1, seed=3)
        stats = compute_label_stats(dss[0], 40)
        rare_max = max(stats.freq[i] for i in stats.rare_set)
        common_min = min(stats.freq[i] for i in range(6)
                         if i not in stats.rare_set)
        assert rare_max <= common_min


class TestGenerateSynthetic:
    def test_independence_without_edges(self):
        dss, world = generate_synthetic(L=2, d=8, n=20000, n_envs=1, seed=5,
                                        edge_density=0.0)
        assert world.edges == []
        Y = dss[0].Y.astype(float)
        p1, p2 = Y[:, 0].mean(), Y[:, 1].mean()
        pboth = (Y[:, 0] * Y[:, 1]).mean()
        sigma = np.sqrt(p1 * p2 * (1 - p1 * p2) / len(Y))
        assert abs(pboth - p1 * p2) < 3 * sigma

    def test_deterministic(self):
        a, wa = generate_synthetic(L=4, d=16, n=50, n_envs=2, seed=9)
        b, wb = generate_synthetic(L=4, d=16, n=50, n_envs=2, seed=9)
        for da, db in zip(a, b):
            np.testing.assert_array_equal(da.X, db.X)
            np.testing.assert_array_equal(da.Y, db.Y)
        assert wa.edges == wb.edges

    def test_full_strength_edge_implies_child(self):
        world = PlantedWorld(L=2, d=8, edges=[(0, 1, 1.0)],
                             causal_blocks={0: [0, 1], 1: [2, 3]},
                             spurious_blocks={},
                             env_params=[{"mean_mult": 1.0, "var_mult": 1.0}])
        ds = generate_from_world(world, 500, seed=2)[0]
        parent_on = ds.Y[:, 0] == 1
        assert parent_on.any()
        assert (ds.Y[parent_on, 1] == 1).all()

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            generate_synthetic(L=10, d=8, n=10, n_envs=1, seed=0)

    def test_planted_graph_acyclic(self):
        # every edge runs from a lower to a higher label, so label order is
        # topological
        _, world = generate_synthetic(L=8, d=32, n=5, n_envs=1, seed=11,
                                      edge_density=0.3)
        assert world.edges and all(j < i for j, i, _ in world.edges)

    def test_edge_against_label_order_rejected(self):
        world = PlantedWorld(L=2, d=8, edges=[(1, 0, 0.9)],
                             causal_blocks={0: [0, 1], 1: [2, 3]},
                             spurious_blocks={},
                             env_params=[{"mean_mult": 1.0, "var_mult": 1.0}])
        with pytest.raises(ValueError, match="1 -> 0"):
            generate_from_world(world, 10, seed=0)

    def test_blocks_disjoint_and_in_range(self):
        _, world = generate_synthetic(L=6, d=36, n=5, n_envs=1, seed=4,
                                      edge_density=0.3)
        seen = set()
        for blk in list(world.causal_blocks.values()) + list(world.spurious_blocks.values()):
            for f in blk:
                assert 0 <= f < world.d
                assert f not in seen
                seen.add(f)

    def test_world_json_roundtrip(self):
        _, world = generate_synthetic(L=5, d=24, n=5, n_envs=3, seed=1,
                                      edge_density=0.2)
        w2 = PlantedWorld.from_json(world.to_json())
        assert w2.edges == world.edges
        assert w2.spurious_blocks == world.spurious_blocks
        assert w2.env_params == world.env_params

    # L and d ints >= 1, edges as graph.json's, block labels in range(L) and
    # block features ints of range(d), so no value is truncated and no
    # feature indexes past d
    @pytest.mark.parametrize("change", [
        {"L": 4.7}, {"L": 0}, {"d": 16.9}, {"d": True},
        {"edges": [{"src": 0.4, "dst": 1, "strength": 0.5}]},
        {"edges": [{"src": 0, "dst": 5, "strength": 0.5}]},
        {"edges": [{"src": 0, "dst": 1, "strength": "0.5"}]},
        {"causal_blocks": {"5": [0]}}, {"causal_blocks": {"0": [-1]}},
        {"causal_blocks": {"0": [24]}}, {"spurious_blocks": {"0-1": [99]}},
        {"spurious_blocks": {"0-5": [20]}},
        {"spurious_blocks": {"0-1": [20.0]}}], ids=repr)
    def test_world_json_rejects_bad_values(self, change):
        _, world = generate_synthetic(L=5, d=24, n=5, n_envs=1, seed=1,
                                      edge_density=0.2)
        with pytest.raises(ValueError, match="must|needs"):
            PlantedWorld.from_json({**world.to_json(), **change})


class TestCoOccurrence:
    def test_always_coactive(self):
        ds = Dataset(np.zeros((3, 2)), np.ones((3, 2), dtype=int))
        M = co_occurrence(ds)
        assert M[0, 1] == M[1, 0] == 1.0
        assert M[0, 0] == M[1, 1] == 0.0

    def test_inactive_column_is_zero(self):
        Y = np.array([[1, 0], [1, 0]])
        ds = Dataset(np.zeros((2, 2)), Y)
        M = co_occurrence(ds)
        assert M[0, 1] == 0.0 and M[1, 0] == 0.0

    def test_hand_computed_conditionals(self):
        # 3 samples: {0,1}, {0}, {1,2}
        Y = np.array([[1, 1, 0], [1, 0, 0], [0, 1, 1]])
        ds = Dataset(np.zeros((3, 3)), Y)
        M = co_occurrence(ds)
        assert M[0, 1] == pytest.approx(1 / 2)   # P(l0 | l1)
        assert M[1, 0] == pytest.approx(1 / 2)   # P(l1 | l0)
        assert M[2, 1] == pytest.approx(1 / 2)
        assert M[1, 2] == pytest.approx(1.0)
        assert M[2, 0] == pytest.approx(0.0)

    def test_range_and_diagonal(self):
        dss, _ = generate_synthetic(L=5, d=20, n=100, n_envs=1, seed=8)
        M = co_occurrence(dss[0])
        assert (M >= 0).all() and (M <= 1).all()
        assert np.diag(M).sum() == 0.0


class TestSemanticSimilarity:
    def test_identical_sample_sets(self):
        X = np.array([[1.0, 2.0], [3.0, 1.0]])
        Y = np.array([[1, 1], [1, 1]])
        ds = Dataset(X, Y)
        M = semantic_similarity(ds)
        assert M[0, 1] == pytest.approx(1.0)

    def test_orthogonal_centroids(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        Y = np.array([[1, 0], [0, 1]])
        ds = Dataset(X, Y)
        assert semantic_similarity(ds)[0, 1] == 0.0

    def test_matches_cosine_oracle(self, rng):
        X = rng.normal(size=(20, 6))
        Y = (rng.random((20, 3)) < 0.6).astype(np.int8)
        Y[0] = 1
        ds = Dataset(X, Y)
        M = semantic_similarity(ds)
        for i in range(3):
            for j in range(3):
                if i == j:
                    assert M[i, j] == 0.0
                    continue
                ci = X[Y[:, i] == 1].mean(axis=0)
                cj = X[Y[:, j] == 1].mean(axis=0)
                cos = float(ci @ cj / (np.linalg.norm(ci) * np.linalg.norm(cj)))
                assert M[i, j] == pytest.approx(max(0.0, min(1.0, cos)), abs=1e-12)
