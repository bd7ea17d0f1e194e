import json
import re

import numpy as np
import pytest

from ccg.data import co_occurrence, semantic_similarity
from ccg.errors import DatasetError
from ccg.graph import (CausalGraph, export_dot, extract_graph, graph_loss,
                       ideal_weights, load_graph,
                       rare_indicator_matrix, save_graph)

from conftest import toy_dataset


def one_edge_loss(eta, rare_set):
    """graph_loss of a unit deviation on the single edge W[0, 1]."""
    W = np.array([[0.0, 1.0], [0.0, 0.0]])
    return graph_loss(W, np.zeros((2, 2)), eta, rare_set)[0]


class TestPsi:
    """psi(eta, I) = eta**I: the factor graph_loss puts on an edge that
    touches a rare label."""

    def test_values(self):
        assert one_edge_loss(1.5, ()) == 1.0
        assert one_edge_loss(1.5, {1}) == 1.5

    def test_ratio_is_eta(self):
        for eta in (1.0, 1.5, 2.0, 3.7):
            assert (one_edge_loss(eta, {0}) / one_edge_loss(eta, ())
                    == pytest.approx(eta))

    def test_rejects_eta_below_one(self):
        with pytest.raises(ValueError):
            one_edge_loss(0.9, ())

    def test_indicator(self):
        M = rare_indicator_matrix(3, {2})
        assert M[2, 0] == 1
        assert M[0, 2] == 1
        assert M[0, 1] == 0

    def test_indicator_matrix_matches_scalar(self):
        rare = {1, 3}
        M = rare_indicator_matrix(5, rare)
        for i in range(5):
            for j in range(5):
                assert M[i, j] == (1 if (i in rare or j in rare) else 0)


class TestGraphLoss:
    def test_matches_bruteforce_oracle(self, rng):
        L = 4
        W = rng.normal(size=(L, L))
        np.fill_diagonal(W, 0.0)
        Wt = rng.uniform(0, 1, (L, L))
        np.fill_diagonal(Wt, 0.0)
        loss, _ = graph_loss(W, Wt, 2.0, {3})
        oracle = 0.0
        for i in range(L):
            for j in range(L):
                if i == j:
                    continue
                psi = 2.0 if 3 in (i, j) else 1.0
                oracle += psi * (W[i, j] - Wt[i, j]) ** 2
        assert loss == pytest.approx(oracle, rel=1e-12)

    def test_diagonal_gets_no_loss_or_gradient(self):
        # W's diagonal is zero by construction; were it not, graph_loss
        # would neither count it nor push on it
        W = np.diag([0.5, 0.0, -0.2])
        Wt = np.zeros((3, 3))
        loss, grad = graph_loss(W, Wt, 1.5, ())
        assert loss == 0.0
        assert np.abs(np.diag(grad)).sum() == 0.0

    def test_gradient_matches_finite_differences(self, rng):
        L = 4
        W = rng.normal(size=(L, L))
        Wt = rng.uniform(0, 1, (L, L))
        _, grad = graph_loss(W, Wt, 1.5, {0})
        h = 1e-6
        for i in range(L):
            for j in range(L):
                if i == j:
                    continue
                Wp, Wm = W.copy(), W.copy()
                Wp[i, j] += h
                Wm[i, j] -= h
                fd = (graph_loss(Wp, Wt, 1.5, {0})[0]
                      - graph_loss(Wm, Wt, 1.5, {0})[0]) / (2 * h)
                assert grad[i, j] == pytest.approx(fd, rel=1e-5)

    def test_rare_enhancement_multiplies_loss(self):
        W = np.array([[0.0, 1.0], [0.0, 0.0]])
        Wt = np.zeros((2, 2))
        base = graph_loss(W, Wt, 1.5, ())[0]
        rare = graph_loss(W, Wt, 1.5, {0})[0]
        assert rare == pytest.approx(1.5 * base)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            graph_loss(np.zeros((2, 2)), np.zeros((3, 3)), 1.5, ())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ideal_weights(toy_dataset(n=10, d=4, L=3, seed=9), 1.5)
        with pytest.raises(ValueError):
            graph_loss(np.zeros((2, 2)), np.zeros((2, 2)), 0.5, ())


class TestIdealWeights:
    def test_endpoints_of_blend(self):
        ds = toy_dataset(n=20, d=5, L=3, seed=6)
        co = co_occurrence(ds)
        sem = semantic_similarity(ds)
        np.testing.assert_allclose(ideal_weights(ds, 1.0), co, atol=1e-14)
        np.testing.assert_allclose(ideal_weights(ds, 0.0), sem, atol=1e-14)

    def test_midpoint(self):
        ds = toy_dataset(n=20, d=5, L=3, seed=7)
        mid = ideal_weights(ds, 0.5)
        np.testing.assert_allclose(
            mid, 0.5 * co_occurrence(ds) + 0.5 * semantic_similarity(ds), atol=1e-14)

    def test_zero_diagonal(self):
        ds = toy_dataset(n=10, d=4, L=4, seed=8)
        assert np.abs(np.diag(ideal_weights(ds, 0.5))).sum() == 0.0


class TestExtractGraph:
    def test_top_k_per_source(self):
        W = np.array([
            [0.0, 0.9, 0.0],
            [0.5, 0.0, 0.1],
            [0.8, 0.2, 0.0],
        ])
        g = extract_graph(W, 1)
        # strongest incoming per source column: col0 -> row2, col1 -> row0
        # col2's only positive is row1
        assert g.edges == [(0, 2, 0.8), (1, 0, 0.9), (2, 1, 0.1)]

    def test_ties_prefer_smaller_target(self):
        W = np.zeros((3, 3))
        W[1, 0] = W[2, 0] = 0.7
        g = extract_graph(W, 1)
        assert g.edges == [(0, 1, 0.7)]

    def test_nonpositive_entries_excluded(self):
        W = np.array([[0.0, -0.5], [0.0, 0.0]])
        assert extract_graph(W, 3).edges == []

    def test_no_self_loops(self, rng):
        W = rng.uniform(0.1, 1.0, (5, 5))
        g = extract_graph(W, 5)
        assert all(j != i for (j, i, _) in g.edges)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            extract_graph(np.zeros((2, 2)), 0)

    def test_at_most_k_per_source(self, rng):
        W = rng.uniform(0.0, 1.0, (6, 6))
        g = extract_graph(W, 2)
        counts = {}
        for (j, _, _) in g.edges:
            counts[j] = counts.get(j, 0) + 1
        assert all(c <= 2 for c in counts.values())


class TestExportAndPersistence:
    def test_dot_format(self):
        g = CausalGraph(L=2, edges=[(0, 1, 0.854)])
        dot = export_dot(g)
        assert '"L0" -> "L1" [label="0.85"];' in dot
        assert dot.startswith("digraph G {")
        assert dot.endswith("}\n")

    def test_dot_deterministic(self):
        g = CausalGraph(L=3, edges=[(1, 2, 0.3), (0, 1, 0.9)])
        assert export_dot(g) == export_dot(g)

    def test_dot_custom_names(self):
        g = CausalGraph(L=2, edges=[(0, 1, 0.5)])
        dot = export_dot(g, ["cat", "dog"])
        assert '"cat" -> "dog" [label="0.50"];' in dot

    def test_dot_escapes_quotes_and_backslashes(self):
        g = CausalGraph(L=2, edges=[(0, 1, 0.5)])
        dot = export_dot(g, ['a"b', "c\\"])
        assert '  "a\\"b" -> "c\\\\" [label="0.50"];' in dot

    def test_json_roundtrip(self, tmp_path):
        g = CausalGraph(L=4, edges=[(0, 2, 0.25), (3, 1, 0.75)])
        path = tmp_path / "g.json"
        save_graph(g, path)
        g2 = load_graph(path)
        assert g2.L == g.L and g2.edges == g.edges

    def test_json_strength_may_be_an_int(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(
            {"L": 3, "edges": [{"src": 2, "dst": 0, "strength": 1}]}))
        assert load_graph(path).edges == [(2, 0, 1.0)]

    # L an int >= 1; src and dst ints of range(L), bool refused; strength a
    # finite real. Bare int() and float() would truncate 4.7 and 2.9 and
    # read "0.5"
    @pytest.mark.parametrize("change", [
        {"L": 4.7}, {"L": 0}, {"L": True}, {"L": "4"},
        {"src": 0.4}, {"src": 2.9}, {"src": True}, {"src": "1"},
        {"dst": 4}, {"dst": -1}, {"dst": False},
        {"strength": "0.5"}, {"strength": float("nan")},
        {"strength": float("inf")}, {"strength": True}, {"strength": None}],
        ids=repr)
    def test_load_graph_rejects_bad_values(self, tmp_path, change):
        edge = {"src": 0, "dst": 2, "strength": 0.25}
        obj = {"L": 4, "edges": [edge]}
        (obj if "L" in change else edge).update(change)
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(DatasetError, match=re.escape(str(path))):
            load_graph(path)
