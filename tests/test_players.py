import itertools

import numpy as np
import pytest

from ccg.data import Dataset, generate_synthetic
from ccg.evaluation import mean_average_precision, predict_dataset
from ccg.graph import CausalGraph, extract_graph
from ccg.players import (_components, build_masks, encode_batch,
                         partition_labels, player_encoders)
from ccg.sem import expit, init_model, predict_batch
from ccg.training import TrainConfig, train


def random_graph(L, rng, density=0.3):
    W = rng.uniform(-0.5, 1.0, (L, L))
    np.fill_diagonal(W, 0.0)
    W[rng.random((L, L)) > density] = 0.0
    return extract_graph(W, 3)


class TestPartitionLabels:
    def test_disjoint_cover_exactly_n(self, rng):
        for trial in range(100):
            L = int(rng.integers(2, 16))
            N = int(rng.integers(1, L + 1))
            g = random_graph(L, rng)
            freq = rng.integers(1, 50, L)
            subsets = partition_labels(g, N, freq)
            assert len(subsets) == N
            flat = sorted(x for sub in subsets for x in sub)
            assert flat == list(range(L))

    def test_n_one_single_subset(self):
        g = CausalGraph(L=4, edges=[(0, 1, 0.5)])
        subsets = partition_labels(g, 1, np.ones(4))
        assert subsets == [[0, 1, 2, 3]]

    def test_n_equals_l_all_singletons(self):
        g = CausalGraph(L=3, edges=[(0, 1, 0.9), (1, 2, 0.8)])
        subsets = partition_labels(g, 3, np.ones(3))
        assert subsets == [[0], [1], [2]]

    def test_merge_lowest_frequency_components(self):
        # three components {0,1}, {2}, {3}; freqs make {2} and {3} cheapest
        g = CausalGraph(L=4, edges=[(0, 1, 0.9)])
        subsets = partition_labels(g, 2, np.array([10, 10, 1, 2]))
        assert subsets == [[0, 1], [2, 3]]

    def test_split_removes_weakest_edge(self):
        # chain 0 -> 1 -> 2 with a weak middle link
        g = CausalGraph(L=3, edges=[(0, 1, 0.9), (1, 2, 0.1)])
        subsets = partition_labels(g, 2, np.ones(3))
        assert subsets == [[0, 1], [2]]

    def test_n_out_of_range(self):
        g = CausalGraph(L=3, edges=[])
        with pytest.raises(ValueError):
            partition_labels(g, 0, np.ones(3))
        with pytest.raises(ValueError):
            partition_labels(g, 4, np.ones(3))

    def test_n_equal_to_component_count_returns_the_components(self, rng):
        # the weakly-connected components, found here by breadth-first search
        # over edges taken both ways, each sorted, by smallest member
        for trial in range(200):
            L = int(rng.integers(1, 12))
            edges = [(int(j), int(i), float(rng.random()))
                     for j in range(L) for i in range(L)
                     if j != i and rng.random() < 0.15]
            nbrs = {v: set() for v in range(L)}
            for j, i, _ in edges:
                nbrs[j].add(i)
                nbrs[i].add(j)
            seen, comps = set(), []
            for v in range(L):
                if v in seen:
                    continue
                comp, frontier = {v}, [v]
                while frontier:
                    frontier = [w for u in frontier for w in nbrs[u]
                                if w not in comp]
                    comp.update(frontier)
                seen |= comp
                comps.append(sorted(comp))
            g = CausalGraph(L=L, edges=edges)
            assert partition_labels(g, len(comps),
                                    rng.integers(1, 50, L)) == comps

    def test_equals_the_edge_by_edge_split_loop(self, rng):
        # the partition with its split as a loop: remove the largest
        # component's internal edges weakest first, (strength, src, dst)
        # breaking ties, until the graph gains a component. Coarse
        # strengths make ties common
        def loop_partition(g, N, freq):
            edges = list(g.edges)
            comps = _components(g.L, edges)
            while len(comps) > N:
                a, b = sorted(comps, key=lambda c: (int(freq[c].sum()),
                                                    c[0]))[:2]
                comps = sorted([c for c in comps if c is not a and c is not b]
                               + [sorted(a + b)])
            while len(comps) < N:
                comp = set(min(comps, key=lambda c: (-len(c), c[0])))
                internal = sorted((e for e in edges
                                   if e[0] in comp and e[1] in comp),
                                  key=lambda e: (e[2], e[0], e[1]))
                for e in internal:
                    edges.remove(e)
                    split = _components(g.L, edges)
                    if len(split) > len(comps):
                        break
                comps = split
            return comps

        for trial in range(60):
            L = int(rng.integers(1, 13))
            edges = [(j, i, float(np.round(rng.random(), 1)))
                     for j in range(L) for i in range(L)
                     if j != i and rng.random() < 0.4]
            g = CausalGraph(L=L, edges=edges)
            freq = rng.integers(1, 50, L)
            for N in range(1, L + 1):
                assert partition_labels(g, N, freq) == \
                    loop_partition(g, N, freq)

    def test_deterministic(self, rng):
        g = random_graph(8, np.random.default_rng(3))
        freq = np.arange(1, 9)
        a = partition_labels(g, 3, freq)
        b = partition_labels(g, 3, freq)
        assert a == b


class TestBuildMasks:
    def test_matches_definition(self, rng):
        for trial in range(20):
            L = int(rng.integers(2, 10))
            g = random_graph(L, rng)
            N = int(rng.integers(1, L + 1))
            subsets = partition_labels(g, N, rng.integers(1, 20, L))
            ms = build_masks(subsets, g)
            assert ms.subsets == subsets
            edge_set = g.edge_set()
            # (i, j) for every edge j -> i inside a subset, row-major
            expected = [(i, j) for i in range(L) for j in range(L)
                        if (j, i) in edge_set
                        and any(i in sub and j in sub for sub in subsets)]
            assert ms.pairs.shape == (len(expected), 2)
            assert ms.pairs.tolist() == [list(p) for p in expected]
            union = np.zeros((L, L))
            for i, j in expected:
                union[i, j] = 1.0
            np.testing.assert_array_equal(ms.union(), union)

    def test_union_has_no_overlap(self, rng):
        g = random_graph(9, np.random.default_rng(7))
        subsets = partition_labels(g, 3, np.ones(9))
        ms = build_masks(subsets, g)
        assert ms.union().max() <= 1.0

    def test_cross_subset_edges_masked_out(self):
        g = CausalGraph(L=4, edges=[(0, 1, 0.9), (1, 2, 0.2), (2, 3, 0.9)])
        subsets = partition_labels(g, 2, np.ones(4))
        ms = build_masks(subsets, g)
        # edge (1 -> 2) crosses the split, so no mask may contain it
        assert subsets == [[0, 1], [2, 3]]
        assert ms.pairs.tolist() == [[1, 0], [3, 2]]
        assert ms.union()[2, 1] == 0.0


class TestEncoders:
    def test_init_shapes_and_determinism(self):
        a = init_model(6, 2, 2, seed=5, players=3, enc_dim=4)
        b = init_model(6, 2, 2, seed=5, players=3, enc_dim=4)
        # player k's weights are the k-th (e, d) draw from seed + 1
        rng = np.random.default_rng(6)
        bound = np.sqrt(6.0 / (6 + 4))
        assert len(player_encoders(a)) == 3
        for ea, eb in zip(player_encoders(a), player_encoders(b)):
            assert ea.w.shape == (4, 6) and ea.b.shape == (4,)
            np.testing.assert_array_equal(ea.w, eb.w)
            np.testing.assert_array_equal(
                ea.w, rng.uniform(-bound, bound, size=(4, 6)))
            np.testing.assert_array_equal(ea.b, np.zeros(4))

    def test_player_encoders_are_views_of_the_model(self):
        m = init_model(5, 2, 2, seed=1, players=2, enc_dim=3)
        m.enc_b[1] = 7.0
        assert (player_encoders(m)[1].b == 7.0).all()

    def test_encode_batch_matches_single(self, rng):
        m = init_model(5, 2, 2, seed=2, players=2, enc_dim=3)
        m.enc_b[...] = rng.normal(size=(2, 3))
        X = rng.normal(size=(4, 5))
        batch = encode_batch(m.enc_w, m.enc_b, X)
        assert batch.shape == (2, 4, 3)
        for k, enc in enumerate(player_encoders(m)):
            for i in range(4):
                np.testing.assert_allclose(batch[k, i], enc.w @ X[i] + enc.b,
                                           atol=1e-14)


class TestPlayerHeads:
    """Each label's mask row belongs to exactly one player, which is what
    lets the composite score every player from the head of the model kept
    to every player's pairs and sigmoid(b), what a label without a pair
    predicts."""

    @staticmethod
    def players(rng):
        """(model, players, batch) on random graphs, partitions and models
        holding every pair; every third case has L singleton players."""
        for trial in range(30):
            L = int(rng.integers(2, 9))
            N = int(rng.integers(1, L + 1)) if trial % 3 else L
            g = random_graph(L, rng, density=0.6)
            subsets = partition_labels(g, N, rng.integers(1, 50, L))
            assert len(subsets) == N
            model = init_model(3, L, 4, seed=trial)
            model.W = rng.normal(0.0, 1.0, (L, L))
            np.fill_diagonal(model.W, 0.0)
            model.b = rng.normal(0.0, 1.0, L)
            yield model, build_masks(subsets, g), rng.normal(size=(6, 3))

    @classmethod
    def cases(cls, rng):
        """(union head, sigmoid(b), [(own-label mask, player head)]) for
        each of players(rng): the union head is the model's kept to every
        player's pairs, and player k's head the model's kept to the pairs
        of subset k."""
        for model, masks, X in cls.players(rng):
            L = model.L
            union = masks.union()
            players = []
            for sub in masks.subsets:
                own = np.zeros(L, dtype=bool)
                own[sub] = True
                players.append((own, predict_batch(
                    model.keep_pairs(union * own[:, None]), X)))
            yield (predict_batch(model.keep_pairs(union), X),
                   np.broadcast_to(expit(model.b), (len(X), L)), players)

    def test_trimmed_model_predicts_bit_for_bit(self, rng):
        # trimmed to the players' pairs, a model predicts as the model
        # holding every pair with W zero off them, and as predict_dataset
        # given the union mask
        for model, masks, X in self.players(rng):
            union = masks.union()
            trimmed = model.keep_pairs(union)
            np.testing.assert_array_equal(trimmed.pairs, masks.pairs)
            zeroed = model.copy()
            zeroed.W = model.W * union
            probs = predict_batch(trimmed, X)
            np.testing.assert_array_equal(probs, predict_batch(zeroed, X))
            ds = Dataset(X, np.zeros((len(X), model.L)))
            np.testing.assert_array_equal(
                predict_dataset(model, ds, union), probs)

    def test_own_labels_equal_union_head(self, rng):
        for union, _, players in self.cases(rng):
            for own, P_k in players:
                np.testing.assert_array_equal(P_k[:, own], union[:, own])

    def test_other_labels_equal_zero_mask_head(self, rng):
        for _, rest, players in self.cases(rng):
            for own, P_k in players:
                np.testing.assert_array_equal(P_k[:, ~own], rest[:, ~own])


class TestPlayerGame:
    def test_coalition_gain_is_the_sum_of_its_members_gains(self):
        # a label reads only its own player's pairs, so a coalition predicts
        # its members' labels as the full model does and sigmoid(b) on the
        # rest: the game is additive. A change that lets players share a
        # representation breaks this on purpose
        (ds, held), _ = generate_synthetic(L=6, d=24, n=120, n_envs=2,
                                           seed=2)
        r = train(ds, TrainConfig(max_epochs=3, warmup_epochs=2, n_players=3,
                                  hidden=4, enc_dim=2, seed=2))
        owner = np.empty(ds.L, dtype=int)
        for k, sub in enumerate(r.masks.subsets):
            owner[sub] = k
        pair_owner = owner[r.masks.pairs[:, 0]]
        assert sorted(set(pair_owner)) == [0, 1, 2]

        def value(coalition):
            mask = np.zeros((ds.L, ds.L))
            mask[tuple(r.masks.pairs[np.isin(pair_owner, coalition)].T)] = 1
            return mean_average_precision(
                predict_dataset(r.model, held, mask), held.Y)

        empty = value([])
        gains = [value([k]) - empty for k in range(3)]
        assert all(gains)
        for n in range(4):
            for coalition in itertools.combinations(range(3), n):
                assert value(list(coalition)) - empty == pytest.approx(
                    sum(gains[k] for k in coalition), rel=0, abs=1e-12)
