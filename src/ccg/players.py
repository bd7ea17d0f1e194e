"""Label partitioning into players, their causal masks as one pair index,
and per-player encoders."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import CausalGraph


@dataclass
class MaskSet:
    """The players: player k owns the labels subsets[k], and pairs holds
    every player's causal mask as the row-major (P, 2) index of the (i, j)
    of each graph edge j -> i with both ends in one subset."""
    subsets: list[list[int]]  # N disjoint, sorted subsets covering range(L)
    pairs: np.ndarray

    def union(self) -> np.ndarray:
        """The (L, L) 0/1 matrix that is 1 at the pairs."""
        L = sum(map(len, self.subsets))
        union = np.zeros((L, L))
        union[tuple(self.pairs.T)] = 1.0
        return union


@dataclass
class PlayerEncoder:
    w: np.ndarray  # (e, d)
    b: np.ndarray  # (e,)


def player_encoders(model) -> list[PlayerEncoder]:
    """Player k's encoder as views of the model's enc_w[k] and enc_b[k]."""
    return [PlayerEncoder(w=w, b=b) for w, b in zip(model.enc_w, model.enc_b)]


def encode_batch(enc_w: np.ndarray, enc_b: np.ndarray,
                 X: np.ndarray) -> np.ndarray:
    """Every player's encoding of a (B, d) batch as one (N, B, e) array."""
    return X @ enc_w.transpose(0, 2, 1) + enc_b[:, None, :]


def _components(L: int, edges) -> list[list[int]]:
    """Weakly-connected components (singletons included), each sorted,
    ordered by smallest member."""
    ends = np.array([e[:2] for e in edges], dtype=np.int64).reshape(-1, 2)
    src, dst = np.concatenate([ends, ends[:, ::-1]]).T
    # every label takes the smallest label next to it until none changes,
    # which leaves each holding its component's smallest member
    low = np.arange(L)
    while True:
        nxt = low.copy()
        np.minimum.at(nxt, dst, low[src])
        if np.array_equal(nxt, low):
            return [np.flatnonzero(low == m).tolist() for m in np.unique(low)]
        low = nxt


def partition_labels(g: CausalGraph, N: int,
                     freq: np.ndarray) -> list[list[int]]:
    """Partition labels into exactly N subsets. Start from weakly-connected
    components of the learned graph; merge the two lowest-frequency
    components while there are too many, or split the largest component by
    dropping its weakest internal edges while there are too few."""
    L = g.L
    if N < 1 or N > L:
        raise ValueError(f"N must be in [1, {L}]")
    freq = np.asarray(freq)
    edges = list(g.edges)
    comps = _components(L, edges)

    while len(comps) > N:
        # merge the two components with smallest total label frequency
        a, b = sorted(comps, key=lambda c: (int(freq[c].sum()), c[0]))[:2]
        comps = sorted([c for c in comps if c is not a and c is not b]
                       + [sorted(a + b)])

    while len(comps) < N:
        # split the largest component (ties: smallest min label index) by
        # removing its weakest internal edges until it disconnects, which
        # is when the graph gains a component
        comp = set(min(comps, key=lambda c: (-len(c), c[0])))
        internal = [e for e in edges if e[0] in comp and e[1] in comp]
        internal.sort(key=lambda e: (e[2], e[0], e[1]))
        for e in internal:
            edges.remove(e)
            split = _components(L, edges)
            if len(split) > len(comps):
                break
        comps = split

    return comps


def build_masks(subsets: list[list[int]], g: CausalGraph) -> MaskSet:
    """The players owning subsets, which cover range(g.L): m_ij^(k) = 1 iff
    edge (l_j -> l_i) is in the graph, i != j and both lie in subset k."""
    owner = {lab: k for k, sub in enumerate(subsets) for lab in sub}
    pairs = sorted({(i, j) for j, i, _ in g.edges
                    if i != j and owner[i] == owner[j]})
    return MaskSet(subsets, np.array(pairs, dtype=np.int64).reshape(-1, 2))
