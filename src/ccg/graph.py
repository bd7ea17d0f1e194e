"""Causal graph extraction, rare-edge prior, and the graph-learning loss.

W has no self-loops: its diagonal is zero by construction (`init_model`
sets it to 0, neither `head_backward` nor `graph_loss` gives it a gradient,
and W has no weight decay), so the paper's l0 self-loop penalty is always
0 and has no loss term here."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import (Dataset, co_occurrence, read_edges, read_json,
                   semantic_similarity)


@dataclass
class CausalGraph:
    L: int
    edges: list[tuple[int, int, float]]  # (src j, dst i, strength)

    def edge_set(self) -> set[tuple[int, int]]:
        return {(j, i) for (j, i, _) in self.edges}

    def to_json(self) -> dict:
        return {"L": self.L,
                "edges": [{"src": j, "dst": i, "strength": s} for (j, i, s) in self.edges]}


def rare_indicator_matrix(L: int, rare_set) -> np.ndarray:
    """I[i, j] = 1 where label i or label j is rare, else 0."""
    rare = np.zeros(L, dtype=bool)
    rare[list(rare_set)] = True
    return (rare[:, None] | rare[None, :]).astype(np.float64)


def ideal_weights(ds: Dataset, gamma: float) -> np.ndarray:
    """Blend gamma * co-occurrence + (1 - gamma) * semantic similarity."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    M = gamma * co_occurrence(ds) + (1.0 - gamma) * semantic_similarity(ds)
    np.fill_diagonal(M, 0.0)
    return M


def graph_loss(W: np.ndarray, Wtilde: np.ndarray, eta: float,
               rare_set) -> tuple[float, np.ndarray]:
    """Rare-enhanced squared deviation from the ideal weights over the
    off-diagonal entries: sum of psi(eta, I_ij) * (W_ij - Wtilde_ij)^2 with
    psi = eta (the rare-edge enhancement factor, >= 1) on edges that touch a
    label of rare_set and 1 elsewhere. Returns (value, dW). The diagonal gets
    neither loss nor gradient; it is zero by construction, so there is no
    self-loop term."""
    if eta < 1.0:
        raise ValueError("eta must be >= 1")
    W = np.asarray(W, dtype=np.float64)
    if W.shape != Wtilde.shape:
        raise ValueError("shape mismatch between W and Wtilde")
    L = W.shape[0]
    ind = rare_indicator_matrix(L, rare_set)
    psi_mat = np.where(ind > 0, eta, 1.0)
    off = 1.0 - np.eye(L)
    diff = (W - Wtilde) * off
    loss = float((psi_mat * diff ** 2 * off).sum())
    grad = 2.0 * psi_mat * diff * off
    return loss, grad


def extract_graph(W: np.ndarray, K: int) -> CausalGraph:
    """Top-K positive outgoing strengths per source label; ties to smaller
    target index."""
    if K < 1:
        raise ValueError("K must be >= 1")
    W = np.asarray(W, dtype=np.float64)
    L = W.shape[0]
    edges = []
    for j in range(L):
        cands = [(i, float(W[i, j])) for i in range(L) if i != j and W[i, j] > 0.0]
        cands.sort(key=lambda t: (-t[1], t[0]))
        for i, s in cands[:K]:
            edges.append((j, i, s))
    edges.sort(key=lambda e: (e[0], e[1]))
    return CausalGraph(L=L, edges=edges)


def export_dot(g: CausalGraph, label_names: list[str] | None = None) -> str:
    """Deterministic DOT rendering, 2-decimal edge strengths, escaped IDs."""
    names = [n.replace("\\", "\\\\").replace('"', '\\"')
             for n in label_names or [f"L{i}" for i in range(g.L)]]
    lines = ["digraph G {"]
    for name in names:
        lines.append(f'  "{name}";')
    for (j, i, s) in sorted(g.edges, key=lambda e: (e[0], e[1])):
        lines.append(f'  "{names[j]}" -> "{names[i]}" [label="{s:.2f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_graph(g: CausalGraph, path) -> None:
    with open(path, "w") as fh:
        json.dump(g.to_json(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_graph(path) -> CausalGraph:
    """The graph of a graph.json file, as read_edges reads it."""
    return read_json(path, lambda obj: CausalGraph(*read_edges(obj)))
