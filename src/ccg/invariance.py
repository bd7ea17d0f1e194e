"""Augmented-environment views and the dual invariance losses: the
cross-environment prediction consistency loss and the contrastive encoder
invariance loss, each returning its value and gradient."""

from __future__ import annotations

import math

import numpy as np

from .data import PlantedWorld
from .reward import bce_terms


def _perturb(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    out = x.copy()
    active = np.flatnonzero(x != 0.0)
    k = math.ceil(0.1 * len(active)) if len(active) else 0
    zero_idx = rng.choice(active, size=k, replace=False) if k else np.array([], dtype=int)
    out += rng.normal(0.0, 0.05, size=len(out))
    out[zero_idx] = 0.0
    return out


def make_env_views_batch(X: np.ndarray, M: int, planted: PlantedWorld | None,
                         rng: np.random.Generator) -> list[np.ndarray]:
    """M views of a batch; view 0 is X itself. With a planted world, later
    views rescale each sample's spurious-block features by a random U(-1, 1)
    factor; without one, they zero a random 10% of each sample's active
    features and jitter the rest. One rng stream, fixed view order."""
    if M < 1:
        raise ValueError("M must be >= 1")
    X = np.asarray(X, dtype=np.float64)
    views = [X]
    for _ in range(M - 1):
        if planted is not None:
            # the same family as the generator's environment shifts, which
            # move the spurious-feature mean toward (or past) zero
            V = X.copy()
            sp = planted.spurious_indices()
            if len(sp):
                V[:, sp] = V[:, sp] * rng.uniform(-1.0, 1.0, size=(len(X), 1))
        else:
            V = np.stack([_perturb(X[i], rng) for i in range(len(X))])
        views.append(V)
    return views


def contrastive_inv_loss(encodings):
    """Sum over players and unordered view pairs of the batch-mean squared L2
    distance between encodings. encodings[k][m] is player k's (B, e)
    encoding of view m. Returns (value, d_encodings) with d_encodings[k][m]
    the gradient for encodings[k][m]."""
    value = 0.0
    d_encodings = []
    for hk in encodings:
        M, B = len(hk), len(hk[0])
        dk = []
        for m in range(M):
            dh = np.zeros_like(hk[m])
            for n in range(M):
                if n == m:
                    continue
                diff = hk[m] - hk[n]
                if n > m:
                    value += float((diff ** 2).sum(axis=1).mean())
                dh += (2.0 / B) * diff
            dk.append(dh)
        d_encodings.append(dk)
    return value, d_encodings


def env_consistency_loss(P_views: list[np.ndarray], Y: np.ndarray):
    """(1/M) sum over the M environment views of the binary cross-entropy
    against the true labels, summed over labels, mean over the batch.

    P_views[m] holds the (B, L) union-mask probabilities of view m. Row i of
    the union mask is row i of the mask of the player that owns label i, so
    this equals the sum over players of each player's loss on its own
    labels. Returns (value, dP) with dP[m] the gradient for P_views[m].
    """
    M = len(P_views)
    if M < 1:
        raise ValueError("need at least one environment")
    B = len(Y)
    value = 0.0
    dP = []
    for P in P_views:
        loss, dprobs = bce_terms(P, Y)
        value += float(loss.sum(axis=1).mean()) / M
        dP.append(dprobs / (M * B))
    return value, dP
