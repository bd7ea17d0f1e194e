"""Augmented-environment views and the dual invariance losses: the
cross-environment prediction consistency loss and the contrastive encoder
invariance loss, each returning its value and gradient.

The M views of a batch are one (M, B, d) array, so the model can run them
as the M*B rows of one batch; each loss is one whole-array expression over
the view axis."""

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
                         rng: np.random.Generator) -> np.ndarray:
    """M views of a (B, d) batch as one (M, B, d) array; view 0 is X itself.
    With a planted world, later views rescale each sample's spurious-block
    features by a random U(-1, 1) factor; without one, they zero a random
    10% of each sample's active features and jitter the rest. One rng
    stream, fixed view order."""
    if M < 1:
        raise ValueError("M must be >= 1")
    X = np.asarray(X, dtype=np.float64)
    views = np.repeat(X[None], M, axis=0)
    sp = planted.spurious_indices() if planted is not None else None
    for V in views[1:]:
        if planted is None:
            for i in range(len(X)):
                V[i] = _perturb(X[i], rng)
        elif len(sp):
            # the same family as the generator's environment shifts, which
            # move the spurious-feature mean toward (or past) zero
            V[:, sp] = X[:, sp] * rng.uniform(-1.0, 1.0, size=(len(X), 1))
    return views


def contrastive_inv_loss(E):
    """Sum over players and unordered view pairs of the batch-mean squared L2
    distance between encodings. E is (N, M, B, e): E[k, m] is player k's
    encoding of view m. Returns (value, dE), dE the gradient for E."""
    E = np.asarray(E, dtype=np.float64)
    D = E[:, :, None] - E[:, None]  # D[k, m, n] = E[k, m] - E[k, n]
    B = E.shape[2]
    # every unordered pair appears twice in D, once with each sign
    return float((D ** 2).sum() / (2 * B)), (2.0 / B) * D.sum(axis=2)


def env_consistency_loss(P, Y: np.ndarray):
    """(1/M) sum over the M environment views of the binary cross-entropy
    against the true labels, summed over labels, mean over the batch.

    P is (M, B, L): P[m] holds the union-mask probabilities of view m. Row i
    of the union mask is row i of the mask of the player that owns label i,
    so this equals the sum over players of each player's loss on its own
    labels. Returns (value, dP), dP the gradient for P.
    """
    P = np.asarray(P, dtype=np.float64)
    if len(P) < 1:
        raise ValueError("need at least one environment")
    loss, dprobs = bce_terms(P, Y)
    return float(loss.sum(axis=2).mean()), dprobs / (len(P) * len(Y))
