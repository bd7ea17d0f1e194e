"""Augmented-environment views and the contrastive encoder invariance loss.

The M views of a batch are one (M, B, d) array, so the model can run them
as the M*B rows of one batch. The invariance loss is one whole-array
expression over the view axis; the environment-consistency loss is the one
BCE of the CE and rare terms, `training.weighted_ce`, over those rows."""

from __future__ import annotations

import numpy as np

from .data import PlantedWorld


def make_env_views_batch(X: np.ndarray, M: int, planted: PlantedWorld | None,
                         rng: np.random.Generator) -> np.ndarray:
    """M views of a (B, d) batch as one (M, B, d) array; view 0 is X itself.
    With a planted world, later views rescale each sample's spurious-block
    features by a random U(-1, 1) factor. Without one, each later view adds
    N(0, 0.05^2) jitter to every feature and then zeroes ceil(0.1 * nnz) of
    each sample's nonzero features, the ones with the smallest of a (B, d)
    array of uniform keys. One rng stream, fixed view order."""
    if M < 1:
        raise ValueError("M must be >= 1")
    X = np.asarray(X, dtype=np.float64)
    views = np.repeat(X[None], M, axis=0)
    sp = planted.spurious_indices() if planted is not None else None
    active = X != 0.0
    n_zero = np.ceil(0.1 * active.sum(axis=1))[:, None]
    for V in views[1:]:
        if planted is None:
            # inactive features get key inf, so they rank after every
            # active one and are never picked
            keys = np.where(active, rng.random(X.shape), np.inf)
            drop = np.argsort(np.argsort(keys, axis=1), axis=1) < n_zero
            V += rng.normal(0.0, 0.05, size=X.shape)
            V[drop] = 0.0
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
