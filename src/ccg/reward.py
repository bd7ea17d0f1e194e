"""Counterfactual curiosity reward: the differentiable curiosity surrogate
(prediction diversity, counterfactual JS consistency, logged rare-label
accuracy), the Bernoulli divergences, the clamped BCE under the one
`training.weighted_ce` that serves the CE, rare-label and environment
terms, the salience-ranked counterfactual inputs of a whole batch, and the
beta/gamma_R annealing schedule.

Diversity is the KL of each player's predictions on its own labels from
sigmoid(b), which is what every other player's mask leaves on those labels.
"""

from __future__ import annotations

import numpy as np

PROB_EPS = 1e-6


def clamp_probs(p: np.ndarray) -> np.ndarray:
    return np.clip(p, PROB_EPS, 1.0 - PROB_EPS)


def _in_range(probs: np.ndarray) -> np.ndarray:
    """Where clamp_probs leaves probs unchanged (its derivative is 1)."""
    return (probs > PROB_EPS) & (probs < 1.0 - PROB_EPS)


def bce_terms(probs: np.ndarray, Y: np.ndarray):
    """Elementwise binary cross-entropy of clamped probabilities and its
    derivative in the probabilities (zero where the clamp is active)."""
    p = clamp_probs(probs)
    y = np.asarray(Y, dtype=np.float64)
    loss = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    dprobs = -(y / p - (1.0 - y) / (1.0 - p)) * _in_range(probs)
    return loss, dprobs


def kl_bernoulli(p, q):
    """Elementwise KL(Bern(p) || Bern(q)) with probability clamping."""
    p = clamp_probs(np.asarray(p, dtype=np.float64))
    q = clamp_probs(np.asarray(q, dtype=np.float64))
    return p * np.log(p / q) + (1.0 - p) * np.log((1.0 - p) / (1.0 - q))


def js_bernoulli(p, q):
    """Elementwise JS divergence between Bernoulli(p) and Bernoulli(q)."""
    p = clamp_probs(np.asarray(p, dtype=np.float64))
    q = clamp_probs(np.asarray(q, dtype=np.float64))
    m = 0.5 * (p + q)
    return 0.5 * kl_bernoulli(p, m) + 0.5 * kl_bernoulli(q, m)


def generate_counterfactual(X: np.ndarray, salience: np.ndarray, frac: float,
                            rng: np.random.Generator) -> np.ndarray:
    """Counterfactual inputs for a (B, d) batch. In each row, ceil(frac *
    nnz) nonzero features are perturbed, lowest |salience| first (ties by
    index). The first ceil(count / 2) of them are zeroed, so the rounding
    extra goes to masking; the rest are resampled from the batch's own
    column, one rng.integers draw each, rows in order and each row's
    features in salience order."""
    if not 0.0 < frac <= 1.0:
        raise ValueError("frac must be in (0, 1]")
    X = np.asarray(X, dtype=np.float64)
    nz = X != 0.0
    # each row's nonzero features first, by |salience|; the sort is stable
    order = np.lexsort((np.abs(salience), ~nz), axis=-1)
    count = np.ceil(frac * nz.sum(axis=1))[:, None]
    n_mask = np.ceil(count / 2)
    rank = np.arange(X.shape[1])
    out = X.copy()
    rows, pos = np.nonzero(rank < n_mask)
    out[rows, order[rows, pos]] = 0.0
    rows, pos = np.nonzero((rank >= n_mask) & (rank < count))
    feats = order[rows, pos]
    out[rows, feats] = X[rng.integers(0, len(X), size=len(rows)), feats]
    return out


def curiosity_surrogate(P: np.ndarray, P_cf: np.ndarray, P_rest: np.ndarray,
                        Y: np.ndarray, subsets: list, freq: np.ndarray,
                        beta: float, gamma_r: float):
    """Differentiable curiosity surrogate -beta * diversity + gamma_R * JS_cf
    on one batch.

    Each label's mask row belongs to one player, so on its own labels
    subsets[k] player k outputs the (B, L) probabilities through every
    player's pairs, P on the batch and P_cf on its counterfactuals, and on
    every other label P_rest, sigmoid(b) in every row. diversity is the mean over players of KL(player || mean of the
    other players), i.e. of KL(P || P_rest), on the player's labels (0 for a
    single player); JS_cf is the mean over players of JS(P || P_cf) there.
    Both are averaged over the batch and the player's labels. rare_acc
    (1/(1 + freq)-weighted accuracy) is logged only; its indicator has no
    gradient.

    Returns (diversity, cf_js, rare_acc, dP, dP_cf, dP_rest), where the
    gradients are those of -beta * diversity + gamma_R * JS_cf.
    """
    N, B = len(subsets), len(Y)
    # player k's batch-and-label mean, averaged over the N players, weights
    # each of its labels by 1 / (N * |subsets[k]|)
    w = np.zeros(P.shape[1])
    for sub in subsets:
        w[sub] = 1.0 / (N * len(sub))
    wB = w / B
    p, q = clamp_probs(P), clamp_probs(P_cf)
    in_p = _in_range(P)
    correct = ((P >= 0.5) == (np.asarray(Y) >= 0.5)) / (1.0 + freq)
    rare_acc = float((correct * wB).sum())

    diversity, dP, dP_rest = 0.0, 0.0, np.zeros_like(P_rest)
    if N >= 2:
        r = clamp_probs(P_rest)
        diversity = float((kl_bernoulli(P, P_rest) * wB).sum())
        sc = -beta * wB
        dP = sc * (np.log(p / r) - np.log((1.0 - p) / (1.0 - r))) * in_p
        dP_rest = sc * (-p / r + (1.0 - p) / (1.0 - r)) * _in_range(P_rest)

    mmid = 0.5 * (p + q)
    cf_js = float((js_bernoulli(P, P_cf) * wB).sum())
    sc = gamma_r * wB
    dP = dP + sc * 0.5 * np.log(p * (1.0 - mmid) / (mmid * (1.0 - p))) * in_p
    dP_cf = sc * 0.5 * np.log(
        q * (1.0 - mmid) / (mmid * (1.0 - q))) * _in_range(P_cf)
    return diversity, cf_js, rare_acc, dP, dP_cf, dP_rest


def anneal(step: int, total_steps: int, cfg) -> tuple[float, float]:
    """Linear schedules from a TrainConfig's beta0 -> beta_t and gamma_r0 ->
    gamma_r_t: beta 1.0 -> 0.2 and gamma_R 0.2 -> 1.0 by default."""
    if not 0 <= step <= total_steps:
        raise ValueError("step out of range")
    t = step / total_steps if total_steps > 0 else 1.0
    beta = cfg.beta0 + t * (cfg.beta_t - cfg.beta0)
    gamma_r = cfg.gamma_r0 + t * (cfg.gamma_r_t - cfg.gamma_r0)
    return beta, gamma_r
