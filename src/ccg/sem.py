"""Neural-SEM label predictor with exact analytic gradients.

Each ordered label pair (i, j) owns a tiny 2-layer relu MLP h_ij(x); the
probability of label i is sigmoid(sum_j W[i,j] * h_ij(x) + b[i]). The pair
MLPs are stored as stacked arrays. The first layers of all L*L pairs read as
one (L*L*hidden, d) matrix, so a batch's first-layer forward, its weight
gradient and its input gradient are BLAS matrix products (`@` on reshaped
views). Backprop is hand-derived for this fixed architecture (no autodiff).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import DimensionError

# rows of the (L*L*hidden, d) first-layer gradient added per block in
# pair_backward
W1_BLOCK_ROWS = 256


@dataclass
class SemModel:
    d: int
    L: int
    hidden: int
    w1: np.ndarray  # (L, L, hidden, d)
    b1: np.ndarray  # (L, L, hidden)
    w2: np.ndarray  # (L, L, hidden)
    b2: np.ndarray  # (L, L)
    # (L, L) causal weights. The diagonal is zero by construction: init sets
    # it to 0, no loss term gives it a gradient and W has no weight decay
    W: np.ndarray
    b: np.ndarray   # (L,)

    def copy(self) -> "SemModel":
        return SemModel(self.d, self.L, self.hidden,
                        self.w1.copy(), self.b1.copy(), self.w2.copy(),
                        self.b2.copy(), self.W.copy(), self.b.copy())

    def param_arrays(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2,
                "b2": self.b2, "W": self.W, "b": self.b}


@dataclass
class GradientBundle:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    W: np.ndarray
    b: np.ndarray
    enc_w: list | None = None  # per-player encoder weight grads
    enc_b: list | None = None

    def arrays(self) -> list[np.ndarray]:
        out = [self.w1, self.b1, self.w2, self.b2, self.W, self.b]
        if self.enc_w is not None:
            out += list(self.enc_w) + list(self.enc_b)
        return out


def zero_gradients(model: SemModel, n_encoders: int = 0,
                   enc_dim: int = 0) -> GradientBundle:
    g = GradientBundle(*(np.zeros_like(a) for a in
                         (model.w1, model.b1, model.w2, model.b2, model.W, model.b)))
    if n_encoders:
        g.enc_w = [np.zeros((enc_dim, model.d)) for _ in range(n_encoders)]
        g.enc_b = [np.zeros(enc_dim) for _ in range(n_encoders)]
    return g


def init_model(d: int, L: int, hidden: int, seed: int) -> SemModel:
    """Fan-based uniform init for the pair MLPs, N(0, 0.01) for W, zero biases."""
    if min(d, L, hidden) < 1:
        raise ValueError("d, L, hidden must be positive")
    rng = np.random.default_rng(seed)
    a1 = np.sqrt(6.0 / (d + hidden))
    a2 = np.sqrt(6.0 / (hidden + 1))
    w1 = rng.uniform(-a1, a1, size=(L, L, hidden, d))
    w2 = rng.uniform(-a2, a2, size=(L, L, hidden))
    W = rng.normal(0.0, 0.01, size=(L, L))
    np.fill_diagonal(W, 0.0)
    diag = np.eye(L, dtype=bool)
    w1[diag] = 0.0
    w2[diag] = 0.0
    return SemModel(d=d, L=L, hidden=hidden,
                    w1=w1, b1=np.zeros((L, L, hidden)), w2=w2,
                    b2=np.zeros((L, L)), W=W, b=np.zeros(L))


def full_mask(L: int) -> np.ndarray:
    return 1.0 - np.eye(L)


def pair_features(model: SemModel, X: np.ndarray):
    """All h_ij(x) for a batch. Returns H of shape (B, L, L) plus a cache
    of intermediates for the backward pass."""
    if X.ndim != 2 or X.shape[1] != model.d:
        raise DimensionError(f"expected features of dimension {model.d}")
    L, h = model.L, model.hidden
    a = (X @ model.w1.reshape(L * L * h, model.d).T).reshape(len(X), L, L, h)
    a += model.b1
    np.maximum(a, 0.0, out=a)  # relu in place; a > 0 exactly where z > 0
    H = np.einsum("ijh,bijh->bij", model.w2, a) + model.b2
    return H, (X, a)


def head(model: SemModel, H: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Probabilities sigmoid((W * mask) H + b); mask is (L, L) binary."""
    Wm = model.W * mask
    logits = np.einsum("ij,bij->bi", Wm, H) + model.b
    return expit(logits)


def head_backward(model: SemModel, H: np.ndarray, mask: np.ndarray,
                  probs: np.ndarray, dprobs: np.ndarray,
                  grads: GradientBundle | None, dH: np.ndarray) -> None:
    """Accumulate grads for one masked head; dH collects dLoss/dH. With
    grads=None only dH is accumulated."""
    dlogits = dprobs * probs * (1.0 - probs)
    if grads is not None:
        grads.b += dlogits.sum(axis=0)
        gW = np.einsum("bi,bij->ij", dlogits, H) * mask
        np.fill_diagonal(gW, 0.0)
        grads.W += gW
    dH += dlogits[:, :, None] * (model.W * mask)[None, :, :]


def pair_backward(model: SemModel, cache, dH: np.ndarray,
                  grads: GradientBundle | None = None):
    """Backprop accumulated dH through the stacked pair MLPs.

    dH covers the leading B = len(dH) rows of the cache's batch; the rows
    after them are ignored, so one stacked forward serves a backward pass
    over any leading slice of it. With a gradient bundle, accumulates the
    pair-MLP parameter gradients into it and returns None. With grads=None,
    computes only the input gradient dLoss/dX of shape (B, d) and returns it.
    """
    B, L, h, d = len(dH), model.L, model.hidden, model.d
    X, a = cache[0][:B], cache[1][:B]
    dz = dH[:, :, :, None] * model.w2[None] * (a > 0.0)
    dz_flat = dz.reshape(B, L * L * h)
    if grads is None:
        return dz_flat @ model.w1.reshape(L * L * h, d)
    grads.b2 += dH.sum(axis=0)
    grads.w2 += np.einsum("bij,bijh->ijh", dH, a)
    # zero_gradients allocates contiguous arrays, so this reshape is a view;
    # the product is added one block of rows at a time so its temporary
    # stays in cache
    gw1 = grads.w1.reshape(L * L * h, d)
    for s in range(0, L * L * h, W1_BLOCK_ROWS):
        gw1[s:s + W1_BLOCK_ROWS] += dz_flat[:, s:s + W1_BLOCK_ROWS].T @ X
    grads.b1 += dz.sum(axis=0)
    return None


def predict_batch(model: SemModel, X: np.ndarray,
                  mask: np.ndarray | None = None) -> np.ndarray:
    if mask is None:
        mask = full_mask(model.L)
    H, _ = pair_features(model, np.asarray(X, dtype=np.float64))
    return head(model, H, mask)
