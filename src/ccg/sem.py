"""Neural-SEM label predictor with exact analytic gradients.

Each ordered label pair (i, j) owns a tiny 2-layer relu MLP h_ij(x); the
probability of label i is sigmoid(sum_j W[i,j] * h_ij(x) + b[i]). The pair
MLPs are stored as stacked arrays. The first layers of all L*L pairs read as
one (L*L*hidden, d) matrix, so a batch's first-layer forward, its weight
gradient and its input gradient are BLAS matrix products (`@` on reshaped
views). Backprop is hand-derived for this fixed architecture (no autodiff).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.special import expit

from .errors import DimensionError

# rows of the (L*L*hidden, d) first-layer gradient added per block in
# pair_backward
W1_BLOCK_ROWS = 256


@dataclass
class SemModel:
    """Every trained array: the SEM and the N player encoders. A gradient
    (zeros_like) and a checkpoint (copy) have the same layout."""
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
    # player k's encoder is x -> enc_w[k] x + enc_b[k]
    enc_w: np.ndarray  # (N, e, d)
    enc_b: np.ndarray  # (N, e)

    def param_arrays(self) -> dict[str, np.ndarray]:
        """The array fields by name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if isinstance(getattr(self, f.name), np.ndarray)}

    def copy(self) -> "SemModel":
        return replace(self, **{k: a.copy()
                                for k, a in self.param_arrays().items()})

    def zeros_like(self) -> "SemModel":
        """A gradient: every array zero, C-contiguous, of the same shape."""
        return replace(self, **{k: np.zeros(a.shape)
                                for k, a in self.param_arrays().items()})


def init_model(d: int, L: int, hidden: int, seed: int, players: int = 0,
               enc_dim: int = 1) -> SemModel:
    """Fan-based uniform init for the pair MLPs and, drawn from seed + 1, the
    `players` encoders of dimension enc_dim; N(0, 0.01) for W; zero biases."""
    if min(d, L, hidden, enc_dim) < 1:
        raise ValueError("d, L, hidden, enc_dim must be positive")
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
    ae = np.sqrt(6.0 / (d + enc_dim))
    enc_w = np.random.default_rng(seed + 1).uniform(
        -ae, ae, size=(players, enc_dim, d))
    return SemModel(d=d, L=L, hidden=hidden,
                    w1=w1, b1=np.zeros((L, L, hidden)), w2=w2,
                    b2=np.zeros((L, L)), W=W, b=np.zeros(L),
                    enc_w=enc_w, enc_b=np.zeros((players, enc_dim)))


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
                  grads: SemModel | None, dH: np.ndarray) -> None:
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
                  grads: SemModel | None = None):
    """Backprop accumulated dH through the stacked pair MLPs.

    dH covers the leading B = len(dH) rows of the cache's batch; the rows
    after them are ignored, so one stacked forward serves a backward pass
    over any leading slice of it. With a gradient (a zeros_like model),
    accumulates the pair-MLP gradients into it and returns None. With
    grads=None, computes only the input gradient dLoss/dX of shape (B, d).
    """
    B, L, h, d = len(dH), model.L, model.hidden, model.d
    X, a = cache[0][:B], cache[1][:B]
    dz = dH[:, :, :, None] * model.w2[None] * (a > 0.0)
    dz_flat = dz.reshape(B, L * L * h)
    if grads is None:
        return dz_flat @ model.w1.reshape(L * L * h, d)
    grads.b2 += dH.sum(axis=0)
    grads.w2 += np.einsum("bij,bijh->ijh", dH, a)
    # zeros_like allocates contiguous arrays, so this reshape is a view;
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
