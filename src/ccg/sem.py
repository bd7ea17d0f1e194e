"""Neural-SEM label predictor with exact analytic gradients.

Each ordered label pair (i, j), i != j, owns a tiny 2-layer relu MLP
h_ij(x). A model holds the MLPs of the pairs in its pair index,
`SemModel.pairs`, stacked along the first axis of `w1`, `b1`, `w2` and `b2`:
every off-diagonal pair before the partition, and after it only the pairs
the players' masks read. The pair index is the model's mask: the probability
of label i is sigmoid(b[i] + sum of W[i, j] * h_ij(x) over its held pairs).
The first layers of the P held pairs read as one (P*hidden, d) matrix, so a
batch's first-layer forward and its input gradient are BLAS matrix products;
a gradient holds that matrix's gradient dz.T @ X as R backward rows of
factors (dz, X), R*(P*hidden + d) numbers against P*hidden*d (`FactoredGrad`).
The pair outputs and their gradients keep a (B, P) layout, which the head
sums into the L labels with one (B, P) @ (P, L) product. Backprop is
hand-derived for this fixed architecture (no autodiff). The sigmoid is
`expit`, on numpy alone, so the package needs no scipy at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DimensionError

# the arrays that hold one entry per pair of the pair index
PAIR_ARRAYS = ("w1", "b1", "w2", "b2")


@dataclass
class SemModel:
    """Every trained array: the SEM and the N player encoders. A checkpoint
    (copy) and AdamW's moments (zeros_like) have the same layout, and so
    does a gradient (gradient) but for w1, a FactoredGrad."""
    d: int
    L: int
    hidden: int
    # (P, 2) int: row p is the label pair (i, j) whose MLP is w1[p], b1[p],
    # w2[p] and b2[p], in row-major order. It is the layout, not a parameter,
    # and is never written in place, so copies share it
    pairs: np.ndarray
    w1: np.ndarray  # (P, hidden, d)
    b1: np.ndarray  # (P, hidden)
    w2: np.ndarray  # (P, hidden)
    b2: np.ndarray  # (P,)
    # (L, L) causal weights. The diagonal is zero by construction: init sets
    # it to 0, no loss term gives it a gradient and W has no weight decay
    W: np.ndarray
    b: np.ndarray   # (L,)
    # player k's encoder is x -> enc_w[k] x + enc_b[k]
    enc_w: np.ndarray  # (N, e, d)
    enc_b: np.ndarray  # (N, e)

    def param_arrays(self) -> dict[str, np.ndarray]:
        """Every field but the sizes and pairs by name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("d", "L", "hidden", "pairs")}

    def copy(self) -> "SemModel":
        return replace(self, **{k: a.copy()
                                for k, a in self.param_arrays().items()})

    def zeros_like(self) -> "SemModel":
        """Every array zero, C-contiguous, of the same shape."""
        return replace(self, **{k: np.zeros(a.shape)
                                for k, a in self.param_arrays().items()})

    def gradient(self) -> "SemModel":
        """A zero gradient: w1's an empty FactoredGrad, the rest zeros."""
        return replace(self, **{k: np.zeros(a.shape) if k != "w1" else
                                FactoredGrad(a[..., 0].size, self.d)
                                for k, a in self.param_arrays().items()})

    def keep_pairs(self, mask: np.ndarray) -> "SemModel":
        """The model holding only its pairs (i, j) where the (L, L) mask is
        nonzero: the pair arrays gathered along their first axis, the other
        arrays shared."""
        i, j = self.pairs.T
        keep = np.flatnonzero(mask[i, j])
        return replace(self, pairs=self.pairs[keep],
                       **{k: getattr(self, k)[keep] for k in PAIR_ARRAYS})


class FactoredGrad:
    """An (n, d) gradient held as its factors, D.T @ X for D (R, n) and
    X (R, d): R*(n + d) numbers against the product's n*d. Its R rows stack
    those of every backward pass added."""

    def __init__(self, n: int, d: int):
        self.D, self.X = np.empty((0, n)), np.empty((0, d))

    def add(self, D: np.ndarray, X: np.ndarray) -> None:
        if len(self.D):
            D, X = np.vstack([self.D, D]), np.vstack([self.X, X])
        self.D, self.X = D, X

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows start:stop of the gradient."""
        return self.D[:, start:stop].T @ self.X

    def sqnorm(self, block: int) -> float:
        """The squared norm: while R < d, vdot(D D.T, X X.T), Grams of
        R*R*(n + d) multiply-adds against the product's R*n*d; else rows(s,
        s + block)'s squares summed. Overflow gives inf or nan silently, as a
        vdot does; max lifts rounding below 0 and keeps a nan."""
        (R, n), d = self.D.shape, self.X.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):
            if R < d:
                return max(float(np.vdot(self.D @ self.D.T,
                                         self.X @ self.X.T)), 0.0)
            return sum(float(np.vdot(g, g)) for g in
                       (self.rows(s, s + block) for s in range(0, n, block)))


def expit(x):
    """sigmoid(x) = 1 / (1 + exp(-x)), within 2 ulp of scipy.special.expit;
    below about -709.78 exp(-x) overflows to inf and both give 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def all_pairs(L: int) -> np.ndarray:
    """The row-major pair index of every off-diagonal pair (i, j)."""
    return np.argwhere(~np.eye(L, dtype=bool))


def init_model(d: int, L: int, hidden: int, seed: int, players: int = 0,
               enc_dim: int = 1) -> SemModel:
    """A model holding every off-diagonal pair. Fan-based uniform init for
    the pair MLPs and, drawn from seed + 1, the `players` encoders of
    dimension enc_dim; N(0, 0.01) for W; zero biases. The pair MLPs are
    drawn for all L*L pairs, one row i at a time with (i, i) dropped, so
    the draws of W that follow are those of an (L, L) layout."""
    if min(d, L, hidden, enc_dim) < 1:
        raise ValueError("d, L, hidden, enc_dim must be positive")
    rng = np.random.default_rng(seed)
    a1 = np.sqrt(6.0 / (d + hidden))
    a2 = np.sqrt(6.0 / (hidden + 1))
    pairs = all_pairs(L)
    i, j = pairs.T
    w1 = np.empty((len(pairs), hidden, d))
    for r, rows in enumerate(np.split(w1, L)):  # the pairs (r, j), j != r
        rows[...] = np.delete(rng.uniform(-a1, a1, size=(L, hidden, d)), r, 0)
    w2 = rng.uniform(-a2, a2, size=(L, L, hidden))[i, j]
    W = rng.normal(0.0, 0.01, size=(L, L))
    np.fill_diagonal(W, 0.0)
    ae = np.sqrt(6.0 / (d + enc_dim))
    enc_w = np.random.default_rng(seed + 1).uniform(
        -ae, ae, size=(players, enc_dim, d))
    P = len(pairs)
    return SemModel(d=d, L=L, hidden=hidden, pairs=pairs,
                    w1=w1, b1=np.zeros((P, hidden)), w2=w2,
                    b2=np.zeros(P), W=W, b=np.zeros(L),
                    enc_w=enc_w, enc_b=np.zeros((players, enc_dim)))


def pair_features(model: SemModel, X: np.ndarray):
    """Every held h_ij(x) for a batch. Returns Hp of shape (B, P), column p
    the output of pair model.pairs[p], plus a cache of intermediates for the
    backward pass."""
    if X.ndim != 2 or X.shape[1] != model.d:
        raise DimensionError(f"expected features of dimension {model.d}")
    B, (P, h, d) = len(X), model.w1.shape
    a = (X @ model.w1.reshape(P * h, d).T).reshape(B, P, h)
    a += model.b1
    np.maximum(a, 0.0, out=a)  # relu in place; a > 0 exactly where z > 0
    Hp = np.einsum("ph,bph->bp", model.w2, a) + model.b2
    return Hp, (X, a)


def head(model: SemModel, Hp: np.ndarray) -> np.ndarray:
    """Probabilities sigmoid(b + Hp @ S), where the (P, L) matrix S holds
    W[i, j] at row p, column i for each held pair p = (i, j)."""
    i, j = model.pairs.T
    S = np.zeros((len(i), model.L))
    S[np.arange(len(i)), i] = model.W[i, j]
    return expit(Hp @ S + model.b)


def head_backward(model: SemModel, Hp: np.ndarray, probs: np.ndarray,
                  dprobs: np.ndarray, grads: SemModel | None) -> np.ndarray:
    """The (B, P) dLoss/dHp of one head given dLoss/dprobs; with a gradient,
    also adds the head's gradients into b and W at the held pairs."""
    dlogits = dprobs * probs * (1.0 - probs)
    i, j = model.pairs.T
    dl_pairs = dlogits[:, i]  # (B, P): each pair's target label's dlogits
    if grads is not None:
        grads.b += dlogits.sum(axis=0)
        grads.W[i, j] += np.einsum("bp,bp->p", dl_pairs, Hp)
    # in C order (dl_pairs is not), as pair_backward sums it over rows
    return np.multiply(dl_pairs, model.W[i, j], order="C")


def pair_backward(model: SemModel, cache, dHp: np.ndarray,
                  grads: SemModel | None = None):
    """Backprop the accumulated (B, P) dHp through the stacked pair MLPs.

    dHp covers the leading B = len(dHp) rows of the cache's batch; the rows
    after them are ignored, so one stacked forward serves a backward pass
    over any leading slice of it. With a gradient (SemModel.gradient), adds
    the pair-MLP gradients to it, w1's as B rows of factors (dz, X), and
    returns None. With grads=None, returns only dLoss/dX of shape (B, d).
    """
    B, (P, h, d) = len(dHp), model.w1.shape
    X, a = cache[0][:B], cache[1][:B]
    dz = dHp[:, :, None] * model.w2[None] * (a > 0.0)
    dz_flat = dz.reshape(B, P * h)
    if grads is None:
        return dz_flat @ model.w1.reshape(P * h, d)
    grads.b2 += dHp.sum(axis=0)
    grads.w2 += np.einsum("bp,bph->ph", dHp, a)
    grads.w1.add(dz_flat, X)
    grads.b1 += dz.sum(axis=0)
    return None


def predict_batch(model: SemModel, X: np.ndarray) -> np.ndarray:
    Hp, _ = pair_features(model, np.asarray(X, dtype=np.float64))
    return head(model, Hp)
