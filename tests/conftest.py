import numpy as np
import pytest

from ccg import training
from ccg.data import Dataset, compute_label_stats
from ccg.graph import extract_graph
from ccg.players import build_masks, partition_labels
from ccg.sem import init_model


def toy_dataset(n=12, d=6, L=4, seed=0, pos_rate=0.5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    Y = (rng.random((n, L)) < pos_rate).astype(np.int8)
    Y[0] = 1  # ensure every label has at least one positive
    return Dataset(X, Y)


def toy_setup(L=4, d=6, hidden=5, B=5, N=2, seed=0):
    """Random model with N encoders, holding the pairs its players' masks
    read, + dataset + graph + players (MaskSet) for gradient tests."""
    rng = np.random.default_rng(seed)
    ds = toy_dataset(n=B, d=d, L=L, seed=seed + 1)
    stats = compute_label_stats(ds, 50)
    model = init_model(d, L, hidden, seed=seed + 2, players=N, enc_dim=4)
    model.W += rng.normal(0, 0.3, (L, L))
    np.fill_diagonal(model.W, 0.0)
    g = extract_graph(rng.normal(0.5, 0.3, (L, L)), 2)
    masks = build_masks(partition_labels(g, N, stats.freq), g)
    model = model.keep_pairs(masks.union())
    wt = np.clip(rng.normal(0.3, 0.2, (L, L)), 0.0, 1.0)
    np.fill_diagonal(wt, 0.0)
    return ds, stats, model, g, masks, wt


def objective_config(**kw):
    """A TrainConfig for composite-objective tests: every term but the
    alpha-weighted CE is off unless kw sets its lambda."""
    off = dict(lambda_rare=0.0, lambda_graph=0.0, lambda_inv=0.0,
               lambda_env=0.0, lambda_rwd=0.0)
    return training.TrainConfig(**{**off, **kw})


def fd_probe(value_fn, arrays, n_probes=20, step=1e-5, seed=0,
             skip=None):
    """Central finite differences on random parameter coordinates.

    `arrays` is a list, or a dict by name such as a model's param_arrays();
    value_fn() -> (scalar, gradient arrays in the same form), which must
    hold the same names, or as many arrays, so that none drops out of the
    probes. skip(key, idx) is given a name or a list position. Returns the
    worst relative error; absolute differences below 1e-8 (finite-difference
    roundoff on near-zero gradients) count as exact. Empty arrays, such as
    the pair arrays of a model holding no pair, are never probed.
    """
    def names(a):
        return list(a) if isinstance(a, dict) else list(range(len(a)))

    _, grads = value_fn()
    keys = names(arrays)
    assert names(grads) == keys
    rng = np.random.default_rng(seed)
    worst = 0.0
    probes = 0
    while probes < n_probes:
        key = keys[int(rng.integers(len(keys)))]
        arr = arrays[key]
        if arr.size == 0:
            continue
        idx = tuple(int(rng.integers(s)) for s in arr.shape)
        if skip is not None and skip(key, idx):
            continue
        old = arr[idx]
        arr[idx] = old + step
        fp, _ = value_fn()
        arr[idx] = old - step
        fm, _ = value_fn()
        arr[idx] = old
        fd = (fp - fm) / (2 * step)
        an = grads[key][idx]
        diff = abs(an - fd)
        if diff >= 1e-8:
            worst = max(worst, diff / max(abs(fd), abs(an)))
        probes += 1
    return worst


def dense_grads(grads):
    """A gradient model's arrays by name, w1's multiplied out by
    FactoredGrad.rows, the product AdamW.step reads."""
    arrays = grads.param_arrays()
    P, h, d = len(grads.pairs), grads.hidden, grads.d
    arrays["w1"] = grads.w1.rows(0, P * h).reshape(P, h, d)
    return arrays


def gradient_of(model, arrays):
    """model.gradient() holding the dense arrays by name; w1's (P, h, d)
    array G enters as the exact factors (G.reshape(P*h, d).T, eye(d))."""
    g = model.gradient()
    for name, a in arrays.items():
        if name == "w1":
            g.w1.add(a.reshape(-1, model.d).T, np.eye(model.d))
        else:
            getattr(g, name)[...] = a
    return g


def freeze_counterfactuals(monkeypatch):
    """Make training reuse the first counterfactual batch it builds.

    The salience ranking that picks counterfactual features is a step
    function of the parameters, so finite differences must see the same
    counterfactual inputs on every call. Clear the returned list to freeze
    the next batch built instead."""
    frozen = []
    build = training.generate_counterfactual

    def first(*args, **kwargs):
        if not frozen:
            frozen.append(build(*args, **kwargs))
        return frozen[0]

    monkeypatch.setattr(training, "generate_counterfactual", first)
    return frozen


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
