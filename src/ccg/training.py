"""Composite objective, optimizer, and the end-to-end training loop.

Each loss term has one function that returns its value and its gradient
with respect to its direct inputs:

- one label-weighted BCE, `weighted_ce`, is the imbalance-weighted
  cross-entropy (weights alpha), the rare-label regularizer (1 on the rare
  labels, 0 elsewhere) and the cross-environment consistency loss (1 on
  every label of the M*B stacked view rows, the mean CE over the views);
- the graph-learning loss on W is `graph.graph_loss`;
- the contrastive invariance loss is `invariance.contrastive_inv_loss`;
- the differentiable curiosity surrogate (-beta * diversity +
  gamma_R * JS_cf) is `reward.curiosity_surrogate`. Diversity is the KL of
  each player's predictions on its own labels from sigmoid(b), which is what
  every other player's mask leaves on those labels.

`composite_value_and_grads` runs the model's forwards, calls each active
term, adds lambda * value to the total, and chains lambda * gradient back
through the heads, the pair MLPs and the player encoders. After the
partition the model holds exactly the pairs the players' masks read, and
each label's mask row belongs to one player, so one head gives every
player's predictions on its own labels; on the labels it does not own a
player outputs sigmoid(b), which needs no head. The M environment views are
stacked as the rows of one batch, so the pair MLPs and the head run once
over all of them and one stacked `encode_batch` call encodes them for every
player; the counterfactual rows are stacked under them for the one backward
pass that carries every term's gradient, and the terms that read only the
raw batch use the leading rows. The coefficients and view settings come from
the run's `TrainConfig`, whose annotations give each one's type and range
(`FIELD_RULES`); `ObjectiveSpec` holds the rest of a step's context. A step
without masks is a warm-up step, which runs only the CE, rare and graph
terms. The environment views (`invariance.make_env_views_batch`) and the
counterfactual inputs (`reward.generate_counterfactual`, ranked by the
salience of the raw rows) are each built in one whole-batch pass and enter
as constants. Gradients are exact reverse-mode for every term; w1's is held
as its factors (`sem.FactoredGrad`), so no step holds a dense first-layer
gradient.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
from dataclasses import dataclass, field, asdict, replace
from typing import Annotated, get_args, get_type_hints

import numpy as np

from . import evaluation
from .data import (Dataset, LabelStats, PlantedWorld, checked, co_occurrence,
                   compute_label_stats, rare_set_for, read_json)
from .errors import DimensionError, NumericalError
from .graph import (CausalGraph, extract_graph, graph_loss, ideal_weights,
                    save_graph, load_graph)
from .invariance import contrastive_inv_loss, make_env_views_batch
from .players import (MaskSet, PlayerEncoder, build_masks, encode_batch,
                      partition_labels, player_encoders)
from .reward import (anneal, bce_terms, curiosity_surrogate,
                     generate_counterfactual)
from .sem import (FactoredGrad, SemModel, all_pairs, expit, head,
                  head_backward, init_model, pair_backward, pair_features)


@dataclass(frozen=True)
class TrainConfig:
    """Every training setting. Each field's annotation holds its JSON type
    and the interval or choices its value must lie in, the FIELD_RULES
    entry data.checked reads; building one checks every value in field
    order, raising ValueError naming the first bad field, and keeps it."""
    # training from scratch at this scale needs larger steps than a
    # pretrained-encoder setup would use
    lr_main: Annotated[float, "[0, inf)"] = 1e-3
    lr_aux: Annotated[float, "[0, inf)"] = 1e-2
    weight_decay: Annotated[float, "[0, inf)"] = 1e-2
    batch_size: Annotated[int, "[1, inf)"] = 16
    max_epochs: Annotated[int, "[0, inf)"] = 30
    patience: Annotated[int, "[0, inf)"] = 5
    grad_clip: Annotated[float, "[0, inf)"] = 1.0  # 0 turns clipping off
    n_players: Annotated[int, "[1, inf)"] = 5
    k_topk: Annotated[int, "[1, inf)"] = 3
    warmup_epochs: Annotated[int, "[0, inf)"] = 5
    lambda_graph: Annotated[float, "[0, inf)"] = 1.0
    lambda_inv: Annotated[float, "[0, inf)"] = 1.0
    lambda_env: Annotated[float, "[0, inf)"] = 1.0
    lambda_rwd: Annotated[float, "[0, inf)"] = 1.0
    lambda_rare: Annotated[float, "[0, inf)"] = 0.5
    seed: Annotated[int, "[0, inf)"] = 0
    m_envs: Annotated[int, "[1, inf)"] = 3
    gamma: Annotated[float, "[0, 1]"] = 0.5
    eta: Annotated[float, "[1, inf)"] = 1.5
    beta0: Annotated[float, "[0, inf)"] = 1.0
    beta_t: Annotated[float, "[0, inf)"] = 0.2
    gamma_r0: Annotated[float, "[0, inf)"] = 0.2
    gamma_r_t: Annotated[float, "[0, inf)"] = 1.0
    perturb_frac: Annotated[float, "(0, 1]"] = 0.12
    rare_pct: Annotated[float, "[0, 100]"] = 30.0
    hidden: Annotated[int, "[1, inf)"] = 16
    enc_dim: Annotated[int, "[1, inf)"] = 16
    val_frac: Annotated[float, "[0, 1)"] = 0.2
    # "cooccur" is w/o CGM, and w/o RLE sets alpha(l) = 1
    partition_source: Annotated[str, ("learned", "cooccur")] = "learned"
    uniform_alpha: Annotated[bool, (False, True)] = False

    def __post_init__(self):
        for name, rule in FIELD_RULES.items():
            checked(getattr(self, name), rule, name)

    @classmethod
    def from_dict(cls, obj, where: str) -> "TrainConfig":
        """The config a JSON object gives, its missing keys at their
        defaults; any error names where the object came from."""
        if not isinstance(obj, dict):
            raise ValueError(f"{where} must hold a JSON object")
        try:
            return cls(**obj)
        except (TypeError, ValueError) as exc:  # TypeError: an unknown key
            raise ValueError(f"{where}: {exc}") from None


# field name -> (type, allowed), from the annotations, in field order
FIELD_RULES = {name: get_args(hint) for name, hint in get_type_hints(
    TrainConfig, include_extras=True).items()}


def alpha_weights(stats: LabelStats) -> np.ndarray:
    """(L,) alpha(l) proportional to freq(l)**-0.25 (freq floored at 1),
    normalized to mean 1."""
    freq = np.maximum(np.asarray(stats.freq, dtype=np.float64), 1.0)
    raw = freq ** -0.25
    return raw * len(raw) / raw.sum()


def weighted_ce(P: np.ndarray, Y: np.ndarray, alpha: np.ndarray):
    """Label-weighted BCE of (B, L) probabilities: mean over the rows,
    alpha-weighted sum over labels, with both class terms included; a 0
    weight drops its label. Returns (value, dP)."""
    loss, dprobs = bce_terms(P, Y)
    value = float((loss * alpha[None, :]).sum(axis=1).mean())
    return value, dprobs * alpha[None, :] / len(P)


@dataclass
class ObjectiveSpec:
    """One step's context for the composite objective. The coefficients
    (lambda_*), view settings (m_envs, perturb_frac) and eta come from cfg;
    masks=None marks a warm-up step, which runs only the CE, rare and graph
    terms."""
    cfg: TrainConfig
    alpha: np.ndarray
    stats: LabelStats
    wtilde: np.ndarray
    masks: MaskSet | None = None
    planted: PlantedWorld | None = None
    beta: float = 1.0
    gamma_r: float = 0.2
    rng_seed: tuple = (0,)


def _check_finite(name: str, value: float) -> float:
    if not np.isfinite(value):
        raise NumericalError(name)
    return value


def composite_value_and_grads(model: SemModel, X: np.ndarray, Y: np.ndarray,
                              obj: ObjectiveSpec):
    """Evaluate the composite objective on one batch and return
    (total, gradient model, per-term breakdown). Pure given obj.rng_seed."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    cfg = obj.cfg
    # the invariance, env and curiosity terms need the players
    full = obj.masks is not None
    grads = model.gradient()
    # a term that does not run logs 0
    bd = dict.fromkeys(("rare", "env", "graph", "inv", "diversity", "cf_js",
                        "rare_acc"), 0.0)
    total = 0.0

    # the M environment views (view 0 is the raw batch) stacked as the M*B
    # rows of one batch; CE, rare, curiosity and salience read rows [:B]
    M = cfg.m_envs if full and (cfg.lambda_env != 0.0
                                or cfg.lambda_inv != 0.0) else 1
    B = len(X)
    rng_views = np.random.default_rng(list(obj.rng_seed) + [1])
    views = make_env_views_batch(X, M, obj.planted, rng_views)
    Xs = views.reshape(M * B, model.d)
    Hp, cache = pair_features(model, Xs)
    P = head(model, Hp)
    dP = np.zeros_like(P)

    ce, d_ce = weighted_ce(P[:B], Y, obj.alpha)
    bd["ce"] = _check_finite("weighted_ce", ce)
    total += ce
    dP[:B] += d_ce

    if cfg.lambda_rare != 0.0:
        rare = np.zeros(model.L)
        rare[list(obj.stats.rare_set)] = 1.0
        rr, d_rr = weighted_ce(P[:B], Y, rare)
        bd["rare"] = _check_finite("rare_reg", rr)
        total += cfg.lambda_rare * rr
        dP[:B] += cfg.lambda_rare * d_rr

    if full and cfg.lambda_env != 0.0:
        env, d_env = weighted_ce(P, np.tile(Y, (M, 1)), np.ones(model.L))
        bd["env"] = _check_finite("env_consistency", env)
        total += cfg.lambda_env * env
        dP += cfg.lambda_env * d_env

    if cfg.lambda_graph != 0.0:
        gl, gW = graph_loss(model.W, obj.wtilde, cfg.eta, obj.stats.rare_set)
        bd["graph"] = _check_finite("graph_loss", gl)
        total += cfg.lambda_graph * gl
        grads.W += cfg.lambda_graph * gW

    if full and cfg.lambda_inv != 0.0 and M >= 2:
        N, e = model.enc_b.shape
        inv, dE = contrastive_inv_loss(encode_batch(
            model.enc_w, model.enc_b, Xs).reshape(N, M, B, e))
        bd["inv"] = _check_finite("contrastive_inv", inv)
        total += cfg.lambda_inv * inv
        dE = cfg.lambda_inv * dE.reshape(N, M * B, e)
        grads.enc_w += dE.transpose(0, 2, 1) @ Xs
        grads.enc_b += dE.sum(axis=1)

    if full and cfg.lambda_rwd != 0.0:
        # salience is |d(mean prediction)/dx| of the raw batch; the
        # counterfactuals perturb its least salient features and count as
        # constants, since the ranking that picks them has no derivative
        dHs = head_backward(model, Hp[:B], P[:B],
                            np.full_like(P[:B], 1.0 / model.L), None)
        Xcf = generate_counterfactual(
            X, pair_backward(model, cache, dHs), cfg.perturb_frac,
            np.random.default_rng(list(obj.rng_seed) + [2]))
        Hcf, cache_cf = pair_features(model, Xcf)
        P_cf = head(model, Hcf)
        # what a player outputs on labels it does not own: its mask row is
        # all zero there, which leaves sigmoid(b), so only b has a gradient
        P_rest = np.broadcast_to(expit(model.b), P_cf.shape)
        div, js, racc, d_cur, dP_cf, dP_rest = curiosity_surrogate(
            P[:B], P_cf, P_rest, Y, obj.masks.subsets,
            np.asarray(obj.stats.freq, dtype=np.float64), obj.beta,
            obj.gamma_r)
        bd["diversity"] = _check_finite("diversity", div)
        bd["cf_js"] = _check_finite("cf_js", js)
        bd["rare_acc"] = racc
        total += cfg.lambda_rwd * (-obj.beta * div + obj.gamma_r * js)

        dP[:B] += cfg.lambda_rwd * d_cur
        grads.b += (cfg.lambda_rwd * dP_rest * P_rest
                    * (1.0 - P_rest)).sum(axis=0)
        # the counterfactual rows join the batch's one backward pass
        Hp, P = np.vstack([Hp, Hcf]), np.vstack([P, P_cf])
        dP = np.vstack([dP, cfg.lambda_rwd * dP_cf])
        cache = tuple(np.concatenate(c) for c in zip(cache, cache_cf))

    pair_backward(model, cache, head_backward(model, Hp, P, dP, grads), grads)

    bd["total"] = _check_finite("total", total)
    return total, grads, bd


# array name -> (its learning-rate field, whether weight decay acts on it)
ADAM_GROUPS = {**dict.fromkeys(("w1", "w2", "enc_w"), ("lr_main", True)),
               **dict.fromkeys(("b1", "b2", "enc_b"), ("lr_main", False)),
               **dict.fromkeys(("W", "b"), ("lr_aux", False))}

# elements per block of AdamW's elementwise passes: five float64 blocks
# (parameter, gradient, both moments, scratch) take 640 KB, which fits in L2
ADAM_BLOCK = 1 << 14


class AdamW:
    """Adaptive moment estimation with decoupled weight decay, a learning
    rate and decay per array (ADAM_GROUPS) and global-norm clipping."""

    def __init__(self, model: SemModel, cfg: TrainConfig):
        self.cfg = cfg
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.names = list(model.param_arrays())
        self.params = list(model.param_arrays().values())
        self.lrs = [getattr(cfg, ADAM_GROUPS[n][0]) for n in self.names]
        self.decays = [cfg.weight_decay if ADAM_GROUPS[n][1] else 0.0
                       for n in self.names]
        # the moments in the model's layout, so keep_pairs gathers them too
        self.m, self.v = model.zeros_like(), model.zeros_like()
        for p in self.params:
            if not p.flags.c_contiguous:
                raise ValueError("AdamW updates parameters in place through "
                                 "flat views; they must be C-contiguous")
        # a w1 block is one row of d elements when d > ADAM_BLOCK
        self.scratch = np.empty(max(model.d, min(ADAM_BLOCK, max(
            p.size for p in self.params))))

    def step(self, grads: SemModel) -> tuple[float, bool]:
        """One update, in place; returns the global norm before clipping and
        whether it clipped (norm > grad_clip > 0), scaling the gradient by s
        in the moment updates (m += (1-beta1)*s*g, v += (1-beta2)*s^2*g^2)
        rather than copying it. Arrays are walked in blocks of ADAM_BLOCK
        elements, whose dozen passes run from cache; w1's blocks of
        ADAM_BLOCK // d rows are multiplied out from its FactoredGrad."""
        gs = list(grads.param_arrays().values())
        rows = max(1, ADAM_BLOCK // grads.d)
        norm = math.sqrt(sum(
            g.sqnorm(rows) if isinstance(g, FactoredGrad)
            else float(np.vdot(g, g)) for g in gs))
        clipped = 0 < self.cfg.grad_clip < norm
        scale = self.cfg.grad_clip / norm if clipped else 1.0
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        c1 = (1.0 - self.beta1) * scale
        c2 = (1.0 - self.beta2) * scale * scale
        for p, g, m, v, lr, wd in zip(self.params, gs,
                                      self.m.param_arrays().values(),
                                      self.v.param_arrays().values(),
                                      self.lrs, self.decays):
            p, m, v = (a.reshape(-1) for a in (p, m, v))
            if isinstance(g, FactoredGrad):
                blocks = ((s * grads.d, g.rows(s, s + rows).reshape(-1))
                          for s in range(0, p.size // grads.d, rows))
            else:
                g = g.reshape(-1)
                blocks = ((s, g[s:s + ADAM_BLOCK])
                          for s in range(0, p.size, ADAM_BLOCK))
            for s, gb in blocks:
                pb, mb, vb = (a[s:s + gb.size] for a in (p, m, v))
                buf = self.scratch[:pb.size]
                mb *= self.beta1
                np.multiply(gb, c1, out=buf)
                mb += buf
                vb *= self.beta2
                np.multiply(gb, gb, out=buf)
                buf *= c2
                vb += buf
                # buf <- lr * m_hat / (sqrt(v_hat) + eps)
                np.divide(vb, bc2, out=buf)
                np.sqrt(buf, out=buf)
                buf += self.eps
                np.divide(mb, buf, out=buf)
                buf *= lr / bc1
                if wd:
                    pb *= 1.0 - lr * wd
                pb -= buf
        return norm, clipped

    def keep_pairs(self, model: SemModel, mask: np.ndarray) -> SemModel:
        """Keep only the pairs of model, the one this optimizer updates,
        where mask is nonzero, in the parameters and both moments; t is
        kept. Returns the trimmed model, which later steps update."""
        self.m, self.v = self.m.keep_pairs(mask), self.v.keep_pairs(mask)
        model = model.keep_pairs(mask)
        self.params = list(model.param_arrays().values())
        return model


@dataclass
class TrainResult:
    model: SemModel
    masks: MaskSet | None
    graph: CausalGraph | None
    stats: LabelStats
    config: TrainConfig
    log: list[dict] = field(default_factory=list)
    aborted: str | None = None  # the NumericalError message when it aborted

    @property
    def encoders(self) -> list[PlayerEncoder]:
        return player_encoders(self.model)

    @property
    def returned_entry(self) -> dict | None:
        """The log entry of the epoch whose model train returns: the first
        full epoch (n_players > 0) of highest val_map, else (max_epochs <=
        warmup_epochs, or an early abort) the last entry; None for no entry."""
        full = [e for e in self.log if e["n_players"]] or self.log[-1:]
        return max(full, key=lambda e: e["val_map"], default=None)


def train(ds: Dataset, cfg: TrainConfig, planted: PlantedWorld | None = None,
          ood: Dataset | None = None) -> TrainResult:
    """Algorithm-1 training loop: ideal-weight estimation, warm-up of W,
    graph extraction and player partitioning (frozen thereafter, and
    trimming the model to the pairs the masks read), then full-composite
    epochs with early stopping on validation mAP. With an ood dataset, each
    epoch also logs the mAP on it as ood_map; one of another d or L raises
    DimensionError before any epoch. Its config caps n_players at L."""
    if ood is not None and (ood.d, ood.L) != (ds.d, ds.L):
        raise DimensionError(f"ood data has (d, L) = ({ood.d}, {ood.L}), the "
                             f"training data ({ds.d}, {ds.L})")
    cfg = replace(cfg, n_players=min(cfg.n_players, ds.L))
    n = ds.n
    perm = np.random.default_rng([cfg.seed, 11]).permutation(n)
    n_val = int(round(cfg.val_frac * n))
    if 0 < n_val < n:
        val_ds = ds.subset(perm[:n_val])
        train_ds = ds.subset(perm[n_val:])
    else:
        val_ds = train_ds = ds

    stats = compute_label_stats(train_ds, cfg.rare_pct)
    alpha = np.ones(ds.L) if cfg.uniform_alpha else alpha_weights(stats)
    wtilde = ideal_weights(train_ds, cfg.gamma)
    model = init_model(ds.d, ds.L, cfg.hidden, cfg.seed, cfg.n_players,
                       cfg.enc_dim)

    result = TrainResult(model=model, masks=None, graph=None, stats=stats,
                         config=cfg)
    if cfg.max_epochs == 0:
        return result

    steps_per_epoch = max(1, math.ceil(train_ds.n / cfg.batch_size))
    total_steps = steps_per_epoch * cfg.max_epochs
    opt = AdamW(model, cfg)

    masks: MaskSet | None = None
    graph: CausalGraph | None = None
    best_model = None
    global_step = 0
    obj = ObjectiveSpec(cfg=cfg, alpha=alpha, stats=stats, wtilde=wtilde,
                        planted=planted)

    def build_partition():
        """The graph and players from the model's W (or the co-occurrence);
        from then on the model and optimizer hold only the pairs the players'
        masks read, since no masked prediction reads any other."""
        nonlocal model
        src = co_occurrence(train_ds) if cfg.partition_source == "cooccur" else model.W
        g = extract_graph(src, cfg.k_topk)
        ms = build_masks(partition_labels(g, cfg.n_players, stats.freq), g)
        model = opt.keep_pairs(model, ms.union())
        return g, ms

    try:
        for epoch in range(cfg.max_epochs):
            if epoch == cfg.warmup_epochs and masks is None:
                graph, masks = build_partition()
                obj = replace(obj, masks=masks)
            order = np.random.default_rng([cfg.seed, 12, epoch]).permutation(train_ds.n)
            ep_terms: dict[str, float] = {}
            # train_ds is never empty, so none of its batches is
            for bi in range(steps_per_epoch):
                idx = order[bi * cfg.batch_size:(bi + 1) * cfg.batch_size]
                beta, gamma_r = anneal(min(global_step, total_steps), total_steps, cfg)
                _, grads, bd = composite_value_and_grads(
                    model, train_ds.X[idx], train_ds.Y[idx],
                    replace(obj, beta=beta, gamma_r=gamma_r,
                            rng_seed=(cfg.seed, 13, epoch, bi)))
                bd["grad_norm"], clipped = opt.step(grads)
                bd["clip_rate"] = float(clipped)
                del grads  # so the next step's gradient is the only one live
                global_step += 1
                for key, val in bd.items():
                    ep_terms[key] = ep_terms.get(key, 0.0) + val

            scores = evaluation.evaluate(model, None, masks, val_ds, ood,
                                         stats, [cfg.rare_pct])
            entry = {"epoch": epoch,
                     "beta": beta, "gamma_r": gamma_r,
                     "val_map": scores.map,
                     "val_rare_f1": scores.rare_f1[cfg.rare_pct],
                     # no held-out split when round(val_frac * n) is 0 or n
                     "val_on_train": val_ds is train_ds,
                     "n_players": len(masks.subsets) if masks else 0}
            for key, val in sorted(ep_terms.items()):
                entry[key] = val / steps_per_epoch
            if ood is not None:
                entry["ood_map"] = scores.ood.map
            result.log.append(entry)

            # only a full epoch's masked model is a checkpoint (returned_entry)
            best = result.returned_entry
            if best is entry and masks is not None:
                best_model = model.copy()
            if epoch - best["epoch"] >= cfg.patience and epoch >= cfg.warmup_epochs:
                break
    except NumericalError as exc:
        result.aborted = str(exc)

    if best_model is not None:
        model = best_model
    if masks is None and not result.aborted:
        graph, masks = build_partition()
    result.model, result.graph, result.masks = model, graph, masks
    return result


# ---------------------------------------------------------------------------
# run persistence

def save_run(run_dir: str, result: TrainResult) -> None:
    """Write the arrays to model.npz, d, L and the players to model.json,
    the config to config.json, the label counts to stats.json, the graph and
    log; each fact once. A run without a graph removes any graph.json."""
    os.makedirs(run_dir, exist_ok=True)
    m = result.model
    # uncompressed zip members with a fixed date: equal arrays, equal bytes
    np.savez(os.path.join(run_dir, "model.npz"), **m.param_arrays())
    players = result.masks.subsets if result.masks else None
    # json.dumps, as json.dump always takes the pure-Python encoder
    with open(os.path.join(run_dir, "model.json"), "w") as fh:
        fh.write(json.dumps({"d": m.d, "L": m.L, "players": players},
                            sort_keys=True))
    with open(os.path.join(run_dir, "config.json"), "w") as fh:
        fh.write(json.dumps(asdict(result.config), sort_keys=True, indent=2))
    with open(os.path.join(run_dir, "stats.json"), "w") as fh:
        fh.write(json.dumps({"freq": result.stats.freq.tolist()}))
    gpath = os.path.join(run_dir, "graph.json")
    if result.graph is not None:
        save_graph(result.graph, gpath)
    elif os.path.exists(gpath):
        os.remove(gpath)
    with open(os.path.join(run_dir, "log.jsonl"), "w") as fh:
        for entry in result.log:  # strict JSON: null for inf and nan
            fh.write(json.dumps({k: v if math.isfinite(v) else None
                                 for k, v in entry.items()},
                                sort_keys=True) + "\n")


def load_run(run_dir: str):
    """Rebuild (model, encoders, subsets, masks, graph, stats, config), where
    subsets is masks.subsets (None without masks). model.json gives d, L and
    the players; config.json the hidden and encoder widths, the player count
    and rare_pct; stats.json the label counts, whose rare set rare_set_for
    fixes. Other keys are ignored. The model's pair index is the pairs the
    players' masks read, or every off-diagonal pair without players. A run
    file that is not JSON, lacks a key, holds a value of the wrong type or
    range, or disagrees with the others raises a ValueError naming it (a
    config.json the arrays disagree with names model.npz)."""
    def manifest(obj):
        d, L = (checked(obj[k], (int, "[1, inf)"), k) for k in ("d", "L"))
        players = obj.get("players")
        if players is not None:
            players = [sorted(checked(x, (int, range(L)), "a player's label")
                              for x in sub) for sub in players]
            if not all(players) or sorted(sum(players, [])) != list(range(L)):
                raise ValueError("players must be disjoint non-empty label "
                                 f"lists covering range({L})")
        return d, L, players

    d, L, players = read_json(os.path.join(run_dir, "model.json"), manifest)
    path = os.path.join(run_dir, "config.json")
    cfg = TrainConfig.from_dict(read_json(path), path)
    h, n, e = cfg.hidden, cfg.n_players, cfg.enc_dim
    graph = masks = None
    path = os.path.join(run_dir, "graph.json")
    if os.path.exists(path):
        graph = load_graph(path)
        if graph.L != L:
            raise DimensionError(f"{path}: L must be {L}, got {graph.L}")
    if players is not None:
        if graph is None:
            raise DimensionError(f"{path} is missing; the players' masks "
                                 "and so the model's pairs come from it")
        masks = build_masks(players, graph)
    pairs = masks.pairs if masks else all_pairs(L)
    P = len(pairs)
    shapes = {"w1": (P, h, d), "b1": (P, h), "w2": (P, h), "b2": (P,),
              "W": (L, L), "b": (L,), "enc_w": (n, e, d), "enc_b": (n, e)}
    path = os.path.join(run_dir, "model.npz")
    try:
        npz = np.load(path, allow_pickle=False)
        # an .npy file loads as one bare array
        if not isinstance(npz, np.lib.npyio.NpzFile):
            raise ValueError("not an .npz archive")
        with npz:
            arrays = {k: npz[k] for k in npz.files}
    # not a zip file, or an array only pickle reads, such as an object array
    except (ValueError, zipfile.BadZipFile) as exc:
        raise DimensionError(f"{path}: {exc}") from None
    held = {k: (a.dtype.name, a.shape) for k, a in arrays.items()}
    want = {k: ("float64", shape) for k, shape in shapes.items()}
    if held != want:
        raise DimensionError(f"{path} holds {held}, expected {want}")
    model = SemModel(d=d, L=L, hidden=h, pairs=pairs, **arrays)

    def label_counts(st):
        freq = [checked(f, (int, "[0, inf)"), "freq") for f in st["freq"]]
        checked(len(freq), (int, (L,)), "len(freq)")
        return np.array(freq)

    freq = read_json(os.path.join(run_dir, "stats.json"), label_counts)
    stats = LabelStats(freq, rare_set_for(freq, cfg.rare_pct))
    return (model, player_encoders(model), masks.subsets if masks else None,
            masks, graph, stats, cfg)
