"""Ranking metrics, rare-label F1, OOD deltas, and structure recovery."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, LabelStats, PlantedWorld, rare_set_for
from .graph import CausalGraph
from .sem import SemModel, predict_batch


@dataclass
class MetricsReport:
    """A dataset's scores; its mAP is that of per_label_ap, not stored."""
    rare_f1: dict[float, float]
    per_label_ap: list[float | None]   # None for labels with no positives
    ood: MetricsReport | None = None  # the OOD set's own scores
    structure: tuple[float, float] | None = None

    @property
    def map(self) -> float:
        return _map_of(self.per_label_ap)

    def to_dict(self) -> dict:
        out = {"map": self.map,
               "rare_f1": {str(p): v for p, v in self.rare_f1.items()},
               "per_label_ap": self.per_label_ap}
        if self.ood is not None:
            out["ood_delta"] = {"map_drop": self.map - self.ood.map,
                                "rare_f1_drop": {
                                    str(p): v - self.ood.rare_f1[p]
                                    for p, v in self.rare_f1.items()}}
        if self.structure is not None:
            out["structure"] = {"precision": self.structure[0],
                                "recall": self.structure[1]}
        return out

    def to_csv(self) -> str:
        rows = ["metric,value", f"map,{self.map}"]
        rows += [f"rare_f1@{p},{v}" for p, v in sorted(self.rare_f1.items())]
        if self.ood is not None:
            rows.append(f"ood_map_drop,{self.map - self.ood.map}")
            rows += [f"ood_rare_f1_drop@{p},{v - self.ood.rare_f1[p]}"
                     for p, v in sorted(self.rare_f1.items())]
        if self.structure is not None:
            rows += [f"structure_precision,{self.structure[0]}",
                     f"structure_recall,{self.structure[1]}"]
        return "\n".join(rows) + "\n"


def average_precision(scores: np.ndarray, y: np.ndarray):
    """AP with ranking by descending score, ties broken by ascending sample
    index: mean over positives (y == 1) of precision at that positive's
    rank. Of (n, L) arrays, each column's AP in a list, None for a column
    without a positive (excluded from mAP); of (n,) arrays, the float, and
    ValueError without a positive.

    The (L, n) rows are ranked by numpy's default (unstable) argsort. A row
    whose ranked scores are not strictly decreasing holds a tie or a NaN,
    so its order is not unique; it is ranked again with the stable sort,
    which orders equal scores by index and puts NaNs last, so every row
    ranks exactly as a stable sort of all of them would."""
    P = np.asarray(scores, dtype=np.float64)
    neg = np.atleast_2d(-P.T)
    L, n = neg.shape
    rows = np.arange(L)[:, None]
    order = np.argsort(neg, axis=1)
    # P and y flattened: row l's sample i sits at i * L + l
    ranked = P.ravel()[order * L + rows]
    tie = ~(ranked[:, :-1] > ranked[:, 1:]).all(axis=1)
    if tie.any():
        order[tie] = np.argsort(neg[tie], axis=1, kind="stable")
    hit = np.asarray(y).ravel()[order * L + rows] == 1
    # hits so far over rank at each positive's rank, row after row; a row's
    # AP is np.mean's own sum and division over its run of them
    prec = (np.cumsum(hit, axis=1) / np.arange(1, n + 1))[hit]
    ends = np.cumsum(hit.sum(axis=1)).tolist()
    aps = [float(np.add.reduce(prec[a:b]) / (b - a)) if b > a else None
           for a, b in zip([0] + ends, ends)]
    if np.ndim(scores) == 1 and aps[0] is None:
        raise ValueError("average_precision needs at least one positive")
    return aps if np.ndim(scores) == 2 else aps[0]


def _map_of(aps: list) -> float:
    """Mean of the per-label APs that exist; 0 when no label has positives."""
    present = [a for a in aps if a is not None]
    return float(np.mean(present)) if present else 0.0


def mean_average_precision(probs: np.ndarray, Y: np.ndarray) -> float:
    return _map_of(average_precision(probs, Y))


def _f1(tp: int, pred: int, true: int) -> float:
    if tp == 0:
        return 0.0
    prec = tp / pred
    rec = tp / true
    return 2 * prec * rec / (prec + rec)


def rare_f1(preds: np.ndarray, y: np.ndarray, stats: LabelStats,
            p_list: list[float]) -> dict[float, float]:
    """{p: macro F1 over the bottom-p% labels by training frequency} for each
    p of p_list, predictions thresholded at 0.5; 0.0 for an empty set. The
    sets nest (each is a prefix of one order in rare_set_for), so each
    label's counts are taken once, over the largest set, and each p's mean
    sums its own labels' F1s in ascending label order."""
    freq = np.asarray(stats.freq)
    sets = {p: sorted(rare_set_for(freq, p)) for p in p_list}
    cols = max(sets.values(), key=len, default=[])
    yhat = np.asarray(preds)[:, cols] >= 0.5
    yt = np.asarray(y)[:, cols] == 1
    counts = zip((yhat & yt).sum(axis=0).tolist(), yhat.sum(axis=0).tolist(),
                 yt.sum(axis=0).tolist())
    f1 = {c: _f1(*cnt) for c, cnt in zip(cols, counts)}
    return {p: float(np.mean([f1[c] for c in sub])) if sub else 0.0
            for p, sub in sets.items()}


def structure_score(learned: CausalGraph, planted: PlantedWorld) -> tuple[float, float]:
    """Direction-sensitive edge precision/recall against the planted DAG."""
    if learned.L != planted.L:
        raise ValueError("label count mismatch")
    le, pe = learned.edge_set(), planted.edge_set()
    inter = len(le & pe)
    return (inter / len(le) if le else 0.0), (inter / len(pe) if pe else 0.0)


PREDICT_BATCH = 256  # samples per predict_batch call


def predict_dataset(model: SemModel, ds: Dataset,
                    mask: np.ndarray | None = None) -> np.ndarray:
    """The model's probabilities on ds, through its held pairs or, given an
    (L, L) mask, only those of them where mask is nonzero."""
    if mask is not None:
        model = model.keep_pairs(mask)
    chunks = [predict_batch(model, ds.X[i:i + PREDICT_BATCH])
              for i in range(0, ds.n, PREDICT_BATCH)]
    return np.concatenate(chunks, axis=0)


def evaluate(model: SemModel, partition, masks, ds_id: Dataset,
             ds_ood: Dataset | None, stats: LabelStats,
             p_list: list[float], learned_graph: CausalGraph | None = None,
             planted: PlantedWorld | None = None) -> MetricsReport:
    """Per-label AP, mAP and rare-F1 at each p of p_list of the model's
    predictions on ds_id, ds_ood's own scores as report.ood, and the
    structure scores given both graphs. The model's pair index is its mask,
    so neither partition nor masks is read."""
    probs = predict_dataset(model, ds_id)
    report = MetricsReport(rare_f1=rare_f1(probs, ds_id.Y, stats, p_list),
                           per_label_ap=average_precision(probs, ds_id.Y))
    if ds_ood is not None:
        report.ood = evaluate(model, partition, masks, ds_ood, None, stats,
                              p_list)
    if planted is not None and learned_graph is not None:
        report.structure = structure_score(learned_graph, planted)
    return report
