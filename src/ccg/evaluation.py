"""Ranking metrics, rare-label F1, OOD deltas, and structure recovery."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, LabelStats, PlantedWorld, rare_set_for
from .graph import CausalGraph
from .sem import SemModel, predict_batch


@dataclass
class MetricsReport:
    map: float
    rare_f1: dict[float, float]
    per_label_ap: list[float | None]   # None for labels with no positives
    ood: MetricsReport | None = None  # the OOD set's own scores
    structure: tuple[float, float] | None = None

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
        for p, v in sorted(self.rare_f1.items()):
            rows.append(f"rare_f1@{p},{v}")
        if self.ood is not None:
            rows.append(f"ood_map_drop,{self.map - self.ood.map}")
            for p, v in sorted(self.rare_f1.items()):
                rows.append(f"ood_rare_f1_drop@{p},{v - self.ood.rare_f1[p]}")
        if self.structure is not None:
            rows.append(f"structure_precision,{self.structure[0]}")
            rows.append(f"structure_recall,{self.structure[1]}")
        return "\n".join(rows) + "\n"


def average_precision(scores: np.ndarray, y: np.ndarray) -> float:
    """AP with ranking by descending score, ties broken by ascending sample
    index: mean over positives of precision at that positive's rank."""
    scores = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y)
    if y.sum() == 0:
        raise ValueError("average_precision needs at least one positive")
    hit = y[np.argsort(-scores, kind="stable")] == 1
    # hits so far over rank, at each positive's rank
    return float(np.mean(np.cumsum(hit)[hit] / (np.flatnonzero(hit) + 1)))


def per_label_average_precision(probs: np.ndarray, Y: np.ndarray) -> list:
    """AP per label; None where a label has no positives (excluded from mAP)."""
    out = []
    for lab in range(Y.shape[1]):
        if Y[:, lab].sum() == 0:
            out.append(None)
        else:
            out.append(average_precision(probs[:, lab], Y[:, lab]))
    return out


def _map_of(aps: list) -> float:
    """Mean of the per-label APs that exist; 0 when no label has positives."""
    present = [a for a in aps if a is not None]
    return float(np.mean(present)) if present else 0.0


def mean_average_precision(probs: np.ndarray, Y: np.ndarray) -> float:
    return _map_of(per_label_average_precision(probs, Y))


def _f1(tp: int, fp: int, fn: int) -> float:
    if tp == 0:
        return 0.0
    prec = tp / (tp + fp)
    rec = tp / (tp + fn)
    return 2 * prec * rec / (prec + rec)


def rare_f1(preds: np.ndarray, y: np.ndarray, stats: LabelStats,
            p: float) -> float:
    """Macro F1 over the bottom-p% labels by training frequency, predictions
    thresholded at 0.5."""
    cols = sorted(rare_set_for(np.asarray(stats.freq), p))
    if not cols:
        return 0.0
    yhat = (np.asarray(preds)[:, cols] >= 0.5).astype(int)
    yt = np.asarray(y)[:, cols].astype(int)
    tp = ((yhat == 1) & (yt == 1)).sum(axis=0).tolist()
    fp = ((yhat == 1) & (yt == 0)).sum(axis=0).tolist()
    fn = ((yhat == 0) & (yt == 1)).sum(axis=0).tolist()
    return float(np.mean([_f1(*c) for c in zip(tp, fp, fn)]))


def structure_score(learned: CausalGraph, planted: PlantedWorld) -> tuple[float, float]:
    """Direction-sensitive edge precision/recall against the planted DAG."""
    if learned.L != planted.L:
        raise ValueError("label count mismatch")
    le = learned.edge_set()
    pe = planted.edge_set()
    inter = len(le & pe)
    precision = inter / len(le) if le else 0.0
    recall = inter / len(pe) if pe else 0.0
    return precision, recall


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
    aps = per_label_average_precision(probs, ds_id.Y)
    report = MetricsReport(
        map=_map_of(aps),
        rare_f1={p: rare_f1(probs, ds_id.Y, stats, p) for p in p_list},
        per_label_ap=aps)
    if ds_ood is not None:
        report.ood = evaluate(model, partition, masks, ds_ood, None, stats,
                              p_list)
    if planted is not None and learned_graph is not None:
        report.structure = structure_score(learned_graph, planted)
    return report
