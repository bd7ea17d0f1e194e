"""Span tracing of ccg's public functions, installed from outside the package.

Each traced function is replaced by a wrapper in every ``ccg`` module that
holds a reference to it (``training`` imports ``pair_features``, ``head`` and
others by name, so patching ``ccg.sem`` alone would miss those calls). The
wrappers record one span per call: name, start, duration, self time (the
duration minus the time covered by child spans) and the parent span. Spans
stay in memory while the benchmark runs and are written out at the end.

Work counts attached to spans are computed from argument shapes, so they
repeat exactly between runs of the same code.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _pair_flops(model, B: int, with_dx: bool, forward: bool) -> float:
    """Einsum FLOPs (2 per multiply-add) of the stacked pair MLPs."""
    pairs = B * model.L * model.L * model.hidden
    if forward:
        # ijhd,bd->bijh and ijh,bijh->bij
        return 2.0 * pairs * (model.d + 1)
    # bij,bijh->ijh, bijh,bd->ijhd and, for the input gradient, bijh,ijhd->bd
    return 2.0 * pairs * (1 + model.d + (model.d if with_dx else 0))


def _pair_features_work(args, kwargs, result):
    model, X = args[0], args[1]
    return _pair_flops(model, len(X), False, True)


def _pair_backward_work(args, kwargs, result):
    model, dH = args[0], args[2]
    need_dx = kwargs.get("need_dx", args[4] if len(args) > 4 else False)
    return _pair_flops(model, len(dH), need_dx, False)


def _adamw_work(args, kwargs, result):
    # per parameter element: read g for the clip norm; read g, m, v, p;
    # write m, v, p. float64 throughout; temporaries are not counted.
    return 8.0 * 8.0 * sum(p.size for p in args[0].params)


def _composite_kind(args, kwargs, result):
    obj = args[3] if len(args) > 3 else kwargs["obj"]
    return "warmup" if obj.masks is None else "full"


def _save_run_work(args, kwargs, result):
    return float(os.path.getsize(os.path.join(args[0], "model.json")))


def _load_dataset_work(args, kwargs, result):
    return float(os.path.getsize(args[0]))


# metric prefix -> (module, attribute, work hook). The hook's value is the
# span's computed work: FLOPs, bytes, or the composite step kind.
TARGETS = {
    "sem.pair_features": ("ccg.sem", "pair_features", _pair_features_work),
    "sem.pair_backward": ("ccg.sem", "pair_backward", _pair_backward_work),
    "sem.head": ("ccg.sem", "head", None),
    "sem.head_backward": ("ccg.sem", "head_backward", None),
    "training.composite": ("ccg.training", "composite_value_and_grads",
                           _composite_kind),
    "training.adamw": ("ccg.training", "AdamW.step", _adamw_work),
    "training.save_run": ("ccg.training", "save_run", _save_run_work),
    "training.load_run": ("ccg.training", "load_run", None),
    "invariance.env_views": ("ccg.invariance", "make_env_views_batch", None),
    "reward.counterfactual": ("ccg.reward", "generate_counterfactual", None),
    "players.encode_batch": ("ccg.players", "encode_batch", None),
    "players.partition": ("ccg.players", "partition_labels", None),
    "graph.ideal_weights": ("ccg.graph", "ideal_weights", None),
    "graph.extract": ("ccg.graph", "extract_graph", None),
    "evaluation.predict": ("ccg.evaluation", "predict_dataset", None),
    "evaluation.ap": ("ccg.evaluation", "average_precision", None),
    "evaluation.rare_f1": ("ccg.evaluation", "rare_f1", None),
    "data.load_dataset": ("ccg.data", "load_dataset", _load_dataset_work),
}
NARROW, WIDE = "train-narrow-noworld", "train-wide-world"

# The end-to-end metric each layer should move, per workload, with its rough
# share of that metric on the seed code. A change to a layer claims its gain
# here; on a workload the layer does not list, the prediction is no change.
# The layers listed for a workload are the ones expected to take most of its
# traced operation time (trace.dominant_frac).
MOVES = {
    "sem.pair_features": {WIDE: "step_ms (~70% with pair_backward)",
                          NARROW: "step_ms (~55% with pair_backward), "
                                  "eval_s, eval_samples_per_s"},
    "sem.pair_backward": {WIDE: "step_ms", NARROW: "step_ms"},
    "sem.head": {NARROW: "step_ms (10 head calls per full step)"},
    "sem.head_backward": {NARROW: "step_ms"},
    "training.adamw": {WIDE: "step_ms (~25%)", NARROW: "step_ms (~15%)"},
    "training.composite": {NARROW: "step_ms (self ~17%)", WIDE: "step_ms (~4%)"},
    "invariance.env_views": {NARROW: "step_ms (~4.5%)"},
    "reward.counterfactual": {NARROW: "step_ms (~2.5%)"},
    "players.encode_batch": {NARROW: "step_ms (small)"},
    "players.partition": {NARROW: "step_ms (small)"},
    "graph.ideal_weights": {NARROW: "step_ms (small)"},
    "graph.extract": {NARROW: "step_ms (small)"},
    "training.save_run": {WIDE: "save_s, peak_rss_mb", NARROW: "save_s"},
    "training.load_run": {WIDE: "load_s, eval_s", NARROW: "load_s, eval_s"},
    "data.load_dataset": {NARROW: "eval_s"},
    "evaluation.predict": {NARROW: "eval_s, eval_samples_per_s"},
    "evaluation.ap": {NARROW: "eval_s"},
    "evaluation.rare_f1": {NARROW: "eval_s"},
}
# sem.diag_waste_frac (1/L of the pair work) moves step_ms most on NARROW.

PAIR = ("sem.pair_features", "sem.pair_backward")
CALLS = ("sem.pair_features", "sem.pair_backward", "training.adamw",
         "invariance.env_views", "reward.counterfactual")


def _metric_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s" for name in TARGETS}
    for name in CALLS:
        units[f"{name}.calls"] = "count"
    for name in PAIR:
        units[f"{name}.gflops"] = "GFLOP/s"
    for kind in ("warmup", "full"):
        units[f"training.composite.{kind}_ms_p50"] = "ms"
        units[f"training.composite.{kind}_ms_p90"] = "ms"
    units.update({
        "sem.pair_gflop_per_step": "GFLOP", "sem.diag_waste_frac": "frac",
        "training.adamw.bytes_per_step": "B", "training.save_run.bytes": "B",
        "data.load_dataset.bytes": "B", "trace.overhead_frac": "frac",
        "trace.dominant_frac": "frac", "process.cpu_s": "s",
        "host.steal_s": "s"})
    return units


class Tracer:
    """Collects spans while installed; ``op`` tags spans with the benchmark
    operation (training job or eval request) that caused them."""

    def __init__(self):
        self.spans: list[tuple] = []  # (op, id, parent, name, start, dur, self, work)
        self.op = -1
        self._stack: list[list] = []  # [id, start, child time]
        self._next_id = 0

    def _wrap(self, name, fn, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span_id, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[1]
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][2] += dur
            amount = work(args, kwargs, result) if work else None
            tracer.spans.append((tracer.op, span_id, parent, name, frame[1],
                                 dur, dur - frame[2], amount))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every reference to the targets inside ``ccg``; restore on exit."""
        restore = []
        try:
            for name, (modname, attr, work) in TARGETS.items():
                mod = importlib.import_module(modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    restore.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(name, orig, work))
                    continue
                orig = getattr(mod, attr)
                wrapped = self._wrap(name, orig, work)
                for other_name, other in list(sys.modules.items()):
                    if other is None or not (other_name == "ccg"
                                             or other_name.startswith("ccg.")):
                        continue
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            restore.append((other, key, orig))
                            setattr(other, key, wrapped)
            yield self
        finally:
            for obj, key, orig in reversed(restore):
                setattr(obj, key, orig)

    def summary(self, workload: str, L: int,
                op_walls: list[float]) -> dict[str, float]:
        """Per-layer figures, each normalised per traced operation, and the
        share of traced operation time the workload's listed layers take."""
        self_s = defaultdict(float)
        calls = defaultdict(int)
        work = defaultdict(float)
        step_ms = {"warmup": [], "full": []}
        steps = {span[1] for span in self.spans
                 if span[3] == "training.composite"}
        step_flops = 0.0
        for _op, _id, parent, name, _start, dur, own, amount in self.spans:
            self_s[name] += own
            calls[name] += 1
            if name == "training.composite":
                step_ms[amount].append(1e3 * dur)
            elif amount is not None:
                work[name] += amount
                if parent in steps and name in PAIR:
                    step_flops += amount
        n = len(op_walls)
        out = {}
        for name in TARGETS:
            out[f"{name}.self_s"] = self_s[name] / n
        for name in CALLS:
            out[f"{name}.calls"] = calls[name] / n
        for name in PAIR:
            out[f"{name}.gflops"] = (work[name] / self_s[name] / 1e9
                                     if self_s[name] > 0 else 0.0)
        adam_calls = calls["training.adamw"]
        out["training.adamw.bytes_per_step"] = (
            work["training.adamw"] / adam_calls if adam_calls else 0.0)
        out["training.save_run.bytes"] = work["training.save_run"] / n
        out["data.load_dataset.bytes"] = work["data.load_dataset"] / n
        # pair-MLP work inside training steps; validation is excluded
        out["sem.pair_gflop_per_step"] = (
            step_flops / len(steps) / 1e9 if steps else 0.0)
        out["sem.diag_waste_frac"] = 1.0 / L
        for kind in ("warmup", "full"):
            vals = step_ms[kind]
            out[f"training.composite.{kind}_ms_p50"] = (
                float(np.percentile(vals, 50)) if vals else 0.0)
            out[f"training.composite.{kind}_ms_p90"] = (
                float(np.percentile(vals, 90)) if vals else 0.0)
        out["trace.dominant_frac"] = sum(
            self_s[name] for name, moves in MOVES.items() if workload in moves
        ) / sum(op_walls)
        return out

    def write(self, path: str) -> None:
        keys = ("op", "id", "parent", "name", "start", "dur", "self", "work")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


UNITS = _metric_units()
