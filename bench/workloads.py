"""The benchmark's workloads: inputs made from a seed, the timed operations,
and the checks on their outputs.

Every operation goes through the public calls that ``ccg train`` and
``ccg eval`` make: a training job is ``data.load_dataset`` ->
``training.train``, followed by rounds of ``training.save_run`` and an eval
request, which is ``training.load_run`` -> ``data.load_dataset`` ->
``evaluation.evaluate``. The program sees only the generated JSONL files,
``world.json`` and its config.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

# layers are called through their modules, so a traced run's patches apply
from ccg import data, evaluation, training

# planted label graph shared by every seed. Under it the player masks leave
# some labels with empty rows on every workload (labels 7 and 9 at L=10), so
# the masked-predictor defect stays in what val_map measures.
WORLD_SEED = 0
EDGE_DENSITY = 0.15  # `ccg gen`'s default
# `ccg eval`'s default --rare-pcts
RARE_PCTS = [20.0, 30.0, 40.0, 50.0]


@dataclass(frozen=True)
class Workload:
    name: str
    L: int
    d: int
    n: int              # samples in each environment file (env0, env1)
    world: bool         # train with world.json (planted spurious-block views)
    warmup_epochs: int
    max_epochs: int     # patience is set to this, so the step count is fixed
    saves: int          # save_run calls per training job
    evals: int          # eval requests per training job


WORKLOADS = {w.name: w for w in (
    # Real-data path: no world, so env views come from the per-sample
    # _perturb loop; small arrays make per-call Python work a large share.
    # A job trains for ~1 s; save_run and an eval request take ~0.25 s
    # each, so three of each per job give the run ~40 samples of each.
    Workload("train-narrow-noworld", L=10, d=64, n=800, world=False,
             warmup_epochs=2, max_epochs=4, saves=3, evals=3),
    # Pair-MLP einsums, AdamW over L^2*h*d parameters and the ~59 MB
    # model.json dominate; the Python loops vanish into the noise. A job
    # trains for ~2.5 s and saves for ~6 s; an eval request takes ~2 s and
    # its time swings up to 1.8x from one request to the next, so a job
    # serves three of them to give load_s and eval_s more samples.
    Workload("train-wide-world", L=30, d=192, n=128, world=True,
             warmup_epochs=1, max_epochs=2, saves=1, evals=3),
)}


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


@dataclass
class Paths:
    env0: str
    env1: str
    world: str
    run: str
    report: str


def make_inputs(w: Workload, seed: int, work_dir: str) -> Paths:
    """Write the planted world and both environments sampled from it. The
    world's structure is fixed per workload (WORLD_SEED); ``seed`` draws the
    samples, so runs with different seeds share the label graph and their
    val_map stays comparable."""
    p = Paths(env0=os.path.join(work_dir, "env0.jsonl"),
              env1=os.path.join(work_dir, "env1.jsonl"),
              world=os.path.join(work_dir, "world.json"),
              run=os.path.join(work_dir, "run"),
              report=os.path.join(work_dir, "report"))
    world = data.build_world(w.L, w.d, WORLD_SEED, EDGE_DENSITY)
    world.env_params = data.default_env_params(2)
    env0, env1 = data.generate_from_world(world, w.n, seed)
    data.save_dataset(env0, p.env0)
    data.save_dataset(env1, p.env1)
    with open(p.world, "w") as fh:
        json.dump(world.to_json(), fh, sort_keys=True)
    return p


def _load_world(path: str) -> data.PlantedWorld:
    with open(path) as fh:
        return data.PlantedWorld.from_json(json.load(fh))


def param_digest(model, encoders) -> str:
    h = hashlib.sha256()
    for arr in list(model.param_arrays().values()) + \
            [a for e in encoders for a in (e.w, e.b)]:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@dataclass
class Job:
    result: training.TrainResult
    steps: int
    train_s: float
    digest: str

    @property
    def val_map(self) -> float:
        """Validation mAP of the returned model: train() keeps the best
        checkpoint over the epochs with a partition (n_players > 0)."""
        return float(max(e["val_map"] for e in self.result.log
                         if e["n_players"]))


def train_job(w: Workload, seed: int, p: Paths) -> Job:
    """`ccg train --data env0 --world world.json` up to the save: load the
    data and train (the steps of ``ccg.cli._train_one``), with the training
    timed. ``save`` is the rest of ``cmd_train``."""
    cfg = training.TrainConfig(seed=seed, warmup_epochs=w.warmup_epochs,
                               max_epochs=w.max_epochs, patience=w.max_epochs)
    ds = data.load_dataset(p.env0)
    planted = _load_world(p.world) if w.world else None
    t0 = time.perf_counter()
    result = training.train(ds, cfg, planted=planted)
    train_s = time.perf_counter() - t0

    if result.aborted:
        raise CheckFailed("training aborted on a numerical error")
    for entry in result.log:
        for key, val in entry.items():
            if isinstance(val, float) and not math.isfinite(val):
                raise CheckFailed(f"epoch {entry['epoch']}: {key} = {val}")
    if len(result.log) != cfg.max_epochs:
        raise CheckFailed(f"ran {len(result.log)} of {cfg.max_epochs} epochs")
    n_train = ds.n - int(round(cfg.val_frac * ds.n))
    steps = math.ceil(n_train / cfg.batch_size) * len(result.log)
    return Job(result=result, steps=steps, train_s=train_s,
               digest=param_digest(result.model, result.encoders))


def save(p: Paths, job: Job) -> float:
    """Write the run directory as ``ccg train`` does; returns the time."""
    t0 = time.perf_counter()
    training.save_run(p.run, job.result)
    return time.perf_counter() - t0


@dataclass
class Request:
    load_s: float
    eval_s: float
    evaluate_s: float
    samples: int
    report: evaluation.MetricsReport
    loaded: tuple          # load_run's return value
    ds: object             # the in-distribution dataset

    @property
    def digest(self) -> str:
        return param_digest(self.loaded[0], self.loaded[1])


def eval_request(p: Paths) -> Request:
    """`ccg eval --model run --data env0 --ood env1 --world world.json
    --out report`: the steps of ``ccg.cli.cmd_eval`` in its order, with
    load_run and evaluate timed apart."""
    t0 = time.perf_counter()
    loaded = training.load_run(p.run)
    t1 = time.perf_counter()
    model, _, partition, masks, graph, stats, _ = loaded
    ds = data.load_dataset(p.env0)
    if ds.d != model.d or ds.L != model.L:
        raise CheckFailed("model/data dimension mismatch")
    ds_ood = data.load_dataset(p.env1)
    planted = _load_world(p.world)
    t2 = time.perf_counter()
    report = evaluation.evaluate(model, partition, masks, ds, ds_ood, stats,
                                 RARE_PCTS, learned_graph=graph,
                                 planted=planted)
    t3 = time.perf_counter()
    os.makedirs(p.report, exist_ok=True)
    with open(os.path.join(p.report, "report.json"), "w") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
    with open(os.path.join(p.report, "report.csv"), "w") as fh:
        fh.write(report.to_csv())
    t4 = time.perf_counter()
    return Request(load_s=t1 - t0, eval_s=t4 - t0, evaluate_s=t3 - t2,
                   samples=ds.n + ds_ood.n, report=report, loaded=loaded,
                   ds=ds)


def check_roundtrip(job: Job, req: Request) -> float:
    """save_run -> load_run must give bit-identical parameters and identical
    predictions, and the report's mAP must equal the mAP computed in-process
    on the trained model. Returns that in-process mAP."""
    if req.digest != job.digest:
        raise CheckFailed("loaded parameters differ from the trained ones")
    res = job.result
    masks = req.loaded[3]
    union_mem = res.masks.union() if res.masks is not None else None
    union_run = masks.union() if masks is not None else None
    probs_mem = evaluation.predict_dataset(res.model, req.ds, union_mem)
    probs_run = evaluation.predict_dataset(req.loaded[0], req.ds, union_run)
    if not np.array_equal(probs_mem, probs_run):
        raise CheckFailed("loaded model predicts differently")
    return check_report(req, evaluation.mean_average_precision(probs_mem,
                                                               req.ds.Y))


def check_report(req: Request, in_process_map: float) -> float:
    if req.report.map != in_process_map:
        raise CheckFailed(f"report mAP {req.report.map!r} != in-process "
                          f"mAP {in_process_map!r}")
    return in_process_map


# set-up runs this many times before the operations. It takes well under a
# second, so it is also repeated after each operation, for this share of the
# operation's wall time (at least once): its samples then span the run as
# the operations' samples do. A traced run sets up once.
SETUP_REPEATS = 5
SETUP_SHARE = 0.05
def _p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


# End-to-end metric -> (unit, how a run reduces its samples); every sample
# is kept in the record line. The host this benchmark was tuned on (2 vCPUs
# of a shared machine) runs Python-heavy code up to ~1.8x faster in spells
# of a second to tens of seconds, when other tenants leave its cores alone;
# the slower, contended state is the common one. A timing's median depends
# on how many fast spells a run happens to catch, so a run reports each
# timing's 90th percentile, the time of a job or request in the contended
# state: over three sets of ten 50 s runs per workload its run-to-run spread
# was at most 0.15, against 0.24 for the median. eval_samples_per_s divides
# by evaluate() alone, 0.1-0.5 s, so its slow tail is made of the rarer
# stalls when the host also takes the vCPU away (steal); it reports the
# median (spread at most 0.10, against 0.23 for the 10th percentile).
# setup_s is the median of its repeats.
E2E = {"setup_s": ("s", statistics.median), "step_ms": ("ms", _p90),
       "save_s": ("s", _p90), "load_s": ("s", _p90), "eval_s": ("s", _p90),
       "eval_samples_per_s": ("1/s", statistics.median),
       "peak_rss_mb": ("MB", max), "val_map": ("frac", statistics.median),
       "success_rate": ("frac", statistics.median)}


class Runner:
    """Runs one workload: set-up, then timed training jobs in a closed loop."""

    def __init__(self, w: Workload, seed: int, work_dir: str):
        self.w, self.seed, self.work_dir = w, seed, work_dir
        self.attempted = self.failed = 0
        self.samples: dict[str, list[float]] = {k: [] for k in E2E}
        self.walls: dict[bool, list[float]] = {False: [], True: []}
        self.digest = None
        self.paths = None

    def attempt(self, fn, *args):
        """Run one operation; a raised error or failed check counts as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # every failure is counted, reported and survived
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def setup(self) -> float:
        """Make the inputs; returns the set-up time."""
        t0 = time.perf_counter()
        self.paths = make_inputs(self.w, self.seed, self.work_dir)
        return time.perf_counter() - t0

    def op(self, traced) -> tuple[float, dict[str, list[float]]]:
        """One training job, then its model saved ``saves`` times and
        served to ``evals`` eval requests, each save followed by a request.
        Returns its wall time and end-to-end samples. ``traced`` is a
        context entered around the timed part; the output checks run after
        it."""
        gc.collect()
        saves, reqs = [], []
        with traced:
            t0 = time.perf_counter()
            job = train_job(self.w, self.seed, self.paths)
            for i in range(max(self.w.saves, self.w.evals)):
                if i < self.w.saves:
                    saves.append(save(self.paths, job))
                if i < self.w.evals:
                    reqs.append(eval_request(self.paths))
            wall = time.perf_counter() - t0
        if self.digest is None:
            self.digest = job.digest
        elif job.digest != self.digest:
            raise CheckFailed("training again with the same seed gave "
                              "different parameters")
        in_process_map = check_roundtrip(job, reqs[0])
        for req in reqs[1:]:
            if req.digest != job.digest:
                raise CheckFailed("loaded parameters differ from the trained ones")
            check_report(req, in_process_map)
        return wall, {
            "step_ms": [1e3 * job.train_s / job.steps],
            "save_s": saves,
            "load_s": [r.load_s for r in reqs],
            "eval_s": [r.eval_s for r in reqs],
            "eval_samples_per_s": [r.samples / r.evaluate_s for r in reqs],
            "val_map": [job.val_map]}

    def measure(self, seconds: float, tracer=None) -> None:
        """Set up, then run operations until ``seconds`` have passed.
        With a tracer, untraced and traced operations alternate."""
        setups = [self.setup()]
        while tracer is None and len(setups) < SETUP_REPEATS:
            setups.append(self.setup())
        self.samples["setup_s"] = setups
        deadline = time.perf_counter() + seconds
        while True:
            traced = tracer is not None and \
                len(self.walls[False]) > len(self.walls[True])
            if traced:
                tracer.op = len(self.walls[True])
            done = self.attempt(self.op, tracer.installed() if traced
                                else contextlib.nullcontext())
            if done is not None:
                self.walls[traced].append(done[0])
                if not traced:
                    for key, vals in done[1].items():
                        self.samples[key].extend(vals)
                    if tracer is None:
                        until = time.perf_counter() + SETUP_SHARE * done[0]
                        setups.append(self.setup())
                        while time.perf_counter() < until:
                            setups.append(self.setup())
            finished = self.walls[False] and (self.walls[True] or tracer is None)
            if time.perf_counter() >= deadline and (finished or self.failed > 3):
                break
        self.samples["success_rate"] = [1.0 - self.failed / self.attempted]
