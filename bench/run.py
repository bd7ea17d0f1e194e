"""Benchmark of ccg's training and evaluation paths.

Run from the root of a checkout:

    python3 bench/run.py --workload train-narrow-noworld --seed 1 \
        --seconds 50 --trace 0

Workloads (see ``workloads.py``): ``train-narrow-noworld`` and
``train-wide-world``. Each is a closed loop with one caller: training jobs,
each followed by saves of its model and eval requests on it, run back to
back until ``--seconds`` have passed (at least one operation runs). Inputs
are generated from ``--seed``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, each reduced from its samples in the run as
``workloads.E2E`` says; with ``--trace 1`` untraced and traced operations
alternate and the object holds the per-layer metrics (see ``spans.py``),
each per traced operation. The line before it is a JSON record of the
environment (core count, library versions, BLAS and its pinned thread
count, CPU time, host steal time), every sample, the parameter digest and
counts computed from shapes. A traced run writes its spans to
``.bench_work/spans-<workload>.jsonl``.
"""

import os
import sys

# Pin the BLAS pool before numpy is imported: one thread keeps the figures
# steady on a small shared machine and is never more than the core count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(ROOT, ".bench_work")


def _steal_s():
    """Host-wide steal time so far, from /proc/stat; None where unreadable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _environment():
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ccg", "__init__.py")):
        print(f"error: no ccg package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]

    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_ROOT)
    steal0, cpu0, t0 = _steal_s(), time.process_time(), time.perf_counter()
    try:
        run = workloads.Runner(w, args.seed, work_dir)
        tracer = spans.Tracer() if args.trace else None
        run.measure(args.seconds, tracer)
        steal1, cpu1 = _steal_s(), time.process_time()
        run.samples["peak_rss_mb"] = [
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]

        record = _environment()
        record.update(
            workload=w.name, seed=args.seed, trace=args.trace,
            wall_s=time.perf_counter() - t0, process_cpu_s=cpu1 - cpu0,
            host_steal_s=(None if steal0 is None or steal1 is None
                          else steal1 - steal0),
            op_wall_s={"untraced": run.walls[False], "traced": run.walls[True]},
            samples=run.samples,
            param_digest=run.digest,
            val_map=run.samples["val_map"][0] if run.samples["val_map"] else None,
            computed_from_shapes={
                "model_json_bytes": os.path.getsize(
                    os.path.join(run.paths.run, "model.json")),
                "dataset_bytes_per_request": sum(
                    os.path.getsize(p) for p in (run.paths.env0, run.paths.env1)),
                "diag_waste_frac": 1.0 / w.L})

        if tracer is not None:
            traced = run.walls[True]
            metrics = tracer.summary(w.name, w.L, traced)
            metrics["trace.overhead_frac"] = (
                statistics.median(traced) / statistics.median(run.walls[False])
                - 1.0)
            metrics["process.cpu_s"] = cpu1 - cpu0
            metrics["host.steal_s"] = record["host_steal_s"] or 0.0
            tracer.write(os.path.join(WORK_ROOT, f"spans-{w.name}.jsonl"))
            out = {k: {"value": v, "unit": spans.UNITS[k]}
                   for k, v in sorted(metrics.items())}
        else:
            out = {k: {"value": reduce(run.samples[k]), "unit": unit}
                   for k, (unit, reduce) in workloads.E2E.items()
                   if run.samples[k]}
        print(json.dumps({"record": record}))
        print(json.dumps({"correct": run.failed == 0,
                          "attempted": run.attempted,
                          "failed": run.failed, "metrics": out}))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
