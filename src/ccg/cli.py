"""Command-line entry point: data generation, training, evaluation, and the
experiment harnesses (ablation, sensitivity sweeps, graph export).

Exit codes: 0 success, 1 usage or IO failure, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import evaluation, training
from .data import (PlantedWorld, checked, generate_synthetic, load_dataset,
                   read_json, save_dataset)
from .errors import DatasetError, DimensionError, NumericalError
from .graph import export_dot

# the TrainConfig settings each ablation flag switches a component off with
ABLATIONS = {
    "cgm": dict(lambda_graph=0.0, partition_source="cooccur"),
    "ccr": dict(lambda_rwd=0.0),
    "cil": dict(lambda_inv=0.0, lambda_env=0.0, m_envs=1),
    "mpd": dict(n_players=1),
    "rle": dict(lambda_rare=0.0, uniform_alpha=True),
}
ABLATION_FLAGS = tuple(ABLATIONS)

# each training flag and the TrainConfig field it sets, whose type it parses
TRAIN_FLAGS = {"--seed": "seed", "--epochs": "max_epochs",
               "--players": "n_players", "--topk": "k_topk",
               "--warmup": "warmup_epochs", "--m-envs": "m_envs",
               "--gamma": "gamma", "--eta": "eta",
               "--gamma-r-peak": "gamma_r_t"}

# each `gen` flag -> (type, allowed values, default or None: required)
GEN_FLAGS = {"--labels": (int, "[2, inf)", None),
             "--dim": (int, "[1, inf)", None),
             "--samples": (int, "[1, inf)", None),
             "--envs": (int, "[1, inf)", 1),
             "--seed": (*training.FIELD_RULES["seed"], 0),
             "--edge-density": (float, "[0, 1]", 0.15)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read(flag, path, like=None):
    """The dataset, or for --world the planted world, that flag names at
    path (None without a path). A file that does not parse, or whose
    (d, L) differs from like's, raises an error naming flag and path."""
    if path is None:
        return None
    where = f"{flag} {path}"
    if flag == "--world":
        got = read_json(path, PlantedWorld.from_json, where)
    else:
        try:
            got = load_dataset(path)
        except DatasetError as exc:
            raise DatasetError(f"{where}: {exc}") from None
    if like is not None and (got.d, got.L) != (like.d, like.L):
        raise DimensionError(f"{where} has (d, L) = ({got.d}, {got.L}), "
                             f"expected ({like.d}, {like.L})")
    return got


def _write(path, text):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def _settings(flag, text, field) -> list:
    """The comma list text that flag gives, as values of the TrainConfig
    field, each checked against its FIELD_RULES entry; a value that is not
    one raises an error naming flag and field."""
    rule = training.FIELD_RULES[field]
    try:
        return [checked(rule[0](v), rule, field) for v in text.split(",")]
    except ValueError as exc:
        raise DatasetError(f"{flag} {text}: each must be a {field} value "
                           f"({exc})") from None


def build_config(args) -> training.TrainConfig:
    """The TrainConfig defaults, then the --config file's keys, then the
    training flags, whose argparse dest is the field they set."""
    cfg = training.TrainConfig()
    if getattr(args, "config", None):
        where = f"--config {args.config}"
        cfg = training.TrainConfig.from_dict(
            read_json(args.config, where=where), where)
    cfg = replace(cfg, **{name: getattr(args, name)
                          for name in training.FIELD_RULES
                          if getattr(args, name, None) is not None})
    return apply_ablations(cfg, getattr(args, "ablate", None))


def apply_ablations(cfg: training.TrainConfig, flags) -> training.TrainConfig:
    """Map ablation flags onto config semantics (one flag set per run)."""
    for flag in flags or ():
        if flag not in ABLATIONS:
            raise DatasetError(f"unknown ablation flag '{flag}'")
        cfg = replace(cfg, **ABLATIONS[flag])
    return cfg


def cmd_gen(args) -> int:
    for flag, (*rule, _) in GEN_FLAGS.items():
        checked(getattr(args, flag[2:].replace("-", "_")), rule, flag)
    datasets, world = generate_synthetic(args.labels, args.dim, args.samples,
                                         args.envs, args.seed,
                                         edge_density=args.edge_density)
    os.makedirs(args.out, exist_ok=True)
    for env, ds in enumerate(datasets):
        save_dataset(ds, os.path.join(args.out, f"env{env}.jsonl"))
    with open(os.path.join(args.out, "world.json"), "w") as fh:
        json.dump(world.to_json(), fh, sort_keys=True)
    print(f"wrote {len(datasets)} environment datasets to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = build_config(args)
    ds = _read("--data", args.data)
    result = training.train(ds, cfg, planted=_read("--world", args.world, ds),
                            ood=_read("--extra-envs", args.extra_envs, ds))
    training.save_run(args.out, result)
    if result.aborted:
        print(f"training aborted: {result.aborted}; last checkpoint retained",
              file=sys.stderr)
        return 2
    print(f"model written to {args.out}")
    return 0


def cmd_eval(args) -> int:
    p_list = _settings("--rare-pcts", args.rare_pcts, "rare_pct")
    model, _, _, masks, graph, stats, _ = training.load_run(args.model)
    ds = _read("--data", args.data, model)
    ds_ood = _read("--ood", args.ood, model)
    planted = _read("--world", args.world, model)
    report = evaluation.evaluate(model, None, masks, ds, ds_ood, stats,
                                 p_list, learned_graph=graph, planted=planted)
    _write(os.path.join(args.out, "report.json"),
           json.dumps(report.to_dict(), sort_keys=True, indent=2))
    _write(os.path.join(args.out, "report.csv"), report.to_csv())
    print(f"report written to {args.out}")
    return 0


def _sweep(args, header: str, runs, what: str) -> int:
    """Train each (row label, config) of runs on --data and write one CSV
    row of mAP and rare-F1 per run: on --test when given, else the
    validation figures of the epoch whose model train returns
    (returned_entry). A --test of another (d, L) fails first."""
    ds = _read("--data", args.data)
    planted = _read("--world", args.world, ds)
    test = _read("--test", args.test, ds)
    rows = [header]
    for label, cfg in runs:
        result = training.train(ds, cfg, planted=planted)
        if test is not None:
            scores = evaluation.evaluate(result.model, None, result.masks,
                                         test, None, result.stats,
                                         [cfg.rare_pct])
            m, f1 = scores.map, scores.rare_f1[cfg.rare_pct]
        else:  # 0, 0 without a logged epoch
            best = result.returned_entry or dict(val_map=0.0, val_rare_f1=0.0)
            m, f1 = best["val_map"], best["val_rare_f1"]
        rows.append(f"{label},{m},{f1}")
    _write(args.out, "\n".join(rows) + "\n")
    print(f"{what} written to {args.out}")
    return 0


def cmd_ablate(args) -> int:
    cfg0 = build_config(args)
    only = args.only.split(",") if args.only else list(ABLATION_FLAGS)
    runs = [("full", cfg0)] + [(f"w/o {f.upper()}", apply_ablations(cfg0, [f]))
                               for f in only]
    return _sweep(args, "variant,map,rare_f1", runs, "ablation table")


SENSITIVITY_GRID = {
    "gamma": [0.2, 0.5, 0.8],
    "eta": [1.0, 1.5, 2.0, 2.5],
    "gamma_r_t": [0.5, 1.0, 1.5],
    "m_envs": [1, 3, 5],
    "n_players": [1, 2, 3, 4, 5, 6, 8, 10],
}


def cmd_sensitivity(args) -> int:
    cfg0 = build_config(args)
    values = (SENSITIVITY_GRID[args.param] if args.values is None
              else _settings("--values", args.values, args.param))
    runs = [(v, replace(cfg0, **{args.param: v})) for v in values]
    return _sweep(args, f"{args.param},map,rare_f1", runs,
                  "sensitivity sweep")


def cmd_export_graph(args) -> int:
    _, _, _, _, graph, _, _ = training.load_run(args.model)
    if graph is None:
        raise DatasetError(f"--model {args.model} has no graph.json")
    names = None
    if args.names:
        names = args.names.split(",")
        if len(names) != graph.L:
            raise DatasetError(f"--names gives {len(names)} names for a "
                               f"graph of {graph.L} labels")
        if len(set(names)) < len(names):
            raise DatasetError(f"--names {args.names} gives a name twice")
    _write(args.out, export_dot(graph, names))
    print(f"DOT graph written to {args.out}")
    return 0


def _add_train_opts(p, sweep: bool):
    """--data, --out and the training flags; a sweep of runs also takes
    --test, a single run --ablate."""
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    if sweep:
        p.add_argument("--test", help="dataset each run is scored on")
    p.add_argument("--config", help="flat JSON config (TrainConfig fields)")
    for flag, name in TRAIN_FLAGS.items():
        p.add_argument(flag, dest=name, type=training.FIELD_RULES[name][0])
    p.add_argument("--world", help="planted-world JSON for env-view generation")
    if not sweep:
        p.add_argument("--ablate", action="append",
                       help=f"ablation flag, one of {ABLATION_FLAGS}")


def make_parser() -> _Parser:
    parser = _Parser(prog="ccg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic planted-world benchmark")
    for flag, (kind, _, default) in GEN_FLAGS.items():
        p.add_argument(flag, type=kind, default=default, required=default is None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--extra-envs", dest="extra_envs",
                   help="a dataset from another environment; each epoch "
                        "logs its mAP as ood_map")
    _add_train_opts(p, sweep=False)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--ood")
    p.add_argument("--world")
    p.add_argument("--rare-pcts", dest="rare_pcts", default="20,30,40,50")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="one-at-a-time component ablations")
    p.add_argument("--only", help="comma list of flags to ablate")
    _add_train_opts(p, sweep=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sensitivity", help="single-hyperparameter sweep")
    p.add_argument("--param", required=True, choices=sorted(SENSITIVITY_GRID),
                   help="the TrainConfig field to vary")
    p.add_argument("--values", help="comma list of values of its type")
    _add_train_opts(p, sweep=True)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("export-graph", help="export the learned graph as DOT")
    p.add_argument("--model", required=True)
    p.add_argument("--names", help="comma-separated label names")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_graph)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # every error of ccg.errors but NumericalError is a ValueError
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
