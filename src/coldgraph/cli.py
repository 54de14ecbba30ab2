"""Command-line surface.

Six subcommands: generate, train, score, eval, bench, repro.  Settings
resolve as flags > config file > built-in defaults, with the ``CG_SEED``
environment variable overriding the file's seed (an explicit ``--seed``
flag still wins).  Logs are line-delimited JSON on stderr, a Python
warning (numpy's overflow, say) included as one ``warning`` event; stdout
carries only machine-readable results.  Exit code 0 means every output was
written; config and input errors exit nonzero with a message naming the
offending key or path.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .evaluate import (
    per_class_report,
    scaling_benchmark,
    write_benchmark_csv,
    write_report_csv,
    write_report_json,
)
from .experiment import (
    MODEL_KINDS,
    ExperimentConfig,
    check_checkpoint_params,
    read_scores_csv,
    run_repro,
    score_model,
    train_model,
    write_scores_csv,
)
from .models import CheckpointError, TrainingDiverged, load_checkpoint, save_checkpoint
from .simulate import apply_scenario, generate_synthetic_graph, load_scenario, make_scenario, save_scenario
from .storage import GraphFormatError, load_graph, save_graph, write_artifact

DEFAULT_BENCH_SIZES = (10_000, 20_000, 40_000, 80_000)

# model kind -> the ModelConfig field that counts its training epochs
EPOCHS_FIELD = {"edge_gnn": "epochs", "rgcn_expanded": "expanded_epochs", "tabular": "mlp_epochs",
                "naive": "mlp_epochs", "sign": "mlp_epochs"}


def _log(event: dict) -> None:
    print(json.dumps(event, sort_keys=True), file=sys.stderr)


def _log_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """``warnings.showwarning`` replacement: one JSON event per warning."""
    _log({"event": "warning", "category": category.__name__, "message": str(message),
          "file": filename, "line": lineno})


def _load_config(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        config = ExperimentConfig.from_json_file(args.config)
    else:
        config = ExperimentConfig()
    seed = None
    env = os.environ.get("CG_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"CG_SEED must be an integer, got {env!r}")
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    if seed is not None:
        config = dataclasses.replace(
            config,
            seed=seed,
            generator=dataclasses.replace(config.generator, seed=seed),
        )
    overrides = {flag: getattr(args, flag) for flag in ("epochs", "lr", "batch_size", "mode")
                 if getattr(args, flag, None) is not None}
    if "epochs" in overrides:  # only train takes it: the trained kind's own epoch count
        overrides[EPOCHS_FIELD[args.model]] = overrides.pop("epochs")
    if overrides:
        config = dataclasses.replace(
            config, model=dataclasses.replace(config.model, **overrides)
        )
    if getattr(args, "out", None) and args.cmd in ("repro", "bench"):
        config = dataclasses.replace(config, out_dir=args.out)
    return config


def cmd_generate(args) -> int:
    config = _load_config(args)
    out = Path(args.out) if args.out else Path(config.out_dir) / "graph"
    t0 = time.perf_counter()
    g = generate_synthetic_graph(config.generator)
    save_graph(g, out)
    _log({"event": "generated", "out": str(out), "sellers": g.n_sellers,
          "products": g.n_products, "offers": g.n_offers, "edges": g.n_edges,
          "seconds": round(time.perf_counter() - t0, 3)})
    if args.scenarios:
        for name in config.scenarios:
            spec = make_scenario(g, name, seed=config.seed)
            save_scenario(Path(args.scenarios) / f"scenario_{name}.json", spec)
            _log({"event": "scenario", "name": name,
                  "eval_offers": len(spec.eval_offers)})
    print(json.dumps({"graph_dir": str(out)}))
    return 0


def cmd_train(args) -> int:
    config = _load_config(args)
    g = load_graph(args.graph)
    model = train_model(g, args.model, config.seed, config.model)
    out = Path(args.out) if args.out else Path(f"{args.model}.ckpt")
    save_checkpoint(out, model.kind, model.arch, model.param_groups)
    for head, losses in enumerate(model.history):
        for epoch, loss in enumerate(losses):
            _log({"event": "epoch", "model": args.model, "head": head,
                  "epoch": epoch, "loss": round(loss, 6)})
    _log({"event": "trained", "model": args.model, "checkpoint": str(out)})
    print(json.dumps({"checkpoint": str(out)}))
    return 0


def cmd_score(args) -> int:
    kind, arch, groups = load_checkpoint(args.checkpoint)
    check_checkpoint_params(kind, arch, groups)
    g = load_graph(args.graph)
    spec = load_scenario(args.scenario)
    masked, eval_offers = apply_scenario(g, spec)
    scores = score_model(kind, arch, groups, masked, eval_offers, spec)
    write_scores_csv(args.out, eval_offers, scores)
    _log({"event": "scored", "model": kind, "scenario": spec.scenario,
          "offers": int(len(eval_offers)), "out": args.out})
    print(json.dumps({"scores": args.out, "offers": int(len(eval_offers))}))
    return 0


def cmd_eval(args) -> int:
    ids, scores = read_scores_csv(args.scores)
    g = load_graph(args.graph)
    if g.labels is None:
        raise ValueError(f"graph at {args.graph} has no labels")
    if ids.size and ids.max() >= g.n_offers:
        raise ValueError(f"score file {args.scores} references unknown offers")
    labels = g.labels[ids]
    baseline = None
    if args.baseline:
        base_ids, base_scores = read_scores_csv(args.baseline)
        if not np.array_equal(base_ids, ids):
            raise ValueError("baseline score file covers different offers")
        baseline = per_class_report(base_scores, labels, scenario=args.scenario)
    report = per_class_report(
        scores, labels, baseline=baseline, scenario=args.scenario
    )
    prefix = Path(args.out_prefix)
    write_report_csv(prefix.with_suffix(".csv"), report)
    write_report_json(prefix.with_suffix(".json"), report)
    _log({"event": "evaluated", "scores": args.scores,
          "geo_mean": report.geo_mean})
    print(json.dumps(report.to_dict(), sort_keys=True))
    return 0


def cmd_bench(args) -> int:
    config = _load_config(args)
    sizes = tuple(args.sizes) if args.sizes else DEFAULT_BENCH_SIZES
    out = Path(config.out_dir)
    summary = {}
    for task in ("train_epoch", "inference"):
        result = scaling_benchmark(sizes, task, seed=config.seed)
        write_benchmark_csv(out / f"bench_{task}.csv", result)
        summary[task] = result.to_dict()
        _log({"event": "bench", "task": task, "slope": result.slope,
              "r_squared": result.r_squared})
    write_artifact(out / "bench_summary.json",
                   json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(json.dumps({t: {"slope": summary[t]["slope"],
                          "r_squared": summary[t]["r_squared"]}
                      for t in summary}, sort_keys=True))
    return 0


def cmd_repro(args) -> int:
    config = _load_config(args)
    manifest = run_repro(config, log=_log)
    out = manifest["out_dir"]
    print(json.dumps({
        "out_dir": str(out),
        "summary_long": str(out / "summary_long.csv"),
        "summary_geo": str(out / "summary_geo.csv"),
    }, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coldgraph",
        description="Edge-classification GNN experiments on seller-product graphs.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--seed", type=int, help="override config seed")

    p = sub.add_parser("generate", help="write a synthetic graph bundle")
    common(p)
    p.add_argument("--out", help="bundle directory (default <out_dir>/graph)")
    p.add_argument("--scenarios", help="also write scenario JSONs to this directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one model kind")
    common(p)
    p.add_argument("--graph", required=True, help="graph bundle directory")
    p.add_argument("--model", required=True, choices=MODEL_KINDS)
    p.add_argument("--out", help="checkpoint path (default <model>.ckpt)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--mode", choices=("multi_task", "nine_binary"))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="apply a scenario mask and score its offers")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.add_argument("--out", required=True, help="output scores CSV")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", help="per-class AUC report from a scores CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--graph", required=True, help="bundle holding the labels")
    p.add_argument("--baseline", help="baseline scores CSV for pcp deltas")
    p.add_argument("--scenario", default="", help="scenario tag for the report")
    p.add_argument("--out-prefix", required=True,
                   help="writes <prefix>.csv and <prefix>.json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="linear-scaling benchmark")
    common(p)
    p.add_argument("--out", help="output directory (default config out_dir)")
    p.add_argument("--sizes", type=int, nargs="+",
                   help=f"edge counts (default {list(DEFAULT_BENCH_SIZES)})")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("repro", help="full pipeline: generate, train, score, report")
    common(p)
    p.add_argument("--out", help="output directory (default config out_dir)")
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():  # restores the caller's showwarning on exit
        warnings.showwarning = _log_warning
        try:
            return args.func(args)
        except (ValueError, GraphFormatError, CheckpointError, OSError, TrainingDiverged) as exc:
            _log({"event": "error", "error": str(exc)})
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
