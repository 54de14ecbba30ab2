"""
Memory of one training step
===========================

The tracemalloc peak of one training step, the memory the step allocates
above its graph and the graph's caches:

- ``edge_gnn``: forward, backward and Adam on one batch of the config's
  batch size, drawn with the config's seed (``fit`` over that one batch;
  the batch's ego network is built inside the step, as in training);
- ``rgcn_expanded``: one full-batch epoch of ``train_expanded_rgcn`` on the
  expanded graph (its ego network of every offer, forward, backward and
  Adam);
- ``tabular`` and ``sign``: one epoch of ``train_mlp_heads`` over the
  kind's listing table (built before tracing) at the config's batch size
  and ``mlp_hidden``: every class's head, trained in stacked groups.

A run is named ``MODEL@CONFIG`` (``edge_gnn@default`` reads
``configs/default.json``) and is a fresh Python process at one BLAS
thread.  Before tracing starts, each run builds its graph and warms the
graph's caches with one untaped forward pass.

``--source NAME=SRC`` and ``--out`` work as ``_measure.py`` describes.
``--repro CONFIG`` also runs ``coldgraph repro`` on ``CONFIG`` with each
source, in a child process, and records the child's peak RSS and the
run's ``summary_geo.csv`` table:

    python demos/07_train_memory.py --source before=/path/to/old/src \\
        --runs edge_gnn@default rgcn_expanded@small rgcn_expanded@default \\
        --repro configs/default.json --out BENCH_train_memory.json
    python demos/07_train_memory.py --source after=src \\
        --runs edge_gnn@default rgcn_expanded@small rgcn_expanded@default \\
        --repro configs/default.json --out BENCH_train_memory.json

With no arguments it measures ``src`` at ``edge_gnn@small``,
``rgcn_expanded@small`` and ``sign@small`` and prints the result.
"""

import argparse
import csv
import json
import os
import tempfile
from pathlib import Path

from _measure import (
    ROOT, parse_sources, peak_rss_mib, read_doc, run_child, traced_peak_mib, write_doc)


def measure(model: str, config_name: str) -> dict:
    """One run, in this process; ``coldgraph`` must be importable."""
    import numpy as np

    import coldgraph as cg
    from coldgraph.autodiff import bce_loss, scale
    from coldgraph.experiment import ExperimentConfig
    from coldgraph.graph import N_CLASSES
    from coldgraph.models.train import fit

    config = ExperimentConfig.from_json_file(ROOT / "configs" / f"{config_name}.json")
    mc = config.model
    g = cg.generate_synthetic_graph(config.generator)
    tc = mc.train_config(seed=0, epochs=1)
    if model == "edge_gnn":
        cfg = mc.edge_gnn_config(g.d_s, g.d_p, g.d_o)
        params = cg.models.init_edge_gnn_params(cfg, 0)
        rng = np.random.default_rng(config.seed)
        batch = np.sort(rng.permutation(g.n_offers)[:tc.batch_size])
        targets = g.labels.astype(np.float32)[batch]
        cg.models.edge_gnn_forward(g, batch, params, cfg)

        def loss_fn(offers):
            probs = cg.models.edge_gnn_forward(g, offers, params, cfg)
            return scale(bce_loss(probs, targets), N_CLASSES)

        peak = traced_peak_mib(lambda: fit(params, lambda: [batch], loss_fn, tc))
        offers = batch.shape[0]
    elif model == "rgcn_expanded":
        eg = cg.build_expanded_graph(g)
        cfg = cg.models.ExpandedRgcnConfig(d_s=g.d_s, d_p=g.d_p, d_o=g.d_o,
                                           hidden=mc.expanded_hidden, layers=mc.expanded_layers)
        cg.models.score_expanded_rgcn(
            eg, cg.models.init_expanded_rgcn_params(cfg, 0), cfg, np.arange(g.n_offers))
        peak = traced_peak_mib(lambda: cg.models.train_expanded_rgcn(eg, cfg, tc))
        offers = g.n_offers
    elif model in ("tabular", "sign"):
        table = (cg.models.sign_listing_table(g, mc.sign_hops) if model == "sign"
                 else cg.models.build_listing_table(g))
        peak = traced_peak_mib(
            lambda: cg.models.train_mlp_heads(table, g.labels, tc, hidden=mc.mlp_hidden))
        offers = g.n_offers
    else:
        raise ValueError(f"unknown model {model!r}")
    return {"offers_in_step": int(offers), "nodes_in_graph": int(g.n_nodes),
            "traced_peak_mib": round(peak, 2)}


def repro(config: str) -> dict:
    """``coldgraph repro`` on ``config`` in this process: its peak RSS and
    its ``summary_geo.csv`` rows."""
    from coldgraph.cli import main as cli_main

    with tempfile.TemporaryDirectory() as out:
        if cli_main(["repro", "--config", config, "--out", out]) != 0:
            raise SystemExit(f"repro on {config} failed")
        with open(Path(out) / "summary_geo.csv", newline="") as f:
            table = list(csv.DictReader(f))
    return {"config": os.path.relpath(config, ROOT), "peak_rss_mib": round(peak_rss_mib(), 1),
            "summary_geo": table}


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description="Memory of one training step")
    p.add_argument("--source", action="append", default=[], metavar="NAME=SRC")
    p.add_argument("--runs", nargs="+",
                   default=["edge_gnn@small", "rgcn_expanded@small", "sign@small"],
                   metavar="MODEL@CONFIG")
    p.add_argument("--repro", metavar="CONFIG", help="also run coldgraph repro on CONFIG")
    p.add_argument("--out", type=Path)
    p.add_argument("--child", nargs=2, help=argparse.SUPPRESS)
    p.add_argument("--child-repro", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        print(json.dumps(measure(*args.child)))
        return
    if args.child_repro:
        print(json.dumps(repro(args.child_repro)))
        return

    doc = read_doc(args.out)
    for name, src in parse_sources(args.source).items():
        steps = doc.setdefault("train_step", {})[name] = {
            run: run_child(__file__, src, "--child", *run.split("@")) for run in args.runs}
        for run, r in steps.items():
            print(f"{name:>8} {run:>22}: {r['offers_in_step']:6d} offers, "
                  f"traced step peak {r['traced_peak_mib']:7.2f} MiB")
        if args.repro:
            config = str(Path(args.repro).resolve())
            r = run_child(__file__, src, "--child-repro", config)
            doc.setdefault("repro", {})[name] = r
            print(f"{name:>8} repro {Path(config).name}: peak RSS {r['peak_rss_mib']:.1f} MiB")
            for row in r["summary_geo"]:
                print("    " + ", ".join(row.values()))
    write_doc(args.out, doc)


if __name__ == "__main__":
    main()
