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

``--source NAME=SRC`` (repeatable) measures the ``coldgraph`` package
under ``SRC``, for instance an older checkout's ``src`` next to this
one's; results go into ``--out`` under ``NAME``, next to the sources
already recorded there.  ``--repro CONFIG`` also runs ``coldgraph repro``
on ``CONFIG`` with each source, in a child process at one BLAS thread, and
records the child's peak RSS and the run's ``summary_geo.csv`` table:

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
import platform
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _traced_peak_mib(step) -> float:
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step()
        return round((tracemalloc.get_traced_memory()[1] - base) / 2**20, 2)
    finally:
        tracemalloc.stop()


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
    if model == "edge_gnn":
        cfg = mc.edge_gnn_config(g.d_s, g.d_p, g.d_o)
        tc = mc.train_config(seed=0, epochs=1)
        params = cg.models.init_edge_gnn_params(cfg, 0)
        rng = np.random.default_rng(config.seed)
        batch = np.sort(rng.permutation(g.n_offers)[:tc.batch_size])
        targets = g.labels.astype(np.float32)[batch]
        cg.models.edge_gnn_forward(g, batch, params, cfg)

        def loss_fn(offers):
            probs = cg.models.edge_gnn_forward(g, offers, params, cfg)
            return scale(bce_loss(probs, targets), N_CLASSES)

        peak = _traced_peak_mib(lambda: fit(params, lambda: [batch], loss_fn, tc))
        offers = batch.shape[0]
    elif model == "rgcn_expanded":
        eg = cg.build_expanded_graph(g)
        cfg = cg.models.ExpandedRgcnConfig(d_s=g.d_s, d_p=g.d_p, d_o=g.d_o,
                                           hidden=mc.expanded_hidden, layers=mc.expanded_layers)
        tc = mc.train_config(seed=0, epochs=1)
        cg.models.score_expanded_rgcn(
            eg, cg.models.init_expanded_rgcn_params(cfg, 0), cfg, np.arange(g.n_offers))
        peak = _traced_peak_mib(lambda: cg.models.train_expanded_rgcn(eg, cfg, tc))
        offers = g.n_offers
    elif model in ("tabular", "sign"):
        table = (cg.models.sign_listing_table(g, mc.sign_hops) if model == "sign"
                 else cg.models.build_listing_table(g))
        tc = mc.train_config(seed=0, epochs=1)
        peak = _traced_peak_mib(
            lambda: cg.models.train_mlp_heads(table, g.labels, tc, hidden=mc.mlp_hidden))
        offers = g.n_offers
    else:
        raise ValueError(f"unknown model {model!r}")
    return {"offers_in_step": int(offers), "nodes_in_graph": int(g.n_nodes),
            "traced_peak_mib": peak}


def repro(config: str) -> dict:
    """``coldgraph repro`` on ``config`` in this process: its peak RSS and
    its ``summary_geo.csv`` rows."""
    from coldgraph.cli import main as cli_main

    with tempfile.TemporaryDirectory() as out:
        if cli_main(["repro", "--config", config, "--out", out]) != 0:
            raise SystemExit(f"repro on {config} failed")
        with open(Path(out) / "summary_geo.csv", newline="") as f:
            table = list(csv.DictReader(f))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    return {"config": os.path.relpath(config, ROOT), "peak_rss_mib": round(peak, 1),
            "summary_geo": table}


def machine_block() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
    }


def run_child(src: Path, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), **{v: "1" for v in BLAS_VARS})
    out = subprocess.run(
        [sys.executable, __file__, *args],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


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

    sources = dict(s.split("=", 1) for s in args.source) or {"src": str(ROOT / "src")}
    doc = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
    doc["machine"] = machine_block()
    for name, src in sources.items():
        src = Path(src).resolve()
        steps = doc.setdefault("train_step", {})[name] = {
            run: run_child(src, "--child", *run.split("@")) for run in args.runs}
        for run, r in steps.items():
            print(f"{name:>8} {run:>22}: {r['offers_in_step']:6d} offers, "
                  f"traced step peak {r['traced_peak_mib']:7.2f} MiB")
        if args.repro:
            config = str(Path(args.repro).resolve())
            r = doc.setdefault("repro", {})[name] = run_child(src, "--child-repro", config)
            print(f"{name:>8} repro {Path(config).name}: peak RSS {r['peak_rss_mib']:.1f} MiB")
            for row in r["summary_geo"]:
                print("    " + ", ".join(row.values()))
    if args.out:
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
