"""
Memory and time of bulk scoring
===============================

One ``EdgeGnnModel.score`` call over every offer of a generated graph, at
1x, 4x and 10x the default generator config (sellers, products and
communities scaled together, so the edges grow in step).  Each run is a
fresh Python process at one BLAS thread, so its peak RSS is its own.  A
run reports:

- ``peak_rss_growth_mib``: the process's peak RSS after the calls minus
  its peak before them (graph generation and one warm-up call of one
  offer, which casts the parameters and builds the graph's caches);
- ``traced_peak_mib``: the tracemalloc peak of one more call, the memory
  that call allocated;
- ``ego_nodes``: the nodes of the call's ego network;
- ``kib_per_ego_node``: ``traced_peak`` in KiB over ``ego_nodes``.

A run named ``4x3`` scores every offer of the 4x graph three times over
(``np.tile``): the same ego network as ``4x1``, three times the offers.
So ``traced_peak`` of ``4x3`` minus that of ``4x1`` is what the offer side
adds per extra offer, and ``traced_peak`` over ``ego_nodes`` across scales
is the node side's cost per ego node, ``kib_per_ego_node``.

``--source NAME=SRC`` and ``--out`` work as ``_measure.py`` describes.

Time is compared, not measured alone: on a shared 2-vCPU host the speed a
process gets drifts by more than a 20% change between two runs minutes
apart.  With two or more sources, each run is timed in ``PAIRS`` (3)
rounds; a round times every source once, each in a fresh process
that scores the run's offers three times after its warm-up call, and the
order of the sources turns round every other round.  Each source then
records ``seconds``, the median of its three calls in each round, and
``seconds_ratio``, each round's seconds over the first source's in that
round, so a drift slower than a round cancels:

    python demos/06_bulk_scoring.py --source before=/path/to/old/src \\
        --source after=src --runs 1x1 1x3 4x1 4x3 10x1 --out BENCH_score_bulk.json

With no arguments it measures ``src`` at ``1x1`` and ``1x3`` and prints
the result; one source records no time.
"""

import argparse
import json
import statistics
from pathlib import Path

from _measure import (
    alternating_rounds,
    parse_sources,
    peak_rss_mib,
    read_doc,
    run_child,
    scaled_graph,
    traced_peak_mib,
    write_doc,
)

CALLS = 3
PAIRS = 3  # timing rounds with two or more sources


def _scoring_run(scale: int, repeat: int) -> tuple:
    """The run's graph, a model and its offers, after one warm-up call of
    one offer, which casts the parameters and builds the graph's caches."""
    import numpy as np

    import coldgraph as cg

    g = scaled_graph(scale)
    cfg = cg.EdgeGnnConfig(d_s=g.d_s, d_p=g.d_p, d_o=g.d_o)
    model = cg.EdgeGnnModel(cfg=cfg, param_groups=[cg.models.init_edge_gnn_params(cfg, 0)])
    offers = np.tile(np.arange(g.n_offers), repeat)
    model.score(g, offers[:1])
    return g, model, offers


def measure(scale: int, repeat: int) -> dict:
    """One run's memory, in this process; ``coldgraph`` must be importable."""
    import coldgraph as cg

    g, model, offers = _scoring_run(scale, repeat)
    before = peak_rss_mib()
    for _ in range(CALLS):
        model.score(g, offers)
    after = peak_rss_mib()
    traced = traced_peak_mib(lambda: model.score(g, offers))
    ego_nodes = cg.extract_ego_network(g, offers, hops=model.cfg.gnn_layers).nodes.shape[0]
    return {
        "offers_in_graph": int(g.n_offers),
        "offers_scored": int(offers.shape[0]),
        "ego_nodes": int(ego_nodes),
        "kib_per_ego_node": round(traced * 1024 / ego_nodes, 3),
        "peak_rss_before_mib": round(before, 1),
        "peak_rss_growth_mib": round(after - before, 1),
        "traced_peak_mib": round(traced, 2),
    }


def time_calls(scale: int, repeat: int) -> dict:
    """The median seconds of ``CALLS`` scoring calls, in this process."""
    import time

    g, model, offers = _scoring_run(scale, repeat)
    seconds = []
    for _ in range(CALLS):
        t = time.perf_counter()
        model.score(g, offers)
        seconds.append(time.perf_counter() - t)
    return {"seconds": statistics.median(seconds)}


def time_in_pairs(sources: dict, run: str) -> dict:
    """Per source, each round's median seconds and its ratio to the first
    source's in the same round; the sources' order turns every other round."""
    rounds = alternating_rounds(__file__, sources, PAIRS, "--child-time", *run.split("x"))
    seconds = {name: [r["seconds"] for r in rs] for name, rs in rounds.items()}
    first = seconds[next(iter(sources))]
    return {name: {"seconds": [round(t, 4) for t in ts],
                   "seconds_ratio": [round(t / f, 3) for t, f in zip(ts, first)]}
            for name, ts in seconds.items()}


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description="Memory and time of bulk scoring")
    p.add_argument("--source", action="append", default=[], metavar="NAME=SRC")
    p.add_argument("--runs", nargs="+", default=["1x1", "1x3"], metavar="SCALExREPEAT")
    p.add_argument("--out", type=Path)
    p.add_argument("--child", nargs=2, type=int, help=argparse.SUPPRESS)
    p.add_argument("--child-time", nargs=2, type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        print(json.dumps(measure(*args.child)))
        return
    if args.child_time:
        print(json.dumps(time_calls(*args.child_time)))
        return

    sources = parse_sources(args.source)
    doc = read_doc(args.out)
    results = doc.setdefault("results", {})
    for name, src in sources.items():
        results[name] = {run: run_child(__file__, src, "--child", *run.split("x"))
                         for run in args.runs}
    if len(sources) > 1:
        for run in args.runs:
            for name, timing in time_in_pairs(sources, run).items():
                results[name][run].update(timing)
    for name in sources:
        for run, r in results[name].items():
            timing = (f", {statistics.median(r['seconds']):7.3f} s "
                      f"(ratio {statistics.median(r['seconds_ratio']):.3f})"
                      if "seconds" in r else "")
            print(f"{name:>8} {run:>5}: {r['offers_scored']:7d} offers, {r['ego_nodes']:6d} ego "
                  f"nodes, peak RSS +{r['peak_rss_growth_mib']:6.1f} MiB, "
                  f"traced peak {r['traced_peak_mib']:7.2f} MiB "
                  f"({r['kib_per_ego_node']:.2f} KiB per ego node){timing}")
    write_doc(args.out, doc)


if __name__ == "__main__":
    main()
