"""
Request cost at three scales
============================

Serve-like requests on generated graphs at 1x, 4x and 10x the default
generator config (sellers, products and communities scaled together by
``_measure.scaled_graph``): each request is one ``EdgeGnnModel.score`` of
every offer of one seller, with untrained weights (latency does not depend
on their values) on the unmasked graph.  ``REQUESTS`` (300) sellers are
drawn with a fixed seed and served ``ROUNDS`` (3) times in one fresh
process at one BLAS thread, after one warm-up request that casts the
parameters and builds the graph's caches.  A run reports:

- ``request_ms``: the median request latency;
- ``ego_build_ms``: the median time of the requests' ego networks alone
  (``extract_ego_network`` with scoring's part bound), timed the same way;
- ``ego_nodes``: the median ego size of the requests, and ``offers`` the
  median offers per request;
- ``traced_peak_mib`` and ``traced_ego_nodes``: the tracemalloc peak of
  the request whose ego is the median one, and that ego's size;
- ``graph_scan_ms`` and ``graph_scan_share``: the steps of an ego build
  that still run over graph-length arrays (one ``np.full`` per call, then
  per hop one ``hop >= 0`` and its ``np.flatnonzero``), timed alone on the
  median request's hop array, and their share of ``ego_build_ms``.  They
  are plain numpy, the same for every source.

A run named ``1x_hub`` or ``10x_hub`` serves a hub-heavy request instead:
seller 0 is first linked to every other seller (in the first
seller-seller relation) and given an offer of every product it does not
offer yet, and the request scores all of its offers, ``HUB_CALLS`` (3)
times per round.  Its ego is nearly the whole graph.

``--source NAME=SRC`` and ``--out`` work as ``_measure.py`` describes.
With two or more sources, each run is timed in ``PAIRS`` (3) rounds; a
round measures every source once, each in a fresh process, and the order
of the sources turns round every other round.  Each source records its
per-round ``request_ms`` and ``ego_build_ms`` and ``request_ratio``, each
round's ``request_ms`` over the first source's in that round, so a drift
of the host's speed slower than a round cancels:

    python demos/08_request_cost.py --source before=/path/to/old/src \\
        --source after=src --runs 1x 4x 10x 1x_hub 10x_hub --out BENCH_request_cost.json

With no arguments it measures ``src`` at ``1x`` and ``1x_hub`` once and
prints the result.
"""

import argparse
import json
import statistics
import time
from pathlib import Path

from _measure import (
    alternating_rounds,
    parse_sources,
    read_doc,
    scaled_graph,
    traced_peak_mib,
    write_doc,
)

REQUESTS = 300
ROUNDS = 3
HUB_CALLS = 3
PAIRS = 3  # timing rounds with two or more sources
SCAN_REPEATS = 50


def _graph(scale: int, hub: bool):
    """The generated graph at ``scale``, with seller 0 made a hub if ``hub``."""
    import numpy as np

    from coldgraph.graph import HeteroGraph, Relation

    g = scaled_graph(scale)
    if not hub:
        return g
    first = Relation.seller_seller()[0]
    ss = [g.ss_edges(r) for r in Relation.seller_seller()]
    linked = ss[first][ss[first][:, 0] == 0, 1]
    others = np.setdiff1d(np.arange(1, g.n_sellers), linked)
    ss[first] = np.concatenate([ss[first], np.stack([np.zeros_like(others), others], axis=1)])
    extra = np.setdiff1d(np.arange(g.n_products), g.offer_product[g.offer_seller == 0])
    rng = np.random.default_rng(0)
    return HeteroGraph.from_arrays(
        g.seller_features, g.product_features,
        np.concatenate([g.offer_seller, np.zeros_like(extra)]),
        np.concatenate([g.offer_product, extra]),
        np.concatenate([g.offer_features,
                        rng.normal(size=(extra.size, g.d_o)).astype(np.float32)]),
        ss, labels=np.concatenate([g.labels, np.zeros((extra.size, g.labels.shape[1]),
                                                      dtype=g.labels.dtype)]))


def _graph_scan_ms(n: int, ego, hops: int) -> float:
    """The median milliseconds of the graph-length steps of one ego build
    whose reached nodes end as ``ego``'s: one ``np.full`` of ``n``, then
    ``hops`` times ``np.flatnonzero(hop >= 0)``."""
    import numpy as np

    hop = np.full(n, -1, dtype=np.int32)
    hop[ego.nodes] = ego.hop
    times = []
    for _ in range(SCAN_REPEATS):
        t = time.perf_counter()
        np.full(n, -1, dtype=np.int32)
        for _ in range(hops):
            np.flatnonzero(hop >= 0)
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e3


def measure(scale: int, hub: bool) -> dict:
    """One run, in this process; ``coldgraph`` must be importable."""
    import numpy as np

    import coldgraph as cg
    from coldgraph.models.core import score_part_rows

    g = _graph(scale, hub)
    cfg = cg.EdgeGnnConfig(d_s=g.d_s, d_p=g.d_p, d_o=g.d_o)
    model = cg.EdgeGnnModel(cfg=cfg, param_groups=[cg.models.init_edge_gnn_params(cfg, 0)])
    max_rows = score_part_rows(cfg.hidden, np.float64)
    order = np.argsort(g.offer_seller, kind="stable")
    ends = np.searchsorted(g.offer_seller[order], np.arange(g.n_sellers + 1))
    if hub:
        requests = [order[ends[0]:ends[1]]] * HUB_CALLS
    else:
        sellers = np.random.default_rng(0).choice(g.n_sellers, REQUESTS)
        requests = [order[ends[s]:ends[s + 1]] for s in sellers]
    model.score(g, requests[0][:1])

    def timed(fn) -> float:
        seconds = []
        for _ in range(ROUNDS):
            for offers in requests:
                t = time.perf_counter()
                fn(offers)
                seconds.append(time.perf_counter() - t)
        return statistics.median(seconds) * 1e3

    request_ms = timed(lambda offers: model.score(g, offers))
    ego_ms = timed(lambda offers: cg.extract_ego_network(g, offers, cfg.gnn_layers, max_rows))
    sizes = [cg.extract_ego_network(g, offers, cfg.gnn_layers).n_local for offers in requests]
    median = requests[int(np.argsort(sizes)[len(sizes) // 2])]
    ego = cg.extract_ego_network(g, median, cfg.gnn_layers, max_rows)
    scan_ms = _graph_scan_ms(g.n_nodes, ego, cfg.gnn_layers)
    return {
        "graph_nodes": int(g.n_nodes),
        "requests": len(requests),
        "offers": float(statistics.median(r.shape[0] for r in requests)),
        "ego_nodes": float(statistics.median(sizes)),
        "request_ms": round(request_ms, 4),
        "ego_build_ms": round(ego_ms, 4),
        "traced_peak_mib": round(traced_peak_mib(lambda: model.score(g, median)), 3),
        "traced_ego_nodes": int(ego.n_local),
        "graph_scan_ms": round(scan_ms, 4),
        "graph_scan_share": round(scan_ms / ego_ms, 3),
    }


def _child_args(run: str) -> tuple:
    scale, _, kind = run.partition("_")
    return int(scale.rstrip("x")), int(kind == "hub")


def measure_in_pairs(sources: dict, run: str, pairs: int) -> dict:
    """Per source, its first round's result with each round's
    ``request_ms``, ``ego_build_ms`` and ``request_ratio`` (over the first
    source's in the same round) as lists; the sources' order turns every
    other round."""
    rounds = alternating_rounds(__file__, sources, pairs, "--child", *_child_args(run))
    first = [r["request_ms"] for r in rounds[next(iter(sources))]]
    out = {}
    for name, rs in rounds.items():
        out[name] = dict(rs[0], request_ms=[r["request_ms"] for r in rs],
                         ego_build_ms=[r["ego_build_ms"] for r in rs],
                         request_ratio=[round(r["request_ms"] / f, 3) for r, f in zip(rs, first)])
    return out


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description="Request cost at three scales")
    p.add_argument("--source", action="append", default=[], metavar="NAME=SRC")
    p.add_argument("--runs", nargs="+", default=["1x", "1x_hub"], metavar="RUN")
    p.add_argument("--out", type=Path)
    p.add_argument("--child", nargs=2, type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.child[0], bool(args.child[1]))))
        return

    sources = parse_sources(args.source)
    doc = read_doc(args.out)
    results = doc.setdefault("results", {})
    pairs = PAIRS if len(sources) > 1 else 1
    for run in args.runs:
        for name, r in measure_in_pairs(sources, run, pairs).items():
            results.setdefault(name, {})[run] = r
    for name in sources:
        for run, r in results[name].items():
            print(f"{name:>8} {run:>7}: {r['graph_nodes']:6d} graph nodes, "
                  f"{r['ego_nodes']:8.0f} ego nodes, request "
                  f"{statistics.median(r['request_ms']):8.3f} ms "
                  f"(ratio {statistics.median(r['request_ratio']):.3f}), ego build "
                  f"{statistics.median(r['ego_build_ms']):8.3f} ms "
                  f"({r['graph_scan_share']:.0%} graph scans), traced peak "
                  f"{r['traced_peak_mib']:7.2f} MiB")
    write_doc(args.out, doc)


if __name__ == "__main__":
    main()
