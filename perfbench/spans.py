"""In-memory span tracer that times coldgraph's layers from outside.

``traced(tracer)`` wraps each public function named in ``PROBES`` at every
module global (or class attribute) through which coldgraph code looks it
up, and puts every original object back on exit.  Each call of a wrapped
function becomes a :class:`Span` with its name, start, end and parent.
Spans stay in memory; ``layer_metrics`` turns them into per-layer self
times, call counts and the counters the probes observe.

A span's self time is its duration minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# Fixed here, not read from the program, so metric names stay stable.
MODEL_KINDS = ("edge_gnn", "tabular", "naive", "sign", "rgcn_expanded")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root


def covered_time(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reached = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reached), min(b, hi)
        if b > a:
            total += b - a
            reached = b
    return total


def self_times(spans: list) -> list:
    children: list = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered_time(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


class Tracer:
    """Collects spans and named counters for one traced phase."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.missing: list = []  # probes whose target the program no longer has
        self._stack: list = []
        self._clock = clock

    def call(self, name: str, fn, args, kwargs):
        span = Span(name, self._clock(), 0.0, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span.end = self._clock()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent}) + "\n")


# ---------------------------------------------------------------------------
# probes: which function each layer metric times, and what it counts


@dataclass(frozen=True)
class Probe:
    metric: str  # span name and metric stem, e.g. "sampling.extract_ego"
    module: str  # module that defines the target
    attr: str  # function name, or "Class.method"
    observe: Optional[Callable] = None  # (tracer, args, kwargs, result) -> None
    kind_arg: Optional[int] = None  # positional index of a model-kind argument


def _observe_ego(tr: Tracer, args, kwargs, ego) -> None:
    tr.count("sampling.ego_nodes", ego.n_local)
    tr.count("sampling.ego_nnz", sum(a.nnz for a in ego.rel_adj))
    tr.count("sampling.graph_nodes", args[0].n_nodes)


def _observe_siblings(tr: Tracer, args, kwargs, result) -> None:
    tr.count("core.sibling_requested", len(args[1]))
    tr.count("core.sibling_summed", args[0].n_offers)


def _observe_backward(tr: Tracer, args, kwargs, result) -> None:
    tr.count("autodiff.tape_len", len(args[0]))


def _observe_train_edge_gnn(tr: Tracer, args, kwargs, result) -> None:
    tc = args[2] if len(args) > 2 else kwargs["tc"]
    tr.count("train.epochs", tc.epochs)


def _observe_save_graph(tr: Tracer, args, kwargs, result) -> None:
    bundle = Path(args[1] if len(args) > 1 else kwargs["path"])
    tr.count("storage.bytes_written", sum(p.stat().st_size for p in bundle.iterdir()))


PROBES = (
    Probe("sampling.extract_ego", "coldgraph.sampling", "extract_ego_network", _observe_ego),
    Probe("core.node_embedder", "coldgraph.models.core", "node_embedder_forward"),
    Probe("core.rgcn_layer", "coldgraph.models.core", "rgcn_layer"),
    Probe("core.sibling_summaries", "coldgraph.models.core", "sibling_offer_summaries",
          _observe_siblings),
    Probe("core.edge_embedder", "coldgraph.models.core", "edge_embedder_forward"),
    Probe("core.classifier", "coldgraph.models.core", "classifier_forward"),
    Probe("autodiff.backward", "coldgraph.autodiff", "backward", _observe_backward),
    Probe("autodiff.const_matmul", "coldgraph.autodiff", "const_matmul"),
    Probe("autodiff.optimizer_step", "coldgraph.autodiff", "adam_step"),
    Probe("autodiff.optimizer_step", "coldgraph.autodiff", "sgd_step"),
    Probe("train.train_edge_gnn", "coldgraph.models.train", "train_edge_gnn",
          _observe_train_edge_gnn),
    Probe("train.mlp_heads", "coldgraph.models.train", "train_mlp_heads"),
    Probe("baselines.expanded_train", "coldgraph.models.baselines", "train_expanded_rgcn"),
    Probe("baselines.expanded_score", "coldgraph.models.baselines", "score_expanded_rgcn"),
    Probe("baselines.sign_table", "coldgraph.models.baselines", "sign_listing_table"),
    Probe("baselines.listing_table", "coldgraph.models.baselines", "build_listing_table"),
    Probe("baselines.naive_fill", "coldgraph.models.baselines", "naive_fill_seller_features"),
    Probe("graph.unified_csr", "coldgraph.graph", "HeteroGraph.unified_csr"),
    Probe("graph.copy_with_features", "coldgraph.graph", "HeteroGraph.copy_with_features"),
    Probe("graph.build_expanded_graph", "coldgraph.graph", "build_expanded_graph"),
    Probe("simulate.generate", "coldgraph.simulate", "generate_synthetic_graph"),
    Probe("simulate.make_scenario", "coldgraph.simulate", "make_scenario"),
    Probe("simulate.apply_scenario", "coldgraph.simulate", "apply_scenario"),
    Probe("storage.save_graph", "coldgraph.storage", "save_graph", _observe_save_graph),
    Probe("storage.load_graph", "coldgraph.storage", "load_graph"),
    Probe("checkpoint.save", "coldgraph.models.checkpoint", "save_checkpoint"),
    Probe("checkpoint.load", "coldgraph.models.checkpoint", "load_checkpoint"),
    Probe("evaluate.per_class_report", "coldgraph.evaluate", "per_class_report"),
    Probe("evaluate.write_report", "coldgraph.evaluate", "write_report_csv"),
    Probe("evaluate.write_report", "coldgraph.evaluate", "write_report_json"),
    Probe("experiment.train_model", "coldgraph.experiment", "train_model", kind_arg=1),
    Probe("experiment.score_model", "coldgraph.experiment", "score_model", kind_arg=0),
    Probe("experiment.write_scores", "coldgraph.experiment", "write_scores_csv"),
    Probe("experiment.run_repro", "coldgraph.experiment", "run_repro"),
)


def probe_sites(probe: Probe) -> list:
    """Every (owner, attribute, original) through which callers reach the target."""
    mod = importlib.import_module(probe.module)
    if "." in probe.attr:
        cls_name, meth = probe.attr.split(".")
        cls = getattr(mod, cls_name)
        return [(cls, meth, cls.__dict__[meth])]
    target = getattr(mod, probe.attr)
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "coldgraph" or name.startswith("coldgraph.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is target:
                sites.append((module, attr, target))
    return sites


def _wrapper(tracer: Tracer, probe: Probe, fn):
    def wrapped(*args, **kwargs):
        name = probe.metric
        if probe.kind_arg is not None:
            kind = args[probe.kind_arg] if len(args) > probe.kind_arg else kwargs["kind"]
            name = f"{name}.{kind}"
        result = tracer.call(name, fn, args, kwargs)
        if probe.observe is not None:
            probe.observe(tracer, args, kwargs, result)
        return result

    wrapped.__wrapped__ = fn
    return wrapped


@contextmanager
def traced(tracer: Tracer, probes=PROBES):
    """Wrap every probe target for the duration of the block, then restore."""
    sites = []
    for probe in probes:
        try:
            sites.extend((probe, *site) for site in probe_sites(probe))
        except (AttributeError, KeyError, ImportError):
            tracer.missing.append(f"{probe.module}.{probe.attr}")
    try:
        for probe, owner, attr, original in sites:
            setattr(owner, attr, _wrapper(tracer, probe, original))
        yield tracer
    finally:
        for probe, owner, attr, original in reversed(sites):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics


def _stems(probes=PROBES) -> list:
    out = []
    for probe in probes:
        kinds = MODEL_KINDS if probe.kind_arg is not None else (None,)
        for kind in kinds:
            if (probe.metric, kind) not in out:
                out.append((probe.metric, kind))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (name, unit) of every metric layer_metrics derives beyond self time and calls
DERIVED = (
    ("sampling.ego_nodes_mean", "nodes"),
    ("sampling.ego_nnz_mean", "nnz"),
    ("sampling.ego_coverage", "ratio"),
    ("core.sibling_useful_ratio", "ratio"),
    ("autodiff.tape_len_mean", "ops"),
    ("train.epoch_s", "s"),
    ("train.batches", "count"),
    ("storage.bytes_written", "B"),
    ("trace.coverage", "ratio"),
    ("trace.spans", "count"),
)


def layer_metric_units() -> dict:
    """Name -> unit of every metric ``layer_metrics`` reports, in report order."""
    units = {}
    for stem, kind in _stems():
        suffix = "" if kind is None else f".{kind}"
        units[f"{stem}_s{suffix}"] = "s"
        units[f"{stem}_calls{suffix}"] = "count"
    units.update(DERIVED)
    return units


def layer_metrics(tracer: Tracer, window: tuple) -> dict:
    """Name -> value for every per-layer metric.

    ``window`` is the (start, end) of the measured wall time that
    ``trace.coverage`` relates the root spans to.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    for s, t in zip(spans, selfs):
        self_s[s.name] += t
        calls[s.name] += 1

    out = {}
    for stem, kind in _stems():
        span_name = stem if kind is None else f"{stem}.{kind}"
        suffix = "" if kind is None else f".{kind}"
        out[f"{stem}_s{suffix}"] = self_s[span_name]
        out[f"{stem}_calls{suffix}"] = calls[span_name]

    c = tracer.counters
    inside = _inside_train_edge_gnn(spans)
    lo, hi = window
    roots = [(s.start, s.end) for s in spans if s.parent < 0]
    gnn_wall = sum(s.end - s.start for s in spans if s.name == "train.train_edge_gnn")
    out.update({
        "sampling.ego_nodes_mean": _ratio(c["sampling.ego_nodes"], calls["sampling.extract_ego"]),
        "sampling.ego_nnz_mean": _ratio(c["sampling.ego_nnz"], calls["sampling.extract_ego"]),
        "sampling.ego_coverage": _ratio(c["sampling.ego_nodes"], c["sampling.graph_nodes"]),
        "core.sibling_useful_ratio": _ratio(c["core.sibling_requested"], c["core.sibling_summed"]),
        "autodiff.tape_len_mean": _ratio(c["autodiff.tape_len"], calls["autodiff.backward"]),
        "train.epoch_s": _ratio(gnn_wall, c["train.epochs"]),
        "train.batches": sum(
            1 for i, s in enumerate(spans) if s.name == "autodiff.backward" and inside[i]
        ),
        "storage.bytes_written": c["storage.bytes_written"],
        "trace.coverage": _ratio(covered_time(roots, lo, hi), hi - lo),
        "trace.spans": len(spans),
    })
    return out


def _inside_train_edge_gnn(spans: list) -> list:
    """Per span: whether a ``train_edge_gnn`` call encloses it."""
    inside = [False] * len(spans)
    for i, s in enumerate(spans):  # parents precede children
        p = s.parent
        inside[i] = p >= 0 and (inside[p] or spans[p].name == "train.train_edge_gnn")
    return inside
