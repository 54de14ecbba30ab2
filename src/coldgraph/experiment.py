"""Experiment configuration and the end-to-end reproduction pipeline.

``run_repro`` generates a graph bundle, trains the five model kinds once on
the unmasked graph, scores each cold-start scenario on its masked copy, and
writes per-model reports plus two comparison tables.  Every artifact is a
deterministic function of the config, so reruns are byte-identical; wall
times only ever go to the log callback.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .evaluate import fmt_auc, fmt_delta, per_class_report, write_report_csv, write_report_json
from .graph import CLASS_NAMES, N_CLASSES, HeteroGraph, build_expanded_graph
from .models import (
    EdgeGnnConfig,
    EdgeGnnModel,
    ExpandedRgcnConfig,
    TrainConfig,
    build_listing_table,
    naive_fill_seller_features,
    save_checkpoint,
    score_expanded_rgcn,
    score_mlp_heads,
    sign_listing_table,
    train_edge_gnn,
    train_expanded_rgcn,
    train_mlp_heads,
)
from .records import Record
from .simulate import (
    SCENARIOS,
    GeneratorConfig,
    ScenarioSpec,
    apply_scenario,
    generate_synthetic_graph,
    make_scenario,
    save_scenario,
)
from .storage import save_graph

__all__ = [
    "MODEL_KINDS",
    "EXPERIMENT_FORMAT_VERSION",
    "ModelConfig",
    "ExperimentConfig",
    "TrainedModel",
    "train_model",
    "score_model",
    "write_scores_csv",
    "read_scores_csv",
    "run_repro",
]

MODEL_KINDS = ("edge_gnn", "tabular", "naive", "sign", "rgcn_expanded")

EXPERIMENT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig(Record):
    """Hyperparameters for all five model kinds; dims come from the graph."""

    mode: str = "multi_task"
    hidden: int = 64
    gnn_layers: int = 3
    edge_hidden: int = 64
    cls_hidden: int = 64
    dropout: float = 0.0
    lr: float = 1e-3
    epochs: int = 8
    batch_size: int = 1024
    optimizer: str = "adam"
    weight_decay: float = 0.0
    mlp_hidden: int = 64
    mlp_epochs: int = 20
    sign_hops: int = 3
    expanded_hidden: int = 64
    expanded_layers: int = 6
    expanded_epochs: int = 60

    def __post_init__(self):
        for name, low in (("epochs", 0), ("mlp_epochs", 0), ("expanded_epochs", 0),
                          ("sign_hops", 0), ("mlp_hidden", 1), ("expanded_hidden", 1),
                          ("expanded_layers", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        # fail at load on a bad lr, weight_decay, optimizer, width, depth or dropout
        self.train_config(seed=0)
        self.edge_gnn_config(d_s=1, d_p=1, d_o=1)

    def edge_gnn_config(self, d_s: int, d_p: int, d_o: int) -> EdgeGnnConfig:
        return EdgeGnnConfig(
            d_s=d_s, d_p=d_p, d_o=d_o,
            hidden=self.hidden, gnn_layers=self.gnn_layers,
            edge_hidden=self.edge_hidden, cls_hidden=self.cls_hidden,
            mode=self.mode, dropout=self.dropout,
        )

    def train_config(self, seed: int, epochs: Optional[int] = None) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs if epochs is None else epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            seed=seed,
            optimizer=self.optimizer,
            weight_decay=self.weight_decay,
        )


@dataclass(frozen=True)
class ExperimentConfig(Record):
    version: int = EXPERIMENT_FORMAT_VERSION
    seed: int = 7
    out_dir: str = "runs/default"
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    models: tuple[str, ...] = MODEL_KINDS
    scenarios: tuple[str, ...] = SCENARIOS

    def __post_init__(self):
        if self.version != EXPERIMENT_FORMAT_VERSION:
            raise ValueError(f"unsupported config version {self.version}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for kind in self.models:
            if kind not in MODEL_KINDS:
                raise ValueError(f"unknown model kind {kind!r}")
        for s in self.scenarios:
            if s not in SCENARIOS:
                raise ValueError(f"unknown scenario {s!r}")


@dataclass
class TrainedModel:
    kind: str
    arch: dict  # architecture descriptor persisted with the checkpoint
    param_groups: list
    history: list


def _expanded_config(g: HeteroGraph, mc: ModelConfig) -> ExpandedRgcnConfig:
    return ExpandedRgcnConfig(
        d_s=g.d_s, d_p=g.d_p, d_o=g.d_o,
        hidden=mc.expanded_hidden, layers=mc.expanded_layers,
    )


def _table_arch(g: HeteroGraph, mc: ModelConfig, kind: str) -> dict:
    if kind == "sign":
        d_in = 2 * (mc.sign_hops + 1) * (g.d_s + g.d_p) + g.d_o
    else:
        d_in = g.d_s + g.d_p + g.d_o
    arch = {
        "d_s": g.d_s, "d_p": g.d_p, "d_o": g.d_o,
        "d_in": d_in, "hidden": mc.mlp_hidden, "n_classes": N_CLASSES,
    }
    if kind == "sign":
        arch["hops"] = mc.sign_hops
    return arch


def train_model(g: HeteroGraph, kind: str, seed: int, mc: ModelConfig) -> TrainedModel:
    """Train one model kind on the (unmasked) graph."""
    if kind == "edge_gnn":
        cfg = mc.edge_gnn_config(g.d_s, g.d_p, g.d_o)
        model = train_edge_gnn(g, cfg, mc.train_config(seed))
        return TrainedModel(kind, cfg.to_dict(), model.param_groups, model.history)
    if kind in ("tabular", "naive", "sign"):
        table = (sign_listing_table(g, hops=mc.sign_hops) if kind == "sign"
                 else build_listing_table(g))
        heads, history = train_mlp_heads(
            table, g.labels, mc.train_config(seed, mc.mlp_epochs), hidden=mc.mlp_hidden
        )
        return TrainedModel(kind, _table_arch(g, mc, kind), heads, history)
    if kind == "rgcn_expanded":
        cfg = _expanded_config(g, mc)
        params, history = train_expanded_rgcn(
            build_expanded_graph(g), cfg, mc.train_config(seed, mc.expanded_epochs)
        )
        return TrainedModel(kind, cfg.to_dict(), [params], [history])
    raise ValueError(f"unknown model kind {kind!r}")


def _check_dims(arch: dict, g: HeteroGraph, kind: str) -> None:
    for name, have in (("d_s", g.d_s), ("d_p", g.d_p), ("d_o", g.d_o)):
        want = arch.get(name)
        if want is not None and want != have:
            raise ValueError(
                f"{kind} checkpoint expects {name}={want}, graph has {have}"
            )


def score_model(
    kind: str,
    arch: dict,
    param_groups: list,
    masked: HeteroGraph,
    eval_offers: np.ndarray,
    spec: Optional[ScenarioSpec] = None,
) -> np.ndarray:
    """Probability matrix (|eval_offers|, 9) in float64, from masked features."""
    eval_offers = np.asarray(eval_offers, dtype=np.int64)
    _check_dims(arch, masked, kind)
    if kind == "edge_gnn":
        cfg = EdgeGnnConfig.from_dict(arch)
        model = EdgeGnnModel(cfg=cfg, param_groups=param_groups)
        return model.score(masked, eval_offers)
    if kind == "tabular":
        table = build_listing_table(masked)
        return score_mlp_heads(param_groups, table[eval_offers])
    if kind == "naive":
        new_sellers = np.asarray(
            spec.new_sellers if spec is not None else (), dtype=np.int64
        )
        filled = naive_fill_seller_features(masked, new_sellers)
        table = build_listing_table(masked, seller_features=filled)
        return score_mlp_heads(param_groups, table[eval_offers])
    if kind == "sign":
        table = sign_listing_table(masked, hops=arch["hops"])
        return score_mlp_heads(param_groups, table[eval_offers])
    if kind == "rgcn_expanded":
        cfg = ExpandedRgcnConfig.from_dict(arch)
        scores = score_expanded_rgcn(build_expanded_graph(masked), param_groups[0], cfg)
        return scores[eval_offers]
    raise ValueError(f"unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# score files


def write_scores_csv(path, offer_ids: np.ndarray, scores: np.ndarray) -> None:
    lines = ["offer_idx," + ",".join(CLASS_NAMES)]
    for i, row in zip(offer_ids, scores):
        lines.append(f"{int(i)}," + ",".join(f"{v:.10f}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_scores_csv(path) -> tuple:
    """Offer ids and per-class probabilities from a scores file.

    Rejects, naming the path and line, a bad header or field count, an
    offer id that does not parse, is negative or repeats, and a
    probability that is not a finite value in [0, 1].
    """
    lines = Path(path).read_text().strip().split("\n")
    header = lines[0].split(",")
    if header != ["offer_idx"] + list(CLASS_NAMES):
        raise ValueError(f"unexpected score file header in {path}")
    ids, rows, seen = [], [], set()
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 1 + N_CLASSES:
            raise ValueError(f"{path}:{ln}: expected {1 + N_CLASSES} fields")
        try:
            k = int(parts[0])
            row = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from None
        if k < 0:
            raise ValueError(f"{path}:{ln}: negative offer id {k}")
        if k in seen:
            raise ValueError(f"{path}:{ln}: duplicate offer id {k}")
        bad = [v for v in row if not 0.0 <= v <= 1.0]  # also catches nan
        if bad:
            raise ValueError(f"{path}:{ln}: probability {bad[0]} is not a finite value in [0, 1]")
        seen.add(k)
        ids.append(k)
        rows.append(row)
    return np.array(ids, dtype=np.int64), np.array(rows, dtype=np.float64)


# ---------------------------------------------------------------------------
# full pipeline


def _noop_log(event: dict) -> None:
    pass


def run_repro(config: ExperimentConfig, log: Callable = _noop_log) -> dict:
    """generate -> train every model -> score every scenario -> tables.

    Returns a manifest: artifact paths plus the in-memory reports keyed by
    (scenario, model kind).
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    g = generate_synthetic_graph(config.generator)
    graph_dir = out / "graph"
    save_graph(g, graph_dir)
    log({"event": "generated", "sellers": g.n_sellers, "products": g.n_products,
         "offers": g.n_offers, "edges": g.n_edges,
         "seconds": round(time.perf_counter() - t0, 3)})

    specs = {}
    for name in config.scenarios:
        spec = make_scenario(g, name, seed=config.seed)
        specs[name] = spec
        save_scenario(out / f"scenario_{name}.json", spec)
        log({"event": "scenario", "name": name, "eval_offers": len(spec.eval_offers)})

    trained, by_training = {}, {}
    for kind in config.models:
        t0 = time.perf_counter()
        # naive is the tabular model scored with neighbor-filled seller
        # features, so a run that asks for both trains the shared heads once
        key = "tabular" if kind == "naive" else kind
        if key not in by_training:
            by_training[key] = train_model(g, kind, config.seed, config.model)
        model = trained[kind] = dataclasses.replace(by_training[key], kind=kind)
        save_checkpoint(out / f"{kind}.ckpt", kind, model.arch, model.param_groups)
        final = [round(h[-1], 6) for h in model.history if h]
        log({"event": "trained", "model": kind, "final_loss": final,
             "seconds": round(time.perf_counter() - t0, 3)})

    reports: dict = {}
    scores_by: dict = {}
    for name, spec in specs.items():
        masked, eval_offers = apply_scenario(g, spec)
        labels = g.labels[eval_offers]
        for kind in config.models:
            t0 = time.perf_counter()
            model = trained[kind]
            scores = score_model(
                kind, model.arch, model.param_groups, masked, eval_offers, spec
            )
            scores_by[(name, kind)] = scores
            write_scores_csv(out / f"scores_{kind}_{name}.csv", eval_offers, scores)
            log({"event": "scored", "model": kind, "scenario": name,
                 "offers": len(eval_offers),
                 "seconds": round(time.perf_counter() - t0, 3)})
        baseline = None
        if "tabular" in config.models:
            baseline = per_class_report(
                scores_by[(name, "tabular")], labels, scenario=name, seed=config.seed
            )
        for kind in config.models:
            report = per_class_report(
                scores_by[(name, kind)], labels,
                baseline=baseline, scenario=name, seed=config.seed,
            )
            reports[(name, kind)] = report
            write_report_csv(out / f"report_{kind}_{name}.csv", report)
            write_report_json(out / f"report_{kind}_{name}.json", report)

    _write_summary_tables(out, config, reports)
    log({"event": "done", "out_dir": str(out)})
    return {"out_dir": out, "graph": g, "specs": specs, "reports": reports}


def _write_summary_tables(out: Path, config: ExperimentConfig, reports: dict) -> None:
    long_lines = ["scenario,model,class,auc,delta_vs_tabular_pcp"]
    for name in config.scenarios:
        for kind in config.models:
            r = reports[(name, kind)]
            for k in range(N_CLASSES):
                long_lines.append(f"{name},{kind},{CLASS_NAMES[k]},"
                                  f"{fmt_auc(r.auc[k])},{fmt_delta(r.delta_pcp[k])}")
    (out / "summary_long.csv").write_text("\n".join(long_lines) + "\n")

    geo_lines = ["model," + ",".join(config.scenarios)]
    for kind in config.models:
        cells = [fmt_auc(reports[(name, kind)].geo_mean) for name in config.scenarios]
        geo_lines.append(f"{kind}," + ",".join(cells))
    (out / "summary_geo.csv").write_text("\n".join(geo_lines) + "\n")
