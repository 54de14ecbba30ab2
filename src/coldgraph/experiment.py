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
from .graph import CLASS_NAMES, N_CLASSES, HeteroGraph, build_expanded_graph, offer_id_array
from .models import (
    EdgeGnnConfig,
    EdgeGnnModel,
    ExpandedRgcnConfig,
    TrainConfig,
    build_listing_table,
    init_edge_gnn_params,
    init_expanded_rgcn_params,
    naive_fill_seller_features,
    save_checkpoint,
    score_expanded_rgcn,
    score_mlp_heads,
    sign_listing_table,
    train_edge_gnn,
    train_expanded_rgcn,
    train_mlp_heads,
)
from .models.train import init_mlp_head
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
from .storage import (
    OFFER_CLASS_HEADER, format_rows, read_table, save_graph, seen_before, write_artifact)

__all__ = [
    "MODEL_KINDS",
    "ModelConfig",
    "ExperimentConfig",
    "train_model",
    "score_model",
    "check_checkpoint_params",
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
        # fail at load on a bad lr, width, depth or dropout
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
        for what, names, known in (("model kind", self.models, MODEL_KINDS),
                                   ("scenario", self.scenarios, SCENARIOS)):
            for i, name in enumerate(names):
                if name not in known:
                    raise ValueError(f"unknown {what} {name!r}")
                if name in names[:i]:
                    raise ValueError(f"{what} {name!r} is listed twice")


@dataclass
class TrainedModel:
    kind: str
    arch: dict  # architecture descriptor persisted with the checkpoint
    param_groups: list
    history: list


@dataclass(frozen=True)
class TableArch(Record):
    """Checkpoint architecture of the ``tabular`` and ``naive`` MLP heads."""

    d_s: int
    d_p: int
    d_o: int
    hidden: int

    def __post_init__(self):
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")

    @property
    def d_in(self) -> int:
        """Width of a listing-table row: seller, product and offer features."""
        return self.d_s + self.d_p + self.d_o


@dataclass(frozen=True)
class SignArch(TableArch):
    """Checkpoint architecture of the ``sign`` MLP heads."""

    hops: int

    def __post_init__(self):
        super().__post_init__()
        if self.hops < 0:
            raise ValueError(f"hops must be >= 0, got {self.hops}")

    @property
    def d_in(self) -> int:
        """Width of a sign table row: ``hops + 1`` blocks per endpoint, then the offer."""
        return 2 * (self.hops + 1) * (self.d_s + self.d_p) + self.d_o


# model kind -> the record its checkpoint architecture decodes through
ARCH_RECORDS = {"edge_gnn": EdgeGnnConfig, "tabular": TableArch, "naive": TableArch,
                "sign": SignArch, "rgcn_expanded": ExpandedRgcnConfig}


def _decode_arch(kind: str, arch: dict):
    """``arch`` decoded through the kind's record in ``ARCH_RECORDS``."""
    if kind not in ARCH_RECORDS:
        raise ValueError(f"unknown model kind {kind!r}")
    return ARCH_RECORDS[kind].from_dict(arch)


def _listing_table(g: HeteroGraph, kind: str, arch: TableArch,
                   new_sellers: np.ndarray) -> np.ndarray:
    """One input row per offer of ``g`` for table kind ``kind``; ``naive``
    fills the features of ``new_sellers`` from their seller neighbours."""
    if kind == "sign":
        return sign_listing_table(g, arch.hops)
    if kind == "naive":
        return build_listing_table(g, naive_fill_seller_features(g, new_sellers))
    return build_listing_table(g)


def train_model(g: HeteroGraph, kind: str, seed: int, mc: ModelConfig) -> TrainedModel:
    """Train one model kind on the (unmasked) graph."""
    dims = dict(d_s=g.d_s, d_p=g.d_p, d_o=g.d_o)
    if kind == "edge_gnn":
        arch = mc.edge_gnn_config(**dims)
        model = train_edge_gnn(g, arch, mc.train_config(seed))
        groups, history = model.param_groups, model.history
    elif kind == "rgcn_expanded":
        arch = ExpandedRgcnConfig(**dims, hidden=mc.expanded_hidden, layers=mc.expanded_layers)
        params, losses = train_expanded_rgcn(
            build_expanded_graph(g), arch, mc.train_config(seed, mc.expanded_epochs)
        )
        groups, history = [params], [losses]
    elif kind in ("tabular", "naive", "sign"):
        arch = (SignArch(**dims, hidden=mc.mlp_hidden, hops=mc.sign_hops) if kind == "sign"
                else TableArch(**dims, hidden=mc.mlp_hidden))
        table = _listing_table(g, kind, arch, np.zeros(0, dtype=np.int64))
        groups, history = train_mlp_heads(
            table, g.labels, mc.train_config(seed, mc.mlp_epochs), hidden=arch.hidden
        )
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    return TrainedModel(kind, arch.to_dict(), groups, history)


def score_model(
    kind: str,
    arch: dict,
    param_groups: list,
    masked: HeteroGraph,
    eval_offers: np.ndarray,
    spec: Optional[ScenarioSpec] = None,
) -> np.ndarray:
    """Probability matrix (|eval_offers|, 9) in float64, from masked features.

    ``arch`` is decoded through the kind's record in ``ARCH_RECORDS``, so a
    malformed one raises ValueError naming the record and key; offer ids
    without an integer dtype raise ValueError naming it, and an offer id
    outside ``[0, n_offers)`` one naming the id.
    """
    eval_offers = offer_id_array(eval_offers)
    bad = eval_offers[(eval_offers < 0) | (eval_offers >= masked.n_offers)]
    if bad.size:
        raise ValueError(f"offer id {int(bad[0])} out of range [0, {masked.n_offers})")
    cfg = _decode_arch(kind, arch)
    for name, have in (("d_s", masked.d_s), ("d_p", masked.d_p), ("d_o", masked.d_o)):
        if getattr(cfg, name) != have:
            raise ValueError(
                f"{kind} checkpoint expects {name}={getattr(cfg, name)}, graph has {have}"
            )
    if kind == "edge_gnn":
        return EdgeGnnModel(cfg=cfg, param_groups=param_groups).score(masked, eval_offers)
    if kind == "rgcn_expanded":
        return score_expanded_rgcn(build_expanded_graph(masked), param_groups[0], cfg,
                                   eval_offers)
    new_sellers = np.asarray(spec.new_sellers if spec is not None else (), dtype=np.int64)
    return score_mlp_heads(param_groups,
                           _listing_table(masked, kind, cfg, new_sellers)[eval_offers])


def check_checkpoint_params(kind: str, arch: dict, param_groups: list) -> None:
    """Raise ValueError unless ``param_groups`` hold exactly the tensors,
    by name and shape, that the kind's own init makes from ``arch``: one
    group per edge classifier head, one for the expanded RGCN, one MLP
    head per class for the table kinds.  The message names the first
    missing, extra or misshapen tensor.

    For parameters read from a file; ``score_model`` does not run it.
    """
    cfg = _decode_arch(kind, arch)
    if kind == "edge_gnn":
        heads = [None] if cfg.mode == "multi_task" else range(N_CLASSES)
        want = [init_edge_gnn_params(cfg, 0, head_class=k) for k in heads]
    elif kind == "rgcn_expanded":
        want = [init_expanded_rgcn_params(cfg, 0)]
    else:
        rng = np.random.default_rng(0)
        want = [init_mlp_head(rng, cfg.d_in, cfg.hidden) for _ in range(N_CLASSES)]
    if len(param_groups) != len(want):
        raise ValueError(f"{kind} checkpoint holds {len(param_groups)} parameter groups, "
                         f"its architecture makes {len(want)}")
    for i, (have, need) in enumerate(zip(param_groups, want)):
        where = f"{kind} checkpoint group {i}"
        for name, p in need.items():
            if name not in have:
                raise ValueError(f"{where} lacks tensor {name!r}")
            if have[name].shape != p.shape:
                raise ValueError(f"{where} tensor {name!r} has shape {list(have[name].shape)}, "
                                 f"its architecture makes {list(p.shape)}")
        extra = [name for name in have if name not in need]
        if extra:
            raise ValueError(f"{where} has tensor {extra[0]!r}, which its architecture lacks")


# ---------------------------------------------------------------------------
# score files


def write_scores_csv(path, offer_ids: np.ndarray, scores: np.ndarray) -> None:
    rows = np.column_stack([np.asarray(offer_ids, dtype=object), np.asarray(scores, dtype=object)])
    write_artifact(path, OFFER_CLASS_HEADER + "\n"
                   + format_rows("%d" + ",%.10f" * N_CLASSES + "\n", rows))


def read_scores_csv(path) -> tuple:
    """Offer ids and per-class probabilities from a scores file.

    Rejects, naming the path and line, a bad header or field count, an
    offer id that does not parse, is negative or repeats, and a
    probability that is not a finite value in [0, 1].
    """
    def checks(ids, *probs):
        probs = np.column_stack(probs)
        outside = ~((probs >= 0.0) & (probs <= 1.0))  # also catches nan
        return [
            (ids < 0, lambda i: f"negative offer id {ids[i]}"),
            (seen_before(ids), lambda i: f"duplicate offer id {ids[i]}"),
            (outside.any(axis=1), lambda i: f"probability {float(probs[i][outside[i]][0])}"
                                            " is not a finite value in [0, 1]"),
        ]

    ids, *probs = read_table(Path(path).read_bytes().strip(), OFFER_CLASS_HEADER,
                             "i" + "f" * N_CLASSES, checks, f"{path}:")
    return ids, np.column_stack(probs)


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
    rows = [(name, kind, CLASS_NAMES[k], fmt_auc(reports[name, kind].auc[k]),
             fmt_delta(reports[name, kind].delta_pcp[k]))
            for name in config.scenarios for kind in config.models for k in range(N_CLASSES)]
    write_artifact(out / "summary_long.csv", "scenario,model,class,auc,delta_vs_tabular_pcp\n"
                   + format_rows("%s,%s,%s,%s,%s\n", rows))
    rows = [["model", *config.scenarios]] + [
        [kind] + [fmt_auc(reports[name, kind].geo_mean) for name in config.scenarios]
        for kind in config.models]
    write_artifact(out / "summary_geo.csv", "".join(",".join(row) + "\n" for row in rows))
