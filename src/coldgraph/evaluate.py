"""Per-class ROC-AUC reports and the linear-scaling benchmark.

AUC uses the Mann-Whitney rank statistic with average ranks on ties, which
matches the O(P*N) pairwise count (0.5 credit per tie) exactly in float64:
both numerators are sums of halves, so no rounding ever separates them.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .graph import CLASS_NAMES, N_CLASSES
from .records import Record
from .simulate import GeneratorConfig, generate_synthetic_graph

__all__ = [
    "UndefinedAucError",
    "roc_auc",
    "roc_auc_pairwise",
    "geometric_mean_auc",
    "EvalReport",
    "per_class_report",
    "write_report_csv",
    "write_report_json",
    "BenchmarkResult",
    "scaling_benchmark",
    "bench_config_for_edges",
    "write_benchmark_csv",
]


class UndefinedAucError(ValueError):
    """Raised when a score slice contains only one label value."""


def _check_binary_inputs(scores: np.ndarray, labels: np.ndarray):
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have the same length")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    uniq = np.unique(labels)
    if not np.isin(uniq, (0, 1)).all():
        raise ValueError("labels must be binary")
    return scores, labels.astype(bool)


def roc_auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative (ties = 0.5).

    Raises :class:`UndefinedAucError` when labels are single-class; callers
    that aggregate report that slice as undefined instead of defaulting it.
    """
    scores, pos = _check_binary_inputs(scores, labels)
    n_pos = int(pos.sum())
    n_neg = pos.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAucError("AUC undefined: labels contain a single class")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    boundaries = np.flatnonzero(np.diff(sorted_scores) != 0) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [scores.size]])
    # 1-based average rank of each tie group; sums of halves stay exact
    avg = (starts + ends + 1) / 2.0
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(avg, ends - starts)
    rank_sum = ranks[pos].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (float(n_pos) * float(n_neg))


def roc_auc_pairwise(scores, labels) -> float:
    """Brute-force positive-negative pair count; the testing oracle."""
    scores, pos = _check_binary_inputs(scores, labels)
    p = scores[pos]
    n = scores[~pos]
    if p.size == 0 or n.size == 0:
        raise UndefinedAucError("AUC undefined: labels contain a single class")
    diff = p[:, None] - n[None, :]
    wins = (diff > 0).sum() + 0.5 * (diff == 0).sum()
    return float(wins) / (float(p.size) * float(n.size))


def geometric_mean_auc(aucs: Sequence[Optional[float]]) -> Optional[float]:
    """nth root of the product; None when any entry is missing or not > 0."""
    vals = list(aucs)
    if not vals or any(v is None or v <= 0 for v in vals):
        return None
    return float(math.exp(np.mean([math.log(v) for v in vals])))


@dataclass(frozen=True)
class EvalReport:
    """Per-class AUC table for one (scenario, model) evaluation."""

    scenario: str
    n_listings: int
    seed: Optional[int] = None
    auc: tuple = ()  # length 9, None where undefined
    delta_pcp: tuple = ()  # vs baseline, 0.1 pcp precision, None where n/a
    geo_mean: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "n_listings": self.n_listings,
            "seed": self.seed,
            "classes": list(CLASS_NAMES),
            "auc": list(self.auc),
            "delta_pcp": list(self.delta_pcp),
            "geometric_mean_auc": self.geo_mean,
        }


def per_class_report(
    scores: np.ndarray,
    labels: np.ndarray,
    baseline: Optional[EvalReport] = None,
    scenario: str = "",
    seed: Optional[int] = None,
) -> EvalReport:
    """One-vs-rest AUC per class; classes absent from labels come back None.

    Deltas are percentage points against the baseline report, rounded to
    0.1 pcp; the geometric mean is None whenever any class is undefined.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 2 or scores.shape[1] != N_CLASSES:
        raise ValueError(f"expected matching (n, {N_CLASSES}) score and label matrices")
    aucs: list = []
    for k in range(N_CLASSES):
        try:
            aucs.append(roc_auc(scores[:, k], labels[:, k]))
        except UndefinedAucError:
            aucs.append(None)
    deltas: list = []
    for k in range(N_CLASSES):
        base = baseline.auc[k] if baseline is not None else None
        if base is None or aucs[k] is None:
            deltas.append(None)
        else:
            deltas.append(round(100.0 * (aucs[k] - base), 1))
    return EvalReport(
        scenario=scenario,
        n_listings=scores.shape[0],
        seed=seed,
        auc=tuple(aucs),
        delta_pcp=tuple(deltas),
        geo_mean=geometric_mean_auc(aucs),
    )


def fmt_auc(v: Optional[float]) -> str:
    """An AUC cell of the report and summary CSVs."""
    return "undefined" if v is None else f"{v:.6f}"


def fmt_delta(v: Optional[float]) -> str:
    """A pcp delta cell of the report and summary CSVs."""
    return "" if v is None else f"{v:.1f}"


def write_report_csv(path, report: EvalReport) -> None:
    lines = ["class,auc,delta_pcp"]
    for k in range(N_CLASSES):
        auc, delta = fmt_auc(report.auc[k]), fmt_delta(report.delta_pcp[k])
        lines.append(f"{CLASS_NAMES[k]},{auc},{delta}")
    lines.append(f"geometric_mean,{fmt_auc(report.geo_mean)},")
    Path(path).write_text("\n".join(lines) + "\n")


def write_report_json(path, report: EvalReport) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# scaling benchmark


@dataclass(frozen=True)
class BenchmarkResult(Record):
    task: str
    target_edges: tuple[int, ...]
    measured_edges: tuple[int, ...]
    seconds: tuple[float, ...]
    slope: float
    intercept: float
    r_squared: float


_BENCH_SELLERS_PER_COMMUNITY = 50
_BENCH_PRODUCTS_PER_COMMUNITY = 80
_BENCH_OFFERS_PER_SELLER = 4.0
_BENCH_P_INTRA = (0.06, 0.048, 0.04, 0.036, 0.032, 0.024, 0.02, 0.016)


def bench_config_for_edges(target_edges: int, seed: int = 0) -> GeneratorConfig:
    """Generator config whose edge count lands near ``target_edges``.

    Communities are fixed-size islands (no cross-community edges), so the
    graph grows by adding communities and both node and edge counts scale
    together; that is the regime where per-edge cost is constant.
    """
    pairs = _BENCH_SELLERS_PER_COMMUNITY * (_BENCH_SELLERS_PER_COMMUNITY - 1) / 2
    per_community = pairs * sum(_BENCH_P_INTRA) + (
        _BENCH_SELLERS_PER_COMMUNITY * _BENCH_OFFERS_PER_SELLER
    )
    n_comm = max(2, round(target_edges / per_community))
    return GeneratorConfig(
        n_sellers=n_comm * _BENCH_SELLERS_PER_COMMUNITY,
        n_products=n_comm * _BENCH_PRODUCTS_PER_COMMUNITY,
        n_communities=n_comm,
        n_categories=12,
        d_s=16,
        d_p=12,
        d_o=10,
        offers_per_seller=_BENCH_OFFERS_PER_SELLER,
        p_intra=_BENCH_P_INTRA,
        p_inter=(0.0,) * 8,
        seed=seed,
    )


def _ols(x: np.ndarray, y: np.ndarray) -> tuple:
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def _default_task(task: str, seed: int) -> Callable:
    from .models import EdgeGnnConfig, EdgeGnnModel, TrainConfig, init_edge_gnn_params, train_edge_gnn

    def make(g):
        cfg = EdgeGnnConfig(
            d_s=g.d_s, d_p=g.d_p, d_o=g.d_o,
            hidden=32, gnn_layers=3, edge_hidden=32, cls_hidden=32,
        )
        tc = TrainConfig(epochs=1, batch_size=g.n_offers, seed=seed)
        if task == "train_epoch":
            return lambda: train_edge_gnn(g, cfg, tc)
        model = EdgeGnnModel(cfg=cfg, param_groups=[init_edge_gnn_params(cfg, seed)])
        offers = np.arange(g.n_offers)
        return lambda: model.score(g, offers, dtype=np.float32)

    return make


def scaling_benchmark(
    sizes: Sequence[int],
    task,
    seed: int = 0,
    repeats: int = 2,
) -> BenchmarkResult:
    """Time ``task`` on graphs of increasing edge count and fit time = a*edges + b.

    ``task`` is "train_epoch", "inference", or a callable ``task(graph) ->
    thunk`` for injecting a custom workload (the no-op control in tests).
    Every size's graph and thunk are built and warmed up first; then each
    of the ``repeats`` passes times every size once, so a slow stretch of
    the host spreads over all sizes instead of landing on one.  A size
    keeps its minimum over the passes; one whose timing cannot be resolved
    by the clock is rejected.
    """
    sizes = [int(s) for s in sizes]
    if len(sizes) < 4:
        raise ValueError("need at least 4 sizes")
    if len(set(sizes)) != len(sizes):
        raise ValueError("duplicate size entries")
    if min(sizes) < 1:
        raise ValueError("sizes must be positive")
    if max(sizes) < 8 * min(sizes):
        raise ValueError("sizes must span at least 8x")
    if callable(task):
        make_thunk, task_name = task, getattr(task, "__name__", "custom")
    elif task in ("train_epoch", "inference"):
        make_thunk, task_name = _default_task(task, seed), task
    else:
        raise ValueError(f"unknown benchmark task {task!r}")

    resolution = time.get_clock_info("perf_counter").resolution
    floor = max(50.0 * resolution, 5e-7)
    sizes = sorted(sizes)
    graphs = [generate_synthetic_graph(bench_config_for_edges(size, seed)) for size in sizes]
    thunks = [make_thunk(g) for g in graphs]
    for thunk in thunks:
        thunk()  # warm-up
    best = [math.inf] * len(thunks)
    for _ in range(max(1, repeats)):
        for i, thunk in enumerate(thunks):
            t0 = time.perf_counter()
            thunk()
            best[i] = min(best[i], time.perf_counter() - t0)
    for size, took in zip(sizes, best):
        if took < floor:
            raise ValueError(
                f"timer resolution insufficient for size {size} ({took:.2e}s)"
            )
    measured = [g.n_edges for g in graphs]
    x = np.array(measured, dtype=np.float64)
    y = np.array(best, dtype=np.float64)
    slope, intercept, r2 = _ols(x, y)
    return BenchmarkResult(
        task=task_name,
        target_edges=tuple(sizes),
        measured_edges=tuple(int(v) for v in measured),
        seconds=tuple(float(v) for v in y),
        slope=slope,
        intercept=intercept,
        r_squared=r2,
    )


def write_benchmark_csv(path, result: BenchmarkResult) -> None:
    lines = ["edges,seconds"]
    for e, s in zip(result.measured_edges, result.seconds):
        lines.append(f"{e},{s:.6f}")
    Path(path).write_text("\n".join(lines) + "\n")
