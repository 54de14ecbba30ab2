"""Shipping gate: one test per headline claim, one pass/fail line each.

Tolerances and runtime budgets are pinned here. The directional
cold-start replication (criterion 6) runs the full shipped pipeline on
configs/default.json, so this module takes a couple of minutes; every
other criterion is seconds.
"""

import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from _helpers import roc_auc_pairwise, tiny_config
from coldgraph.autodiff import bce_loss, finite_diff_check, scale
from coldgraph.cli import main
from coldgraph.evaluate import roc_auc, scaling_benchmark
from coldgraph.experiment import ExperimentConfig, run_repro
from coldgraph.graph import N_CLASSES, build_expanded_graph
from coldgraph.models import (
    CheckpointError,
    EdgeGnnConfig,
    EdgeGnnModel,
    TrainConfig,
    cast_params,
    edge_gnn_forward,
    init_edge_gnn_params,
    load_checkpoint,
    save_checkpoint,
    train_edge_gnn,
)
from coldgraph.simulate import (
    SCENARIOS,
    GeneratorConfig,
    apply_scenario,
    generate_synthetic_graph,
    make_scenario,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def small_graph(seed, n_sellers=40, n_products=60, **kw):
    base = dict(
        n_sellers=n_sellers, n_products=n_products, n_communities=4,
        n_categories=3, d_s=4, d_p=4, d_o=4, offers_per_seller=2.0,
        seed=seed,
    )
    base.update(kw)
    return generate_synthetic_graph(GeneratorConfig(**base))


def kink_free_toy_graph():
    """8 consolidated nodes; every offer has siblings on both sides.

    Dense sibling sets avoid all-zero summary blocks, whose relu inputs
    would sit exactly on the kink and break finite differences.
    """
    from coldgraph.graph import HeteroGraph

    rng = np.random.default_rng(42)
    labels = np.zeros((8, 9), dtype=np.uint8)
    labels[np.arange(8), rng.integers(0, 9, 8)] = 1
    ss = [np.zeros((0, 2), dtype=np.int64)] * 8
    ss[0] = np.array([[0, 1], [2, 3]])
    ss[3] = np.array([[1, 2]])
    return HeteroGraph.from_arrays(
        seller_features=rng.normal(0, 1, (4, 3)).astype(np.float32),
        product_features=rng.normal(0, 1, (4, 3)).astype(np.float32),
        offer_features=rng.normal(0, 1, (8, 3)).astype(np.float32),
        offer_seller=np.array([0, 0, 1, 1, 2, 2, 3, 3]),
        offer_product=np.array([0, 1, 0, 1, 2, 3, 2, 3]),
        ss_edges=ss, labels=labels,
    )


def offset_biases(params):
    # zero-initialised biases put dead relu rows exactly on the kink;
    # checking at a generic point keeps preactivations away from zero
    rng = np.random.default_rng([0, 99])
    for name, t in params.items():
        if name.endswith("_b"):
            mag = rng.uniform(0.1, 0.4, t.data.shape)
            sign = rng.choice([-1.0, 1.0], t.data.shape)
            t.data = t.data + (mag * sign).astype(t.data.dtype)
    return params


def test_criterion_1_full_model_gradients():
    t0 = time.perf_counter()
    g = kink_free_toy_graph()
    assert g.n_sellers + g.n_products <= 10
    cfg = EdgeGnnConfig(d_s=3, d_p=3, d_o=3, hidden=4, gnn_layers=3,
                        edge_hidden=4, cls_hidden=4)
    batch = np.arange(g.n_offers)

    def loss_fn(params, z):
        def f():
            probs = edge_gnn_forward(g, batch, params, cfg)
            return scale(bce_loss(probs, z), N_CLASSES)
        return f

    p32 = offset_biases(init_edge_gnn_params(cfg, seed=0))
    err32 = finite_diff_check(loss_fn(p32, g.labels.astype(np.float32)), p32, h=1e-3)
    p64 = cast_params(offset_biases(init_edge_gnn_params(cfg, seed=0)), np.float64)
    err64 = finite_diff_check(loss_fn(p64, g.labels.astype(np.float64)), p64, h=1e-5)
    elapsed = time.perf_counter() - t0
    assert err32 < 1e-3, f"f32 forward max rel err {err32:.2e}"
    assert err64 < 1e-5, f"f64 forward max rel err {err64:.2e}"
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"


def test_criterion_2_auc_equals_pairwise_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    for trial in range(1000):
        n = int(rng.integers(2, 201))
        if trial % 2:
            scores = rng.integers(0, 17, size=n) / 16.0  # heavy dyadic ties
        else:
            scores = rng.random(n)
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 0, 1  # both classes present
        assert roc_auc(scores, labels) == roc_auc_pairwise(scores, labels)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"1000 oracle comparisons took {elapsed:.1f}s"


def test_criterion_3_ego_networks_reproduce_whole_graph_scores():
    rng = np.random.default_rng(0)
    for i in range(50):
        g = small_graph(seed=1000 + i,
                        n_sellers=int(rng.integers(20, 90)),
                        n_products=int(rng.integers(30, 110)))
        assert g.n_edges <= 5000
        cfg = EdgeGnnConfig(d_s=g.d_s, d_p=g.d_p, d_o=g.d_o, hidden=8,
                            gnn_layers=3, edge_hidden=8, cls_hidden=8)
        groups = [init_edge_gnn_params(cfg, seed=i)]
        model = EdgeGnnModel(cfg=cfg, param_groups=groups)
        batch = rng.choice(g.n_offers, size=min(64, g.n_offers), replace=False)
        batch = np.sort(batch)
        via_ego = model.score(g, batch)
        whole = edge_gnn_forward(
            g, batch, cast_params(groups[0], np.float64), cfg
        ).data
        assert np.max(np.abs(via_ego - whole)) < 1e-6


def test_criterion_4_offer_edges_exactly_double_when_expanded():
    for seed in range(8):
        g = small_graph(seed=seed)
        eg = build_expanded_graph(g)
        csrs = eg.relation_csrs()
        # the two incidence relations, counted undirected from CSR storage
        incident = (csrs[8].nnz + csrs[9].nnz) // 2
        assert incident == 2 * g.n_offers
        for r in range(8):  # node-node relations are copied unchanged
            assert csrs[r].nnz // 2 == g.ss_edges(r).shape[0]


def test_criterion_5_masking_exact_nested_idempotent():
    g = small_graph(seed=21, n_sellers=120, n_products=160)
    specs = {name: make_scenario(g, name, seed=5) for name in SCENARIOS}
    cold = [s for s in SCENARIOS if s != "full"]
    evs = {name: set(int(i) for i in specs[name].eval_offers) for name in SCENARIOS}
    assert evs["new_offer"] <= evs["new_seller"] <= evs["new_seller_new_product"]

    for name in cold:
        spec = specs[name]
        masked, ev = apply_scenario(g, spec)
        of = masked.offer_features
        assert np.all(of[ev, 1:] == 0.0)
        assert np.array_equal(of[ev, 0], g.offer_features[ev, 0])
        keep = np.setdiff1d(np.arange(g.n_offers), ev)
        assert np.array_equal(of[keep], g.offer_features[keep])
        ns = np.asarray(spec.new_sellers, dtype=np.int64)
        assert np.all(masked.seller_features[ns] == 0.0)
        np_ = np.asarray(spec.new_products, dtype=np.int64)
        if len(np_):
            assert np.all(masked.product_features[np_, 1:] == 0.0)
            assert np.array_equal(
                masked.product_features[np_, 0], g.product_features[np_, 0]
            )
        assert np.array_equal(masked.labels, g.labels)
        assert masked.n_edges == g.n_edges
        again, ev2 = apply_scenario(masked, spec)
        assert np.array_equal(ev, ev2)
        for a, b in (
            (again.seller_features, masked.seller_features),
            (again.product_features, masked.product_features),
            (again.offer_features, masked.offer_features),
        ):
            assert a.tobytes() == b.tobytes()


def test_criterion_6_cold_start_gaps_on_shipped_config(tmp_path):
    t0 = time.perf_counter()
    config = ExperimentConfig.from_json_file(CONFIG_DIR / "default.json")
    config = dataclasses.replace(config, out_dir=str(tmp_path / "run"))
    manifest = run_repro(config)
    elapsed = time.perf_counter() - t0

    def gap(scenario):
        r = manifest["reports"]
        return r[(scenario, "edge_gnn")].geo_mean - r[(scenario, "tabular")].geo_mean

    g_full, g_ns, g_nsnp = gap("full"), gap("new_seller"), gap("new_seller_new_product")
    assert g_nsnp >= 0.05, f"new_seller_new_product gap {g_nsnp * 100:.1f} pcp"
    assert g_ns >= 0.02, f"new_seller gap {g_ns * 100:.1f} pcp"
    assert abs(g_full) <= 0.03, f"full-data gap {g_full * 100:.1f} pcp"
    assert elapsed < 600.0, f"pipeline took {elapsed:.0f}s"


def test_criterion_7_runtime_scales_linearly_in_edges():
    for task in ("train_epoch", "inference"):
        result = scaling_benchmark((10_000, 20_000, 40_000, 80_000), task, seed=7)
        assert result.r_squared >= 0.95, f"{task} R^2 = {result.r_squared:.4f}"
        assert result.slope > 0


def test_criterion_8_repeated_pipeline_runs_are_byte_identical(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config().to_dict()))
    for out in ("a", "b"):
        rc = main(["repro", "--config", str(cfg_path), "--out", str(tmp_path / out)])
        assert rc == 0
    names = sorted(
        p.name for p in (tmp_path / "a").iterdir()
        if p.name.startswith(("scores_", "report_", "summary_"))
    )
    assert any(n.startswith("scores_") for n in names)
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between runs"


def test_criterion_9_checkpoint_round_trip_and_corruption(tmp_path):
    g = small_graph(seed=31)
    cfg = EdgeGnnConfig(d_s=g.d_s, d_p=g.d_p, d_o=g.d_o, hidden=8,
                        gnn_layers=2, edge_hidden=8, cls_hidden=8)
    model = train_edge_gnn(g, cfg, TrainConfig(epochs=1, batch_size=32, seed=4))
    probe = np.arange(min(40, g.n_offers))
    before = model.score(g, probe)

    path = tmp_path / "model.ckpt"
    save_checkpoint(path, "edge_gnn", cfg.to_dict(), model.param_groups)
    kind, arch, groups = load_checkpoint(path)
    assert kind == "edge_gnn"
    after = EdgeGnnModel(cfg=EdgeGnnConfig(**arch), param_groups=groups).score(g, probe)
    assert before.tobytes() == after.tobytes()

    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    (tmp_path / "flip.ckpt").write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "flip.ckpt")
    (tmp_path / "trunc.ckpt").write_bytes(path.read_bytes()[:-7])
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "trunc.ckpt")
