from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from _helpers import (
    make_random_graph, mul, reference_train_mlp_heads, stack_rows, sum_all, traced_peak)
from coldgraph.autodiff import (
    Tape,
    Tensor,
    activation,
    affine,
    backward,
    bce_loss,
    finite_diff_check,
    parameter,
    record,
    scale,
)
from coldgraph.graph import N_CLASSES, HeteroGraph, Relation, build_expanded_graph
from coldgraph.models import (
    EdgeGnnConfig,
    EdgeGnnModel,
    ExpandedRgcnConfig,
    TrainConfig,
    TrainingDiverged,
    build_listing_table,
    cast_params,
    edge_embedder_forward,
    edge_gnn_forward,
    init_edge_gnn_params,
    init_expanded_rgcn_params,
    naive_fill_seller_features,
    node_embedder_forward,
    relational_encoder_forward,
    rgcn_layer,
    score_expanded_rgcn,
    score_mlp_heads,
    sibling_offer_summaries,
    sign_features,
    sign_listing_table,
    train_edge_gnn,
    train_expanded_rgcn,
    train_mlp_heads,
)
from coldgraph.experiment import ExperimentConfig
from coldgraph.models.baselines import _expanded_ego, _expanded_probs
from coldgraph.models.core import (
    SCORE_CHUNK_BYTES,
    input_projections,
    score_chunk_rows,
    score_part_rows,
)
from coldgraph.models import train as train_module
from coldgraph.models.train import _fit_heads, fit
from coldgraph.sampling import ego_network, extract_ego_network
from coldgraph.simulate import GeneratorConfig, generate_synthetic_graph

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def small_cfg(g, **kw):
    base = dict(
        d_s=g.d_s, d_p=g.d_p, d_o=g.d_o,
        hidden=8, gnn_layers=2, edge_hidden=6, cls_hidden=7,
    )
    base.update(kw)
    return EdgeGnnConfig(**base)


# ---------------------------------------------------------------------------
# relational convolution


def one_layer(mats):
    """The plan layer that computes every node of local matrices ``mats``."""
    stack = sp.vstack(mats, format="csr")
    return ego_network(stack, np.arange(mats[0].shape[0]), 1).plan[0]


def test_rgcn_layer_hand_example():
    # node order (v, u1, u2); one relation linking v to both u's
    adj = sp.csr_matrix(
        np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], dtype=np.float32)
    )
    h = Tensor(np.array([[2.0, 2.0], [1.0, 0.0], [0.0, 1.0]]), dtype=np.float64)
    eye = Tensor(np.eye(2), dtype=np.float64)
    zero_b = Tensor(np.zeros(2), dtype=np.float64)
    out = rgcn_layer(one_layer([adj]), h, [eye], eye, zero_b)
    np.testing.assert_allclose(out.data[0], [2.5, 2.5], rtol=1e-12)


def test_rgcn_layer_empty_relation_contributes_nothing():
    adj = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.float32))
    empty = sp.csr_matrix((2, 2), dtype=np.float32)
    h = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), dtype=np.float64)
    eye = Tensor(np.eye(2), dtype=np.float64)
    junk = Tensor(np.full((2, 2), 1e6), dtype=np.float64)
    zero_b = Tensor(np.zeros(2), dtype=np.float64)
    with_empty = rgcn_layer(one_layer([adj, empty]), h, [eye, junk], eye, zero_b)
    without = rgcn_layer(one_layer([adj]), h, [eye], eye, zero_b)
    np.testing.assert_array_equal(with_empty.data, without.data)


def test_each_relational_layer_is_one_tape_entry():
    adj = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.float32))
    w = [parameter(np.eye(2)) for _ in range(3)]
    with Tape() as tape:
        out = rgcn_layer(one_layer([adj, adj]), parameter(np.ones((2, 2))), w[:2], w[2],
                         parameter(np.zeros(2)))
    assert len(tape) == 1 and tape.produced(out)
    # a deeper edge classifier adds exactly one entry per layer to its tape
    g = make_random_graph(seed=13, n_sellers=14, n_products=5)
    lengths = []
    for layers in (1, 2, 3):
        cfg = small_cfg(g, gnn_layers=layers)
        with Tape() as tape:
            edge_gnn_forward(g, np.arange(6), init_edge_gnn_params(cfg, seed=0), cfg)
        lengths.append(len(tape))
    assert np.diff(lengths).tolist() == [1, 1]


def test_projection_identity_case():
    # with zero layers the encoder is the relu input projections, stacked in
    # type order; identity weights and non-negative input pass rows through
    x = np.array([[1.5, 2.0], [0.25, 3.0]], dtype=np.float32)
    y = np.array([[0.5, 0.0]], dtype=np.float32)
    params = {
        "proj_seller_w": Tensor(np.eye(2)),
        "proj_seller_b": Tensor(np.zeros(2)),
        "proj_product_w": Tensor(np.eye(2)),
        "proj_product_b": Tensor(np.zeros(2)),
    }
    h = relational_encoder_forward({"seller": x, "product": y}, (), params)
    np.testing.assert_array_equal(h.data, np.concatenate([x, y]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_input_projections_equal_the_per_type_chain(dtype):
    """The fused projection op gives the bits of ``affine``, relu and a row
    stack per type, forward and backward, and is one tape entry."""
    rng = np.random.default_rng(3)
    inputs = {"seller": rng.normal(size=(7, 5)).astype(np.float32),
              "product": rng.normal(size=(0, 4)).astype(np.float32),
              "offer": rng.normal(size=(9, 3)).astype(np.float32)}
    params = {}
    for name, x in inputs.items():
        params[f"proj_{name}_w"] = parameter(rng.normal(size=(x.shape[1], 6)), dtype=dtype)
        params[f"proj_{name}_b"] = parameter(rng.normal(size=6), dtype=dtype)
    z = rng.normal(size=(16, 6)).astype(dtype)

    def grads(project):
        with Tape() as tape:
            h = project()
            loss = sum_all(mul(h, Tensor(z)))
        n = len(tape)
        return h.data, n, backward(tape, loss)

    got, n_got, g_got = grads(lambda: input_projections(inputs, params))
    want, n_want, g_want = grads(lambda: stack_rows([
        activation(affine(Tensor(x.astype(dtype)), params[f"proj_{name}_w"],
                          params[f"proj_{name}_b"]), "relu")
        for name, x in inputs.items()]))
    assert got.dtype == np.dtype(dtype) and got.tobytes() == want.tobytes()
    assert (n_got, n_want) == (3, 9)  # plus the loss's two ops
    for name, p in params.items():
        assert g_got[p].tobytes() == g_want[p].tobytes(), name


def reference_draws(rng, spec):
    """Re-draw a parameter dict from its documented order.

    ``spec`` lists ``(name, rows, cols)`` for glorot-uniform weights and
    ``(name, width)`` for zero biases, which take no draw.
    """
    out = {}
    for name, *shape in spec:
        if len(shape) == 1:
            out[name] = np.zeros(shape[0], dtype=np.float32)
        else:
            rows, cols = shape
            limit = np.sqrt(6.0 / (rows + cols))
            out[name] = rng.uniform(-limit, limit, size=(rows, cols)).astype(np.float32)
    return out


def encoder_spec(in_dims, h, layers, n_relations):
    spec = []
    for name, width in in_dims:
        spec += [(f"proj_{name}_w", width, h), (f"proj_{name}_b", h)]
    for layer in range(layers):
        spec += [(f"gnn{layer}_rel{r}_w", h, h) for r in range(n_relations)]
        spec += [(f"gnn{layer}_self_w", h, h), (f"gnn{layer}_self_b", h)]
    return spec


def assert_same_params(params, expected):
    assert list(params) == list(expected)
    for name, want in expected.items():
        got = params[name].data
        assert got.dtype == np.float32 and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        assert params[name].requires_grad


@pytest.mark.parametrize("head_class", [None, 4])
def test_edge_gnn_init_matches_documented_draw_order(head_class):
    cfg = EdgeGnnConfig(d_s=5, d_p=4, d_o=3, hidden=6, gnn_layers=2, edge_hidden=7,
                        cls_hidden=8, mode="multi_task" if head_class is None else "nine_binary")
    h = cfg.hidden
    spec = encoder_spec([("seller", cfg.d_s), ("product", cfg.d_p)], h, cfg.gnn_layers, 9)
    spec += [
        ("edge0_w", 3 * cfg.d_o, cfg.edge_hidden), ("edge0_b", cfg.edge_hidden),
        ("edge1_w", cfg.edge_hidden, cfg.edge_hidden), ("edge1_b", cfg.edge_hidden),
        ("cls0_w", 2 * h + cfg.edge_hidden, cfg.cls_hidden), ("cls0_b", cfg.cls_hidden),
        ("cls1_w", cfg.cls_hidden, 9), ("cls1_b", 9),
    ]
    expected = reference_draws(np.random.default_rng(11), spec)
    if head_class is not None:
        for name in ("cls1_w", "cls1_b"):
            expected[name] = expected[name][..., head_class:head_class + 1].copy()
    assert_same_params(init_edge_gnn_params(cfg, seed=11, head_class=head_class), expected)


def test_expanded_rgcn_init_matches_documented_draw_order():
    cfg = ExpandedRgcnConfig(d_s=5, d_p=4, d_o=3, hidden=6, layers=3)
    spec = encoder_spec(
        [("seller", cfg.d_s), ("product", cfg.d_p), ("offer", cfg.d_o)], cfg.hidden, cfg.layers, 10
    )
    spec += [("head_w", cfg.hidden, 9), ("head_b", 9)]
    expected = reference_draws(np.random.default_rng(5), spec)
    assert_same_params(init_expanded_rgcn_params(cfg, seed=5), expected)


# ---------------------------------------------------------------------------
# sibling summaries


def test_sibling_summaries_match_enumeration():
    g = make_random_graph(seed=13, n_sellers=14, n_products=5)
    feats = g.offer_features.astype(np.float64)
    all_ids = np.arange(g.n_offers)
    o_s, o_p = sibling_offer_summaries(g, all_ids)
    sellers, products = g.offer_seller, g.offer_product
    for k in range(g.n_offers):
        same_s = [j for j in range(g.n_offers) if sellers[j] == sellers[k] and j != k]
        same_p = [j for j in range(g.n_offers) if products[j] == products[k] and j != k]
        want_s = feats[same_s].mean(axis=0) if same_s else np.zeros(g.d_o)
        want_p = feats[same_p].mean(axis=0) if same_p else np.zeros(g.d_o)
        np.testing.assert_allclose(o_s[k], want_s, atol=1e-6)
        np.testing.assert_allclose(o_p[k], want_p, atol=1e-6)


def test_summarize_single_matches_batch():
    g = make_random_graph(seed=14)
    o_s_all, o_p_all = sibling_offer_summaries(g, np.arange(g.n_offers))
    for k in (0, 3, g.n_offers - 1):
        o_s, o_p = sibling_offer_summaries(g, np.array([k]))
        np.testing.assert_array_equal(o_s[0], o_s_all[k])
        np.testing.assert_array_equal(o_p[0], o_p_all[k])


def lone_offer_graph():
    """Offer 0 has no sibling on either side; offers 1 and 2 share everything."""
    labels = np.zeros((3, 9), dtype=np.uint8)
    labels[:, 8] = 1
    return HeteroGraph.from_arrays(
        [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], [0, 1, 2], [0, 1, 1],
        [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [3.0, 3.0, 3.0]], [[]] * len(Relation.seller_seller()),
        labels=labels,
    )


def test_no_sibling_offer_gets_zero_summaries():
    g = lone_offer_graph()
    o_s, o_p = sibling_offer_summaries(g, np.array([0, 1]))
    np.testing.assert_array_equal(o_s[0], np.zeros(3))
    np.testing.assert_array_equal(o_p[0], np.zeros(3))
    # offers 1 and 2 share product 1
    np.testing.assert_allclose(o_p[1], [3.0, 3.0, 3.0])


def test_edge_embedder_concat_order_and_bypass():
    d_o = 3
    params = {
        "edge0_w": Tensor(np.eye(3 * d_o)),
        "edge0_b": Tensor(np.zeros(3 * d_o)),
        "edge1_w": Tensor(np.eye(3 * d_o)),
        "edge1_b": Tensor(np.zeros(3 * d_o)),
    }
    o_o = np.full((1, d_o), 1.0)
    o_s = np.full((1, d_o), 3.0)
    o_p = np.full((1, d_o), 2.0)
    out = edge_embedder_forward(o_o, o_s, o_p, params)
    # own features first, then the product-side mean, then the seller-side mean
    np.testing.assert_array_equal(out.data[0], [1, 1, 1, 2, 2, 2, 3, 3, 3])


def test_lone_offer_embedding_ignores_other_offers():
    g = lone_offer_graph()
    cfg = small_cfg(g)
    params = init_edge_gnn_params(cfg, seed=3)
    feats2 = g.offer_features.copy()
    feats2[1:] += 50.0
    g2 = g.copy_with_features(g.seller_features, g.product_features, feats2)
    o_s1, o_p1 = sibling_offer_summaries(g, np.array([0]))
    o_s2, o_p2 = sibling_offer_summaries(g2, np.array([0]))
    np.testing.assert_array_equal(o_s1, o_s2)
    np.testing.assert_array_equal(o_p1, o_p2)
    e1 = edge_embedder_forward(g.offer_features[:1], o_s1, o_p1, params)
    e2 = edge_embedder_forward(g2.offer_features[:1], o_s2, o_p2, params)
    np.testing.assert_array_equal(e1.data, e2.data)


# ---------------------------------------------------------------------------
# initialization and the two head modes


def test_binary_heads_slice_the_multitask_draw():
    g = make_random_graph(seed=20)
    cfg_multi = small_cfg(g, mode="multi_task")
    cfg_bin = small_cfg(g, mode="nine_binary")
    pm = init_edge_gnn_params(cfg_multi, seed=11)
    for k in range(9):
        pk = init_edge_gnn_params(cfg_bin, seed=11, head_class=k)
        for name in pm:
            if name.startswith("cls1"):
                continue
            np.testing.assert_array_equal(pk[name].data, pm[name].data)
        np.testing.assert_array_equal(pk["cls1_w"].data, pm["cls1_w"].data[:, k:k + 1])


def test_head_class_argument_validation():
    g = make_random_graph(seed=20)
    with pytest.raises(ValueError):
        init_edge_gnn_params(small_cfg(g, mode="multi_task"), seed=0, head_class=2)
    with pytest.raises(ValueError):
        init_edge_gnn_params(small_cfg(g, mode="nine_binary"), seed=0)


def test_modes_equal_per_class_loss_at_init():
    g = make_random_graph(seed=21, n_sellers=18, n_products=9)
    cfg_multi = small_cfg(g, mode="multi_task")
    cfg_bin = small_cfg(g, mode="nine_binary")
    batch = np.arange(min(16, g.n_offers))
    z = g.labels.astype(np.float64)[batch]
    pm = cast_params(init_edge_gnn_params(cfg_multi, seed=4), np.float64)
    probs = edge_gnn_forward(g, batch, pm, cfg_multi).data
    for k in range(9):
        pk = cast_params(
            init_edge_gnn_params(cfg_bin, seed=4, head_class=k), np.float64
        )
        probs_k = edge_gnn_forward(g, batch, pk, cfg_bin).data
        lm = bce_loss(Tensor(probs[:, k:k + 1]), z[:, k:k + 1]).item()
        lb = bce_loss(Tensor(probs_k), z[:, k:k + 1]).item()
        assert abs(lm - lb) < 1e-9


def test_multitask_loss_is_sum_of_per_class_means():
    rng = np.random.default_rng(0)
    probs = Tensor(rng.random((12, 9)), dtype=np.float64)
    z = (rng.random((12, 9)) < 0.4).astype(np.float64)
    total = scale(bce_loss(probs, z), 9).item()
    per_class = sum(
        bce_loss(Tensor(probs.data[:, k:k + 1]), z[:, k:k + 1]).item() for k in range(9)
    )
    np.testing.assert_allclose(total, per_class, rtol=1e-12)


# ---------------------------------------------------------------------------
# full model forward


def test_forward_shapes_and_range():
    g = make_random_graph(seed=22)
    cfg = small_cfg(g)
    params = init_edge_gnn_params(cfg, seed=0)
    probs = edge_gnn_forward(g, np.arange(8), params, cfg)
    assert probs.shape == (8, 9)
    assert (probs.data > 0).all() and (probs.data < 1).all()


def test_forward_rejects_shallow_ego():
    g = make_random_graph(seed=23)
    cfg = small_cfg(g, gnn_layers=3)
    params = init_edge_gnn_params(cfg, seed=0)
    batch = np.arange(4)
    for hops in (2, 4):  # an ego is exactly as deep as the model
        ego = extract_ego_network(g, batch, hops=hops)
        with pytest.raises(ValueError, match=f"depth {hops} does not fit 3 layers"):
            node_embedder_forward(g, ego, params, cfg)


def test_ego_scores_match_whole_graph_scores():
    g = make_random_graph(seed=24, n_sellers=20, n_products=10)
    cfg = small_cfg(g)
    model = train_edge_gnn(g, cfg, TrainConfig(epochs=1, batch_size=8, seed=1))
    batch = np.array([1, 5, 9])
    via_batch = model.score(g, batch)
    via_all = model.score(g, np.arange(g.n_offers))[batch]
    np.testing.assert_allclose(via_batch, via_all, atol=1e-9)


def test_score_casts_parameters_once_per_dtype(monkeypatch):
    g = make_random_graph(seed=26, n_sellers=12, n_products=6)
    cfg = small_cfg(g)
    model = EdgeGnnModel(cfg=cfg, param_groups=[init_edge_gnn_params(cfg, 0)])
    casts = []

    def counting(params, dtype):
        casts.append(np.dtype(dtype))
        return cast_params(params, dtype)

    monkeypatch.setattr("coldgraph.models.train.cast_params", counting)
    offers = np.arange(g.n_offers)
    first = model.score(g, offers)
    assert model.score(g, offers).tobytes() == first.tobytes()
    model.score(g, offers, dtype=np.float32)
    model.score(g, offers, dtype=np.float32)
    assert casts == [np.dtype(np.float64), np.dtype(np.float32)]
    # a fresh model that casts on its first call scores the same bytes
    fresh = EdgeGnnModel(cfg=cfg, param_groups=model.param_groups).score(g, offers)
    assert fresh.tobytes() == first.tobytes()


@pytest.mark.parametrize("dtype", [np.int32, np.bool_, np.float16, np.complex128])
def test_score_rejects_dtypes_other_than_float32_and_float64(dtype):
    """Integer and bool weights would round the scores, and float16 would
    score in float32 unseen; the call fails before casting anything, for
    an empty batch too."""
    g = make_random_graph(seed=26, n_sellers=12, n_products=6)
    cfg = small_cfg(g)
    model = EdgeGnnModel(cfg=cfg, param_groups=[init_edge_gnn_params(cfg, 0)])
    want = f"scoring dtype must be float32 or float64, got {np.dtype(dtype).name}$"
    for offers in (np.arange(g.n_offers), np.zeros(0, dtype=np.int64)):
        with pytest.raises(ValueError, match=want):
            model.score(g, offers, dtype=dtype)
    assert model._cast == {}


def edge_gnn_model(cfg, seed):
    heads = [None] if cfg.mode == "multi_task" else range(N_CLASSES)
    return EdgeGnnModel(cfg=cfg, param_groups=[
        init_edge_gnn_params(cfg, seed, head_class=k) for k in heads
    ])


@pytest.mark.parametrize("mode", ["multi_task", "nine_binary"])
def test_chunked_scores_equal_unchunked_forward(mode):
    """Just under, at and past one chunk, and past two: repeated offer ids
    reach the chunk row count on a small graph."""
    g = make_random_graph(seed=28, n_sellers=16, n_products=8)
    cfg = small_cfg(g, hidden=64, edge_hidden=64, cls_hidden=64, mode=mode)
    model = edge_gnn_model(cfg, seed=4)
    c = score_chunk_rows(cfg)
    assert c % 16 == 0 and c * 8 * (2 * cfg.hidden + cfg.edge_hidden) <= SCORE_CHUNK_BYTES
    rng = np.random.default_rng(0)
    for dtype, atol in ((np.float64, 1e-15), (np.float32, 1e-7)):
        groups = [cast_params(p, dtype) for p in model.param_groups]
        for n in (c - 1, c, c + 1, 2 * c + 1):
            offers = rng.integers(0, g.n_offers, size=n)
            got = model.score(g, offers, dtype=dtype)
            want = np.concatenate([edge_gnn_forward(g, offers, p, cfg).data for p in groups],
                                  axis=1)
            assert got.dtype == want.dtype and got.shape == want.shape
            if mode == "multi_task":
                assert got.tobytes() == want.tobytes(), (np.dtype(dtype).name, n)
            else:  # the one-column head's BLAS call rounds by row count
                np.testing.assert_allclose(got, want, rtol=0, atol=atol)


def test_scoring_memory_is_flat_in_offers_scored():
    """Three times the offers over the same ego network: the peak grows by
    less than one chunk's worth of offer-side activations."""
    g = generate_synthetic_graph(GeneratorConfig(
        n_sellers=800, n_products=1200, n_communities=5, n_categories=4, seed=3))
    cfg = EdgeGnnConfig(d_s=g.d_s, d_p=g.d_p, d_o=g.d_o, gnn_layers=2)
    model = edge_gnn_model(cfg, seed=0)
    once = np.arange(g.n_offers)
    assert g.n_offers > score_chunk_rows(cfg)
    model.score(g, once)  # casts the parameters and builds the graph's caches
    peaks = [traced_peak(lambda: model.score(g, offers)) for offers in (once, np.tile(once, 3))]
    assert peaks[1] - peaks[0] < SCORE_CHUNK_BYTES, peaks


def test_default_training_step_memory():
    """One default-config ``edge_gnn`` step (forward, backward and Adam on a
    1024-offer batch drawn with seed 7) allocates at most 28 MiB above the
    graph: the tape holds each activation once and drops it once its
    gradient is taken.  The graph's caches are built before tracing."""
    config = ExperimentConfig.from_json_file(CONFIGS / "default.json")
    g = generate_synthetic_graph(config.generator)
    cfg = config.model.edge_gnn_config(g.d_s, g.d_p, g.d_o)
    tc = config.model.train_config(seed=0, epochs=1)
    assert (cfg.hidden, cfg.gnn_layers, tc.batch_size) == (64, 3, 1024)
    params = init_edge_gnn_params(cfg, seed=0)
    batch = np.sort(np.random.default_rng(7).permutation(g.n_offers)[:tc.batch_size])
    targets = g.labels.astype(np.float32)[batch]
    edge_gnn_forward(g, batch, params, cfg)  # builds the graph's caches

    def loss_fn(offers):
        return scale(bce_loss(edge_gnn_forward(g, offers, params, cfg), targets), N_CLASSES)

    peak = traced_peak(lambda: fit(params, lambda: [batch], loss_fn, tc))
    assert peak <= 28 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_small_sign_heads_epoch_memory():
    """One small-config ``sign`` epoch of ``train_mlp_heads`` (all nine
    heads) allocates at most 7 MiB above its table (6.0 MiB measured): a
    group stacks as many heads as ``HEAD_GROUP_BYTES`` holds 512-row
    batches of the 234-column table, six, and every step reuses one batch
    buffer.  One head at a time took 1.7 MiB; all nine in one group 9.9."""
    config = ExperimentConfig.from_json_file(CONFIGS / "small.json")
    g = generate_synthetic_graph(config.generator)
    mc = config.model
    table = sign_listing_table(g, mc.sign_hops)
    tc = mc.train_config(seed=0, epochs=1)
    assert table.shape[1] == 234 and tc.batch_size == 512 and mc.mlp_hidden == 64
    assert train_module.HEAD_GROUP_BYTES // (512 * 234 * table.itemsize) == 6
    peak = traced_peak(lambda: train_mlp_heads(table, g.labels, tc, hidden=mc.mlp_hidden))
    assert peak <= 7 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_default_bulk_score_memory():
    """One float64 score of every offer of the default graph allocates at
    most 24 MiB above the graph: the plan's parts hold at most 2048 rows,
    so the encoder's temporaries stay a few MiB however large the ego, and
    the ego goes before the offer side runs.  Unbounded parts, as in
    training, took 29.4 MiB.  A one-offer score casts the parameters and
    builds the graph's caches before tracing."""
    config = ExperimentConfig.from_json_file(CONFIGS / "default.json")
    g = generate_synthetic_graph(config.generator)
    cfg = config.model.edge_gnn_config(g.d_s, g.d_p, g.d_o)
    assert cfg.hidden == 64 and score_part_rows(cfg.hidden, np.float64) == 2048
    model = edge_gnn_model(cfg, seed=0)
    offers = np.arange(g.n_offers)
    model.score(g, offers[:1])
    peak = traced_peak(lambda: model.score(g, offers))
    assert peak <= 24 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_scores_invariant_under_node_relabeling():
    g = make_random_graph(seed=25, n_sellers=15, n_products=8)
    rng = np.random.default_rng(0)
    perm_s = rng.permutation(g.n_sellers)
    perm_p = rng.permutation(g.n_products)
    inv_s = np.argsort(perm_s)
    inv_p = np.argsort(perm_p)
    # rebuild with relabeled nodes; offer k keeps its feature row and label
    g2 = HeteroGraph.from_arrays(
        g.seller_features[perm_s],
        g.product_features[perm_p],
        inv_s[g.offer_seller],
        inv_p[g.offer_product],
        g.offer_features,
        [
            np.stack([inv_s[e[:, 0]], inv_s[e[:, 1]]], axis=1) if len(e) else e
            for e in (g.ss_edges(r) for r in Relation.seller_seller())
        ],
        labels=g.labels,
    )
    cfg = small_cfg(g)
    params = cast_params(init_edge_gnn_params(cfg, seed=6), np.float64)
    batch = np.arange(min(10, g.n_offers))
    s1 = edge_gnn_forward(g, batch, params, cfg).data
    s2 = edge_gnn_forward(g2, batch, params, cfg).data
    np.testing.assert_allclose(s1, s2, atol=1e-9)


def test_full_model_finite_diff_f64():
    g = make_random_graph(seed=26, n_sellers=6, n_products=4, d_s=2, d_p=2, d_o=2)
    cfg = small_cfg(g, hidden=3, gnn_layers=2, edge_hidden=3, cls_hidden=3)
    params = cast_params(init_edge_gnn_params(cfg, seed=2), np.float64)
    batch = np.arange(min(4, g.n_offers))
    z = g.labels.astype(np.float64)[batch]

    def f():
        probs = edge_gnn_forward(g, batch, params, cfg)
        return scale(bce_loss(probs, z), N_CLASSES)

    assert finite_diff_check(f, params, h=1e-5) < 1e-5


# ---------------------------------------------------------------------------
# training


def test_training_reduces_loss_and_is_deterministic():
    g = make_random_graph(seed=27, n_sellers=24, n_products=10)
    cfg = small_cfg(g)
    tc = TrainConfig(epochs=4, batch_size=16, seed=3)
    m1 = train_edge_gnn(g, cfg, tc)
    m2 = train_edge_gnn(g, cfg, tc)
    assert m1.history[0][-1] < m1.history[0][0]
    for pa, pb in zip(m1.param_groups, m2.param_groups):
        for name in pa:
            assert pa[name].data.tobytes() == pb[name].data.tobytes()


def test_nine_binary_training_shapes():
    g = make_random_graph(seed=28, n_sellers=10, n_products=6)
    cfg = small_cfg(g, mode="nine_binary")
    model = train_edge_gnn(g, cfg, TrainConfig(epochs=1, batch_size=32, seed=0))
    assert len(model.param_groups) == 9
    scores = model.score(g, np.arange(4))
    assert scores.shape == (4, 9)


def test_train_requires_labels():
    g = make_random_graph(seed=29, labeled=False)
    cfg = small_cfg(g)
    with pytest.raises(ValueError, match="labeled"):
        train_edge_gnn(g, cfg, TrainConfig(epochs=1))


def test_mlp_heads_learn_and_score():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(300, 4)).astype(np.float32)
    y = np.zeros((300, 2), dtype=np.uint8)
    y[:, 0] = (x[:, 0] + x[:, 1] > 0).astype(np.uint8)
    y[:, 1] = 1 - y[:, 0]
    heads, hist = train_mlp_heads(
        x, y, TrainConfig(epochs=30, batch_size=64, lr=5e-3, seed=0), hidden=8
    )
    assert len(heads) == 2
    assert hist[0][-1] < hist[0][0]
    scores = score_mlp_heads(heads, x)
    acc = ((scores[:, 0] > 0.5) == (y[:, 0] == 1)).mean()
    assert acc > 0.9


def assert_same_heads(got, want):
    """Two ``train_mlp_heads`` results agree bit for bit: every parameter
    array in dtype, shape and bytes, and every loss history."""
    (heads, history), (ref_heads, ref_history) = got, want
    assert len(heads) == len(ref_heads) and history == ref_history
    for k, (p, q) in enumerate(zip(heads, ref_heads)):
        assert p.keys() == q.keys()
        for name in p:
            a, b = p[name], q[name]
            assert a.requires_grad and a.data.flags.c_contiguous
            assert (a.dtype, a.shape) == (b.dtype, b.shape), (k, name)
            assert a.data.tobytes() == b.data.tobytes(), (k, name)


def mlp_problem(rows, cols, classes, seed=0, dtype=np.float32, scale=1.0):
    rng = np.random.default_rng(seed)
    x = (scale * rng.normal(size=(rows, cols))).astype(dtype)
    y = (rng.random((rows, classes)) < 0.3).astype(np.uint8)
    return x, y


@pytest.mark.parametrize("rows, cols, classes, batch_size, group, scale", [
    (300, 7, 9, 64, 9, 1),    # short last batch (300 = 4 * 64 + 44), one group
    (300, 7, 9, 64, 4, 1),    # nine heads in groups of 4, 4 and 1
    (300, 7, 9, 64, 2, 1),    # groups of 2 and a lone last head
    (300, 7, 9, 64, 1, 1),    # one head per step
    (50, 5, 9, 64, 3, 1),     # batch_size > rows: one batch per epoch
    (50, 5, 9, 50, 3, 1),     # batch_size == rows
    (120, 6, 1, 32, 4, 1),    # K = 1
    (97, 3, 5, 16, 3, 1),     # K = 5 in groups of 3 and 2
    (200, 6, 4, 64, 4, 30),   # large features: about 40% of predictions clamped
])
def test_train_mlp_heads_matches_one_head_at_a_time(monkeypatch, rows, cols, classes,
                                                    batch_size, group, scale):
    """Stacked heads train bit for bit as the per-head loop does, whatever
    the group size; ``HEAD_GROUP_BYTES`` is set to hold ``group`` batches."""
    x, y = mlp_problem(rows, cols, classes, seed=rows + classes, scale=scale)
    monkeypatch.setattr(train_module, "HEAD_GROUP_BYTES",
                        group * min(batch_size, rows) * cols * x.itemsize)
    tc = TrainConfig(epochs=3, batch_size=batch_size, lr=1e-2, seed=11)
    assert_same_heads(train_mlp_heads(x, y, tc, hidden=8),
                      reference_train_mlp_heads(x, y, tc, hidden=8))


@pytest.mark.parametrize("group", [1, 3])
def test_train_mlp_heads_keeps_a_float64_table_in_float64(monkeypatch, group):
    """A float64 table trains in float64, as a Tensor of it does: rows that
    float32 cannot hold would change every parameter if the batch buffer
    cast them."""
    x, y = mlp_problem(90, 4, 5, seed=3, dtype=np.float64)
    assert not np.array_equal(x, x.astype(np.float32))
    monkeypatch.setattr(train_module, "HEAD_GROUP_BYTES", group * 32 * 4 * 8)
    tc = TrainConfig(epochs=2, batch_size=32, lr=1e-2, seed=1)
    got = train_mlp_heads(x, y, tc, hidden=6)
    assert_same_heads(got, reference_train_mlp_heads(x, y, tc, hidden=6))
    cast = reference_train_mlp_heads(x.astype(np.float32), y, tc, hidden=6)
    assert got[1] != cast[1]


def test_train_mlp_heads_with_no_label_column_returns_nothing():
    x, _ = mlp_problem(40, 3, 1)
    assert train_mlp_heads(x, np.zeros((40, 0)), TrainConfig(epochs=2)) == ([], [])


def test_train_mlp_heads_with_no_epoch_returns_the_initial_heads():
    x, y = mlp_problem(40, 3, 4)
    tc = TrainConfig(epochs=0, batch_size=16, seed=5)
    got = train_mlp_heads(x, y, tc, hidden=5)
    assert got[1] == [[], [], [], []]
    assert_same_heads(got, reference_train_mlp_heads(x, y, tc, hidden=5))


@pytest.mark.parametrize("table", [np.zeros((0, 3), np.float32),
                                   np.arange(36).reshape(12, 3)])
def test_train_mlp_heads_on_an_empty_or_integer_table(table):
    """No row: every epoch reads 0.0.  Integer rows train in float32, as
    a Tensor of them does."""
    y = (np.arange(table.shape[0] * 3).reshape(-1, 3) % 4 == 0).astype(np.uint8)
    tc = TrainConfig(epochs=2, batch_size=5)
    assert_same_heads(train_mlp_heads(table, y, tc, hidden=4),
                      reference_train_mlp_heads(table, y, tc, hidden=4))


def test_fit_names_the_first_non_finite_head():
    """A vector loss trains its heads side by side; the first non-finite
    element names its head, offset by ``_fit_heads`` to the heads' place
    among all heads."""
    w = parameter(np.ones(3))

    def loss_fn(batch):
        value = np.array([0.5, np.inf, np.nan]) if batch == 1 else np.full(3, 0.25)
        return record(Tensor(value), (w,), lambda g, needs: (g * value,))

    tc = TrainConfig(epochs=2)
    for first, head in ((None, 1), (4, 5)):
        with pytest.raises(TrainingDiverged) as info:
            _fit_heads(first, {"w": w}, lambda: [0, 1], loss_fn, tc)
        assert str(info.value) == f"non-finite loss inf at epoch 0, batch 1, head {head}"
        assert info.value.head == head
    assert fit({"w": w}, lambda: [0, 0], loss_fn, tc) == [[0.25] * 3, [0.25] * 3]


@pytest.mark.parametrize("field, value", [
    ("lr", float("nan")), ("lr", float("inf")), ("lr", -1.0), ("lr", 0.0),
])
def test_train_config_rejects_bad_lr_and_weight_decay(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be finite"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("trainer", ["edge_gnn", "edge_gnn_nine_binary", "mlp_heads", "expanded_rgcn"])
def test_nan_feature_row_raises_training_diverged(trainer):
    # a graph refuses NaN features, so the row holds the largest finite
    # float32: the forward pass overflows to inf and the loss comes out NaN
    g = make_random_graph(seed=35, n_sellers=12, n_products=6)
    offers = g.offer_features.copy()
    offers[3] = np.finfo(np.float32).max
    g = g.copy_with_features(g.seller_features, g.product_features, offers)
    tc = TrainConfig(epochs=2, batch_size=g.n_offers, seed=0)
    per_head = trainer in ("edge_gnn_nine_binary", "mlp_heads")
    with pytest.raises(TrainingDiverged) as info, np.errstate(over="ignore", invalid="ignore"):
        if trainer == "mlp_heads":
            train_mlp_heads(build_listing_table(g), g.labels, tc, hidden=8)
        elif trainer == "expanded_rgcn":
            eg = build_expanded_graph(g)
            cfg = ExpandedRgcnConfig(d_s=g.d_s, d_p=g.d_p, d_o=g.d_o, hidden=8, layers=2)
            train_expanded_rgcn(eg, cfg, tc)
        else:
            mode = "nine_binary" if per_head else "multi_task"
            train_edge_gnn(g, small_cfg(g, mode=mode), tc)
    want = "non-finite loss nan at epoch 0, batch 0" + (", head 0" if per_head else "")
    assert str(info.value) == want


# ---------------------------------------------------------------------------
# naive fill


def test_naive_fill_union_of_distinct_neighbors():
    # seller 0 linked to 1 under two relations (counted once) and to 2 under one
    ss = [[]] * len(Relation.seller_seller())
    ss[Relation.SS0], ss[Relation.SS1], ss[Relation.SS2] = [[0, 1]], [[0, 1]], [[0, 2]]
    g = HeteroGraph.from_arrays(
        [[0.0, 0.0], [2.0, 0.0], [0.0, 4.0], [6.0, 6.0]], [[0.0]], [0], [0], [[1.0]], ss)
    filled = naive_fill_seller_features(g, np.array([0, 3]))
    np.testing.assert_allclose(filled[0], [1.0, 2.0])  # mean of rows 1 and 2
    np.testing.assert_allclose(filled[3], [6.0, 6.0])  # isolated: unchanged
    np.testing.assert_allclose(filled[1], [2.0, 0.0])  # not cold: untouched
    # original graph unmodified
    np.testing.assert_allclose(g.seller_features[0], [0.0, 0.0])


def test_listing_table_layout():
    g = make_random_graph(seed=30)
    table = build_listing_table(g)
    assert table.shape == (g.n_offers, g.d_s + g.d_p + g.d_o)
    k = 2
    row = np.concatenate(
        [
            g.seller_features[g.offer_seller[k]],
            g.product_features[g.offer_product[k]],
            g.offer_features[k],
        ]
    )
    np.testing.assert_array_equal(table[k], row)


# ---------------------------------------------------------------------------
# diffusion features


def test_sign_zero_hops_is_padded_features():
    g = make_random_graph(seed=31)
    aug = sign_features(g, hops=0)
    assert aug.shape == (g.n_nodes, g.d_s + g.d_p)
    np.testing.assert_array_equal(aug[: g.n_sellers, : g.d_s], g.seller_features)
    np.testing.assert_array_equal(aug[g.n_sellers:, g.d_s:], g.product_features)
    assert aug[: g.n_sellers, g.d_s:].sum() == 0.0


def test_sign_single_edge_copies_neighbor():
    ss = [[]] * len(Relation.seller_seller())
    ss[Relation.SS4] = [[0, 1]]
    g = HeteroGraph.from_arrays(
        [[1.0, 2.0], [5.0, 7.0]], [[9.0, 9.0]], [], [], np.zeros((0, 1)), ss)
    aug = sign_features(g, hops=1)
    d = g.d_s + g.d_p
    np.testing.assert_allclose(aug[0, d:d + 2], [5.0, 7.0])
    np.testing.assert_allclose(aug[1, d:d + 2], [1.0, 2.0])
    # the isolated product diffuses nothing
    np.testing.assert_allclose(aug[2, d:], 0.0)


def test_sign_table_width():
    g = make_random_graph(seed=32)
    table = sign_listing_table(g, hops=3)
    assert table.shape == (g.n_offers, 2 * 4 * (g.d_s + g.d_p) + g.d_o)


# ---------------------------------------------------------------------------
# expanded RGCN


def test_expanded_rgcn_forward_and_training():
    g = make_random_graph(seed=33, n_sellers=12, n_products=6)
    eg = build_expanded_graph(g)
    cfg = ExpandedRgcnConfig(d_s=g.d_s, d_p=g.d_p, d_o=g.d_o, hidden=8, layers=3)
    params, losses = train_expanded_rgcn(eg, cfg, TrainConfig(epochs=8, lr=5e-3, seed=0))
    assert losses[-1] < losses[0]
    scores = score_expanded_rgcn(eg, params, cfg, np.arange(g.n_offers))
    assert scores.shape == (g.n_offers, 9)
    assert (scores > 0).all() and (scores < 1).all()


def test_expanded_rgcn_finite_diff():
    g = make_random_graph(seed=34, n_sellers=5, n_products=3, d_s=2, d_p=2, d_o=2)
    eg = build_expanded_graph(g)
    cfg = ExpandedRgcnConfig(d_s=2, d_p=2, d_o=2, hidden=3, layers=2)
    params = cast_params(init_expanded_rgcn_params(cfg, seed=1), np.float64)
    z = g.labels.astype(np.float64)
    ego = _expanded_ego(eg, np.arange(g.n_offers), cfg.layers)

    def f():
        return scale(bce_loss(_expanded_probs(eg, ego, params), z), 9)

    assert finite_diff_check(f, params, h=1e-5) < 1e-5
