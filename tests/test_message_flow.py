"""Property tests for the message-flow-pruned, relation-blocked relational
layer: on random graphs it must equal a dense float64 reference that runs
every layer over every node and every relation, and its hand-written
backward must agree with central differences.  The parts of the plan
built from the relation-stacked matrix must hold, array for array, the
blocks built one relation at a time, and ego scoring of the whole edge
classifier must equal a dense whole-graph forward that uses no plan at
all.

Graphs come from ``test_graph_properties.graph_arrays`` (isolated nodes,
empty relations, single-offer sellers), optionally with seller 0 turned
into a hub that is linked to every other seller and offers every product.
"""

from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import (
    assert_plan_holds_reference,
    make_random_graph,
    mul,
    pad_isolated,
    reference_message_flow_plan,
    relation_bfs_oracle,
    sum_all,
)
from coldgraph.autodiff import Tensor, finite_diff_check, parameter
from coldgraph.graph import HeteroGraph, Relation, build_expanded_graph, row_mean_normalize
from coldgraph.models import (
    EdgeGnnConfig,
    ExpandedRgcnConfig,
    cast_params,
    edge_gnn_forward,
    init_edge_gnn_params,
    init_expanded_rgcn_params,
    node_embedder_forward,
    rgcn_layer,
    score_expanded_rgcn,
)
from coldgraph.models import baselines, core
from coldgraph.models.baselines import _expanded_ego, _expanded_probs
from coldgraph.sampling import TILE_ROWS, Csr, ego_network, extract_ego_network
from test_graph_properties import graph_arrays

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def graphs(draw):
    kw = draw(graph_arrays(min_offers=1))
    if draw(st.booleans()):
        n_s, n_p = kw["seller_features"].shape[0], kw["product_features"].shape[0]
        r = draw(st.integers(0, len(Relation) - 2))
        edges = {tuple(sorted(e)) for e in kw["ss_edges"][r].tolist()}
        edges |= {(0, b) for b in range(1, n_s)}
        kw["ss_edges"][r] = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
        have = set(kw["offer_product"][kw["offer_seller"] == 0].tolist())
        extra = np.array([p for p in range(n_p) if p not in have], dtype=np.int64)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        kw["offer_seller"] = np.concatenate([kw["offer_seller"], np.zeros_like(extra)])
        kw["offer_product"] = np.concatenate([kw["offer_product"], extra])
        kw["offer_features"] = np.concatenate([
            kw["offer_features"],
            rng.normal(size=(extra.size, kw["offer_features"].shape[1])).astype(np.float32),
        ])
        if kw["labels"] is not None:
            kw["labels"] = np.concatenate([kw["labels"], np.zeros((extra.size, 9), np.uint8)])
    return HeteroGraph.from_arrays(**kw)


def dense_normalized(pairs, n):
    """Row-mean-normalized dense adjacency of undirected index pairs, with
    1/degree rounded to float32 as the graph stores it."""
    a = np.zeros((n, n))
    a[pairs[:, 0], pairs[:, 1]] = 1.0
    a[pairs[:, 1], pairs[:, 0]] = 1.0
    deg = a.sum(axis=1, keepdims=True)
    inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    return a * inv.astype(np.float32).astype(np.float64)


def dense_encoder(inputs, mats, params, layers):
    """Every node's hidden state after ``layers`` unpruned convolutions."""
    p = {k: v.data.astype(np.float64) for k, v in params.items()}
    h = np.concatenate([
        np.maximum(x.astype(np.float64) @ p[f"proj_{name}_w"] + p[f"proj_{name}_b"], 0)
        for name, x in inputs.items()
    ])
    for layer in range(layers):
        z = h @ p[f"gnn{layer}_self_w"] + p[f"gnn{layer}_self_b"]
        for r, a in enumerate(mats):
            z = z + a @ (h @ p[f"gnn{layer}_rel{r}_w"])
        h = np.maximum(z, 0)
    return h


def node_space_pairs(g):
    """Edge index pairs of the nine relations over sellers, then products."""
    offers = np.stack([g.offer_seller, g.offer_product + g.n_sellers], axis=1)
    return [g.ss_edges(r) for r in Relation.seller_seller()] + [offers]


@SETTINGS
@given(graphs(), st.data())
def test_pruned_ego_encoder_equals_dense_reference(g, data):
    offers = data.draw(st.lists(st.integers(0, g.n_offers - 1), min_size=1, unique=True))
    batch = np.sort(offers)
    mats = [dense_normalized(e, g.n_nodes) for e in node_space_pairs(g)]
    inputs = {"seller": g.seller_features, "product": g.product_features}
    for layers in (1, 2, 3):
        cfg = EdgeGnnConfig(d_s=g.d_s, d_p=g.d_p, d_o=g.d_o, hidden=4, gnn_layers=layers,
                            edge_hidden=3, cls_hidden=3)
        params = cast_params(init_edge_gnn_params(cfg, seed=layers), np.float64)
        want = dense_encoder(inputs, mats, params, layers)
        ego = extract_ego_network(g, batch, layers)
        h, sellers, products = node_embedder_forward(g, ego, params, cfg)
        np.testing.assert_allclose(h.data[sellers], want[g.offer_seller[batch]],
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(h.data[products], want[g.offer_product[batch] + g.n_sellers],
                                   rtol=1e-10, atol=1e-12)


def dense_edge_gnn(g, batch, params, layers):
    """Per-class probabilities of ``batch`` from the dense encoder over the
    whole graph and sibling means enumerated offer by offer."""
    p = {k: v.data.astype(np.float64) for k, v in params.items()}
    mats = [dense_normalized(e, g.n_nodes) for e in node_space_pairs(g)]
    inputs = {"seller": g.seller_features, "product": g.product_features}
    h = dense_encoder(inputs, mats, params, layers)
    feats = g.offer_features.astype(np.float64)

    def sibling_mean(owner, k):
        sib = [j for j in range(g.n_offers) if owner[j] == owner[k] and j != k]
        # the model hands the edge embedder float32 means
        return feats[sib].mean(axis=0).astype(np.float32) if sib else np.zeros(g.d_o)

    o_s = np.array([sibling_mean(g.offer_seller, k) for k in batch], dtype=np.float64)
    o_p = np.array([sibling_mean(g.offer_product, k) for k in batch], dtype=np.float64)
    x = np.concatenate([feats[batch], o_p, o_s], axis=1)
    emb_o = np.maximum(np.maximum(x @ p["edge0_w"] + p["edge0_b"], 0) @ p["edge1_w"]
                       + p["edge1_b"], 0)
    z = np.concatenate([h[g.offer_seller[batch]], h[g.offer_product[batch] + g.n_sellers],
                        emb_o], axis=1)
    z = np.maximum(z @ p["cls0_w"] + p["cls0_b"], 0) @ p["cls1_w"] + p["cls1_b"]
    return 1.0 / (1.0 + np.exp(-z))


@SETTINGS
@given(graphs(), st.data())
def test_ego_scoring_equals_dense_whole_graph_forward(g, data):
    """Repeats and any order in the batch; dropout off."""
    batch = np.array(data.draw(st.lists(st.integers(0, g.n_offers - 1), min_size=1)))
    for layers in (1, 2, 3):
        cfg = EdgeGnnConfig(d_s=g.d_s, d_p=g.d_p, d_o=g.d_o, hidden=4, gnn_layers=layers,
                            edge_hidden=3, cls_hidden=3)
        params = cast_params(init_edge_gnn_params(cfg, seed=layers), np.float64)
        np.testing.assert_allclose(edge_gnn_forward(g, batch, params, cfg).data,
                                   dense_edge_gnn(g, batch, params, layers),
                                   rtol=1e-6, atol=1e-9)


@SETTINGS
@given(graphs(), st.data())
def test_stacked_plan_equals_per_relation_reference(g, data):
    """The whole-graph layer and every ego plan of depth 1-3, for both the
    edge classifier's graph and the expanded graph."""
    offers = np.array(data.draw(st.lists(st.integers(0, g.n_offers - 1), min_size=1)))
    eg = build_expanded_graph(g)
    forms = (  # stack, reference matrices, ego of a depth
        (g.normalized_stack(),
         [row_mean_normalize(g.unified_csr(r)) for r in Relation],
         lambda hops: extract_ego_network(g, offers, hops)),
        (eg.normalized_stack(),
         [row_mean_normalize(m) for m in eg.relation_csrs()],
         lambda hops: ego_network(eg.normalized_stack(), g.n_nodes + offers, hops)),
    )
    for stack, mats, ego_of in forms:
        whole = ego_network(stack, np.arange(stack.shape[1]), 1)
        assert_plan_holds_reference(
            whole.plan, reference_message_flow_plan(mats, whole.nodes, whole.hop, 1))
        for hops in (1, 2, 3):
            ego = ego_of(hops)
            assert_plan_holds_reference(
                ego.plan, reference_message_flow_plan(mats, ego.nodes, ego.hop, hops))


def plan_entries(layer):
    """The (relation, output row, neighbour row, weight) entries of a
    layer's blocks, sorted, as rows of one float64 array."""
    entries = [np.zeros((0, 4))]
    for part in layer.parts:
        indptr = part.adj.indptr
        for b in part.blocks:
            lo, hi = indptr[b.lo], indptr[b.hi]
            entries.append(np.column_stack([
                np.full(hi - lo, b.relation), np.repeat(b.rows, np.diff(indptr[b.lo:b.hi + 1])),
                part.adj.indices[lo:hi], part.adj.data[lo:hi]]))
    e = np.concatenate(entries)
    return e[np.lexsort(e.T[::-1])]


def assert_bounded_plan_cuts_unbounded(bounded, unbounded, bound):
    """Layer by layer, the bounded plan holds the unbounded plan's entries
    in parts of at most ``bound`` rows, each filled until not one more tile
    of the next block fits, and cuts a relation's rows only a whole number
    of tiles from their first row."""
    assert len(bounded) == len(unbounded)
    for layer, whole in zip(bounded, unbounded):
        assert np.array_equal(layer.keep, whole.keep)
        assert np.array_equal(plan_entries(layer), plan_entries(whole))
        heights = [part.adj.shape[0] for part in layer.parts]
        assert max(heights, default=0) <= bound
        for height, after in zip(heights, layer.parts[1:]):
            assert bound - height < TILE_ROWS and height + after.blocks[0].hi > bound
        done = {}  # relation -> its rows in the parts so far
        for part in layer.parts:
            for b in part.blocks:
                assert b.hi > b.lo and done.get(b.relation, 0) % TILE_ROWS == 0
                done[b.relation] = done.get(b.relation, 0) + b.hi - b.lo


# graphs whose relation blocks outgrow a tile, so bounded plans split them
wide_graphs = st.builds(make_random_graph, seed=st.integers(0, 2**16),
                        n_sellers=st.integers(20, 80), n_products=st.integers(10, 60),
                        ss_p=st.floats(0.02, 0.3))


@SETTINGS
@given(st.one_of(graphs(), wide_graphs), st.data())
def test_bounded_plans_cut_unbounded_plans_in_whole_tiles(g, data):
    """For bounds of one to three tiles and a random whole number of
    tiles, on the edge classifier's and the expanded graph's ego plans:
    the bounded plan holds the same entries in short, filled parts, cut at
    whole tiles from each relation's first row, and float64 scoring through
    it equals scoring through the unbounded plan byte for byte.  Besides
    ``graphs()``, whose relation blocks rarely outgrow a tile, wider graphs
    make relations span several parts."""
    offers = np.array(data.draw(st.lists(st.integers(0, g.n_offers - 1), min_size=1)))
    eg = build_expanded_graph(g)
    bounds = (16, 32, 48, TILE_ROWS * data.draw(st.integers(1, 40)))
    for hops in (1, 2, 3):
        for ego_of in (lambda b: extract_ego_network(g, offers, hops, b),
                       lambda b: _expanded_ego(eg, offers, hops, b)):
            unbounded = ego_of(None).plan
            for bound in bounds:
                assert_bounded_plan_cuts_unbounded(ego_of(bound).plan, unbounded, bound)
    assert_bounded_scores_keep_bits(g, offers, bounds)


def test_egos_of_seeds_at_the_edges_of_the_id_range_match_the_references():
    """Seeds with no edge in any relation (nodes 34 and 44, products that
    nothing offers, and appended isolated nodes), nodes 0 and ``n-1`` and
    repeated seeds, on the edge classifier's graph with and without
    isolated nodes after its last node and on the expanded graph: at
    depths 1-3, each ego equals the set-based BFS and each plan the
    per-relation reference, the 16-row plan through the unbounded one.  An
    unset entry of the builder's uninitialized ``rank`` array read
    anywhere would show here."""
    g = make_random_graph(seed=1)
    isolated = [34, 44]
    plain = [row_mean_normalize(g.unified_csr(r)) for r in Relation]
    padded = pad_isolated(plain, 3)
    expanded = [row_mean_normalize(m) for m in build_expanded_graph(g).relation_csrs()]
    for mats in (plain, padded, expanded):
        n = mats[0].shape[0]
        stack = sp.vstack(mats, format="csr")
        assert all(stack[r * n + v].nnz == 0 for v in isolated for r in range(len(mats)))
        seeds_of = ([0], [n - 1], isolated, [n - 1, 0, n - 1, 0], [44, 0, 44, n - 1, 34])
        if mats is padded:
            seeds_of += ([n - 3], [n - 1, n - 2, n - 1])
        for seeds in seeds_of:
            for hops in (1, 2, 3):
                ego = ego_network(stack, seeds, hops)
                want = relation_bfs_oracle(mats, seeds, hops)
                assert ego.nodes.tolist() == sorted(want)
                assert ego.hop.tolist() == [want[v] for v in ego.nodes.tolist()]
                np.testing.assert_array_equal(ego.nodes[ego.hop == 0][ego.seed_rows()], seeds)
                assert_plan_holds_reference(
                    ego.plan, reference_message_flow_plan(mats, ego.nodes, ego.hop, hops))
                bounded = ego_network(stack, seeds, hops, TILE_ROWS)
                np.testing.assert_array_equal(bounded.nodes, ego.nodes)
                np.testing.assert_array_equal(bounded.hop, ego.hop)
                assert_bounded_plan_cuts_unbounded(bounded.plan, ego.plan, TILE_ROWS)


def test_bounded_scoring_keeps_bits_at_a_one_row_piece():
    """At a 16-row bound, four relations of this graph's first layer have
    65 rows each, so each ends in a one-row piece: its product must round
    as the last row of the whole relation's product does."""
    g = make_random_graph(seed=42, n_sellers=65, n_products=10, ss_p=0.0625)
    assert_bounded_scores_keep_bits(g, np.array([1]), (16, 32, 48))


def assert_bounded_scores_keep_bits(g, offers, bounds):
    """Float64 scores of ``offers`` by a three-layer edge classifier and
    expanded-graph RGCN equal, byte for byte, at each part bound in
    ``bounds`` and with unbounded plans."""
    eg = build_expanded_graph(g)
    cfg = EdgeGnnConfig(d_s=g.d_s, d_p=g.d_p, d_o=g.d_o, hidden=4, gnn_layers=3,
                        edge_hidden=3, cls_hidden=3)
    groups = [cast_params(init_edge_gnn_params(cfg, seed=1), np.float64)]
    ecfg = ExpandedRgcnConfig(d_s=g.d_s, d_p=g.d_p, d_o=g.d_o, hidden=4, layers=3)
    eparams = init_expanded_rgcn_params(ecfg, seed=1)

    def scores(bound):
        rows = (lambda hidden, dtype: bound)
        with mock.patch.object(core, "score_part_rows", rows), \
                mock.patch.object(baselines, "score_part_rows", rows):
            return (core.edge_gnn_scores(g, offers, groups, cfg).tobytes(),
                    score_expanded_rgcn(eg, eparams, ecfg, offers).tobytes())

    unbounded = scores(None)
    for bound in bounds:
        assert scores(bound) == unbounded, bound


@SETTINGS
@given(graphs())
def test_normalized_stack_blocks_are_row_normalized_relations(g):
    eg = build_expanded_graph(g)
    for stack, binary in (
        (g.normalized_stack(), [g.unified_csr(r) for r in Relation]),
        (eg.normalized_stack(), eg.relation_csrs()),
    ):
        n = stack.shape[1]
        assert stack.shape == (len(binary) * n, n)
        assert not any(a.flags.writeable for a in (stack.data, stack.indices, stack.indptr))
        for r, b in enumerate(binary):
            block, want = stack[r * n:(r + 1) * n], row_mean_normalize(b)
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(block, part), getattr(want, part)), part


@SETTINGS
@given(graphs(), st.integers(1, 3), st.data())
def test_expanded_forward_equals_dense_reference(g, layers, data):
    eg = build_expanded_graph(g)
    n, m = g.n_nodes, g.n_offers
    offer_ids = np.arange(n, n + m)
    pairs = node_space_pairs(g)[:-1] + [
        np.stack([g.offer_seller, offer_ids], axis=1),
        np.stack([offer_ids, g.offer_product + g.n_sellers], axis=1),
    ]
    mats = [dense_normalized(e, n + m) for e in pairs]
    cfg = ExpandedRgcnConfig(d_s=g.d_s, d_p=g.d_p, d_o=g.d_o, hidden=4, layers=layers)
    params = cast_params(init_expanded_rgcn_params(cfg, seed=layers), np.float64)
    inputs = {"seller": g.seller_features, "product": g.product_features,
              "offer": g.offer_features}
    h = dense_encoder(inputs, mats, params, layers)[n:]
    want = 1.0 / (1.0 + np.exp(-(h @ params["head_w"].data + params["head_b"].data)))

    ego = _expanded_ego(eg, np.arange(m), layers)  # the full batch that training runs
    full = _expanded_probs(eg, ego, params)
    np.testing.assert_allclose(full.data, want, rtol=1e-10, atol=1e-12)
    some = data.draw(st.lists(st.integers(0, m - 1), min_size=1))
    np.testing.assert_allclose(score_expanded_rgcn(eg, params, cfg, offers=np.array(some)),
                               want[some], rtol=1e-10, atol=1e-12)


def one_offer_product_graph():
    """Two sellers that both offer the only product: its whole-graph layer
    keeps every row, its offer block writes every output row (no scatter),
    and the eight seller-seller relations are empty."""
    ones = np.ones((2, 1), dtype=np.float32)
    return HeteroGraph.from_arrays(ones, ones[:1], np.array([0, 1]), np.array([0, 0]), ones,
                                   [np.zeros((0, 2), dtype=np.int64)] * 8)


def whole_and_ego_layers(g, offers, hops):
    """(layer, input rows) of the whole-graph layer and of each layer of the
    ``offers``' ego plan of depth ``hops``."""
    n = g.n_nodes
    whole = ego_network(g.normalized_stack(), np.arange(n), 1)
    ego = extract_ego_network(g, offers, hops)
    return [(whole.plan[0], n)] + [(layer, int(np.count_nonzero(ego.hop <= hops - k)))
                              for k, layer in enumerate(ego.plan)]


def layer_gradient_error(layer, n_in, rng, width=3):
    """Worst float64 finite-difference error of ``rgcn_layer``'s backward
    into its input rows and every weight, under a random linear loss."""
    h = parameter(rng.normal(size=(n_in, width)), dtype=np.float64)
    rel_ws = [parameter(rng.normal(size=(width, width)), dtype=np.float64) for _ in Relation]
    self_w = parameter(rng.normal(size=(width, width)), dtype=np.float64)
    self_b = parameter(rng.normal(size=width), dtype=np.float64)
    c = Tensor(rng.normal(size=(layer.keep.shape[0], width)), dtype=np.float64)

    def f():
        return sum_all(mul(rgcn_layer(layer, h, rel_ws, self_w, self_b), c))

    return finite_diff_check(f, [h, self_w, self_b, *rel_ws], h=1e-6)


@SETTINGS
@given(graphs(), st.integers(0, 2**32 - 1))
@example(one_offer_product_graph(), 0)
def test_rgcn_layer_gradients_match_finite_differences(g, seed):
    """The fused layer's backward, into its input rows and every weight, on
    the whole-graph layer and on each layer of a depth-2 ego plan."""
    rng = np.random.default_rng(seed)
    offers = np.flatnonzero(rng.random(g.n_offers) < 0.5)
    for layer, n_in in whole_and_ego_layers(g, offers if offers.size else np.array([0]), 2):
        assert layer_gradient_error(layer, n_in, rng) < 1e-6


def test_layers_cut_into_several_parts():
    """Dense seller relations give every seller a message of most relations,
    so a layer's relation blocks outgrow its input and are cut into several
    parts.  Each part is at most as tall as the layer input, and adding the
    next part's first block would overflow it; the backward through every
    part matches central differences, and ego scoring still equals the dense
    whole-graph forward."""
    g = make_random_graph(seed=4, n_sellers=12, n_products=6, ss_p=0.5)
    batch = np.array([0, 5, 9])
    rng = np.random.default_rng(0)
    for hops in (1, 2, 3):
        layers = whole_and_ego_layers(g, batch, hops)
        for layer, n_in in layers:
            heights = [part.adj.shape[0] for part in layer.parts]
            assert max(heights) <= n_in
            assert all(height + after.blocks[0].hi > n_in
                       for height, after in zip(heights, layer.parts[1:]))
        assert max(len(layer.parts) for layer, _ in layers[1:]) >= 2
        for layer, n_in in layers:
            assert layer_gradient_error(layer, n_in, rng) < 1e-6
        cfg = EdgeGnnConfig(d_s=g.d_s, d_p=g.d_p, d_o=g.d_o, hidden=4, gnn_layers=hops,
                            edge_hidden=3, cls_hidden=3)
        params = cast_params(init_edge_gnn_params(cfg, seed=hops), np.float64)
        np.testing.assert_allclose(edge_gnn_forward(g, batch, params, cfg).data,
                                   dense_edge_gnn(g, batch, params, hops),
                                   rtol=1e-6, atol=1e-9)


def test_part_products_are_scipys_products_bit_for_bit():
    """The relational layer's two part products equal scipy's public
    ``csr_matrix @ x`` and ``csr_matrix.T @ m`` over the same arrays, value
    and dtype, for float32 part data against float32 and float64 inputs,
    int32 and int64 index arrays and non-contiguous inputs."""
    rng = np.random.default_rng(0)
    wide = sp.random(40, 30, density=0.3, format="csr", dtype=np.float32, random_state=1)
    holes = wide.copy()
    holes.data[np.repeat(np.arange(40) % 3 == 0, np.diff(holes.indptr))] = 0
    holes.eliminate_zeros()  # every third row empty
    parts = {
        "random": wide,
        "one row": wide[5:6],
        "empty rows": holes,
        "all empty": sp.csr_matrix((7, 30), dtype=np.float32),
    }
    assert parts["all empty"].nnz == 0 and np.diff(parts["empty rows"].indptr).min() == 0
    for name, mat in parts.items():
        for index in (np.int32, np.int64):
            adj = Csr(mat.data, mat.indices.astype(index), mat.indptr.astype(index), mat.shape)
            assert adj.nnz == mat.nnz
            ref = sp.csr_matrix((adj.data, adj.indices, adj.indptr), shape=adj.shape)
            for dtype in (np.float32, np.float64):
                for cols in (1, 5):
                    x = rng.normal(size=(30, 2 * cols)).astype(dtype)
                    m = rng.normal(size=(adj.shape[0], 2 * cols)).astype(dtype)
                    for xs, ms in ((x[:, :cols].copy(), m[:, :cols].copy()),
                                   (x[:, ::2], m[:, ::2])):
                        for got, want in ((core._csr_product(adj, xs), ref @ xs),
                                          (core._csr_transposed_product(adj, ms), ref.T @ ms)):
                            assert got.dtype == want.dtype, (name, index, dtype)
                            assert np.array_equal(got, want), (name, index, dtype, cols)
    # the kernels read their input unchecked: a row count that does not fit raises first
    adj = Csr(wide.data, wide.indices, wide.indptr, wide.shape)
    with pytest.raises(ValueError, match=r"^part of shape \(40, 30\) times \(29, 2\)$"):
        core._csr_product(adj, np.ones((29, 2)))
    with pytest.raises(ValueError, match=r"^transposed part of shape \(40, 30\) times \(30, 2\)$"):
        core._csr_transposed_product(adj, np.ones((30, 2)))


def test_plan_parts_hold_plain_arrays_and_one_module_reads_the_kernels():
    g = make_random_graph(seed=11)
    for max_rows in (None, TILE_ROWS):
        ego = extract_ego_network(g, np.arange(min(g.n_offers, 6)), 3, max_rows)
        for adj in ego.rel_adj:
            assert isinstance(adj, Csr) and not sp.issparse(adj)
            assert all(isinstance(a, np.ndarray) for a in adj[:3])
    src = Path(__file__).resolve().parents[1] / "src"
    readers = [p.relative_to(src).as_posix() for p in sorted(src.rglob("*.py"))
               if "_sparsetools" in p.read_text()]
    assert readers == ["coldgraph/models/core.py"]
