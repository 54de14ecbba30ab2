"""Property tests for the graph core over small random graphs.

Generated graphs include isolated sellers and products, empty relations,
sellers with a single offer and unlabeled graphs.  Besides construction,
they check the matrices derived from the topology (``normalized_stack``,
``offers_of``) and their users: ego extraction, sibling-offer summaries
and scenario copies.
"""

import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    assert_same_graph,
    bfs_oracle,
    reference_sibling_offer_summaries,
    relation_bfs_oracle,
)
from coldgraph.graph import N_CLASSES, HeteroGraph, NodeType, Relation, build_expanded_graph
from coldgraph.models import sibling_offer_summaries
from coldgraph.sampling import ego_network, extract_ego_network
from coldgraph.simulate import ScenarioSpec, apply_scenario
from coldgraph.storage import load_graph, save_graph

SS = Relation.seller_seller()
FAST = settings(max_examples=60, deadline=None)


@st.composite
def graph_arrays(draw, min_offers=0, min_ss_edges=0):
    """Keyword arguments for ``HeteroGraph.from_arrays`` describing a valid graph."""
    n_s = draw(st.integers(2, 7))
    n_p = draw(st.integers(1, 6))
    pairs = [(s, p) for s in range(n_s) for p in range(n_p)]
    offers = draw(st.lists(st.sampled_from(pairs), min_size=min_offers, unique=True))
    ss_pairs = [(a, b) for a in range(n_s) for b in range(a + 1, n_s)]
    ss = []
    for _ in SS:
        edges = draw(st.lists(st.sampled_from(ss_pairs), unique=True, max_size=4))
        flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        ss.append([(b, a) if f else (a, b) for (a, b), f in zip(edges, flips)])
    if sum(map(len, ss)) < min_ss_edges:
        ss[0] = [ss_pairs[0]]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = len(offers)
    labels = None
    if draw(st.booleans()):
        labels = rng.integers(0, 2, size=(m, N_CLASSES)).astype(np.uint8)
    return dict(
        seller_features=rng.normal(size=(n_s, draw(st.integers(1, 3)))).astype(np.float32),
        product_features=rng.normal(size=(n_p, draw(st.integers(1, 3)))).astype(np.float32),
        offer_seller=np.array([s for s, _ in offers], dtype=np.int64),
        offer_product=np.array([p for _, p in offers], dtype=np.int64),
        offer_features=rng.normal(size=(m, draw(st.integers(1, 3)))).astype(np.float32),
        ss_edges=[np.array(e, dtype=np.int64).reshape(-1, 2) for e in ss],
        labels=labels,
    )


@FAST
@given(graph_arrays())
def test_from_arrays_keeps_one_canonical_row_per_edge(kw):
    g = HeteroGraph.from_arrays(**kw)
    # each relation keeps one canonical row per input edge, a < b, sorted
    for r, edges in zip(SS, kw["ss_edges"]):
        want = sorted((min(a, c), max(a, c)) for a, c in edges.tolist())
        assert [tuple(e) for e in g.ss_edges(r).tolist()] == want


@FAST
@given(graph_arrays())
def test_save_load_round_trip_keeps_every_array(kw):
    g = HeteroGraph.from_arrays(**kw)
    with tempfile.TemporaryDirectory() as tmp:
        save_graph(g, tmp)
        assert_same_graph(g, load_graph(tmp))


@FAST
@given(graph_arrays())
def test_unified_csr_is_symmetric_with_two_entries_per_edge(kw):
    g = HeteroGraph.from_arrays(**kw)
    for r in Relation:
        mat = g.unified_csr(r)
        assert mat.shape == (g.n_nodes, g.n_nodes)
        assert (mat != mat.T).nnz == 0
        edges = g.n_offers if r.is_offer else g.ss_edges(r).shape[0]
        assert mat.nnz == 2 * edges
        assert mat.has_sorted_indices
    assert g.n_edges == g.n_offers + sum(g.ss_edges(r).shape[0] for r in SS)


def rejects(kw, message):
    with pytest.raises(ValueError, match=message):
        HeteroGraph.from_arrays(**kw)


@FAST
@given(graph_arrays(min_offers=1), st.data())
def test_from_arrays_rejects_out_of_range_offer_endpoints(kw, data):
    k = data.draw(st.integers(0, len(kw["offer_seller"]) - 1))
    for key, count, what in (("offer_seller", len(kw["seller_features"]), "seller"),
                             ("offer_product", len(kw["product_features"]), "product")):
        bad = data.draw(st.sampled_from([-1, count, count + 5]))
        broken = dict(kw, **{key: kw[key].copy()})
        broken[key][:k] = 0  # keep earlier rows in range so offer k is the first bad one
        broken[key][k] = bad
        rejects(broken, f"^offer {k} references unknown {what} {bad}$")


@FAST
@given(graph_arrays(min_offers=1), st.data())
def test_from_arrays_rejects_duplicate_offer_pair(kw, data):
    m = len(kw["offer_seller"])
    k = data.draw(st.integers(0, m - 1))
    broken = dict(kw)
    for key in ("offer_seller", "offer_product", "offer_features"):
        broken[key] = np.concatenate([kw[key], kw[key][k:k + 1]])
    broken["labels"] = None
    s, p = int(kw["offer_seller"][k]), int(kw["offer_product"][k])
    rejects(broken, f"^duplicate offer edge: offer {m} repeats seller {s}, product {p}$")


@FAST
@given(graph_arrays(), st.data())
def test_from_arrays_rejects_self_edge(kw, data):
    r = data.draw(st.sampled_from(SS))
    a = data.draw(st.integers(0, len(kw["seller_features"]) - 1))
    ss = list(kw["ss_edges"])
    ss[r] = np.concatenate([ss[r], [[a, a]]])
    rejects(dict(kw, ss_edges=ss), f"^relation {r.name} has self edge at seller {a}$")


@FAST
@given(graph_arrays(min_ss_edges=1), st.data(), st.booleans())
def test_from_arrays_rejects_duplicate_ss_edge_either_orientation(kw, data, flip):
    r = data.draw(st.sampled_from([q for q in SS if len(kw["ss_edges"][q])]))
    edges = kw["ss_edges"][r]
    a, b = edges[data.draw(st.integers(0, len(edges) - 1))].tolist()
    ss = list(kw["ss_edges"])
    ss[r] = np.concatenate([edges, [[b, a] if flip else [a, b]]])
    lo, hi = min(a, b), max(a, b)
    rejects(dict(kw, ss_edges=ss), f"^relation {r.name} has duplicate edge \\({lo}, {hi}\\)$")


@FAST
@given(graph_arrays(), st.data())
def test_from_arrays_rejects_out_of_range_ss_edge(kw, data):
    r = data.draw(st.sampled_from(SS))
    n_s = len(kw["seller_features"])
    ss = [np.empty((0, 2))] * len(SS)
    ss[r] = np.array([[0, n_s]])
    rejects(dict(kw, ss_edges=ss), f"^relation {r.name} edge \\(0, {n_s}\\) references unknown seller$")


@FAST
@given(graph_arrays())
def test_from_arrays_rejects_bad_label_shape(kw):
    m = len(kw["offer_seller"])
    for shape in ((m + 1, N_CLASSES), (m, N_CLASSES - 1), (m, N_CLASSES, 1)):
        want = re.escape(f"labels must have shape ({m}, {N_CLASSES}), got {shape}")
        rejects(dict(kw, labels=np.zeros(shape, dtype=np.uint8)), f"^{want}$")


@FAST
@given(graph_arrays(min_offers=1), st.data())
def test_from_arrays_rejects_non_binary_labels(kw, data):
    m = len(kw["offer_seller"])
    labels = np.zeros((m, N_CLASSES), dtype=np.int64)
    labels[data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, N_CLASSES - 1))] = (
        data.draw(st.sampled_from([2, -1, 255]))
    )
    rejects(dict(kw, labels=labels), "^labels must be binary")
    labels = labels.astype(np.float64)
    labels[labels != 0] = 0.5
    rejects(dict(kw, labels=labels), "^labels must be binary")


FEATURES = ("seller_features", "product_features", "offer_features")


@FAST
@given(graph_arrays(min_offers=1), st.data())
def test_nonfinite_feature_rejected_at_its_location(kw, data):
    """NaN or +-inf at a drawn cell, and optionally in every later cell of
    the matrix: ``from_arrays`` and ``copy_with_features`` both refuse it,
    naming the matrix and the first bad row and column."""
    key = data.draw(st.sampled_from(FEATURES))
    rows, cols = kw[key].shape
    r, c = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
    bad = kw[key].copy()
    bad[r, c] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    if data.draw(st.booleans()):
        bad.reshape(-1)[r * cols + c + 1:] = np.nan
    want = f"^non-finite value in {key.split('_')[0]} features at row {r}, column {c}$"
    rejects(dict(kw, **{key: bad}), want)
    g = HeteroGraph.from_arrays(**kw)
    with pytest.raises(ValueError, match=want):
        g.copy_with_features(**{k: bad if k == key else kw[k] for k in FEATURES})


# ---------------------------------------------------------------------------
# derived topology


def edge_set(mat):
    coo = mat.tocoo()
    return set(zip(coo.row.tolist(), coo.col.tolist()))


@FAST
@given(graph_arrays())
def test_offers_of_rows_list_each_owners_offers(kw):
    g = HeteroGraph.from_arrays(**kw)
    for node_type, owner, n in ((NodeType.SELLER, g.offer_seller, g.n_sellers),
                                (NodeType.PRODUCT, g.offer_product, g.n_products)):
        inc = g.offers_of(node_type)
        assert inc.shape == (n, g.n_offers) and inc.dtype == np.float64
        assert not inc.indices.flags.writeable
        assert (inc.data == 1).all()
        for i in range(n):
            row = inc.indices[inc.indptr[i]:inc.indptr[i + 1]]
            np.testing.assert_array_equal(row, np.flatnonzero(owner == i))
        assert g.offers_of(node_type) is inc


@FAST
@given(graph_arrays(), st.booleans())
def test_derived_matrices_leave_relation_matrices_alone(kw, derived_first):
    # NodeType.SELLER == Relation.SS0 as integers; the cache must not confuse them
    g = HeteroGraph.from_arrays(**kw)
    if derived_first:
        g.normalized_stack()
        for node_type in NodeType:
            g.offers_of(node_type)
    fresh = HeteroGraph.from_arrays(**kw)
    for r in Relation:
        a, b = g.unified_csr(r), fresh.unified_csr(r)
        assert a.shape == b.shape and edge_set(a) == edge_set(b), r.name
    assert g.offers_of(NodeType.SELLER).shape == (g.n_sellers, g.n_offers)
    assert g.offers_of(NodeType.PRODUCT).shape == (g.n_products, g.n_offers)
    assert g.normalized_stack().shape == (len(Relation) * g.n_nodes, g.n_nodes)


@FAST
@given(graph_arrays(min_offers=1), st.data())
def test_ego_network_matches_bfs_oracle(kw, data):
    g = HeteroGraph.from_arrays(**kw)
    offers = data.draw(st.lists(st.integers(0, g.n_offers - 1), min_size=1, unique=True))
    for hops in (1, 2, 3):
        ego = extract_ego_network(g, np.array(offers), hops)
        got = dict(zip(ego.nodes.tolist(), ego.hop.tolist()))
        assert got == bfs_oracle(g, offers, hops)


@FAST
@given(graph_arrays(min_offers=1), st.data())
def test_expanded_ego_network_matches_bfs_oracle(kw, data):
    """Seeded at offer nodes, the expanded graph's ego reaches each node at
    its breadth-first distance over the ten relations."""
    g = HeteroGraph.from_arrays(**kw)
    eg = build_expanded_graph(g)
    offers = data.draw(st.lists(st.integers(0, g.n_offers - 1), min_size=1))
    seeds = g.n_nodes + np.array(offers)
    for hops in (1, 2, 3):
        ego = ego_network(eg.normalized_stack(), seeds, hops)
        got = dict(zip(ego.nodes.tolist(), ego.hop.tolist()))
        assert got == relation_bfs_oracle(eg.relation_csrs(), seeds, hops)


@FAST
@given(graph_arrays(min_offers=1), st.data())
def test_sibling_summaries_match_enumeration(kw, data):
    g = HeteroGraph.from_arrays(**kw)
    ids = data.draw(st.lists(st.integers(0, g.n_offers - 1), min_size=1))
    o_s, o_p = sibling_offer_summaries(g, np.array(ids))
    feats = g.offer_features.astype(np.float64)
    for out, owner in ((o_s, g.offer_seller), (o_p, g.offer_product)):
        assert out.dtype == np.float32 and out.shape == (len(ids), g.d_o)
        for row, k in zip(out, ids):
            sib = [j for j in range(g.n_offers) if owner[j] == owner[k] and j != k]
            want = feats[sib].mean(axis=0) if sib else np.zeros(g.d_o)
            np.testing.assert_allclose(row, want, rtol=1e-5, atol=1e-6)


@st.composite
def hub_owner_graphs(draw):
    """A graph whose seller 0 offers 64-600 products, whose other sellers
    offer a random few, and whose offer features span seven orders of
    magnitude, so that summation order shows in float64 sums."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_hub = draw(st.integers(64, 600))
    n_s, n_p = draw(st.integers(2, 5)), n_hub + draw(st.integers(0, 4))
    pairs = {(0, int(p)) for p in rng.choice(n_p, n_hub, replace=False)}
    pairs |= {(int(s), int(p)) for s, p in rng.integers(0, [n_s, n_p], size=(3 * n_s, 2))}
    offers = np.array(sorted(pairs), dtype=np.int64)
    rng.shuffle(offers)
    m, d_o = offers.shape[0], draw(st.integers(1, 4))
    scale = 10.0 ** rng.integers(-3, 4, size=(m, 1))
    return HeteroGraph.from_arrays(
        rng.normal(size=(n_s, 2)).astype(np.float32), rng.normal(size=(n_p, 2)).astype(np.float32),
        offers[:, 0], offers[:, 1], (rng.normal(size=(m, d_o)) * scale).astype(np.float32),
        [np.zeros((0, 2), dtype=np.int64)] * len(SS),
    )


@settings(max_examples=40, deadline=None)
@given(hub_owner_graphs(), st.data())
def test_sibling_sums_equal_indexed_product_bitwise(g, data):
    """Repeated ids in any order; the sums and the means match the
    ``inc[owners] @ feats`` formula bit for bit."""
    ids = np.array(data.draw(st.lists(st.integers(0, g.n_offers - 1), min_size=1, max_size=40)))
    if data.draw(st.booleans()):  # every offer of the hub seller too
        ids = np.concatenate([ids, np.flatnonzero(g.offer_seller == 0)])
    feats64 = g.offer_features.astype(np.float64)
    want = []
    for node_type, owner in zip(NodeType, (g.offer_seller, g.offer_product)):
        inc, own = g.offers_of(node_type), owner[ids]
        assert np.array_equal(g.offer_sums(node_type)[own], inc[own] @ feats64)
        k = np.diff(inc.indptr)[own]
        mean = np.zeros((ids.shape[0], g.d_o))
        has = k > 1
        mean[has] = (inc[own[has]] @ feats64 - feats64[ids[has]]) / (k[has] - 1)[:, None]
        want.append(mean.astype(np.float32))
    for got, w in zip(sibling_offer_summaries(g, ids), want):
        assert got.dtype == w.dtype and np.array_equal(got, w)


def draw_masking_spec(g, data):
    """A ``new_seller_new_product`` spec with drawn sellers, products and
    evaluation offers of ``g``."""
    return ScenarioSpec(
        scenario="new_seller_new_product",
        seed=0,
        new_sellers=tuple(data.draw(st.lists(st.integers(0, g.n_sellers - 1), unique=True))),
        new_products=tuple(data.draw(st.lists(st.integers(0, g.n_products - 1), unique=True))),
        eval_offers=tuple(data.draw(st.lists(st.integers(0, g.n_offers - 1), unique=True))),
    )


@settings(max_examples=40, deadline=None)
@given(hub_owner_graphs(), st.data())
def test_sibling_summaries_equal_reference_bitwise(g, data):
    """On the graph and then on a masked scenario copy, the means from the
    cached per-owner sums are the per-call reference's bit for bit: repeated
    ids in any order, every offer whose owner has no other offer included."""
    spec = draw_masking_spec(g, data)
    masked, _ = apply_scenario(g, spec)
    lone = [np.flatnonzero(np.diff(g.offers_of(t).indptr)[owner] == 1)
            for t, owner in zip(NodeType, (g.offer_seller, g.offer_product))]
    for h in (g, masked):
        ids = np.array(data.draw(st.lists(st.integers(0, g.n_offers - 1), max_size=40)),
                       dtype=np.int64)
        ids = np.concatenate([ids, *lone])
        for got, want in zip(sibling_offer_summaries(h, ids),
                             reference_sibling_offer_summaries(h, ids)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


@FAST
@given(graph_arrays(min_offers=1), st.data())
def test_scenario_copies_share_derived_matrices(kw, data):
    g = HeteroGraph.from_arrays(**kw)
    spec = draw_masking_spec(g, data)
    derived = (g.normalized_stack(), g.offers_of(NodeType.SELLER), g.offers_of(NodeType.PRODUCT))
    masked, _ = apply_scenario(g, spec)
    again, _ = apply_scenario(masked, spec)
    for h in (masked, again):
        got = (h.normalized_stack(), h.offers_of(NodeType.SELLER), h.offers_of(NodeType.PRODUCT))
        assert all(a is b for a, b in zip(got, derived))


@FAST
@given(graph_arrays(min_offers=1), st.data())
def test_copies_sum_their_own_offer_features(kw, data):
    """Built after the parent's, a copy's per-owner sums and sibling means
    follow the copy's own offer features, while the topology matrices stay
    the parent's objects."""
    g = HeteroGraph.from_arrays(**kw)
    ids = np.arange(g.n_offers)
    before = sibling_offer_summaries(g, ids)
    derived = (g.normalized_stack(), g.offers_of(NodeType.SELLER), g.offers_of(NodeType.PRODUCT))
    spec = draw_masking_spec(g, data)
    shifted = g.copy_with_features(g.seller_features, g.product_features,
                                   2 * g.offer_features + 1)
    masked, _ = apply_scenario(g, spec)
    for h in (shifted, masked, apply_scenario(shifted, spec)[0]):
        feats64 = h.offer_features.astype(np.float64)
        for t in NodeType:
            assert h.offer_sums(t) is not g.offer_sums(t)
            assert np.array_equal(h.offer_sums(t), h.offers_of(t) @ feats64)
        for got, want in zip(sibling_offer_summaries(h, ids),
                             reference_sibling_offer_summaries(h, ids)):
            assert np.array_equal(got, want)
        got = (h.normalized_stack(), h.offers_of(NodeType.SELLER), h.offers_of(NodeType.PRODUCT))
        assert all(a is b for a, b in zip(got, derived))
    for got, want in zip(sibling_offer_summaries(g, ids), before):
        assert np.array_equal(got, want)
