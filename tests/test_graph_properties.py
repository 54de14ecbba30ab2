"""Property tests for the graph core over small random graphs.

Generated graphs include isolated sellers and products, empty relations,
sellers with a single offer and unlabeled graphs.  Besides construction,
they check the matrices derived from the topology (``union_csr``,
``offers_of``) and their users: ego extraction, sibling-offer summaries
and scenario copies.
"""

import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import bfs_oracle
from coldgraph.graph import (
    N_CLASSES,
    GraphBuilder,
    HeteroGraph,
    NodeRef,
    NodeType,
    Relation,
    validate,
)
from coldgraph.models import sibling_offer_summaries
from coldgraph.sampling import OfferBatch, extract_ego_network
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


def assert_same_graph(g, h):
    for name in ("seller_features", "product_features", "offer_features",
                 "offer_seller", "offer_product"):
        a, b = getattr(g, name), getattr(h, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes() and a.shape == b.shape, name
    for r in SS:
        np.testing.assert_array_equal(g.ss_edges(r), h.ss_edges(r))
    if g.labels is None:
        assert h.labels is None
    else:
        np.testing.assert_array_equal(g.labels, h.labels)
    for r in Relation:
        a, b = g.unified_csr(r), h.unified_csr(r)
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(a, part), getattr(b, part))


@FAST
@given(graph_arrays())
def test_builder_and_from_arrays_agree(kw):
    g = HeteroGraph.from_arrays(**kw)
    assert validate(g) is None
    b = GraphBuilder(kw["seller_features"].shape[1], kw["product_features"].shape[1],
                     kw["offer_features"].shape[1])
    for row in kw["seller_features"]:
        b.add_node(NodeType.SELLER, row)
    for row in kw["product_features"]:
        b.add_node(NodeType.PRODUCT, row)
    for s, p, row in zip(kw["offer_seller"], kw["offer_product"], kw["offer_features"]):
        b.add_edge(Relation.OFFER, NodeRef(NodeType.SELLER, int(s)),
                   NodeRef(NodeType.PRODUCT, int(p)), offer_features=row)
    for r, edges in zip(SS, kw["ss_edges"]):
        for a, c in edges.tolist():
            b.add_edge(r, NodeRef(NodeType.SELLER, a), NodeRef(NodeType.SELLER, c))
    assert_same_graph(g, b.build(labels=kw["labels"]))
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
        edges = g.n_offers if r.is_offer else g.ss_edge_count(r)
        assert mat.nnz == 2 * edges
        assert mat.has_sorted_indices
    assert g.n_edges == g.n_offers + sum(g.ss_edge_count(r) for r in SS)


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


# ---------------------------------------------------------------------------
# derived topology


def edge_set(mat):
    coo = mat.tocoo()
    return set(zip(coo.row.tolist(), coo.col.tolist()))


@FAST
@given(graph_arrays())
def test_union_csr_is_binary_or_of_the_nine_relations(kw):
    g = HeteroGraph.from_arrays(**kw)
    union = g.union_csr()
    assert union.shape == (g.n_nodes, g.n_nodes)
    assert union.has_sorted_indices and not union.data.flags.writeable
    assert (union.data == 1).all()
    assert edge_set(union) == set().union(*(edge_set(g.unified_csr(r)) for r in Relation))
    # offer edges join sellers to products, so the seller block is the
    # union of the seller-seller relations alone
    ns = g.n_sellers
    pairs = {(a, b) for r in SS for a, b in g.ss_edges(r).tolist()}
    assert edge_set(union[:ns, :ns]) == pairs | {(b, a) for a, b in pairs}
    assert g.union_csr() is union


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
        g.union_csr()
        for node_type in NodeType:
            g.offers_of(node_type)
    fresh = HeteroGraph.from_arrays(**kw)
    for r in Relation:
        a, b = g.unified_csr(r), fresh.unified_csr(r)
        assert a.shape == b.shape and edge_set(a) == edge_set(b), r.name
    assert g.offers_of(NodeType.SELLER).shape == (g.n_sellers, g.n_offers)
    assert g.offers_of(NodeType.PRODUCT).shape == (g.n_products, g.n_offers)
    assert g.union_csr().shape == (g.n_nodes, g.n_nodes)


@FAST
@given(graph_arrays(min_offers=1), st.data())
def test_ego_network_matches_bfs_oracle(kw, data):
    g = HeteroGraph.from_arrays(**kw)
    offers = data.draw(st.lists(st.integers(0, g.n_offers - 1), min_size=1, unique=True))
    for hops in (1, 2, 3):
        ego = extract_ego_network(g, OfferBatch(np.array(offers)), hops)
        got = dict(zip(ego.nodes.tolist(), ego.hop.tolist()))
        assert got == bfs_oracle(g, offers, hops)


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


@FAST
@given(graph_arrays(min_offers=1), st.data())
def test_scenario_copies_share_derived_matrices(kw, data):
    g = HeteroGraph.from_arrays(**kw)
    spec = ScenarioSpec(
        scenario="new_seller_new_product",
        seed=0,
        new_sellers=tuple(data.draw(st.lists(st.integers(0, g.n_sellers - 1), unique=True))),
        new_products=tuple(data.draw(st.lists(st.integers(0, g.n_products - 1), unique=True))),
        eval_offers=tuple(data.draw(st.lists(st.integers(0, g.n_offers - 1), unique=True))),
    )
    derived = (g.union_csr(), g.offers_of(NodeType.SELLER), g.offers_of(NodeType.PRODUCT))
    masked, _ = apply_scenario(g, spec)
    again, _ = apply_scenario(masked, spec)
    for h in (masked, again):
        got = (h.union_csr(), h.offers_of(NodeType.SELLER), h.offers_of(NodeType.PRODUCT))
        assert all(a is b for a, b in zip(got, derived))
