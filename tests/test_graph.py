import numpy as np
import pytest

from _helpers import make_random_graph
from coldgraph.graph import (
    CLASS_NAMES,
    N_CLASSES,
    ExpandedGraph,
    HeteroGraph,
    Relation,
    build_expanded_graph,
    row_mean_normalize,
)
from coldgraph.simulate import SCENARIOS, apply_scenario, make_scenario


def tiny_graph(labels=None):
    """Three sellers and two products; offers (seller, product) (0, 0),
    (1, 0) and (1, 1); SS0 joins sellers 0 and 1, SS3 sellers 2 and 0."""
    ss = [[]] * len(Relation.seller_seller())
    ss[Relation.SS0], ss[Relation.SS3] = [[0, 1]], [[2, 0]]
    return HeteroGraph.from_arrays(
        [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        [[2.0, 0.0], [0.0, 2.0]],
        [0, 1, 1],
        [0, 0, 1],
        [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]],
        ss,
        labels=labels,
    )


def csr_row(g, relation, node):
    mat = g.unified_csr(relation)
    return mat.indices[mat.indptr[node]:mat.indptr[node + 1]].tolist()


def neighbor_oracle(g, relation, node):
    """Sorted unified-space neighbors of one node, enumerated from the arrays."""
    relation = Relation(relation)
    n_s = g.n_sellers
    if relation.is_offer:
        pairs = zip(g.offer_seller.tolist(), (g.offer_product + n_s).tolist())
    else:
        pairs = map(tuple, g.ss_edges(relation).tolist())
    found = set()
    for a, b in pairs:
        if a == node:
            found.add(b)
        if b == node:
            found.add(a)
    return sorted(found)


def test_relation_tags():
    assert len(list(Relation)) == 9
    assert sum(r.is_offer for r in Relation) == 1
    assert len(Relation.seller_seller()) == 8


def test_counts_and_features():
    g = tiny_graph()
    assert (g.n_sellers, g.n_products, g.n_offers) == (3, 2, 3)
    assert g.n_edges == 2 + 3
    np.testing.assert_allclose(g.offer_features[1], [4.0, 5.0, 6.0])
    assert g.seller_features.dtype == np.float32


def test_neighbors_sorted_and_typed():
    g = tiny_graph()
    n_s = g.n_sellers
    p0 = n_s + 0  # product 0 in the unified node space
    assert csr_row(g, Relation.SS0, 0) == [1]
    assert csr_row(g, Relation.SS3, 0) == [2]
    assert csr_row(g, Relation.SS5, 0) == []
    # product 0's offer neighbors are sellers 0 and 1, in index order
    assert csr_row(g, Relation.OFFER, p0) == [0, 1]
    assert all(j < n_s for j in csr_row(g, Relation.OFFER, p0))
    # products have no seller-seller neighbors
    assert csr_row(g, Relation.SS0, p0) == []
    # each relation's edge array is canonical: a < b, rows sorted
    assert g.ss_edges(Relation.SS3).tolist() == [[0, 2]]


def test_labels_validation():
    with pytest.raises(ValueError, match="shape"):
        tiny_graph(labels=np.zeros((2, N_CLASSES)))
    bad = np.zeros((3, N_CLASSES))
    bad[0, 0] = 2
    with pytest.raises(ValueError, match="binary"):
        tiny_graph(labels=bad)
    ok = np.zeros((3, N_CLASSES), dtype=np.uint8)
    ok[:, 8] = 1
    g = tiny_graph(labels=ok)
    assert g.labels.shape == (3, N_CLASSES)


def test_class_names():
    assert len(CLASS_NAMES) == 9
    assert CLASS_NAMES[-1] == "normal"


def test_unified_csr_matches_neighbor_lists():
    g = make_random_graph(seed=11)
    for r in Relation:
        mat = g.unified_csr(r)
        assert (mat != mat.T).nnz == 0  # symmetric
        for v in range(g.n_nodes):
            assert csr_row(g, r, v) == neighbor_oracle(g, r, v)


def test_expanded_graph_doubles_offer_incident_edges():
    for seed in range(5):
        g = make_random_graph(seed=seed)
        eg = build_expanded_graph(g)
        mats = eg.relation_csrs()
        assert len(mats) == 10
        # seller-seller copied unchanged
        for r in Relation.seller_seller():
            sub = mats[r][: g.n_sellers, : g.n_sellers]
            assert (sub != g.unified_csr(r)[: g.n_sellers, : g.n_sellers]).nnz == 0
        # every offer node has degree exactly 2: one seller edge, one product edge
        off = np.arange(g.n_nodes, eg.n_nodes)
        deg = np.zeros(eg.n_nodes)
        for mat in mats[8:]:
            deg += np.asarray(mat.sum(axis=1)).ravel()
        np.testing.assert_array_equal(deg[off], 2.0)
        # count actual offer-incident edges in the two incidence relations
        incident = sum(int(mat.nnz) for mat in mats[8:]) // 2
        assert incident == 2 * g.n_offers


def test_expanded_matrices_built_once_per_topology():
    g = make_random_graph(seed=3)
    ref = build_expanded_graph(g)
    binary, stack = ref.relation_csrs(), ref.normalized_stack()
    for name in SCENARIOS:
        masked, _ = apply_scenario(g, make_scenario(g, name, seed=1))
        eg = build_expanded_graph(masked)
        assert eg.normalized_stack() is stack
        for r in range(ExpandedGraph.N_RELATIONS):
            assert eg.relation_csrs()[r] is binary[r]
    n = eg.n_nodes
    for r in range(ExpandedGraph.N_RELATIONS):
        want = row_mean_normalize(binary[r])
        assert (stack[r * n:(r + 1) * n] != want).nnz == 0
    for mat in (*binary, stack):
        assert not any(a.flags.writeable for a in (mat.data, mat.indices, mat.indptr))
    for r in Relation.seller_seller():
        unified = g.unified_csr(r)
        assert np.shares_memory(binary[r].indices, unified.indices)
        assert np.shares_memory(binary[r].data, unified.data)
        assert binary[r].indptr[g.n_nodes:].tolist() == [unified.nnz] * (g.n_offers + 1)


def test_nonfinite_feature_rejected_at_construction():
    g = make_random_graph(seed=2)
    sf = np.array(g.seller_features)
    sf[3, 1] = np.nan
    want = "^non-finite value in seller features at row 3, column 1$"
    with pytest.raises(ValueError, match=want):
        g.copy_with_features(sf, g.product_features, g.offer_features)
    with pytest.raises(ValueError, match=want):
        HeteroGraph.from_arrays(
            sf, g.product_features, g.offer_seller, g.offer_product, g.offer_features,
            [g.ss_edges(r) for r in Relation.seller_seller()], labels=g.labels,
        )


def test_from_arrays_rejects_dangling_offer():
    g = tiny_graph()
    offer_product = g.offer_product.copy()
    offer_product[0] = 99
    with pytest.raises(ValueError, match="offer 0 references unknown product 99"):
        HeteroGraph.from_arrays(
            g.seller_features, g.product_features, g.offer_seller, offer_product,
            g.offer_features, [g.ss_edges(r) for r in Relation.seller_seller()],
        )


def test_copy_with_features_shares_topology():
    g = make_random_graph(seed=9)
    g2 = g.copy_with_features(
        np.zeros_like(g.seller_features),
        g.product_features,
        g.offer_features,
    )
    assert g2.n_edges == g.n_edges
    np.testing.assert_array_equal(g2.labels, g.labels)
    assert g2.seller_features.sum() == 0.0
    np.testing.assert_array_equal(g2.offer_seller, g.offer_seller)
    # the copy shares the topology arrays and the CSR cache
    assert g2.offer_seller is g.offer_seller
    assert g2.unified_csr(Relation.SS1) is g.unified_csr(Relation.SS1)
    with pytest.raises(ValueError, match="seller features must have shape"):
        g.copy_with_features(g.seller_features[:-1], g.product_features, g.offer_features)


def test_graph_arrays_are_read_only():
    g = make_random_graph(seed=3)
    for arr in (g.seller_features, g.offer_features, g.offer_seller, g.labels,
                g.ss_edges(Relation.SS0), g.unified_csr(Relation.OFFER).data):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
