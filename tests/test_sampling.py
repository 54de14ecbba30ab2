import numpy as np
import pytest

from _helpers import bfs_oracle, make_random_graph
from coldgraph.graph import GraphBuilder, NodeType, Relation, build_expanded_graph
from coldgraph.sampling import OfferBatch, ego_network, extract_ego_network, sample_offer_batch


def path_graph():
    """s1 - offer - p1, s1 - s2 (seller link), s2 - offer - p2."""
    g = GraphBuilder(d_s=1, d_p=1, d_o=1)
    s1 = g.add_node(NodeType.SELLER, [1.0])
    s2 = g.add_node(NodeType.SELLER, [2.0])
    p1 = g.add_node(NodeType.PRODUCT, [1.0])
    p2 = g.add_node(NodeType.PRODUCT, [2.0])
    g.add_edge(Relation.OFFER, s1, p1, offer_features=[0.5])
    g.add_edge(Relation.SS0, s1, s2)
    g.add_edge(Relation.OFFER, s2, p2, offer_features=[0.7])
    labels = np.zeros((2, 9), dtype=np.uint8)
    labels[:, 8] = 1
    return g.build(labels=labels)


def test_path_graph_hop_growth():
    g = path_graph()
    batch = OfferBatch(np.array([0]))
    # endpoints (s1, p1) are at hop 0; s2 is one edge away, p2 two.
    # Unified ids: sellers 0 and 1, then products 0 and 1 as 2 and 3.
    ego1 = extract_ego_network(g, batch, hops=1)
    assert ego1.nodes.tolist() == [0, 1, 2]
    ego2 = extract_ego_network(g, batch, hops=2)
    assert ego2.nodes.tolist() == [0, 1, 2, 3]
    assert ego2.hop.tolist() == [0, 1, 0, 2]


def test_whole_component_at_diameter():
    g = path_graph()
    ego = extract_ego_network(g, OfferBatch(np.array([0])), hops=10)
    assert ego.n_local == g.n_nodes


def test_ego_matches_bfs_oracle():
    for seed in range(6):
        g = make_random_graph(seed=seed, n_sellers=25, n_products=12, ss_p=0.05)
        batch = sample_offer_batch(g, 3, rng_seed=seed)
        for hops in (1, 2, 3):
            ego = extract_ego_network(g, batch, hops)
            want = bfs_oracle(g, batch.offers, hops)
            # local order is ascending unified id: sellers, then products
            got = ego.nodes.tolist()
            assert set(got) == set(want)
            assert ego.hop.tolist() == [want[v] for v in got]


def test_ego_monotone_in_hops():
    g = make_random_graph(seed=3)
    batch = sample_offer_batch(g, 2, rng_seed=0)
    prev = None
    for hops in (1, 2, 3, 4):
        ego = extract_ego_network(g, batch, hops)
        nodes = set(ego.nodes.tolist())
        if prev is not None:
            assert prev <= nodes
        prev = nodes


def test_ego_plan_blocks_are_global_normalized_rows():
    g = make_random_graph(seed=5)
    batch = sample_offer_batch(g, 4, rng_seed=7)
    for hops in (1, 2, 3):
        ego = extract_ego_network(g, batch, hops)
        included = ego.nodes
        assert len(ego.plan) == hops
        inputs = included
        for k, layer in enumerate(ego.plan):
            # layer k computes the nodes within hops-1-k of the batch endpoints
            outputs = included[ego.hop <= hops - 1 - k]
            np.testing.assert_array_equal(inputs[layer.keep], outputs)
            with_block = set()
            for block in layer.blocks:
                with_block.add(block.relation)
                full = g.normalized_csr(block.relation)[outputs]
                # each block row is the global normalized row restricted to
                # its columns, and those columns hold the whole row
                np.testing.assert_array_equal(
                    block.adj.toarray(), full[:, inputs[block.cols]].toarray()
                )
                np.testing.assert_array_equal(block.adj.getnnz(axis=1), full.getnnz(axis=1))
                assert np.all(block.adj.getnnz(axis=0) > 0)  # every column is read
                assert np.all(np.diff(block.cols) > 0)
            for r in set(Relation) - with_block:
                assert g.normalized_csr(r)[outputs].nnz == 0
            inputs = outputs


def test_batch_endpoint_locals():
    g = make_random_graph(seed=8)
    batch = sample_offer_batch(g, 5, rng_seed=2)
    ego = extract_ego_network(g, batch, hops=1)
    # seeds are the batch sellers, then the batch products, as unified ids
    sellers, products = g.offer_seller[batch.offers], g.offer_product[batch.offers]
    np.testing.assert_array_equal(ego.seeds, np.concatenate([sellers, products + g.n_sellers]))
    local = np.searchsorted(ego.nodes, ego.seeds)
    np.testing.assert_array_equal(ego.nodes[local], ego.seeds)
    assert np.all(ego.hop[local] == 0)
    assert np.all(np.diff(ego.nodes) > 0)  # sorted and unique
    # the last layer outputs the hop-zero nodes in order; seed_rows finds each seed there
    out = ego.nodes[ego.hop == 0]
    assert ego.plan[-1].keep.shape == out.shape
    np.testing.assert_array_equal(out[ego.seed_rows()], ego.seeds)
    np.testing.assert_array_equal(ego.seed_rows(), np.searchsorted(np.unique(ego.seeds), ego.seeds))


def test_ego_inputs_split_node_types_by_id_range():
    # the expanded graph's three node types: sellers, products, offer nodes
    g = make_random_graph(seed=9)
    eg = build_expanded_graph(g)
    seeds = g.n_nodes + np.array([4, 1, 4])
    ego = ego_network(eg.union_csr(), eg.normalized_csrs(), seeds, 3)
    feats = {"seller": g.seller_features, "product": g.product_features,
             "offer": g.offer_features}
    starts = {"seller": 0, "product": g.n_sellers, "offer": g.n_nodes}
    for layers in (1, 2, 3):
        first = ego.nodes[ego.hop <= layers]
        got = ego.inputs(layers, feats)
        assert list(got) == list(feats)
        assert sum(x.shape[0] for x in got.values()) == first.shape[0]
        for name, x in feats.items():
            lo = starts[name]
            ids = first[(first >= lo) & (first < lo + x.shape[0])]
            np.testing.assert_array_equal(got[name], x[ids - lo])
    np.testing.assert_array_equal(ego.seed_rows(), [1, 0, 1])


def test_sample_offer_batch_uniform_frequency():
    g = make_random_graph(seed=1, n_sellers=3, n_products=3, max_offers_per_seller=2)
    n = g.n_offers
    counts = np.zeros(n)
    n_draws = 4000
    for s in range(n_draws):
        counts[sample_offer_batch(g, 1, rng_seed=s).offers[0]] += 1
    freq = counts / n_draws
    np.testing.assert_allclose(freq, 1.0 / n, atol=0.035)


def test_sample_offer_batch_properties():
    g = make_random_graph(seed=2)
    b1 = sample_offer_batch(g, 10, rng_seed=42)
    b2 = sample_offer_batch(g, 10, rng_seed=42)
    np.testing.assert_array_equal(b1.offers, b2.offers)
    assert len(np.unique(b1.offers)) == 10
    big = sample_offer_batch(g, 10_000, rng_seed=0)
    assert len(big) == g.n_offers
    unlabeled = make_random_graph(seed=2, labeled=False)
    with pytest.raises(ValueError, match="labeled"):
        sample_offer_batch(unlabeled, 4, rng_seed=0)


def test_batch_uniqueness_enforced():
    with pytest.raises(ValueError, match="unique"):
        OfferBatch(np.array([1, 1, 2]))


def test_extract_errors():
    g = make_random_graph(seed=4)
    batch = sample_offer_batch(g, 2, rng_seed=0)
    with pytest.raises(ValueError, match="hops"):
        extract_ego_network(g, batch, hops=0)
    with pytest.raises(ValueError, match="unknown offers"):
        extract_ego_network(g, OfferBatch(np.array([g.n_offers + 3])), hops=1)
    with pytest.raises(ValueError, match="unknown offers"):
        extract_ego_network(g, OfferBatch(np.array([0, -1])), hops=1)
