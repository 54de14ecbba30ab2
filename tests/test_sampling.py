import numpy as np
import pytest
import scipy.sparse as sp

from _helpers import as_csr_matrix, bfs_oracle, make_random_graph, pad_isolated, traced_peak
from coldgraph.graph import HeteroGraph, Relation, build_expanded_graph, row_mean_normalize
from coldgraph.sampling import ego_network, extract_ego_network


def path_graph():
    """s1 - offer - p1, s1 - s2 (seller link), s2 - offer - p2."""
    ss = [[]] * len(Relation.seller_seller())
    ss[Relation.SS0] = [[0, 1]]
    labels = np.zeros((2, 9), dtype=np.uint8)
    labels[:, 8] = 1
    return HeteroGraph.from_arrays(
        [[1.0], [2.0]], [[1.0], [2.0]], [0, 1], [0, 1], [[0.5], [0.7]], ss, labels=labels)


def offer_batch(g, size, seed):
    """Sorted uniform sample of ``size`` distinct offer ids."""
    return np.sort(np.random.default_rng(seed).choice(g.n_offers, size=size, replace=False))


def test_path_graph_hop_growth():
    g = path_graph()
    batch = np.array([0])
    # endpoints (s1, p1) are at hop 0; s2 is one edge away, p2 two.
    # Unified ids: sellers 0 and 1, then products 0 and 1 as 2 and 3.
    ego1 = extract_ego_network(g, batch, hops=1)
    assert ego1.nodes.tolist() == [0, 1, 2]
    ego2 = extract_ego_network(g, batch, hops=2)
    assert ego2.nodes.tolist() == [0, 1, 2, 3]
    assert ego2.hop.tolist() == [0, 1, 0, 2]


def test_whole_component_at_diameter():
    g = path_graph()
    ego = extract_ego_network(g, np.array([0]), hops=10)
    assert ego.n_local == g.n_nodes


def test_ego_matches_bfs_oracle():
    for seed in range(6):
        g = make_random_graph(seed=seed, n_sellers=25, n_products=12, ss_p=0.05)
        batch = offer_batch(g, 3, seed)
        for hops in (1, 2, 3):
            ego = extract_ego_network(g, batch, hops)
            want = bfs_oracle(g, batch, hops)
            # local order is ascending unified id: sellers, then products
            got = ego.nodes.tolist()
            assert set(got) == set(want)
            assert ego.hop.tolist() == [want[v] for v in got]


def test_ego_monotone_in_hops():
    g = make_random_graph(seed=3)
    batch = offer_batch(g, 2, 0)
    prev = None
    for hops in (1, 2, 3, 4):
        ego = extract_ego_network(g, batch, hops)
        nodes = set(ego.nodes.tolist())
        if prev is not None:
            assert prev <= nodes
        prev = nodes


def test_ego_plan_blocks_are_global_normalized_rows():
    g = make_random_graph(seed=5)
    batch = offer_batch(g, 4, 7)

    def normalized(r):
        return row_mean_normalize(g.unified_csr(r))

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
            for part in layer.parts:
                # a part holds its blocks' rows in order and is no taller
                # than the layer input, whose rows are its columns
                assert part.adj.shape == (part.blocks[-1].hi, inputs.shape[0])
                assert part.adj.shape[0] <= inputs.shape[0]
                ends = [0] + [block.hi for block in part.blocks]
                assert [block.lo for block in part.blocks] == ends[:-1]
                for block in part.blocks:
                    with_block.add(block.relation)
                    full = normalized(block.relation)[outputs]
                    # the block's rows are exactly the outputs with a message
                    # of the relation, and each is its global normalized row
                    # restricted to the layer inputs, which hold the whole row
                    np.testing.assert_array_equal(block.rows,
                                                  np.flatnonzero(full.getnnz(axis=1)))
                    adj = as_csr_matrix(part.adj)[block.lo:block.hi]
                    np.testing.assert_array_equal(adj.toarray(),
                                                  full[block.rows][:, inputs].toarray())
                    np.testing.assert_array_equal(adj.getnnz(axis=1),
                                                  full.getnnz(axis=1)[block.rows])
            for r in set(Relation) - with_block:
                assert normalized(r)[outputs].nnz == 0
            inputs = outputs


def test_batch_endpoint_locals():
    g = make_random_graph(seed=8)
    batch = offer_batch(g, 5, 2)
    ego = extract_ego_network(g, batch, hops=1)
    # seeds are the batch sellers, then the batch products, as unified ids
    sellers, products = g.offer_seller[batch], g.offer_product[batch]
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
    feats = {"seller": g.seller_features, "product": g.product_features,
             "offer": g.offer_features}
    starts = {"seller": 0, "product": g.n_sellers, "offer": g.n_nodes}
    for hops in (1, 2, 3):
        ego = ego_network(eg.normalized_stack(), seeds, hops)
        got = ego.inputs(feats)
        assert list(got) == list(feats)
        assert sum(x.shape[0] for x in got.values()) == ego.n_local
        for name, x in feats.items():
            lo = starts[name]
            ids = ego.nodes[(ego.nodes >= lo) & (ego.nodes < lo + x.shape[0])]
            np.testing.assert_array_equal(got[name], x[ids - lo])
        np.testing.assert_array_equal(ego.seed_rows(), [1, 0, 1])


def test_extract_errors():
    g = make_random_graph(seed=4)
    with pytest.raises(ValueError, match="hops"):
        extract_ego_network(g, offer_batch(g, 2, 0), hops=0)
    with pytest.raises(ValueError, match="unknown offers"):
        extract_ego_network(g, np.array([g.n_offers + 3]), hops=1)
    with pytest.raises(ValueError, match="unknown offers"):
        extract_ego_network(g, np.array([0, -1]), hops=1)
    for offers in (np.array([], dtype=np.int64), np.array([[0, 1]])):
        with pytest.raises(ValueError, match="non-empty flat index array"):
            extract_ego_network(g, offers, hops=1)
    with pytest.raises(ValueError, match="^offer ids must have an integer dtype, got float64$"):
        extract_ego_network(g, [0.5], hops=1)  # a cast would read offer 0
    for bound in (0, -16, 8, 40):
        with pytest.raises(ValueError, match=f"positive multiple of 16, got {bound}$"):
            extract_ego_network(g, offer_batch(g, 2, 0), hops=1, max_rows=bound)


def test_ego_network_rejects_seeds_outside_the_node_range():
    stack = make_random_graph(seed=4).normalized_stack()
    n = stack.shape[1]
    for seeds, bad in (([0, -5], -5), ([-1], -1), ([3, n, n + 1], n)):
        with pytest.raises(ValueError, match=rf"^seed {bad} out of range \[0, {n}\)$"):
            ego_network(stack, seeds, 2)
    for seeds in ([], np.array([], dtype=np.int64), [[0, 1]], np.zeros((2, 1), dtype=np.int64)):
        with pytest.raises(ValueError, match="^the seeds are a non-empty flat index array$"):
            ego_network(stack, seeds, 2)


def test_ego_memory_per_graph_node_is_bounded():
    """A few seeds' ego over a small graph padded with isolated nodes
    allocates little more per graph node than the per-call ``hop`` and
    ``rank`` arrays (4 bytes each) and a hop's one-byte mask of reached
    nodes: no hop builds a graph-length running count."""
    pad = 200_000
    g = make_random_graph(seed=2)
    mats = [row_mean_normalize(g.unified_csr(r)) for r in Relation]
    stack = sp.vstack(pad_isolated(mats, pad), format="csr")
    seeds = np.array([0, 7, g.n_nodes - 1])
    peak = traced_peak(lambda: ego_network(stack, seeds, 3))
    assert peak / pad <= 10, f"{peak / pad:.2f} B per padded node"
