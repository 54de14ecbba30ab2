"""
A seller-product graph, by hand
===============================

Offers are feature-bearing edges between seller and product nodes.
This script builds a five-node toy graph, walks its relations, then
lifts offers to nodes and checks the edge count doubles.
"""

import numpy as np

from coldgraph.graph import HeteroGraph, Relation, build_expanded_graph

# two sellers, three products, four offers; tiny made-up feature vectors
g = HeteroGraph.from_arrays(
    seller_features=np.array([[0.9, 0.1], [0.2, 0.8]], dtype=np.float32),
    product_features=np.array([[1.0], [2.0], [3.0]], dtype=np.float32),
    offer_features=np.array(
        [[0.5, 0.0], [0.1, 1.0], [0.7, 0.2], [0.3, 0.9]], dtype=np.float32
    ),
    offer_seller=np.array([0, 0, 1, 1]),
    offer_product=np.array([0, 1, 1, 2]),
    # seller-seller channels: the two sellers share an address
    ss_edges=[np.array([[0, 1]]) if r == Relation.SS0 else np.zeros((0, 2), dtype=np.int64)
              for r in range(8)],
)

print("nodes:", g.n_sellers, "sellers +", g.n_products, "products")
print("offers (edges with features):", g.n_offers)
print("total edges over all relations:", g.n_edges)

# every offer knows its endpoints
for o in range(g.n_offers):
    print(f"  offer {o}: seller {g.offer_seller[o]} -> product {g.offer_product[o]}")

# siblings: offers sharing this offer's seller or product, itself excluded
others = np.arange(g.n_offers) != 1
same_seller = np.flatnonzero(others & (g.offer_seller == g.offer_seller[1]))
same_product = np.flatnonzero(others & (g.offer_product == g.offer_product[1]))
print("offer 1 siblings via seller:", same_seller.tolist(), "via product:", same_product.tolist())

# the offers-as-nodes form has one seller link and one product link per offer
eg = build_expanded_graph(g)
csrs = eg.relation_csrs()
incident = (csrs[8].nnz + csrs[9].nnz) // 2
print("expanded graph:", eg.n_nodes, "nodes,", incident, "offer-incident edges")
assert incident == 2 * g.n_offers
print("offer-incident edges are exactly twice the offer edges")
