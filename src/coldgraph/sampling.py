"""Mini-batch sampling: uniform offer batches and their ego networks.

An ego network is the induced subgraph on every node within ``hops``
relation-edges of some endpoint of a batch offer (endpoints are at hop
zero).  Extracting the ego network of depth L suffices to reproduce the
whole-graph output of an L-layer relational GNN at the batch endpoints:
layer l of a node only reads nodes l edges away, and all such nodes and
the edges among them are present, with their full-graph degrees intact
for every node shallower than the boundary.

The breadth-first search is vectorised: each hop is one row gather from
the graph's cached union adjacency (``HeteroGraph.union_csr``) and one
``np.unique``, with no loop over frontier nodes or relations.

Local node order is all included sellers in ascending index, then all
included products; adjacency is re-indexed into that order and row-mean
normalized per relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .graph import HeteroGraph, Relation, row_mean_normalize

__all__ = [
    "OfferBatch",
    "EgoNetwork",
    "sample_offer_batch",
    "extract_ego_network",
]


@dataclass(frozen=True)
class OfferBatch:
    """Unique labeled offer indices plus the seed that produced them."""

    offers: np.ndarray
    seed: Optional[int] = None

    def __post_init__(self):
        offers = np.asarray(self.offers, dtype=np.int64)
        if offers.ndim != 1:
            raise ValueError("a batch is a flat index array")
        if len(np.unique(offers)) != offers.shape[0]:
            raise ValueError("batch offers must be unique")
        object.__setattr__(self, "offers", offers)

    def __len__(self):
        return self.offers.shape[0]


def sample_offer_batch(g: HeteroGraph, batch_size: int, rng_seed: int) -> OfferBatch:
    """Uniform sample of labeled offers without replacement.

    Returns fewer than ``batch_size`` offers only when the graph has fewer
    labeled offers than that.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if g.labels is None or g.n_offers == 0:
        raise ValueError("graph has no labeled offers")
    rng = np.random.default_rng(rng_seed)
    take = min(batch_size, g.n_offers)
    idx = np.sort(rng.choice(g.n_offers, size=take, replace=False))
    return OfferBatch(idx, seed=rng_seed)


@dataclass
class EgoNetwork:
    """Locally re-indexed neighborhood closure of a batch.

    ``rel_adj[r]`` is the induced adjacency of relation ``r`` with each row
    scaled by the inverse of its neighbor count (empty rows stay empty), in
    local node order: sellers first, then products.
    """

    hops: int
    batch: OfferBatch
    seller_globals: np.ndarray
    product_globals: np.ndarray
    hop: np.ndarray
    rel_adj: list = field(repr=False)
    batch_seller_local: np.ndarray = field(repr=False)
    batch_product_local: np.ndarray = field(repr=False)

    @property
    def n_local(self) -> int:
        return self.seller_globals.shape[0] + self.product_globals.shape[0]

    @property
    def n_local_sellers(self) -> int:
        return self.seller_globals.shape[0]


def extract_ego_network(g: HeteroGraph, batch: OfferBatch, hops: int) -> EgoNetwork:
    """Breadth-first closure of the batch endpoints over all nine relations."""
    if hops < 1:
        raise ValueError("hops must be at least 1")
    if len(batch) == 0:
        raise ValueError("empty batch")
    if batch.offers.min() < 0 or batch.offers.max() >= g.n_offers:
        raise ValueError("batch references unknown offers")

    n_s = g.n_sellers
    n = g.n_nodes
    union = g.union_csr()

    hop = np.full(n, -1, dtype=np.int32)
    batch_sellers = g.offer_seller[batch.offers]
    batch_products = g.offer_product[batch.offers] + n_s
    frontier = np.unique(np.concatenate([batch_sellers, batch_products]))
    hop[frontier] = 0
    for depth in range(1, hops + 1):
        cand = np.unique(union[frontier].indices)
        fresh = cand[hop[cand] < 0]
        hop[fresh] = depth
        frontier = fresh

    included = np.flatnonzero(hop >= 0)
    seller_globals = included[included < n_s]
    product_globals = included[included >= n_s] - n_s

    local_of = np.full(n, -1, dtype=np.int64)
    local_of[included] = np.arange(included.shape[0])

    rel_adj = [row_mean_normalize(g.unified_csr(r)[included][:, included]) for r in Relation]

    return EgoNetwork(
        hops=hops,
        batch=batch,
        seller_globals=seller_globals,
        product_globals=product_globals,
        hop=hop[included],
        rel_adj=rel_adj,
        batch_seller_local=local_of[batch_sellers],
        batch_product_local=local_of[batch_products],
    )
