"""Mini-batch sampling: uniform offer batches, their ego networks, and the
message-flow plan that runs a relational GNN on an ego network.

An ego network is every node within ``hops`` relation-edges of some seed
(seeds are at hop zero).  It suffices to reproduce the whole-graph output
of an L-layer relational GNN at the seeds, L <= ``hops``: layer l of a
node only reads nodes l edges away.  :func:`ego_network` builds it for both
GNNs: the edge classifier seeds it at a batch's endpoints
(:func:`extract_ego_network`), the expanded-graph baseline at the offer
nodes it classifies.  Its breadth-first search is vectorised: each hop is
one row gather from a cached union adjacency and one mark array.

Layers are pruned by message flow (the GraphSAGE minibatch algorithm, DGL's
"blocks"): the output is read only at hop zero, so layer l of an L-layer
stack computes only the rows with ``hop <= L-1-l``, and those rows read only
rows with ``hop <= L-l``.  Every neighbour of such a row is in the ego
network, so its row of the cached row-normalised matrix is exact as is:
:func:`message_flow_plan` gathers those rows and remaps their columns with
plain numpy index arithmetic.  Within a layer each relation reads only the
columns its rows reference, so relation r contributes
``adj @ (h[cols] @ W_r)``.

Local node order is ascending global id, so node types that own
consecutive id ranges (sellers, then products, then offer nodes) stay
grouped; each layer's rows keep that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .graph import HeteroGraph, Relation

__all__ = [
    "OfferBatch",
    "EgoNetwork",
    "Block",
    "Layer",
    "sample_offer_batch",
    "extract_ego_network",
    "ego_network",
    "message_flow_plan",
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


class Block(NamedTuple):
    """One relation's messages into one layer: ``adj @ h[cols]``."""

    relation: int
    cols: np.ndarray  # ascending rows of the layer input that the relation reads
    adj: sp.csr_matrix  # (layer outputs, len(cols)): normalized rows, columns remapped


class Layer(NamedTuple):
    """One relational convolution of a plan."""

    keep: np.ndarray  # ascending rows of the layer input that are its outputs
    blocks: tuple  # a Block per relation with at least one message into the layer


@dataclass
class EgoNetwork:
    """The nodes within ``hops`` edges of the ``seeds`` (global ids, in the
    caller's order, repeats allowed): ``nodes`` in ascending global id,
    ``hop`` their distances, and a ``plan`` of ``hops`` layers read at the
    seeds.  A model with L layers runs the last L, whose first reads the
    nodes with ``hop <= L``.  ``rel_adj`` lists the plan's block matrices.
    """

    seeds: np.ndarray
    nodes: np.ndarray
    hop: np.ndarray
    plan: tuple = field(repr=False)

    @property
    def hops(self) -> int:
        return len(self.plan)

    @property
    def n_local(self) -> int:
        return self.nodes.shape[0]

    @property
    def rel_adj(self) -> list:
        return [b.adj for layer in self.plan for b in layer.blocks]

    def inputs(self, layers: int, feats: dict) -> dict:
        """Each node type's rows of ``feats`` (type -> features; the types
        own consecutive id ranges in this order) that the first of
        ``layers`` convolutions reads: the nodes with ``hop <= layers``."""
        first = self.nodes[self.hop <= layers]
        ends = np.cumsum([x.shape[0] for x in feats.values()])
        parts = np.split(first, np.searchsorted(first, ends[:-1]))
        return {name: x[ids - (end - x.shape[0])]
                for (name, x), ids, end in zip(feats.items(), parts, ends)}

    def seed_rows(self) -> np.ndarray:
        """Each seed's row in the last layer's output, which holds the
        hop-zero nodes in ascending order."""
        return np.searchsorted(self.nodes[self.hop == 0], self.seeds)


def _row_entries(m: sp.csr_matrix, rows: np.ndarray) -> tuple:
    """(indptr, take): the CSR row pointer of ``m[rows]`` and the positions
    of its entries in ``m.indices`` and ``m.data``, row after row."""
    start = m.indptr[rows]
    lens = m.indptr[rows + 1] - start
    indptr = np.zeros(rows.shape[0] + 1, dtype=m.indptr.dtype)
    np.cumsum(lens, out=indptr[1:])
    return indptr, np.arange(indptr[-1]) + np.repeat(start - indptr[:-1], lens)


def message_flow_plan(
    mats: Sequence[sp.csr_matrix], nodes: np.ndarray, hop: np.ndarray, layers: int
) -> tuple:
    """The :class:`Layer` of each of ``layers`` convolutions read at hop zero.

    ``mats`` holds one row-normalized adjacency per relation over a global
    node space; ``nodes`` are the ascending global ids within ``layers``
    hops of the seeds and ``hop`` their distances, as :func:`ego_network`
    gives them.  Layer k's input rows are the nodes with
    ``hop <= layers-k``, in order, and its outputs those with
    ``hop <= layers-1-k``.  A block row is the node's global row with its
    columns renumbered; the renumbering is monotone, so each row sums its
    neighbours in the same order as the global matrix.
    """
    local = np.full(mats[0].shape[0], -1, dtype=np.int64)
    local[nodes] = np.arange(nodes.shape[0])
    inside = hop <= layers
    plan = []
    for k in range(layers):
        out = hop <= layers - 1 - k
        rank = np.cumsum(inside) - 1  # node -> row of this layer's input
        n_in = int(np.count_nonzero(inside))
        rows = nodes[out]
        blocks = []
        for r, m in enumerate(mats):
            indptr, take = _row_entries(m, rows)
            if take.size == 0:
                continue
            col = rank[local[m.indices[take]]]
            used = np.zeros(n_in, dtype=bool)
            used[col] = True
            cols = np.flatnonzero(used)
            renum = np.cumsum(used, dtype=m.indices.dtype) - 1
            adj = sp.csr_matrix((m.data[take], renum[col], indptr),
                                shape=(rows.shape[0], cols.shape[0]))
            blocks.append(Block(r, cols, adj))
        plan.append(Layer(rank[out], tuple(blocks)))
        inside = out
    return tuple(plan)


def ego_network(
    union: sp.csr_matrix, mats: Sequence[sp.csr_matrix], seeds: np.ndarray, hops: int
) -> EgoNetwork:
    """Breadth-first closure of ``seeds`` over ``union`` (the binary OR of
    ``mats``) to depth ``hops``, with the ``hops``-layer plan over it."""
    seeds = np.asarray(seeds, dtype=np.int64)
    hop = np.full(union.shape[0], -1, dtype=np.int32)
    frontier = np.unique(seeds)
    hop[frontier] = 0
    for d in range(1, hops + 1):
        reached = np.zeros(union.shape[0], dtype=bool)
        reached[union.indices[_row_entries(union, frontier)[1]]] = True
        frontier = np.flatnonzero(reached & (hop < 0))
        hop[frontier] = d
    nodes = np.flatnonzero(hop >= 0)
    return EgoNetwork(seeds, nodes, hop[nodes], message_flow_plan(mats, nodes, hop[nodes], hops))


def extract_ego_network(g: HeteroGraph, batch: OfferBatch, hops: int) -> EgoNetwork:
    """The ego network over all nine relations seeded at the batch offers'
    sellers, then at their products, in batch order."""
    if hops < 1:
        raise ValueError("hops must be at least 1")
    if len(batch) == 0:
        raise ValueError("empty batch")
    if batch.offers.min() < 0 or batch.offers.max() >= g.n_offers:
        raise ValueError("batch references unknown offers")
    seeds = np.concatenate(
        [g.offer_seller[batch.offers], g.offer_product[batch.offers] + g.n_sellers]
    )
    return ego_network(g.union_csr(), [g.normalized_csr(r) for r in Relation], seeds, hops)
