"""Ego networks of offer batches, and the message-flow plan that runs a
relational GNN on an ego network.

An ego network is every node within ``hops`` relation-edges of some seed
(seeds are at hop zero).  It suffices to reproduce the whole-graph output
of a ``hops``-layer relational GNN at the seeds: layer l of a node only
reads nodes l edges away.  :func:`ego_network` builds it for both
GNNs: the edge classifier seeds it at a batch's endpoints
(:func:`extract_ego_network`), the expanded-graph baseline at the offer
nodes it classifies.  Its breadth-first search is vectorised: each hop is
one row gather from a cached union adjacency and one mark array.

Layers are pruned by message flow (the GraphSAGE minibatch algorithm, DGL's
"blocks"): the output is read only at hop zero, so layer l of an L-layer
stack computes only the rows with ``hop <= L-1-l``, and those rows read only
rows with ``hop <= L-l``.  Every neighbour of such a row is in the ego
network, so its row of the cached row-normalised matrix is exact as is:
:func:`message_flow_plan` gathers those rows of every relation in one step
from the relation-stacked matrix (``normalized_stack()``) and replaces
each column by that node's row in the layer input, with plain numpy index
arithmetic.  The gathered rows stay stacked: a layer's non-empty rows,
relation after relation, are cut into a few parts, one CSR each, and each
relation's block is the row slice ``lo:hi`` of its part that holds the
outputs with a message of that relation (``rows``).  So relation r adds
``(part @ h)[lo:hi] @ W_r`` at ``rows``: aggregate first, then transform,
with one sparse product per part and no per-relation gather of ``h``.
A part holds at most ``n_in`` rows (the layer-input row count), or, in a
plan given a row bound (scoring), at most that bound, a relation's rows
then being split across parts where they overflow one.

Local node order is ascending global id, so node types that own
consecutive id ranges (sellers, then products, then offer nodes) stay
grouped; each layer's rows keep that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .graph import HeteroGraph

__all__ = [
    "EgoNetwork",
    "Block",
    "Part",
    "Layer",
    "extract_ego_network",
    "endpoint_seeds",
    "ego_network",
    "message_flow_plan",
    "TILE_ROWS",
]

# A bounded plan splits a relation's rows only at multiples of this many
# rows from their start.  BLAS kernels work on small row tiles and finish
# leftover rows with other code, so each piece's rows land in the same
# tiles as in one product over the whole block, and round alike.
TILE_ROWS = 16


class Block(NamedTuple):
    """One relation's messages into one layer, or in a bounded plan a run of
    them: rows ``lo:hi`` of its part's matrix, one per entry of ``rows``."""

    relation: int
    rows: np.ndarray  # ascending layer outputs with at least one message of the relation
    lo: int
    hi: int


class Part(NamedTuple):
    """Consecutive relation blocks of one layer stacked in one matrix."""

    adj: sp.csr_matrix  # (rows of its blocks, n_in): normalized rows, layer-input columns
    blocks: tuple


class Layer(NamedTuple):
    """One relational convolution of a plan."""

    keep: np.ndarray  # ascending rows of the layer input that are its outputs
    parts: tuple  # Parts holding the Blocks of each relation with a message into the layer


@dataclass
class EgoNetwork:
    """The nodes within ``hops`` edges of the ``seeds`` (global ids, in the
    caller's order, repeats allowed): ``nodes`` in ascending global id,
    ``hop`` their distances, and a ``plan`` of ``hops`` layers read at the
    seeds, whose first reads every node.  ``rel_adj`` lists the plan's
    part matrices.
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
        return [part.adj for layer in self.plan for part in layer.parts]

    def inputs(self, feats: dict) -> dict:
        """Each node type's rows of ``feats`` (type -> features; the types
        own consecutive id ranges in this order) at the ego's nodes: the
        input rows of the plan's first layer."""
        ends = np.cumsum([x.shape[0] for x in feats.values()])
        parts = np.split(self.nodes, np.searchsorted(self.nodes, ends[:-1]))
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
    stack: sp.csr_matrix, nodes: np.ndarray, hop: np.ndarray, layers: int,
    max_rows: int | None = None,
) -> tuple:
    """The :class:`Layer` of each of ``layers`` convolutions read at hop zero.

    ``stack`` holds one row-normalized adjacency per relation over a global
    node space of ``n = stack.shape[1]`` nodes, stacked relation-major (row
    ``r*n + i`` is row ``i`` of relation ``r``, as ``normalized_stack()``
    gives it); ``nodes`` are the ascending global ids within ``layers``
    hops of the seeds and ``hop`` their distances, as :func:`ego_network`
    gives them.  Layer k's input rows are the nodes with
    ``hop <= layers-k``, in order, and its outputs those with
    ``hop <= layers-1-k``.  A block row is the non-empty global row of an
    output with each column replaced by that node's layer-input row; the
    replacement is monotone, so each row sums its neighbours in the same
    order as the global matrix.

    Each layer gathers its outputs' rows of every relation at once and
    maps all their columns to layer-input rows in one step.  The non-empty
    rows, relation after relation, are then cut into parts:

    - with no ``max_rows`` (training), runs of whole relation blocks with
      at most ``n_in`` rows in all (a block has at most ``n_out <= n_in``),
      so a part's product with the layer input is never larger than the
      input.  Training parts stay this tall because the backward builds an
      ``n_in``-row ``part.adj.T @ m`` per part and adds it into the input
      gradient, so more parts mean more full-width passes: capping training
      plans at the scoring bound (2048 rows at the default widths, 45 parts
      per default batch instead of 10) made the default training benchmark
      about 20% slower (1869/1776/1854 ms to 2222/2229/2216 ms in three
      alternating pairs on 2 vCPUs) and saved no peak RSS;
    - with ``max_rows``, a positive multiple of :data:`TILE_ROWS`
      (scoring), parts of at most ``max_rows`` rows, each filled before the
      next starts: a relation whose rows overflow the current part ends it
      with a piece cut at a multiple of ``TILE_ROWS`` rows from the
      relation's first row, and goes on in the next part as another block
      of the same relation.  A layer's temporaries then hold at most
      ``max_rows`` rows, however large the ego, with every row computed
      as in the unbounded plan.
    """
    if max_rows is not None and (max_rows < 1 or max_rows % TILE_ROWS):
        raise ValueError(f"max_rows must be a positive multiple of {TILE_ROWS}, got {max_rows}")
    n = stack.shape[1]
    n_rel = stack.shape[0] // n
    offsets = np.arange(0, n_rel * n, n)[:, None]
    local = np.full(n, -1, dtype=np.int64)
    local[nodes] = np.arange(nodes.shape[0])
    inside = hop <= layers
    plan = []
    for k in range(layers):
        out = hop <= layers - 1 - k
        rank = np.cumsum(inside, dtype=stack.indices.dtype) - 1  # node -> layer-input row
        n_in = int(np.count_nonzero(inside))
        rows = nodes[out]
        n_out = rows.shape[0]
        indptr, take = _row_entries(stack, (offsets + rows).ravel())
        col = rank[local[stack.indices[take]]]
        data = stack.data[take]
        # the gathered rows with entries, relation after relation, and their
        # starts followed by the end: relation r's block owns wrote[a:b]
        wrote = np.flatnonzero(np.diff(indptr))
        starts = indptr[np.append(wrote, indptr.shape[0] - 1)]
        cut = np.searchsorted(wrote, np.arange(0, (n_rel + 1) * n_out, n_out)).tolist()

        def part(a, b, blocks):  # the blocks of wrote[a:b] in one matrix
            lo, hi = starts[a], starts[b]
            adj = sp.csr_matrix((data[lo:hi], col[lo:hi], starts[a:b + 1] - lo),
                                shape=(b - a, n_in))
            return Part(adj, tuple(blocks))

        cap = n_in if max_rows is None else max_rows
        parts, blocks, first = [], [], 0
        for r in range(n_rel):
            a, b = cut[r], cut[r + 1]
            while a < b:
                room = first + cap - a  # rows left in the current part
                if b - a <= room:
                    end = b
                else:  # a piece in whole tiles: a lies a whole number of tiles in
                    end = a if max_rows is None else a + room - room % TILE_ROWS
                if end == a:  # no piece fits: the next part starts here
                    parts.append(part(first, a, blocks))
                    blocks, first = [], a
                    continue
                blocks.append(Block(r, wrote[a:end] - r * n_out, a - first, end - first))
                a = end
        if blocks:
            parts.append(part(first, cut[-1], blocks))
        plan.append(Layer(rank[out], tuple(parts)))
        inside = out
    return tuple(plan)


def ego_network(
    union: sp.csr_matrix, stack: sp.csr_matrix, seeds: np.ndarray, hops: int,
    max_rows: int | None = None,
) -> EgoNetwork:
    """Breadth-first closure of ``seeds`` over ``union`` (the binary OR of
    the relations of ``stack``) to depth ``hops``, with the ``hops``-layer
    plan over it, its parts at most ``max_rows`` tall if given
    (:func:`message_flow_plan`)."""
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
    plan = message_flow_plan(stack, nodes, hop[nodes], hops, max_rows)
    return EgoNetwork(seeds, nodes, hop[nodes], plan)


def endpoint_seeds(g: HeteroGraph, offers: np.ndarray) -> np.ndarray:
    """The ``offers``' sellers, then their products, as node ids: the seeds
    of the edge classifier's ego network of the batch."""
    return np.concatenate([g.offer_seller[offers], g.offer_product[offers] + g.n_sellers])


def extract_ego_network(
    g: HeteroGraph, offers: np.ndarray, hops: int, max_rows: int | None = None
) -> EgoNetwork:
    """The ego network over all nine relations seeded at the ``offers``'
    sellers, then at their products, in the order given; ``max_rows``
    bounds its plan's parts (:func:`message_flow_plan`)."""
    offers = np.asarray(offers, dtype=np.int64)
    if hops < 1:
        raise ValueError("hops must be at least 1")
    if offers.ndim != 1 or offers.size == 0:
        raise ValueError("a batch is a non-empty flat index array")
    if offers.min() < 0 or offers.max() >= g.n_offers:
        raise ValueError("batch references unknown offers")
    return ego_network(g.union_csr(), g.normalized_stack(), endpoint_seeds(g, offers), hops,
                       max_rows)
