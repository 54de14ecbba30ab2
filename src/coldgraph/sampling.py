"""Ego networks of offer batches, and the message-flow plan that runs a
relational GNN on an ego network.

An ego network is every node within ``hops`` relation-edges of some seed
(seeds are at hop zero).  It suffices to reproduce the whole-graph output
of a ``hops``-layer relational GNN at the seeds: layer l of a node only
reads nodes l edges away.  :func:`ego_network` builds it for both
GNNs: the edge classifier seeds it at a batch's endpoints
(:func:`extract_ego_network`), the expanded-graph baseline at the offer
nodes it classifies.

Layers are pruned by message flow (the GraphSAGE minibatch algorithm, DGL's
"blocks"): the output is read only at hop zero, so layer l of an L-layer
stack computes only the rows with ``hop <= L-1-l``, and those rows read only
rows with ``hop <= L-l``.  As in GraphSAGE's minibatch algorithm, each
layer's input set is its output set and their neighbours, last layer first,
so the plan's own row gathers are the breadth-first search: one step
gathers the outputs' rows of every relation at once from the
relation-stacked matrix (``normalized_stack()``), gives each neighbour not
reached before its hop, and replaces each column by that node's row in the
layer input, with plain numpy index arithmetic.  Every neighbour of an
output is in the layer input, so its row of the cached row-normalised
matrix is exact as is.  The gathered rows stay stacked: a layer's non-empty
rows, relation after relation, are cut into a few parts, and each
relation's block is the row slice ``lo:hi`` of its part that holds the
outputs with a message of that relation (``rows``).  A part's matrix is a
:class:`Csr`: the plain ``data``, ``indices`` and ``indptr`` arrays of a
CSR matrix and its ``shape``, no scipy object, which the relational layer
multiplies through scipy's own CSR kernels.  So relation r adds
``(part.adj @ h)[lo:hi] @ W_r`` at ``rows``: aggregate first, then
transform, with one sparse product per part and no per-relation gather of
``h``.
A part holds at most ``n_in`` rows (the layer-input row count), or, in a
plan given a row bound (scoring), at most that bound, a relation's rows
then being split across parts where they overflow one.

Local node order is ascending global id, so node types that own
consecutive id ranges (sellers, then products, then offer nodes) stay
grouped; each layer's rows keep that order.  A layer's input rows are
numbered through one graph-length ``rank`` array per call, left
uninitialized: each hop writes ``0..k-1`` at its ``k`` reached nodes and
reads ``rank`` only at reached nodes (the gathered neighbours and the
layer's outputs), so no unset entry is read and no hop runs a running
count over the whole graph.  What still scans the graph is the per-call
``hop`` array and each hop's search for the reached nodes in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .graph import HeteroGraph, offer_id_array

__all__ = [
    "Csr",
    "EgoNetwork",
    "Layer",
    "extract_ego_network",
    "ego_network",
    "TILE_ROWS",
]

# A bounded plan splits a relation's rows only at multiples of this many
# rows from their start.  BLAS kernels work on small row tiles and finish
# leftover rows with other code, so each piece's rows land in the same
# tiles as in one product over the whole block, and round alike.
TILE_ROWS = 16


class Csr(NamedTuple):
    """A CSR matrix as its plain arrays: row ``i`` holds ``data[j]`` in
    column ``indices[j]`` for ``j`` in ``indptr[i]:indptr[i+1]``."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    @property
    def nnz(self) -> int:
        return self.data.shape[0]


class Block(NamedTuple):
    """One relation's messages into one layer, or in a bounded plan a run of
    them: rows ``lo:hi`` of its part's matrix, one per entry of ``rows``."""

    relation: int
    rows: np.ndarray  # ascending layer outputs with at least one message of the relation
    lo: int
    hi: int


class Part(NamedTuple):
    """Consecutive relation blocks of one layer stacked in one matrix."""

    adj: Csr  # (rows of its blocks, n_in): normalized rows, layer-input columns
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
    part matrices (:class:`Csr`).
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
        ends = np.cumsum([0] + [x.shape[0] for x in feats.values()])
        cuts = np.searchsorted(self.nodes, ends).tolist()
        return {name: x[self.nodes[a:b] - lo]
                for (name, x), lo, a, b in zip(feats.items(), ends, cuts, cuts[1:])}

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


def _layer_parts(
    data: np.ndarray, col: np.ndarray, indptr: np.ndarray, n_rel: int, n_in: int,
    max_rows: int | None,
) -> tuple:
    """The parts of one layer, from its ``n_out`` outputs' rows of every
    relation, gathered relation after relation: a CSR row pointer
    ``indptr`` over ``n_rel * n_out`` rows, their entries ``data`` and
    their columns ``col``, already layer-input rows.  The non-empty rows,
    relation after relation, are cut into parts:

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
    n_out = (indptr.shape[0] - 1) // n_rel
    # the gathered rows with entries, relation after relation, their starts
    # followed by the end, and their layer outputs: relation r's block owns
    # wrote[a:b], outputs local[a:b]
    wrote = np.flatnonzero(np.diff(indptr))
    starts = indptr[np.append(wrote, indptr.shape[0] - 1)]
    cut = np.searchsorted(wrote, np.arange(0, (n_rel + 1) * n_out, n_out)).tolist()
    local = wrote % n_out

    def part(a, b, blocks):  # the blocks of wrote[a:b] in one matrix
        lo, hi = starts[a], starts[b]
        adj = Csr(data[lo:hi], col[lo:hi], starts[a:b + 1] - lo, (b - a, n_in))
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
            blocks.append(Block(r, local[a:end], a - first, end - first))
            a = end
    if blocks:
        parts.append(part(first, cut[-1], blocks))
    return tuple(parts)


def ego_network(
    stack: sp.csr_matrix, seeds: np.ndarray, hops: int, max_rows: int | None = None
) -> EgoNetwork:
    """The nodes within ``hops`` edges of ``seeds`` (global ids, any order,
    repeats allowed) and their ``hops``-layer plan, its parts at most
    ``max_rows`` tall if given (:func:`_layer_parts`).

    ``stack`` holds one row-normalized adjacency per relation over a global
    node space of ``n = stack.shape[1]`` nodes, stacked relation-major (row
    ``r*n + i`` is row ``i`` of relation ``r``, as ``normalized_stack()``
    gives it).  One pass builds the plan from the last layer to the first.
    The last layer's outputs are the unique seeds.  Step ``d`` gathers the
    rows of every relation of layer ``hops-d``'s outputs (the nodes within
    ``d-1`` hops) once, gives each neighbour not reached before hop ``d``,
    and takes the nodes within ``d`` hops, in ascending id, as the layer's
    input rows and the previous layer's outputs: their rows ``0..k-1`` are
    written into ``rank`` at those nodes only, and ``rank`` is read only at
    the gathered neighbours and the outputs, all of them reached.  A block
    row is the non-empty global row of an output with each column replaced
    by that node's layer-input row; the replacement is monotone, so each
    row sums its neighbours in the same order as the global matrix.
    Raises ValueError if ``seeds`` is empty or not flat, and one naming
    the first seed outside ``[0, n)``.
    """
    if max_rows is not None and (max_rows < 1 or max_rows % TILE_ROWS):
        raise ValueError(f"max_rows must be a positive multiple of {TILE_ROWS}, got {max_rows}")
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.ndim != 1 or seeds.size == 0:
        raise ValueError("the seeds are a non-empty flat index array")
    n = stack.shape[1]
    bad = seeds[(seeds < 0) | (seeds >= n)]
    if bad.size:
        raise ValueError(f"seed {int(bad[0])} out of range [0, {n})")
    n_rel = stack.shape[0] // n
    offsets = np.arange(0, n_rel * n, n)[:, None]
    hop = np.full(n, -1, dtype=np.int32)
    hop[seeds] = 0
    rank = np.empty(n, dtype=stack.indices.dtype)  # node -> layer-input row, set where reached
    out = np.unique(seeds)
    plan = []
    for d in range(1, hops + 1):
        indptr, take = _row_entries(stack, (offsets + out).ravel())
        near = stack.indices[take]
        hop[near[hop[near] < 0]] = d
        reached = np.flatnonzero(hop >= 0)
        rank[reached] = np.arange(reached.shape[0], dtype=rank.dtype)
        parts = _layer_parts(stack.data[take], rank[near], indptr, n_rel, reached.shape[0],
                             max_rows)
        plan.append(Layer(rank[out], parts))
        out = reached  # the next layer back's outputs; at the end, every node
    return EgoNetwork(seeds, out, hop[out], tuple(plan[::-1]))


def extract_ego_network(
    g: HeteroGraph, offers: np.ndarray, hops: int, max_rows: int | None = None
) -> EgoNetwork:
    """The ego network over all nine relations seeded at the ``offers``'
    sellers, then at their products, in the order given; ``max_rows``
    bounds its plan's parts (:func:`ego_network`).  Offer ids without an
    integer dtype raise ValueError naming it (``graph.offer_id_array``)."""
    offers = offer_id_array(offers)
    if hops < 1:
        raise ValueError("hops must be at least 1")
    if offers.ndim != 1 or offers.size == 0:
        raise ValueError("a batch is a non-empty flat index array")
    if offers.min() < 0 or offers.max() >= g.n_offers:
        raise ValueError("batch references unknown offers")
    seeds = np.concatenate([g.offer_seller[offers], g.offer_product[offers] + g.n_sellers])
    return ego_network(g.normalized_stack(), seeds, hops, max_rows)
