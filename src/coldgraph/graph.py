"""Heterogeneous seller-product graph with offers stored as feature-bearing edges.

Two node types (sellers, products) and nine relations: eight undirected
seller-seller association types plus the offer relation, whose edges
connect a seller to a product and carry a feature row and, optionally, a
nine-class binary label row.  An alternative "expanded" form turns each
offer edge into a node of its own; it is a view over the graph that exists
only to feed the node-level GNN baseline.

A graph is immutable.  Its only storage is read-only numpy arrays: three
float32 feature matrices, the int64 offer endpoints ``offer_seller`` and
``offer_product``, one sorted ``(k, 2)`` int64 edge array per
seller-seller relation, and optional uint8 labels.
``HeteroGraph.from_arrays`` is the only constructor and the only check:
it freezes the arrays and refuses a malformed one, a non-finite feature
value included.  ``copy_with_features`` puts each new matrix through the
same per-matrix check, so no graph holds a value a fresh one would refuse.

Matrices derived from the topology are built on first use into one cache,
which every copy that keeps the topology shares; all of them go through
one accessor, ``HeteroGraph._derived(key, build)``:

- ``unified_csr(r)``: the symmetric binary adjacency of relation ``r``;
- ``normalized_stack()``: the nine matrices with each row scaled by
  1/degree, stacked relation-major into one ``(9 n, n)`` CSR, the only
  normalized form and the only adjacency that ego networks read: their
  breadth-first search is the plan's own row gathers of it, and the
  diffusion features sum its row blocks;
- ``offers_of(node_type)``: the owner-by-offer incidence of sellers or
  products, which gives sibling-offer sums and a cold entity's offers;
- ``ExpandedGraph.relation_csrs()`` and ``normalized_stack()``: the ten
  matrices of the expanded form, normalized and stacked the same way,
  which the expanded baseline's ego networks read.

``offer_sums(node_type)``, the owners' float64 offer feature sums, derives from
the features: each graph instance caches its own, and copies start empty.
"""

from __future__ import annotations

import copy
from enum import IntEnum
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "NodeType",
    "Relation",
    "HeteroGraph",
    "ExpandedGraph",
    "build_expanded_graph",
    "offer_id_array",
    "N_RELATIONS",
    "N_CLASSES",
    "CLASS_NAMES",
]

N_RELATIONS = 9
N_CLASSES = 9

# eight defect classes followed by the benign class
CLASS_NAMES = tuple(f"type{i + 1}" for i in range(8)) + ("normal",)
NORMAL_CLASS = 8


def offer_id_array(offers) -> np.ndarray:
    """``offers`` as an int64 array of offer ids.  Raises ValueError naming
    the dtype of a non-empty array without an integer dtype, which a cast
    would truncate (0.5 would read as offer 0); no offers are always fine."""
    ids = np.asarray(offers)
    if ids.size and ids.dtype.kind not in "iu":
        raise ValueError(f"offer ids must have an integer dtype, got {ids.dtype.name}")
    return ids.astype(np.int64, copy=False)


class NodeType(IntEnum):
    SELLER = 0
    PRODUCT = 1


class Relation(IntEnum):
    """Edge relations: eight seller-seller association types plus offers."""

    SS0 = 0
    SS1 = 1
    SS2 = 2
    SS3 = 3
    SS4 = 4
    SS5 = 5
    SS6 = 6
    SS7 = 7
    OFFER = 8

    @property
    def is_offer(self) -> bool:
        return self is Relation.OFFER

    @classmethod
    def seller_seller(cls) -> tuple:
        return tuple(r for r in cls if r is not cls.OFFER)


def _frozen(a, dtype) -> np.ndarray:
    """Read-only C-contiguous array of ``a``; copies unless ``a`` already is one."""
    a = np.asarray(a, dtype=dtype)
    if a.flags.writeable or not a.flags.c_contiguous:
        a = np.array(a, dtype=dtype, order="C")
        a.flags.writeable = False
    return a


def _feature_matrix(x, what: str, shape: Optional[tuple] = None) -> np.ndarray:
    """``x`` frozen as float32 (see ``_frozen``) and checked: ``shape`` if
    given, else a matrix with at least one column; every value finite.
    Raises ValueError naming ``what`` features and, for a non-finite value,
    its row and column."""
    x = _frozen(x, np.float32)
    if shape is not None and x.shape != shape:
        raise ValueError(f"{what} features must have shape {shape}, got {x.shape}")
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError(f"{what} features must be a matrix with at least one column, "
                         f"got shape {x.shape}")
    finite = np.isfinite(x)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise ValueError(f"non-finite value in {what} features at row {r}, column {c}")
    return x


def _canonical_edges(edges) -> np.ndarray:
    """Read-only rows ``(min, max)`` sorted lexicographically; duplicates are kept."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo, hi = e.min(axis=1), e.max(axis=1)
    order = np.lexsort((hi, lo))
    out = np.stack([lo[order], hi[order]], axis=1)
    out.flags.writeable = False
    return out


def _symmetric_csr(a: np.ndarray, b: np.ndarray, n: int) -> sp.csr_matrix:
    """Read-only binary ``n x n`` CSR with an entry at ``(a, b)`` and ``(b, a)``
    for each index pair; column indices sorted within rows."""
    rows = np.concatenate([a, b])
    cols = np.concatenate([b, a])
    mat = sp.csr_matrix((np.ones(rows.shape[0], dtype=np.float32), (rows, cols)), shape=(n, n))
    mat.sort_indices()
    return _freeze_csr(mat)


def _freeze_csr(mat: sp.csr_matrix) -> sp.csr_matrix:
    for arr in (mat.data, mat.indices, mat.indptr):
        arr.flags.writeable = False
    return mat


def _normalized_stack(mats: Sequence[sp.csr_matrix]) -> sp.csr_matrix:
    """Read-only ``(R*n, n)`` CSR of the row-normalized ``mats``, stacked
    relation-major: row ``r*n + i`` is row ``i`` of ``mats[r]``."""
    return _freeze_csr(sp.vstack([row_mean_normalize(m) for m in mats], format="csr"))


def row_mean_normalize(mat: sp.csr_matrix) -> sp.csr_matrix:
    """Scale each nonempty row of a binary adjacency by 1/degree."""
    sub = mat.tocsr()
    deg = np.diff(sub.indptr)
    if sub.nnz:
        data = (sub.data / np.repeat(deg, deg)).astype(np.float32)
    else:
        data = sub.data.astype(np.float32)
    return sp.csr_matrix((data, sub.indices, sub.indptr), shape=sub.shape)


def _topology_error(
    n_sellers: int,
    n_products: int,
    offer_seller: np.ndarray,
    offer_product: np.ndarray,
    ss_edges: Sequence[np.ndarray],
    labels: Optional[np.ndarray],
) -> Optional[str]:
    """First violation in a graph's index arrays, or None.

    ``ss_edges`` holds one canonical array per seller-seller relation (see
    ``_canonical_edges``).
    """
    m = offer_seller.shape[0]
    for ids, count, what in (
        (offer_seller, n_sellers, "seller"),
        (offer_product, n_products, "product"),
    ):
        bad = np.flatnonzero((ids < 0) | (ids >= count))
        if bad.size:
            k = int(bad[0])
            return f"offer {k} references unknown {what} {int(ids[k])}"
    _, first = np.unique(offer_seller * n_products + offer_product, return_index=True)
    if first.size != m:
        k = int(np.setdiff1d(np.arange(m), first)[0])
        return (f"duplicate offer edge: offer {k} repeats seller {int(offer_seller[k])}, "
                f"product {int(offer_product[k])}")

    if len(ss_edges) != N_RELATIONS - 1:
        return f"expected {N_RELATIONS - 1} seller-seller edge arrays, got {len(ss_edges)}"
    for r, e in zip(Relation.seller_seller(), ss_edges):
        if not e.size:
            continue
        bad = np.flatnonzero((e[:, 0] < 0) | (e[:, 1] >= n_sellers))
        if bad.size:
            a, b = e[bad[0]].tolist()
            return f"relation {r.name} edge ({a}, {b}) references unknown seller"
        same = np.flatnonzero(e[:, 0] == e[:, 1])
        if same.size:
            return f"relation {r.name} has self edge at seller {int(e[same[0], 0])}"
        dup = np.flatnonzero((e[1:] == e[:-1]).all(axis=1))
        if dup.size:
            a, b = e[dup[0]].tolist()
            return f"relation {r.name} has duplicate edge ({a}, {b})"

    if labels is not None:
        if labels.shape != (m, N_CLASSES):
            return f"labels must have shape ({m}, {N_CLASSES}), got {labels.shape}"
        if not np.isin(labels, (0, 1)).all():
            return "labels must be binary (values in {0, 1})"
    return None


class HeteroGraph:
    """One seller-product graph as read-only arrays.

    Build it with :meth:`from_arrays`.  ``seller_features``,
    ``product_features`` and ``offer_features`` are float32 matrices; offer
    ``k`` joins seller ``offer_seller[k]`` to product ``offer_product[k]``;
    ``labels`` is an optional ``(n_offers, 9)`` uint8 matrix.
    """

    @classmethod
    def from_arrays(
        cls,
        seller_features: np.ndarray,
        product_features: np.ndarray,
        offer_seller: np.ndarray,
        offer_product: np.ndarray,
        offer_features: np.ndarray,
        ss_edges: Sequence[np.ndarray],
        labels: Optional[np.ndarray] = None,
    ) -> "HeteroGraph":
        """Check and freeze the arrays of a graph; the only constructor.

        ``ss_edges`` holds one ``(k, 2)`` seller index array per
        seller-seller relation, in either orientation.  Raises ValueError
        naming the first malformed input; a non-finite feature value is
        named by matrix, row and column.
        """
        sf, pf, of = (_feature_matrix(x, what) for x, what in (
            (seller_features, "seller"), (product_features, "product"), (offer_features, "offer")))
        os_, op_ = _frozen(offer_seller, np.int64), _frozen(offer_product, np.int64)
        if os_.shape != (of.shape[0],) or op_.shape != (of.shape[0],):
            raise ValueError("offer endpoint arrays must match the offer feature rows")
        ss = [_canonical_edges(e) for e in ss_edges]
        if labels is not None:
            labels = np.asarray(labels)
        msg = _topology_error(sf.shape[0], pf.shape[0], os_, op_, ss, labels)
        if msg:
            raise ValueError(msg)

        g = cls.__new__(cls)
        g.seller_features, g.product_features, g.offer_features = sf, pf, of
        g.offer_seller, g.offer_product = os_, op_
        g._ss_edges = tuple(ss)
        g.labels = None if labels is None else _frozen(labels, np.uint8)
        g._csr = {}  # matrices derived from the topology; shared by copy_with_features
        g._feature_sums = {}  # derived from offer_features; each copy starts its own
        return g

    # -- basic queries -------------------------------------------------------

    @property
    def n_sellers(self) -> int:
        return self.seller_features.shape[0]

    @property
    def n_products(self) -> int:
        return self.product_features.shape[0]

    @property
    def n_offers(self) -> int:
        return self.offer_features.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.n_sellers + self.n_products

    @property
    def d_s(self) -> int:
        return self.seller_features.shape[1]

    @property
    def d_p(self) -> int:
        return self.product_features.shape[1]

    @property
    def d_o(self) -> int:
        return self.offer_features.shape[1]

    def ss_edges(self, relation: Relation) -> np.ndarray:
        """Edges of one seller-seller relation as a read-only ``(k, 2)`` int64
        array; each row is ``(a, b)`` with ``a < b``, rows sorted."""
        relation = Relation(relation)
        if relation.is_offer:
            raise ValueError("ss_edges takes a seller-seller relation")
        return self._ss_edges[relation]

    @property
    def n_edges(self) -> int:
        """Total edge count across all nine relations."""
        return sum(e.shape[0] for e in self._ss_edges) + self.n_offers

    # -- derived matrices ----------------------------------------------------

    def _derived(self, key, build: Callable):
        """The cached matrix (or tuple of matrices) under ``key``, built by
        ``build()`` on first use; every copy sharing the topology shares it."""
        mat = self._csr.get(key)
        if mat is None:
            mat = self._csr[key] = build()
        return mat

    def unified_csr(self, relation: Relation) -> sp.csr_matrix:
        """Symmetric binary adjacency over the unified node space.

        Sellers occupy rows [0, n_sellers); products the rest.  Offer edges
        appear in both directions like the seller-seller relations.  Built
        once per topology; the returned matrix is read-only.
        """
        relation = Relation(relation)

        def build():
            if relation.is_offer:
                a, b = self.offer_seller, self.offer_product + self.n_sellers
            else:
                a, b = self._ss_edges[relation].T
            return _symmetric_csr(a, b, self.n_nodes)

        return self._derived(relation, build)

    def normalized_stack(self) -> sp.csr_matrix:
        """The nine ``unified_csr`` matrices with each nonempty row scaled
        by 1/degree, stacked relation-major into one ``(9 * n_nodes,
        n_nodes)`` CSR: row ``r * n_nodes + i`` is row ``i`` of relation
        ``r``.  Read-only, built once per topology; the only normalized
        form of the relations."""
        return self._derived(
            "normalized", lambda: _normalized_stack([self.unified_csr(r) for r in Relation])
        )

    def offers_of(self, node_type: NodeType) -> sp.csr_matrix:
        """Binary float64 ``(n_sellers or n_products, n_offers)`` incidence:
        row ``i`` holds owner ``i``'s offers in ascending order.  Read-only,
        built once per topology."""
        node_type = NodeType(node_type)

        def build():
            owner = (self.offer_seller, self.offer_product)[node_type]
            n, m = (self.n_sellers, self.n_products)[node_type], self.n_offers
            return _freeze_csr(sp.csr_matrix((np.ones(m), (owner, np.arange(m))), shape=(n, m)))

        # keyed by name, not node_type: SELLER == Relation.SS0
        return self._derived(f"offers_of_{node_type.name.lower()}", build)

    def offer_sums(self, node_type: NodeType) -> np.ndarray:
        """``offers_of(node_type) @ offer_features`` in float64: row ``i`` sums
        owner ``i``'s offer feature rows in ascending offer order.  Read-only,
        built once per graph instance; copies, whose features may differ,
        build their own."""
        if node_type not in self._feature_sums:
            sums = self.offers_of(node_type) @ self.offer_features.astype(np.float64)
            sums.flags.writeable = False
            self._feature_sums[node_type] = sums
        return self._feature_sums[node_type]

    def copy_with_features(
        self,
        seller_features: np.ndarray,
        product_features: np.ndarray,
        offer_features: np.ndarray,
    ) -> "HeteroGraph":
        """Same topology and labels, different feature matrices.

        The copy shares this graph's index arrays, labels and CSR cache but
        not its :meth:`offer_sums`.  Each new matrix must have the old one's
        shape and, as in :meth:`from_arrays`, only finite values.
        """
        g = copy.copy(self)
        g._feature_sums = {}
        g.seller_features, g.product_features, g.offer_features = (
            _feature_matrix(x, what, old.shape) for x, old, what in (
                (seller_features, self.seller_features, "seller"),
                (product_features, self.product_features, "product"),
                (offer_features, self.offer_features, "offer"),
            ))
        return g


# ---------------------------------------------------------------------------
# expanded (offers-as-nodes) form


class ExpandedGraph:
    """Offer edges of ``g`` lifted to nodes: three node types, ten relations.

    A view that stores only ``g``; features, endpoints and labels are read
    through it.  Unified node order: sellers, then products, then offer
    nodes.  The ten relations are the eight seller-seller ones plus
    seller-offer and offer-product incidence.
    """

    N_RELATIONS = 10

    def __init__(self, g: HeteroGraph):
        self.g = g

    @property
    def n_nodes(self) -> int:
        return self.g.n_nodes + self.g.n_offers

    def relation_csrs(self) -> tuple:
        """Ten symmetric binary adjacency matrices over the unified space.

        Built once per topology into ``g``'s CSR cache, so every copy of
        ``g`` that keeps its topology shares them; the matrices are
        read-only.  The seller-seller matrices reuse the ``data`` and
        ``indices`` of ``g.unified_csr(r)``, with ``indptr`` padded for the
        offer rows.
        """
        g, n = self.g, self.n_nodes

        def build():
            mats = []
            for r in Relation.seller_seller():
                base = g.unified_csr(r)
                indptr = np.concatenate([base.indptr, np.full(g.n_offers, base.indptr[-1])])
                mats.append(_freeze_csr(sp.csr_matrix((base.data, base.indices, indptr), shape=(n, n))))
            offer_ids = np.arange(g.n_nodes, n, dtype=np.int64)
            mats.append(_symmetric_csr(g.offer_seller, offer_ids, n))
            mats.append(_symmetric_csr(offer_ids, g.offer_product + g.n_sellers, n))
            return tuple(mats)

        return g._derived("expanded", build)

    def normalized_stack(self) -> sp.csr_matrix:
        """``relation_csrs()`` with each nonempty row scaled by 1/degree,
        stacked relation-major into one ``(10 * n_nodes, n_nodes)`` CSR
        like ``HeteroGraph.normalized_stack``; cached and shared the same
        way."""
        return self.g._derived(
            "expanded_normalized", lambda: _normalized_stack(self.relation_csrs())
        )


def build_expanded_graph(g: HeteroGraph) -> ExpandedGraph:
    """Lift each offer edge of ``g`` to a node.

    Seller-seller relations are shared unchanged; each offer contributes
    exactly two incident edges (to its seller and to its product), so the
    expanded form has twice as many offer-incident edges as ``g`` has offer
    edges.
    """
    return ExpandedGraph(g)
