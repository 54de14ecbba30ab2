"""The edge classifier: relational GNN node embedder, sibling-offer edge
embedder, and an MLP head over the concatenated embeddings.

The model scores offer edges.  Per batch offer it consumes

- seller and product node embeddings from a relational graph convolution
  stack run over the message-flow plan of the batch endpoints' ego network
  (``sampling.ego_network``, which the expanded-graph baseline runs too):
  layer l of L computes only the ego nodes within L-1-l hops of the
  endpoints, so the last layer computes the endpoints alone; each part of
  a layer aggregates its rows of every relation at once (``m = part.adj @
  h``, through scipy's CSR kernel on the part's plain arrays) and each
  relation transforms only its slice, adding ``m[block.lo:block.hi] @
  W_r`` at ``block.rows``; each layer is one tape op with a hand-written
  backward,
- an edge embedding built from the offer's own features concatenated with
  the mean features of its sibling offers (other offers of the same
  product, and other offers of the same seller; the offer itself is
  excluded, and either mean is a zero vector when no siblings exist),

and emits independent per-class probabilities through sigmoid heads.

Training runs the whole batch at once (:func:`edge_gnn_forward`).
Scoring (:func:`edge_gnn_scores`) works in two stages, so its memory does
not grow with the number of offers scored beyond their index arrays and
output: the node side runs the encoder once per parameter group and keeps
only the endpoint rows; the offer side walks the offers in chunks of
:func:`score_chunk_rows`.  Parameter groups (the nine heads of
``nine_binary``) run one after another, so one group's endpoint states
are live at a time.  Both run the same offer side (:func:`_offer_probs`):
training over the whole batch, scoring chunk by chunk.

Two head modes exist: ``multi_task`` trains one parameter set with a
nine-column head on the summed per-class loss; ``nine_binary`` trains
nine independent single-column models.  Binary head k is initialized as
column k of the same nine-column head draw, so at initialization the two
modes produce identical per-class losses given the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.sparse._sparsetools import csc_matvecs, csr_matvecs

from ..autodiff import (
    Tensor,
    activation,
    affine,
    concat_cols,
    dropout,
    record,
    take_rows,
)
from ..graph import N_CLASSES, N_RELATIONS, HeteroGraph, NodeType, id_array
from ..records import Record
from ..sampling import TILE_ROWS, Csr, EgoNetwork, Layer, extract_ego_network

__all__ = [
    "EdgeGnnConfig",
    "init_edge_gnn_params",
    "cast_params",
    "init_relational_encoder",
    "relational_encoder_forward",
    "rgcn_layer",
    "node_embedder_forward",
    "sibling_offer_summaries",
    "edge_embedder_forward",
    "classifier_forward",
    "edge_gnn_forward",
    "score_part_rows",
    "edge_gnn_scores",
]


@dataclass(frozen=True)
class EdgeGnnConfig(Record):
    d_s: int
    d_p: int
    d_o: int
    hidden: int = 64
    gnn_layers: int = 3
    edge_hidden: int = 64
    cls_hidden: int = 64
    mode: str = "multi_task"  # or "nine_binary"
    dropout: float = 0.0

    def __post_init__(self):
        if self.mode not in ("multi_task", "nine_binary"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("hidden", "gnn_layers", "edge_hidden", "cls_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


def glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols)).astype(np.float32)


def init_edge_gnn_params(
    cfg: EdgeGnnConfig, seed: int, head_class: Optional[int] = None
) -> dict:
    """Seeded parameter dict.

    Draw order is fixed, so two configs differing only in head selection
    share every tensor draw.  The head is always drawn at full nine-class
    width; ``head_class`` (required iff mode is ``nine_binary``) slices out
    that column.
    """
    if (head_class is not None) != (cfg.mode == "nine_binary"):
        raise ValueError("head_class is required exactly when mode is nine_binary")
    if head_class is not None and not 0 <= head_class < N_CLASSES:
        raise ValueError(f"head_class out of range: {head_class}")
    rng = np.random.default_rng(seed)
    h = cfg.hidden
    params = init_relational_encoder(
        rng, {"seller": cfg.d_s, "product": cfg.d_p}, h, cfg.gnn_layers, N_RELATIONS
    )
    params["edge0_w"] = Tensor(glorot(rng, 3 * cfg.d_o, cfg.edge_hidden), requires_grad=True)
    params["edge0_b"] = Tensor(np.zeros(cfg.edge_hidden, dtype=np.float32), requires_grad=True)
    params["edge1_w"] = Tensor(glorot(rng, cfg.edge_hidden, cfg.edge_hidden), requires_grad=True)
    params["edge1_b"] = Tensor(np.zeros(cfg.edge_hidden, dtype=np.float32), requires_grad=True)
    params["cls0_w"] = Tensor(
        glorot(rng, 2 * h + cfg.edge_hidden, cfg.cls_hidden), requires_grad=True
    )
    params["cls0_b"] = Tensor(np.zeros(cfg.cls_hidden, dtype=np.float32), requires_grad=True)
    head_w = glorot(rng, cfg.cls_hidden, N_CLASSES)
    head_b = np.zeros(N_CLASSES, dtype=np.float32)
    if head_class is not None:
        head_w = head_w[:, head_class:head_class + 1].copy()
        head_b = head_b[head_class:head_class + 1].copy()
    params["cls1_w"] = Tensor(head_w, requires_grad=True)
    params["cls1_b"] = Tensor(head_b, requires_grad=True)
    return params


def cast_params(params: dict, dtype) -> dict:
    """Copy of a parameter dict in another float dtype (for f64 checks/scoring)."""
    return {
        name: Tensor(p.data.astype(dtype), requires_grad=p.requires_grad)
        for name, p in params.items()
    }


# ---------------------------------------------------------------------------
# relational encoder, shared by the node embedder and the expanded RGCN


def init_relational_encoder(
    rng: np.random.Generator, in_dims: dict, hidden: int, layers: int, n_relations: int
) -> dict:
    """Parameters of a relational encoder, drawn from ``rng`` in a fixed order.

    First one input projection ``proj_{type}_w``/``_b`` per node type, in
    the order of ``in_dims`` (type name -> feature width); then, per layer,
    the ``n_relations`` relation weights ``gnn{layer}_rel{r}_w`` and the
    self weight ``gnn{layer}_self_w`` with bias ``gnn{layer}_self_b``.
    Biases start at zero and take no draw.
    """
    params: dict = {}
    for name, width in in_dims.items():
        params[f"proj_{name}_w"] = Tensor(glorot(rng, width, hidden), requires_grad=True)
        params[f"proj_{name}_b"] = Tensor(np.zeros(hidden, dtype=np.float32), requires_grad=True)
    for layer in range(layers):
        for r in range(n_relations):
            params[f"gnn{layer}_rel{r}_w"] = Tensor(glorot(rng, hidden, hidden), requires_grad=True)
        params[f"gnn{layer}_self_w"] = Tensor(glorot(rng, hidden, hidden), requires_grad=True)
        params[f"gnn{layer}_self_b"] = Tensor(np.zeros(hidden, dtype=np.float32), requires_grad=True)
    return params


# A plan part's products call the kernels that scipy's own ``csr_matrix @
# x`` and ``csr_matrix.T @ x`` call for an ``x`` of several columns, on the
# same arrays and into the same zeroed output of the same dtype, so they
# keep its bits without building a scipy object per part, product or
# transpose (scipy sends a one-column ``x`` through ``csr_matvec``, which
# sums each row in the same order).  The kernels read ``x`` unchecked, so
# its row count is checked here, as scipy's ``@`` does.


def _csr_product(adj: Csr, x: np.ndarray) -> np.ndarray:
    """``adj @ x`` for a 2-D ``x``."""
    rows, cols = adj.shape
    if x.shape[0] != cols:
        raise ValueError(f"part of shape {adj.shape} times {x.shape}")
    out = np.zeros((rows, x.shape[1]), dtype=np.result_type(adj.data, x))
    csr_matvecs(rows, cols, x.shape[1], adj.indptr, adj.indices, adj.data, x.ravel(),
                out.ravel())
    return out


def _csr_transposed_product(adj: Csr, m: np.ndarray) -> np.ndarray:
    """``adj.T @ m`` for a 2-D ``m``: ``adj``'s arrays are the CSC form of
    its transpose."""
    rows, cols = adj.shape
    if m.shape[0] != rows:
        raise ValueError(f"transposed part of shape {adj.shape} times {m.shape}")
    out = np.zeros((cols, m.shape[1]), dtype=np.result_type(adj.data, m))
    csc_matvecs(cols, rows, m.shape[1], adj.indptr, adj.indices, adj.data, m.ravel(),
                out.ravel())
    return out


def _block_product(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``m @ w``, with a one-row ``m`` taken through a two-row product.

    numpy computes a one-row product as a matrix-vector product, which can
    round differently from the same row inside a longer matrix-matrix
    product; a scoring plan may cut a relation's block so that its last
    piece is one row long (65 rows at a 16-row bound), so without the
    second row that row's bits would depend on the part bound."""
    if m.shape[0] != 1:
        return m @ w
    return (np.concatenate((m, m)) @ w)[:1]


def rgcn_layer(
    layer: Layer,
    h: Tensor,
    rel_ws: Sequence | dict,
    self_w: Tensor,
    self_b: Tensor,
) -> Tensor:
    """One relu relational graph convolution, computed only at ``layer.keep``;
    one tape entry.

    Per output row: the self path ``h @ self_w + bias`` plus, for every
    relation block, the neighbour-mean of ``h`` times that relation's
    weight ``rel_ws[block.relation]``.  Each part aggregates first,
    ``m = part.adj @ h`` (:func:`_csr_product`), and each of its blocks adds
    ``m[lo:hi] @ W_r`` at its ``rows`` (a one-row block through
    :func:`_block_product`).  Block matrices are
    row-mean-normalized, so a relation a node does not participate in
    contributes nothing to it.

    The op keeps ``h`` and its output alone.  Its backward masks the
    gradient it owns in place, lets go of the output, and takes the self
    weight and bias gradients first; then it recomputes each part's ``m``
    in reverse, takes ``gW_r = m[lo:hi].T @ g[rows]``, writes ``g[rows] @
    W_r.T`` over ``m[lo:hi]`` and adds ``part.adj.T @ m``
    (:func:`_csr_transposed_product`) into one input gradient, dropping
    ``m`` before the next part; the self path's input gradient comes last.
    """
    x = h.data
    ws = [rel_ws[block.relation] for part in layer.parts for block in part.blocks]

    def at(a, idx):
        return a if idx.shape[0] == a.shape[0] else a[idx]

    def add_at(a, idx, v):
        if idx.shape[0] == a.shape[0]:
            a += v
        else:
            a[idx] += v

    pre = at(x, layer.keep) @ self_w.data
    pre += self_b.data
    k = 0
    for part in layer.parts:
        m = _csr_product(part.adj, x)
        for block in part.blocks:
            add_at(pre, block.rows, _block_product(m[block.lo:block.hi], ws[k].data))
            k += 1
    out = Tensor(np.maximum(pre, 0, out=pre))

    def bwd(g, needs):
        nonlocal out
        np.multiply(g, out.data > 0, out=g)
        out = None  # its last read: unless the caller holds it, it goes now
        gw = at(x, layer.keep).T @ g if needs[1] else None
        gb = g.sum(axis=0) if needs[2] else None
        gh = np.zeros(x.shape, dtype=g.dtype) if needs[0] else None
        gws = [None] * len(ws)
        k = len(ws)
        for part in reversed(layer.parts):
            m = _csr_product(part.adj, x)
            for block in reversed(part.blocks):
                k -= 1
                gr = at(g, block.rows)
                if needs[3 + k]:
                    gws[k] = m[block.lo:block.hi].T @ gr
                if needs[0]:
                    np.matmul(gr, ws[k].data.T, out=m[block.lo:block.hi])
                del gr
            if needs[0]:
                gh += _csr_transposed_product(part.adj, m)
            del m
        if needs[0]:
            add_at(gh, layer.keep, g @ self_w.data.T)
        return (gh, gw, gb, *gws)

    return record(out, (h, self_w, self_b, *ws), bwd)


def input_projections(inputs: dict, params: dict) -> Tensor:
    """``relu(x_t @ proj_{t}_w + proj_{t}_b)`` for each node type ``t`` of
    ``inputs`` (type -> feature rows), stacked in type order; one tape
    entry.

    Each type's block is computed straight into its rows of one array,
    with the bias added and the relu taken in place, so the layer-0 input
    exists once.  The backward masks the gradient it owns with ``out > 0``
    and reads each type's weight and bias gradient off its row block.
    """
    ws = [params[f"proj_{name}_w"] for name in inputs]
    bs = [params[f"proj_{name}_b"] for name in inputs]
    dtype = ws[0].dtype
    xs = [x.astype(dtype, copy=False) for x in inputs.values()]
    ends = np.cumsum([0] + [x.shape[0] for x in xs])
    out = Tensor(np.empty((ends[-1], ws[0].shape[1]), dtype=dtype))
    for x, w, b, lo, hi in zip(xs, ws, bs, ends[:-1], ends[1:]):
        block = out.data[lo:hi]
        np.matmul(x, w.data, out=block)
        block += b.data
        np.maximum(block, 0, out=block)

    def bwd(g, needs):
        np.multiply(g, out.data > 0, out=g)
        grads = []
        for i, (x, lo, hi) in enumerate(zip(xs, ends[:-1], ends[1:])):
            gi = g[lo:hi]
            grads += [x.T @ gi if needs[2 * i] else None,
                      gi.sum(axis=0) if needs[2 * i + 1] else None]
        return tuple(grads)

    return record(out, tuple(t for pair in zip(ws, bs) for t in pair), bwd)


def relational_encoder_forward(
    inputs: dict,
    plan: Sequence,
    params: dict,
    dropout_p: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Hidden states at the last plan layer's rows after ``len(plan)``
    relational convolutions.

    ``inputs`` maps each node type to its feature rows; stacked in type
    order they are the first layer's input rows.  The first layer reads
    them through one relu input projection per type, computed by
    :func:`input_projections` into one array (one tape entry).  ``plan``
    holds one :class:`Layer` per convolution, the i-th using the
    ``gnn{i}_*`` parameters (:func:`rgcn_layer`, one tape entry each).
    Dropout follows each layer when ``dropout_p > 0`` and ``rng`` is given
    (training only).  Under a tape, each activation is held once: by the
    op that produced it, until the backward sweep drops that op.
    """
    h = input_projections(inputs, params)
    for i, layer in enumerate(plan):
        h = rgcn_layer(
            layer,
            h,
            {b.relation: params[f"gnn{i}_rel{b.relation}_w"]
             for part in layer.parts for b in part.blocks},
            params[f"gnn{i}_self_w"],
            params[f"gnn{i}_self_b"],
        )
        if dropout_p > 0.0 and rng is not None:
            h = dropout(h, dropout_p, rng)
    return h


# ---------------------------------------------------------------------------
# module 1: node embedder


def node_embedder_forward(
    g: HeteroGraph,
    ego: EgoNetwork,
    params: dict,
    cfg: EdgeGnnConfig,
    rng: Optional[np.random.Generator] = None,
) -> tuple:
    """Node embeddings of the ego's batch endpoints: ``(h, sellers,
    products)``, the encoder states of the hop-zero nodes (one row each,
    in ascending node order) and each batch offer's seller and product
    row of ``h``.

    Runs the ego's whole plan, which must be ``cfg.gnn_layers`` deep: its
    first layer reads every ego node and its last computes only the batch
    endpoints.
    """
    if ego.hops != cfg.gnn_layers:
        raise ValueError(
            f"ego network of depth {ego.hops} does not fit {cfg.gnn_layers} layers"
        )
    inputs = ego.inputs({"seller": g.seller_features, "product": g.product_features})
    h = relational_encoder_forward(inputs, ego.plan, params, cfg.dropout, rng)
    rows = ego.seed_rows()
    half = rows.shape[0] // 2
    return h, rows[:half], rows[half:]


# ---------------------------------------------------------------------------
# module 2: edge embedder


def sibling_offer_summaries(g: HeteroGraph, offer_ids: np.ndarray) -> tuple:
    """Mean feature rows of same-seller and same-product sibling offers.

    The target offer is excluded from both means; an offer with no sibling
    on one side gets a zero vector there.  Each mean is the owner's float64
    sum (``g.offer_sums``, built once per feature set) less the offer's own
    row, over the sibling count; a lone offer's sum is its own row, so its
    difference is exactly zero and is divided by one.  The offer ids go
    through ``graph.id_array``.
    """
    feats = g.offer_features
    offer_ids = id_array(offer_ids, g.n_offers, "offer id")
    offer_rows = feats[offer_ids].astype(np.float64)
    out = []
    for node_type, owner in zip(NodeType, (g.offer_seller, g.offer_product)):
        indptr, own = g.offers_of(node_type).indptr, owner[offer_ids]
        siblings = np.maximum(indptr[own + 1] - indptr[own] - 1, 1)
        mean = (g.offer_sums(node_type)[own] - offer_rows) / siblings[:, None]
        out.append(mean.astype(feats.dtype, copy=False))
    return out[0], out[1]


def edge_embedder_forward(
    o_o: np.ndarray, o_s: np.ndarray, o_p: np.ndarray, params: dict
) -> Tensor:
    """Two-layer MLP over the offer features joined with both sibling means."""
    dtype = params["edge0_w"].dtype
    x = Tensor(
        np.concatenate(
            [
                np.asarray(o_o, dtype=dtype),
                np.asarray(o_p, dtype=dtype),
                np.asarray(o_s, dtype=dtype),
            ],
            axis=1,
        )
    )
    h = activation(affine(x, params["edge0_w"], params["edge0_b"]), "relu")
    return activation(affine(h, params["edge1_w"], params["edge1_b"]), "relu")


# ---------------------------------------------------------------------------
# module 3: classifier


def classifier_forward(emb_s: Tensor, emb_p: Tensor, emb_o: Tensor, params: dict) -> Tensor:
    x = concat_cols([emb_s, emb_p, emb_o])
    h = activation(affine(x, params["cls0_w"], params["cls0_b"]), "relu")
    return activation(affine(h, params["cls1_w"], params["cls1_b"]), "sigmoid")


# ---------------------------------------------------------------------------
# full model


def edge_gnn_forward(
    g: HeteroGraph,
    offers: np.ndarray,
    params: dict,
    cfg: EdgeGnnConfig,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Per-class probabilities for a batch of offer ids, over the batch's
    ego network at depth ``cfg.gnn_layers``.  ``rng`` enables dropout
    (training only).
    """
    ego = extract_ego_network(g, offers, hops=cfg.gnn_layers)
    h, sellers, products = node_embedder_forward(g, ego, params, cfg, rng=rng)
    o_s, o_p = sibling_offer_summaries(g, offers)
    return _offer_probs(h, sellers, products, g.offer_features[offers], o_s, o_p, params)


def _offer_probs(h: Tensor, sellers: np.ndarray, products: np.ndarray, o_o: np.ndarray,
                 o_s: np.ndarray, o_p: np.ndarray, params: dict) -> Tensor:
    """The offer side: the edge embedder, then the classifier over its output
    and each offer's seller and product row of the node states ``h``."""
    emb_o = edge_embedder_forward(o_o, o_s, o_p, params)
    return classifier_forward(take_rows(h, sellers), take_rows(h, products), emb_o, params)


# ---------------------------------------------------------------------------
# bulk scoring

def _tile_rows(budget_bytes: int, row_bytes: int) -> int:
    """The rows of ``row_bytes`` each that ``budget_bytes`` holds, rounded
    down to whole ``TILE_ROWS`` tiles, and at least one tile."""
    rows = budget_bytes // row_bytes
    return max(TILE_ROWS, rows - rows % TILE_ROWS)


# Bytes of offer-side activations one scoring chunk may hold, counted as
# float64 rows of the classifier input, the widest offer-side array.
SCORE_CHUNK_BYTES = 4 << 20


def score_chunk_rows(cfg: EdgeGnnConfig) -> int:
    """Offers per scoring chunk: ``SCORE_CHUNK_BYTES`` over one float64 row
    of the classifier input (``2*hidden + edge_hidden`` wide), rounded down
    to whole 16-row tiles.

    BLAS kernels work on small row tiles and finish leftover rows with
    other code, so a chunk without leftover rows computes each row's bits
    as one call over every offer would (except that call's leftovers).
    """
    return _tile_rows(SCORE_CHUNK_BYTES, 8 * (2 * cfg.hidden + cfg.edge_hidden))


# Bytes of one ``hidden``-wide layer array per plan part when scoring: a
# layer's temporaries (a part's aggregate ``m``, its blocks' products and
# row gathers) then stay within a few of these, however large the ego.
SCORE_PART_BYTES = 1 << 20


def score_part_rows(hidden: int, dtype) -> int:
    """Rows per plan part when scoring (``ego_network``'s ``max_rows``):
    ``SCORE_PART_BYTES`` over one ``hidden``-wide row of ``dtype``, rounded
    down to whole 16-row tiles; 2048 float64 rows at ``hidden`` 64."""
    return _tile_rows(SCORE_PART_BYTES, np.dtype(dtype).itemsize * hidden)


def edge_gnn_scores(
    g: HeteroGraph, offers: np.ndarray, param_groups: Sequence, cfg: EdgeGnnConfig
) -> np.ndarray:
    """Per-class probabilities of offer ids (``graph.id_array``), one column
    block per parameter group, in the groups' dtype; no offers give no rows.

    One ego network of the batch serves every group; its plan's parts hold
    at most :func:`score_part_rows` rows, so the encoder's temporaries are
    bounded too.  Then, one group at a time: one encoder pass that keeps
    only the endpoint rows, with each offer's seller and product row index
    (:func:`node_embedder_forward`); then, in chunks of
    :func:`score_chunk_rows` offers, the sibling summaries and the group's
    edge embedder and classifier (:func:`_offer_probs`, the code training
    differentiates), written into the group's columns of one preallocated
    output.  The ego goes after the last group's encoder pass.  A call of
    more than one chunk runs every chunk at the full row count.  So only
    one group's endpoint states are live at a time, and no array of
    ``hidden`` width or wider holds a row per offer outside a chunk.  The
    scores are those of :func:`edge_gnn_forward` over the whole batch, bit
    for bit where the BLAS rounds a row alike at every row count.
    """
    offers = id_array(offers, g.n_offers, "offer id")
    dtype = param_groups[0]["cls1_w"].dtype
    ends = np.cumsum([0] + [p["cls1_w"].shape[1] for p in param_groups])
    if offers.size == 0:
        return np.zeros((0, ends[-1]), dtype=dtype)
    ego = extract_ego_network(g, offers, cfg.gnn_layers, score_part_rows(cfg.hidden, dtype))
    n, step = offers.shape[0], score_chunk_rows(cfg)
    out = None
    for i, (params, lo_col, hi_col) in enumerate(zip(param_groups, ends[:-1], ends[1:])):
        h, sellers, products = node_embedder_forward(g, ego, params, cfg)
        if i == len(param_groups) - 1:
            del ego  # the offer side reads none of it
        if out is None:  # after the first encoder pass, so the two never overlap
            out = np.empty((n, ends[-1]), dtype=h.dtype)
        for lo in range(0, n, step):
            # the last chunk ends at n with a full step of rows, overlapping the
            # one before: BLAS may pick another kernel for fewer rows, so this
            # keeps each row's bits independent of where the call ends
            rows = slice(min(lo, max(n - step, 0)), lo + step)
            chunk = offers[rows]
            o_s, o_p = sibling_offer_summaries(g, chunk)
            out[rows, lo_col:hi_col] = _offer_probs(
                h, sellers[rows], products[rows], g.offer_features[chunk], o_s, o_p, params
            ).data
        del h
    return out
