"""The edge classifier: relational GNN node embedder, sibling-offer edge
embedder, and an MLP head over the concatenated embeddings.

The model scores offer edges.  Per batch offer it consumes

- seller and product node embeddings from a relational graph convolution
  stack run over the message-flow plan of the batch endpoints' ego network
  (``sampling.ego_network``, which the expanded-graph baseline runs too):
  layer l of L computes only the ego nodes within L-1-l hops of the
  endpoints, and each relation multiplies only the rows its block reads
  (``block.adj @ (h[block.cols] @ W_r)``), so the last layer computes the
  endpoints alone,
- an edge embedding built from the offer's own features concatenated with
  the mean features of its sibling offers (other offers of the same
  product, and other offers of the same seller; the offer itself is
  excluded, and either mean is a zero vector when no siblings exist),

and emits independent per-class probabilities through sigmoid heads.

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

from ..autodiff import (
    Tensor,
    activation,
    add_n,
    affine,
    concat_cols,
    const_matmul,
    dropout,
    matmul,
    stack_rows,
    take_rows,
)
from ..graph import N_CLASSES, N_RELATIONS, HeteroGraph, NodeType
from ..records import Record
from ..sampling import EgoNetwork, Layer, OfferBatch, extract_ego_network

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
    n_classes: int = N_CLASSES
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

    @property
    def head_width(self) -> int:
        return self.n_classes if self.mode == "multi_task" else 1


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
    if head_class is not None and not 0 <= head_class < cfg.n_classes:
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
    head_w = glorot(rng, cfg.cls_hidden, cfg.n_classes)
    head_b = np.zeros(cfg.n_classes, dtype=np.float32)
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


def rgcn_layer(
    layer: Layer,
    h: Tensor,
    rel_ws: Sequence | dict,
    self_w: Tensor,
    self_b: Tensor,
    act: str = "relu",
) -> Tensor:
    """One relational graph convolution, computed only at ``layer.keep``.

    Per output row: the self path ``h @ self_w + bias`` plus, for every
    relation block, the neighbour-mean of ``h`` times that relation's
    weight ``rel_ws[block.relation]``; each block multiplies only the rows
    of ``h`` it reads.  Block matrices are row-mean-normalized, so a
    relation a node does not participate in contributes nothing to it.
    """
    n = h.shape[0]

    def rows(idx):
        return h if idx.shape[0] == n else take_rows(h, idx)

    terms = [affine(rows(layer.keep), self_w, self_b)]
    for block in layer.blocks:
        terms.append(const_matmul(block.adj, matmul(rows(block.cols), rel_ws[block.relation])))
    return activation(add_n(terms), act)


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
    order they are the first layer's input rows.  Each block goes through
    its relu input projection.  ``plan`` holds one :class:`Layer` per
    convolution, the i-th using the ``gnn{i}_*`` parameters.  Dropout
    follows each layer when ``dropout_p > 0`` and ``rng`` is given
    (training only).
    """
    dtype = params[f"proj_{next(iter(inputs))}_w"].dtype
    h = stack_rows([
        activation(
            affine(Tensor(x.astype(dtype, copy=False)), params[f"proj_{name}_w"],
                   params[f"proj_{name}_b"]),
            "relu",
        )
        for name, x in inputs.items()
    ])
    for i, layer in enumerate(plan):
        h = rgcn_layer(
            layer,
            h,
            {b.relation: params[f"gnn{i}_rel{b.relation}_w"] for b in layer.blocks},
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
    """Seller and product embeddings for the ego's batch endpoints.

    Runs the last ``cfg.gnn_layers`` layers of the ego's plan, whose first
    reads the nodes within ``cfg.gnn_layers`` hops and whose last computes
    only the batch endpoints (the hop-zero nodes).
    """
    layers = cfg.gnn_layers
    if ego.hops < layers:
        raise ValueError(
            f"ego network of depth {ego.hops} is too shallow for {layers} layers"
        )
    inputs = ego.inputs(layers, {"seller": g.seller_features, "product": g.product_features})
    h = relational_encoder_forward(
        inputs, ego.plan[ego.hops - layers:], params, cfg.dropout, rng
    )
    sellers, products = np.split(ego.seed_rows(), 2)
    return take_rows(h, sellers), take_rows(h, products)


# ---------------------------------------------------------------------------
# module 2: edge embedder


def sibling_offer_summaries(g: HeteroGraph, offer_ids: np.ndarray) -> tuple:
    """Mean feature rows of same-seller and same-product sibling offers.

    The target offer is excluded from both means; an offer with no sibling
    on one side gets a zero vector there.  Each owner's sum is its row of
    the cached ``g.offers_of`` incidence times the feature table, so the
    cost grows with the requested owners' offers, not with the table.
    """
    feats = g.offer_features
    feats64 = feats.astype(np.float64, copy=False)
    offer_ids = np.asarray(offer_ids, dtype=np.int64)

    out = []
    for node_type, owner in zip(NodeType, (g.offer_seller, g.offer_product)):
        inc = g.offers_of(node_type)
        own = owner[offer_ids]
        k = np.diff(inc.indptr)[own]
        mean = np.zeros((offer_ids.shape[0], feats.shape[1]), dtype=np.float64)
        has = k > 1
        mean[has] = (inc[own[has]] @ feats64 - feats64[offer_ids[has]]) / (k[has] - 1)[:, None]
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
    batch,
    params: dict,
    cfg: EdgeGnnConfig,
    ego: Optional[EgoNetwork] = None,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Per-class probabilities for a batch of offers.

    ``batch`` is an :class:`OfferBatch` or a plain index array.  The ego
    network is extracted at depth ``cfg.gnn_layers`` unless one is passed
    in.  ``rng`` enables dropout (training only).
    """
    if not isinstance(batch, OfferBatch):
        batch = OfferBatch(np.asarray(batch, dtype=np.int64))
    if ego is None:
        ego = extract_ego_network(g, batch, hops=cfg.gnn_layers)
    emb_s, emb_p = node_embedder_forward(g, ego, params, cfg, rng=rng)
    o_s, o_p = sibling_offer_summaries(g, batch.offers)
    o_o = g.offer_features[batch.offers]
    emb_o = edge_embedder_forward(o_o, o_s, o_p, params)
    return classifier_forward(emb_s, emb_p, emb_o, params)
