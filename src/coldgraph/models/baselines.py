"""Baselines: feature-fill, plain tabular, diffusion features, and the
node-level relational GNN over the expanded graph.

- naive fill: replace a cold seller's feature row by the unweighted mean of
  its distinct seller neighbors across the eight seller-seller relations
  (each distinct neighbor counted once even if linked under several
  relations); sellers with no neighbors keep their zeros.  Offer and
  product features are never filled.  Downstream model is the tabular one.
- tabular: per-class MLPs on concat(seller, product, offer) rows, no graph.
- diffusion (SIGN-style): precompute K powers of a fixed relational
  operator applied to zero-padded node features, feed the concatenation
  plus raw offer features to the same per-class MLPs.
- expanded RGCN: six relational convolutions over the offers-as-nodes
  graph, full batch, classifying offer nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..autodiff import (
    Tensor,
    activation,
    affine,
    bce_loss,
    scale,
    take_rows,
)
from ..graph import N_CLASSES, HeteroGraph, ExpandedGraph, Relation, row_mean_normalize
from ..records import Record
from .core import cast_params, glorot, init_relational_encoder, relational_encoder_forward
from .train import TrainConfig, fit

__all__ = [
    "naive_fill_seller_features",
    "build_listing_table",
    "sign_features",
    "sign_listing_table",
    "ExpandedRgcnConfig",
    "init_expanded_rgcn_params",
    "expanded_rgcn_forward",
    "train_expanded_rgcn",
    "score_expanded_rgcn",
]


def naive_fill_seller_features(g: HeteroGraph, new_sellers: np.ndarray) -> np.ndarray:
    """Copy of the seller feature matrix with cold rows replaced by the mean
    over the union of their seller neighbors (multiplicity one per distinct
    neighbor across all eight relations)."""
    new_sellers = np.asarray(new_sellers, dtype=np.int64)
    filled = g.seller_features.copy()
    if new_sellers.size == 0:
        return filled
    # offer edges only join sellers to products, so the union's seller
    # block is the union of the eight seller-seller relations
    ns = g.n_sellers
    union = g.union_csr()[:ns, :ns]
    sums = union[new_sellers] @ g.seller_features.astype(np.float64)
    k = np.diff(union.indptr)[new_sellers]
    has = k > 0
    filled[new_sellers[has]] = (sums[has] / k[has, None]).astype(np.float32)
    return filled


def build_listing_table(g: HeteroGraph, seller_features: Optional[np.ndarray] = None) -> np.ndarray:
    """Row per offer: seller, product, and offer features side by side."""
    sf = g.seller_features if seller_features is None else seller_features
    return np.concatenate(
        [
            sf[g.offer_seller],
            g.product_features[g.offer_product],
            g.offer_features,
        ],
        axis=1,
    ).astype(np.float32)


# ---------------------------------------------------------------------------
# diffusion features


def sign_features(g: HeteroGraph, hops: int = 3) -> np.ndarray:
    """Concatenated operator powers ``[X, AX, ..., A^K X]``.

    X stacks zero-padded seller and product features into one node space.
    A averages, per node, the row-mean-normalized adjacency of the
    relations that node actually participates in: summing the per-relation
    neighbor means and dividing by the node's count of active relations.
    A node with a single neighbor under a single relation therefore
    receives exactly that neighbor's features.
    """
    if hops < 0:
        raise ValueError("hops must be non-negative")
    n = g.n_nodes
    d = g.d_s + g.d_p
    x = np.zeros((n, d), dtype=np.float64)
    x[: g.n_sellers, : g.d_s] = g.seller_features
    x[g.n_sellers:, g.d_s:] = g.product_features

    summed = sp.csr_matrix((n, n), dtype=np.float64)
    active = np.zeros(n, dtype=np.float64)
    for r in Relation:
        mat = g.unified_csr(r)
        active += np.diff(mat.indptr) > 0
        summed = summed + row_mean_normalize(mat).astype(np.float64)
    inv = np.zeros(n, dtype=np.float64)
    inv[active > 0] = 1.0 / active[active > 0]
    op = sp.diags(inv) @ summed

    blocks = [x]
    for _ in range(hops):
        blocks.append(op @ blocks[-1])
    return np.concatenate(blocks, axis=1).astype(np.float32)


def sign_listing_table(g: HeteroGraph, aug: Optional[np.ndarray] = None, hops: int = 3) -> np.ndarray:
    """Diffusion features of both endpoints plus the raw offer features."""
    if aug is None:
        aug = sign_features(g, hops)
    return np.concatenate(
        [
            aug[g.offer_seller],
            aug[g.offer_product + g.n_sellers],
            g.offer_features,
        ],
        axis=1,
    ).astype(np.float32)


# ---------------------------------------------------------------------------
# expanded-graph RGCN


@dataclass(frozen=True)
class ExpandedRgcnConfig(Record):
    d_s: int
    d_p: int
    d_o: int
    hidden: int = 64
    layers: int = 6
    n_classes: int = N_CLASSES


def init_expanded_rgcn_params(cfg: ExpandedRgcnConfig, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    h = cfg.hidden
    params = init_relational_encoder(
        rng, {"seller": cfg.d_s, "product": cfg.d_p, "offer": cfg.d_o},
        h, cfg.layers, ExpandedGraph.N_RELATIONS,
    )
    params["head_w"] = Tensor(glorot(rng, h, cfg.n_classes), requires_grad=True)
    params["head_b"] = Tensor(np.zeros(cfg.n_classes, dtype=np.float32), requires_grad=True)
    return params


def expanded_rgcn_forward(eg: ExpandedGraph, params: dict, cfg: ExpandedRgcnConfig) -> Tensor:
    """Class probabilities for every offer node (full batch)."""
    g = eg.g
    inputs = {"seller": g.seller_features, "product": g.product_features,
              "offer": g.offer_features}
    h = relational_encoder_forward(inputs, eg.normalized_csrs(), params, cfg.layers)
    offers = take_rows(h, eg.offer_node_ids())
    return activation(affine(offers, params["head_w"], params["head_b"]), "sigmoid")


def train_expanded_rgcn(
    eg: ExpandedGraph, cfg: ExpandedRgcnConfig, tc: TrainConfig
) -> tuple:
    """Full-batch training on all labeled offer nodes; returns (params, history)."""
    if eg.g.labels is None or eg.g.n_offers == 0:
        raise ValueError("expanded graph has no labeled offers")
    params = init_expanded_rgcn_params(cfg, tc.seed)
    targets = eg.g.labels.astype(np.float32)

    def loss_fn(full_graph):
        probs = expanded_rgcn_forward(full_graph, params, cfg)
        return scale(bce_loss(probs, targets), cfg.n_classes)

    return params, fit(params, lambda: (eg,), loss_fn, tc)


def score_expanded_rgcn(
    eg: ExpandedGraph, params: dict, cfg: ExpandedRgcnConfig, dtype=np.float64
) -> np.ndarray:
    return expanded_rgcn_forward(eg, cast_params(params, dtype), cfg).data
