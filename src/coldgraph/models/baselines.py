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
  graph, full batch, classifying offer nodes.  It runs the edge
  classifier's ego network (``sampling.ego_network``) seeded at the offer
  nodes it classifies, so scoring a subset computes only its
  neighbourhood.
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
from ..graph import N_CLASSES, HeteroGraph, ExpandedGraph, Relation
from ..records import Record
from ..sampling import EgoNetwork, ego_network
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
        mat = g.normalized_csr(r)
        active += np.diff(mat.indptr) > 0
        summed = summed + mat.astype(np.float64)
    inv = np.zeros(n, dtype=np.float64)
    inv[active > 0] = 1.0 / active[active > 0]
    op = sp.diags(inv) @ summed

    blocks = [x]
    for _ in range(hops):
        blocks.append(op @ blocks[-1])
    return np.concatenate(blocks, axis=1).astype(np.float32)


def sign_listing_table(g: HeteroGraph, hops: int = 3) -> np.ndarray:
    """Diffusion features of both endpoints plus the raw offer features."""
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


def _expanded_ego(eg: ExpandedGraph, offers: np.ndarray, layers: int) -> EgoNetwork:
    """The ego network of ``offers``' offer nodes, ``layers`` deep."""
    return ego_network(eg.union_csr(), eg.normalized_csrs(), eg.g.n_nodes + offers, layers)


def _expanded_probs(eg: ExpandedGraph, ego: EgoNetwork, params: dict) -> Tensor:
    g = eg.g
    feats = {"seller": g.seller_features, "product": g.product_features,
             "offer": g.offer_features}
    h = relational_encoder_forward(ego.inputs(ego.hops, feats), ego.plan, params)
    probs = activation(affine(h, params["head_w"], params["head_b"]), "sigmoid")
    return take_rows(probs, ego.seed_rows())


def expanded_rgcn_forward(
    eg: ExpandedGraph, params: dict, cfg: ExpandedRgcnConfig, offers: Optional[np.ndarray] = None
) -> Tensor:
    """Class probabilities of ``offers`` (any order; default every offer),
    computing each layer only where the output reads it."""
    if offers is None:
        offers = np.arange(eg.g.n_offers)
    return _expanded_probs(eg, _expanded_ego(eg, offers, cfg.layers), params)


def train_expanded_rgcn(
    eg: ExpandedGraph, cfg: ExpandedRgcnConfig, tc: TrainConfig
) -> tuple:
    """Full-batch training on all labeled offer nodes; returns (params, history)."""
    if eg.g.labels is None or eg.g.n_offers == 0:
        raise ValueError("expanded graph has no labeled offers")
    params = init_expanded_rgcn_params(cfg, tc.seed)
    targets = eg.g.labels.astype(np.float32)
    ego = _expanded_ego(eg, np.arange(eg.g.n_offers), cfg.layers)

    def loss_fn(full_batch):
        return scale(bce_loss(_expanded_probs(eg, full_batch, params), targets), cfg.n_classes)

    return params, fit(params, lambda: (ego,), loss_fn, tc)


def score_expanded_rgcn(
    eg: ExpandedGraph, params: dict, cfg: ExpandedRgcnConfig, offers: Optional[np.ndarray] = None
) -> np.ndarray:
    """Float64 probability rows of ``offers`` (any order; default every
    offer)."""
    if offers is None:
        offers = np.arange(eg.g.n_offers)
    offers = np.asarray(offers, dtype=np.int64)
    if offers.size == 0:
        return np.zeros((0, cfg.n_classes))
    return expanded_rgcn_forward(eg, cast_params(params, np.float64), cfg, offers).data
