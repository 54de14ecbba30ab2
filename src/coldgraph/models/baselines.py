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
from ..graph import N_CLASSES, HeteroGraph, ExpandedGraph, Relation, id_array
from ..records import Record
from ..sampling import EgoNetwork, ego_network
from .core import (
    cast_params,
    glorot,
    init_relational_encoder,
    relational_encoder_forward,
    score_part_rows,
)
from .train import TrainConfig, fit

__all__ = [
    "naive_fill_seller_features",
    "build_listing_table",
    "sign_listing_table",
    "ExpandedRgcnConfig",
    "init_expanded_rgcn_params",
    "train_expanded_rgcn",
    "score_expanded_rgcn",
]


def naive_fill_seller_features(g: HeteroGraph, new_sellers: np.ndarray) -> np.ndarray:
    """Copy of the seller feature matrix with cold rows replaced by the mean
    over the union of their seller neighbors (multiplicity one per distinct
    neighbor across all eight relations).  The cold rows are seller ids
    (``graph.id_array``)."""
    new_sellers = id_array(new_sellers, g.n_sellers, "new seller")
    filled = g.seller_features.copy()
    if new_sellers.size == 0:
        return filled
    # the binary OR of the cold sellers' rows of the eight relations, whose
    # columns are all sellers
    union = sum(g.unified_csr(r)[new_sellers] for r in Relation.seller_seller())
    union.data[:] = 1.0
    sums = union[:, :g.n_sellers] @ g.seller_features.astype(np.float64)
    k = np.diff(union.indptr)
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


def sign_features(g: HeteroGraph, hops: int) -> np.ndarray:
    """Concatenated operator powers ``[X, AX, ..., A^K X]``, ``K = hops >= 0``.

    X stacks zero-padded seller and product features into one node space.
    A averages, per node, the row-mean-normalized adjacency of the
    relations that node actually participates in: summing the per-relation
    neighbor means and dividing by the node's count of active relations.
    A node with a single neighbor under a single relation therefore
    receives exactly that neighbor's features.  The per-relation means are
    the row blocks of ``g.normalized_stack()``, summed in relation order.
    """
    n = g.n_nodes
    d = g.d_s + g.d_p
    x = np.zeros((n, d), dtype=np.float64)
    x[: g.n_sellers, : g.d_s] = g.seller_features
    x[g.n_sellers:, g.d_s:] = g.product_features

    stack = g.normalized_stack()
    summed = sp.csr_matrix((n, n), dtype=np.float64)
    active = np.zeros(n, dtype=np.float64)
    for r in Relation:
        mat = stack[r * n:(r + 1) * n]
        active += np.diff(mat.indptr) > 0
        summed = summed + mat.astype(np.float64)
    inv = np.zeros(n, dtype=np.float64)
    inv[active > 0] = 1.0 / active[active > 0]
    op = sp.diags(inv) @ summed

    blocks = [x]
    for _ in range(hops):
        blocks.append(op @ blocks[-1])
    return np.concatenate(blocks, axis=1).astype(np.float32)


def sign_listing_table(g: HeteroGraph, hops: int) -> np.ndarray:
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

    def __post_init__(self):
        for name in ("hidden", "layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def init_expanded_rgcn_params(cfg: ExpandedRgcnConfig, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    h = cfg.hidden
    params = init_relational_encoder(
        rng, {"seller": cfg.d_s, "product": cfg.d_p, "offer": cfg.d_o},
        h, cfg.layers, ExpandedGraph.N_RELATIONS,
    )
    params["head_w"] = Tensor(glorot(rng, h, N_CLASSES), requires_grad=True)
    params["head_b"] = Tensor(np.zeros(N_CLASSES, dtype=np.float32), requires_grad=True)
    return params


def _expanded_ego(
    eg: ExpandedGraph, offers: np.ndarray, layers: int, max_rows: Optional[int] = None
) -> EgoNetwork:
    """The ego network of ``offers``' offer nodes, ``layers`` deep, its plan's
    parts at most ``max_rows`` tall if given."""
    return ego_network(eg.normalized_stack(), eg.g.n_nodes + offers, layers, max_rows)


def _expanded_probs(eg: ExpandedGraph, ego: EgoNetwork, params: dict) -> Tensor:
    """Class probabilities of the ego's seed offers (in seed order),
    computing each layer only where the output reads it."""
    g = eg.g
    feats = {"seller": g.seller_features, "product": g.product_features,
             "offer": g.offer_features}
    h = relational_encoder_forward(ego.inputs(feats), ego.plan, params)
    probs = activation(affine(h, params["head_w"], params["head_b"]), "sigmoid")
    return take_rows(probs, ego.seed_rows())


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
        return scale(bce_loss(_expanded_probs(eg, full_batch, params), targets), N_CLASSES)

    return params, fit(params, lambda: (ego,), loss_fn, tc)


def score_expanded_rgcn(
    eg: ExpandedGraph, params: dict, cfg: ExpandedRgcnConfig, offers: np.ndarray
) -> np.ndarray:
    """Float64 probability rows of ``offers``, in any order; the plan's parts
    hold at most ``score_part_rows`` rows, as in edge classifier scoring.
    The offers are offer ids (``graph.id_array``)."""
    offers = id_array(offers, eg.g.n_offers, "offer id")
    if offers.size == 0:
        return np.zeros((0, N_CLASSES))
    ego = _expanded_ego(eg, offers, cfg.layers, score_part_rows(cfg.hidden, np.float64))
    return _expanded_probs(eg, ego, cast_params(params, np.float64)).data
