"""Training: one loop, three callers.

``fit(params, batches, loss_fn, tc)`` owns the optimizer state, the tape,
the non-finite-loss check, backward, the step and the per-epoch mean loss.
Callers supply ``batches()``, one epoch's batches, and ``loss_fn(batch)``:

- ``train_edge_gnn``: each epoch visits every labeled offer once, in sorted
  batches of a seeded shuffle; multi-task mode trains one parameter set on
  the summed per-class loss, nine-binary mode nine single-head models.
- ``train_mlp_heads``: one binary MLP per class over a row-per-offer table.
- ``baselines.train_expanded_rgcn``: one full batch per epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from ..autodiff import (
    AdamState,
    Tape,
    Tensor,
    activation,
    adam_step,
    affine,
    backward,
    bce_loss,
    scale,
    sgd_step,
)
from ..graph import HeteroGraph
from ..sampling import OfferBatch, extract_ego_network
from .core import EdgeGnnConfig, cast_params, edge_gnn_forward, glorot, init_edge_gnn_params

__all__ = [
    "TrainConfig",
    "TrainingDiverged",
    "EdgeGnnModel",
    "train_edge_gnn",
    "train_mlp_heads",
    "score_mlp_heads",
    "mlp_head_forward",
]


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 8
    batch_size: int = 1024
    lr: float = 1e-3
    seed: int = 0
    optimizer: str = "adam"  # or "sgd"
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay!r}")


def fit(params: dict, batches: Callable[[], Iterable], loss_fn: Callable,
        tc: TrainConfig) -> list:
    """Train ``params`` in place for ``tc.epochs`` epochs; returns the
    per-epoch mean loss.  ``batches()`` yields one epoch's batches and
    ``loss_fn(batch)`` builds that batch's scalar loss on the tape."""
    if tc.optimizer == "adam":
        state = AdamState(lr=tc.lr, weight_decay=tc.weight_decay)
        step = lambda grads: adam_step(params, grads, state)
    else:
        step = lambda grads: sgd_step(params, grads, tc.lr, tc.weight_decay)
    history = []
    for epoch in range(tc.epochs):
        total, n_batches = 0.0, 0
        for batch in batches():
            with Tape() as tape:
                loss = loss_fn(batch)
            loss_val = loss.item()
            if not math.isfinite(loss_val):
                raise TrainingDiverged(
                    f"non-finite loss {loss_val} at epoch {epoch}, batch {n_batches}"
                )
            grads = backward(tape, loss)
            step({name: grads[p] for name, p in params.items() if p in grads})
            total += loss_val
            n_batches += 1
        history.append(total / max(n_batches, 1))
    return history


def _fit_head(head: Optional[int], params: dict, batches, loss_fn, tc: TrainConfig) -> list:
    """``fit`` for one of several heads; a divergence also names the head."""
    try:
        return fit(params, batches, loss_fn, tc)
    except TrainingDiverged as exc:
        if head is None:
            raise
        raise TrainingDiverged(f"{exc}, head {head}") from None


def _epoch_batches(m: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(m)
    for lo in range(0, m, batch_size):
        yield perm[lo:lo + batch_size]


@dataclass
class EdgeGnnModel:
    """Trained edge classifier: one parameter group, or nine in binary mode."""

    cfg: EdgeGnnConfig
    param_groups: list
    history: list = field(default_factory=list)
    # dtype -> param_groups cast to it; scoring reads the parameters as fixed
    _cast: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def score(self, g: HeteroGraph, offers, dtype=np.float64) -> np.ndarray:
        """Per-class probability matrix for the given offers.

        Scoring runs with 64-bit accumulation by default; parameters stay
        float32 in memory and on disk, and each dtype's copy is cast on
        first use.  The ego network is extracted once and shared across
        heads.
        """
        dtype = np.dtype(dtype)
        if dtype not in self._cast:
            self._cast[dtype] = [cast_params(p, dtype) for p in self.param_groups]
        batch = OfferBatch(np.asarray(offers, dtype=np.int64))
        ego = extract_ego_network(g, batch, hops=self.cfg.gnn_layers)
        cols = [edge_gnn_forward(g, batch, p, self.cfg, ego=ego).data for p in self._cast[dtype]]
        return np.concatenate(cols, axis=1)


def train_edge_gnn(g: HeteroGraph, cfg: EdgeGnnConfig, tc: TrainConfig) -> EdgeGnnModel:
    if g.labels is None or g.n_offers == 0:
        raise ValueError("graph has no labeled offers")
    labels = g.labels.astype(np.float32)
    m = g.n_offers

    if cfg.mode == "multi_task":
        head_specs = [(None, labels)]
    else:
        head_specs = [(k, labels[:, k:k + 1]) for k in range(cfg.n_classes)]

    groups, history = [], []
    for head_class, targets in head_specs:
        params = init_edge_gnn_params(cfg, tc.seed, head_class=head_class)
        rng = np.random.default_rng(tc.seed)
        dropout_rng = np.random.default_rng([tc.seed, 1]) if cfg.dropout > 0 else None

        def batches():
            for idx in _epoch_batches(m, tc.batch_size, rng):
                yield OfferBatch(np.sort(idx))

        def loss_fn(batch):
            probs = edge_gnn_forward(g, batch, params, cfg, rng=dropout_rng)
            loss = bce_loss(probs, targets[batch.offers])
            if cfg.mode == "multi_task":
                # mean over elements -> sum of the nine per-class means
                loss = scale(loss, cfg.n_classes)
            return loss

        history.append(_fit_head(head_class, params, batches, loss_fn, tc))
        groups.append(params)
    return EdgeGnnModel(cfg=cfg, param_groups=groups, history=history)


# ---------------------------------------------------------------------------
# per-class MLP heads over a fixed feature table (tabular-style models)


def init_mlp_head(rng: np.random.Generator, d_in: int, hidden: int) -> dict:
    return {
        "w0": Tensor(glorot(rng, d_in, hidden), requires_grad=True),
        "b0": Tensor(np.zeros(hidden, dtype=np.float32), requires_grad=True),
        "w1": Tensor(glorot(rng, hidden, 1), requires_grad=True),
        "b1": Tensor(np.zeros(1, dtype=np.float32), requires_grad=True),
    }


def mlp_head_forward(x: Tensor, params: dict) -> Tensor:
    h = activation(affine(x, params["w0"], params["b0"]), "relu")
    return activation(affine(h, params["w1"], params["b1"]), "sigmoid")


def train_mlp_heads(
    table: np.ndarray,
    labels: np.ndarray,
    tc: TrainConfig,
    hidden: int = 64,
) -> tuple:
    """One independent binary MLP per label column over a row-per-offer
    feature table.

    Returns (head param dicts, per-head loss history).
    """
    if labels.ndim != 2 or labels.shape[0] != table.shape[0]:
        raise ValueError("labels must align with table rows")
    m = table.shape[0]
    labels = labels.astype(np.float32)
    heads, history = [], []
    for k in range(labels.shape[1]):
        rng = np.random.default_rng([tc.seed, k])
        params = init_mlp_head(rng, table.shape[1], hidden)

        def loss_fn(idx):
            return bce_loss(mlp_head_forward(Tensor(table[idx]), params), labels[idx, k:k + 1])

        history.append(
            _fit_head(k, params, lambda: _epoch_batches(m, tc.batch_size, rng), loss_fn, tc)
        )
        heads.append(params)
    return heads, history


def score_mlp_heads(heads: list, table: np.ndarray) -> np.ndarray:
    """Float64 probability columns of every head over ``table``'s rows."""
    x = Tensor(table.astype(np.float64, copy=False))
    cols = [mlp_head_forward(x, cast_params(p, np.float64)).data for p in heads]
    return np.concatenate(cols, axis=1)
