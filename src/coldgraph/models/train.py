"""Training: one loop, three callers.

``fit(params, batches, loss_fn, tc)`` owns the optimizer state, the tape,
the non-finite-loss check, backward, the step and the per-epoch mean loss.
Callers supply ``batches()``, one epoch's batches, and ``loss_fn(batch)``:

- ``train_edge_gnn``: each epoch visits every labeled offer once, in sorted
  batches of a seeded shuffle; multi-task mode trains one parameter set on
  the summed per-class loss, nine-binary mode nine single-head models.
- ``train_mlp_heads``: one binary MLP per class over a row-per-offer table,
  trained in groups of stacked heads: one step runs every head of a group
  on its own batch, and the loss is the vector of per-head losses.
- ``baselines.train_expanded_rgcn``: one full batch per epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from ..autodiff import (
    BCE_CLAMP,
    AdamState,
    Tape,
    Tensor,
    activation,
    adam_step,
    affine,
    backward,
    bce_loss,
    record,
    scale,
)
from ..graph import N_CLASSES, HeteroGraph
from .core import (
    EdgeGnnConfig,
    cast_params,
    edge_gnn_forward,
    edge_gnn_scores,
    glorot,
    init_edge_gnn_params,
)

__all__ = [
    "TrainConfig",
    "TrainingDiverged",
    "EdgeGnnModel",
    "train_edge_gnn",
    "train_mlp_heads",
    "score_mlp_heads",
]


class TrainingDiverged(RuntimeError):
    """A non-finite training loss at ``epoch``, ``batch``; ``head`` names
    the head it came from, or is None for a single model."""

    def __init__(self, loss: float, epoch: int, batch: int, head: Optional[int] = None):
        self.loss, self.epoch, self.batch, self.head = loss, epoch, batch, head
        super().__init__(f"non-finite loss {loss} at epoch {epoch}, batch {batch}"
                         + ("" if head is None else f", head {head}"))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 8
    batch_size: int = 1024
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        for name, low in (("epochs", 0), ("batch_size", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")


def fit(params: dict, batches: Callable[[], Iterable], loss_fn: Callable,
        tc: TrainConfig) -> list:
    """Train ``params`` in place with Adam for ``tc.epochs`` epochs; returns
    the per-epoch mean loss.  ``batches()`` yields one epoch's batches and
    ``loss_fn(batch)`` builds that batch's loss on the tape.

    The loss is one value, or a vector of per-head losses of heads that
    share no parameter: backward then sweeps their sum, a non-finite loss
    names the first head it is seen in, and each epoch's mean is a list of
    per-head means (an epoch with no batch reads 0.0 either way).
    """
    state = AdamState(lr=tc.lr)
    history = []
    for epoch in range(tc.epochs):
        total, n_batches = 0.0, 0
        for batch in batches():
            with Tape() as tape:
                loss = loss_fn(batch)
                root = loss if loss.data.size == 1 else _sum_heads(loss)
            values = loss.data.reshape(-1).astype(np.float64)
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise TrainingDiverged(float(values[bad[0]]), epoch, n_batches,
                                       int(bad[0]) if values.size > 1 else None)
            grads = backward(tape, root)
            adam_step(params, {name: grads[p] for name, p in params.items() if p in grads},
                      state)
            total = total + (values if values.size > 1 else values[0])
            n_batches += 1
        history.append(np.divide(total, max(n_batches, 1)).tolist())
    return history


def _sum_heads(losses: Tensor) -> Tensor:
    """Taped sum of a vector of per-head losses: each head's gradient is the seed."""
    return record(Tensor(losses.data.sum()), (losses,),
                  lambda g, needs: (np.full(losses.shape, g.item(), dtype=g.dtype),))


def _fit_heads(first: Optional[int], params: dict, batches, loss_fn, tc: TrainConfig) -> list:
    """``fit`` for heads ``first, first + 1, ...`` of several, one per loss
    element (``first`` None: one model); a divergence names its head."""
    try:
        return fit(params, batches, loss_fn, tc)
    except TrainingDiverged as exc:
        if first is None:
            raise
        raise TrainingDiverged(exc.loss, exc.epoch, exc.batch, first + (exc.head or 0)) from None


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

    def score(self, g: HeteroGraph, offers: np.ndarray, dtype=np.float64) -> np.ndarray:
        """Per-class probability matrix for the given offer ids
        (``graph.id_array``); no offers give a ``(0, 9)`` matrix.

        Scoring runs with 64-bit accumulation by default, or in float32;
        any other dtype raises ValueError naming it.  Parameters stay
        float32 in memory and on disk, and each dtype's copy is cast on
        first use.  Memory is bounded as in ``core.edge_gnn_scores``: one
        ego network in parts of bounded height, then one head at a time,
        its encoder pass keeping the endpoint rows alone and the offers in
        fixed-size chunks.
        """
        dtype = np.dtype(dtype)
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"scoring dtype must be float32 or float64, got {dtype.name}")
        if dtype not in self._cast:
            self._cast[dtype] = [cast_params(p, dtype) for p in self.param_groups]
        return edge_gnn_scores(g, offers, self._cast[dtype], self.cfg)


def train_edge_gnn(g: HeteroGraph, cfg: EdgeGnnConfig, tc: TrainConfig) -> EdgeGnnModel:
    if g.labels is None or g.n_offers == 0:
        raise ValueError("graph has no labeled offers")
    labels = g.labels.astype(np.float32)
    m = g.n_offers

    if cfg.mode == "multi_task":
        head_specs = [(None, labels)]
    else:
        head_specs = [(k, labels[:, k:k + 1]) for k in range(N_CLASSES)]

    groups, history = [], []
    for head_class, targets in head_specs:
        params = init_edge_gnn_params(cfg, tc.seed, head_class=head_class)
        rng = np.random.default_rng(tc.seed)
        dropout_rng = np.random.default_rng([tc.seed, 1]) if cfg.dropout > 0 else None

        def batches():
            for idx in _epoch_batches(m, tc.batch_size, rng):
                yield np.sort(idx)

        def loss_fn(offers):
            probs = edge_gnn_forward(g, offers, params, cfg, rng=dropout_rng)
            loss = bce_loss(probs, targets[offers])
            if cfg.mode == "multi_task":
                # mean over elements -> sum of the nine per-class means
                loss = scale(loss, N_CLASSES)
            return loss

        history.append(_fit_heads(head_class, params, batches, loss_fn, tc))
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


# Bytes of one head group's gathered batch input: ``train_mlp_heads``
# stacks as many heads into one step as fit in it, and at least one.
HEAD_GROUP_BYTES = 3 << 20


def _stack_heads(heads: list) -> dict:
    """One rank-2 trainable tensor per parameter name: the heads' arrays,
    each read as rows of its last axis, stacked head after head."""
    return {name: Tensor(np.concatenate([h[name].data.reshape(-1, t.shape[-1]) for h in heads]),
                         requires_grad=True)
            for name, t in heads[0].items()}


def _unstack_heads(stacked: dict, like: dict, n: int) -> list:
    """The ``n`` heads of :func:`_stack_heads`, each tensor shaped as in ``like``."""
    parts = {name: np.split(t.data, n) for name, t in stacked.items()}
    return [{name: Tensor(parts[name][j].reshape(t.shape), requires_grad=True)
             for name, t in like.items()} for j in range(n)]


def _stacked_heads_bce(x: np.ndarray, z: np.ndarray, params: dict) -> Tensor:
    """Per-head mean BCE of ``G`` stacked heads, head ``j`` running
    :func:`mlp_head_forward` on its batch rows ``x[j]`` against targets
    ``z[j]``; a ``(G,)`` loss vector, one tape entry.

    ``x`` is ``(G, b, d)`` and ``z`` is ``(G, b)``; the stacked
    parameters are read as ``(G, ...)`` views.  Every product is a batched
    ``np.matmul`` of the per-head products and every other step works
    element by element or along one head's rows, so each head's loss and
    gradients carry the bits of its own unstacked pass through the
    engine's ``affine``, ``activation`` and ``bce_loss``.  The output
    column's input gradient ``g @ w1.T`` has an inner dimension of one and
    is taken as the exact broadcast product.
    """
    n_heads, b, d = x.shape
    w0, b0, w1, b1 = (params[name] for name in ("w0", "b0", "w1", "b1"))
    hidden = b0.shape[1]
    h = np.matmul(x, w0.data.reshape(n_heads, d, hidden))
    h += b0.data[:, None, :]
    np.maximum(h, 0, out=h)
    out = np.matmul(h, w1.data.reshape(n_heads, hidden, 1))
    out += b1.data[:, None, :]
    s = activation(Tensor(out.reshape(n_heads, b)), "sigmoid").data
    del out
    zd = z.astype(s.dtype, copy=False)
    lo, hi = s.dtype.type(BCE_CLAMP), s.dtype.type(1.0 - BCE_CLAMP)
    pc = np.clip(s, lo, hi)
    losses = -(zd * np.log(pc) + (1.0 - zd) * np.log1p(-pc)).sum(axis=1) / b

    def bwd(g, needs):
        gp = g[:, None] * (pc - zd) / (pc * (1.0 - pc) * b)
        gp[~((s > lo) & (s < hi))] = 0.0
        g_out = (gp * s * (1.0 - s))[:, :, None]
        gw1 = np.matmul(h.transpose(0, 2, 1), g_out)
        gb1 = g_out.sum(axis=1)
        live = h > 0
        gh = np.multiply(g_out, w1.data.reshape(n_heads, 1, hidden), out=h)  # h's last read
        gh *= live
        gw0 = np.matmul(x.transpose(0, 2, 1), gh)
        gb0 = gh.sum(axis=1)
        return gw0, gb0, gw1, gb1

    return record(Tensor(losses), (w0, b0, w1, b1), bwd)


def train_mlp_heads(
    table: np.ndarray,
    labels: np.ndarray,
    tc: TrainConfig,
    hidden: int = 64,
) -> tuple:
    """One independent binary MLP per label column over a row-per-offer
    feature table.

    Returns (head param dicts, per-head loss history).  Head ``k`` draws
    its initial parameters and then one batch permutation per epoch from
    its own ``default_rng([tc.seed, k])``.  Heads train in groups: each
    group's parameters are stacked, and one ``fit`` step gathers every
    head's batch into one reused ``(G, b, d)`` buffer of the table's dtype
    and steps all of them at once (:func:`_stacked_heads_bce`).  ``G`` is
    as many heads as ``HEAD_GROUP_BYTES`` holds batch inputs of, and at
    least one.  It changes no result: every head gets, bit for bit, the
    parameters and history that training it alone gives.
    """
    if labels.ndim != 2 or labels.shape[0] != table.shape[0]:
        raise ValueError("labels must align with table rows")
    if table.dtype not in (np.float32, np.float64):
        table = table.astype(np.float32)  # as a Tensor of it would hold
    m, d = table.shape
    labels = labels.astype(np.float32)
    n_heads = labels.shape[1]
    rows = min(tc.batch_size, m)
    size = max(1, min(n_heads, HEAD_GROUP_BYTES // max(rows * d * table.itemsize, 1)))
    buf = np.empty(size * rows * d, dtype=table.dtype)
    heads, history = [], []
    for first in range(0, n_heads, size):
        ks = np.arange(first, min(first + size, n_heads))
        rngs = [np.random.default_rng([tc.seed, int(k)]) for k in ks]
        group = [init_mlp_head(rng, d, hidden) for rng in rngs]
        params = _stack_heads(group)

        def batches():
            return zip(*(_epoch_batches(m, tc.batch_size, rng) for rng in rngs))

        def loss_fn(idx):
            idx = np.stack(idx)
            x = buf[:idx.size * d].reshape(*idx.shape, d)
            np.take(table, idx, axis=0, out=x, mode="clip")  # "raise" would gather via a copy
            return _stacked_heads_bce(x, labels[idx, ks[:, None]], params)

        epochs = [np.broadcast_to(means, len(ks))
                  for means in _fit_heads(first, params, batches, loss_fn, tc)]
        history += [[float(e[j]) for e in epochs] for j in range(len(ks))]
        heads += _unstack_heads(params, group[0], len(ks))
    return heads, history


def score_mlp_heads(heads: list, table: np.ndarray) -> np.ndarray:
    """Float64 probability columns of every head over ``table``'s rows."""
    x = Tensor(table.astype(np.float64, copy=False))
    cols = [mlp_head_forward(x, cast_params(p, np.float64)).data for p in heads]
    return np.concatenate(cols, axis=1)
