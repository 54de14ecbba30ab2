"""Minimal dense tensor engine with taped reverse-mode differentiation.

Tensors are contiguous numpy arrays of rank 0 to 2: scalars for losses,
vectors for biases and pooled rows, matrices for everything else.  Float32
is the default storage dtype; float64 is supported end to end for
high-precision gradient checks (mixing the two promotes to float64).

Differentiation uses a Wengert list.  Operations executed inside a
``with Tape():`` block record themselves in execution order, which is
already a topological order of the data flow, so ``backward`` is a single
reverse sweep.  Operations executed with no active tape are plain forward
computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "parameter",
    "affine",
    "matmul",
    "const_matmul",
    "take_rows",
    "stack_rows",
    "concat_cols",
    "mean_rows",
    "activation",
    "add",
    "add_n",
    "mul",
    "scale",
    "sum_all",
    "dropout",
    "bce_loss",
    "AdamState",
    "adam_step",
    "sgd_step",
    "finite_diff_check",
]

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

ArrayLike = Union[np.ndarray, float, int, Sequence]


class Tensor:
    """Dense array with an optional gradient slot.

    ``requires_grad`` marks trainable leaves.  ``grad`` is filled in by
    :func:`backward`.  ``node_id`` is the index of the tape entry that
    produced this tensor, or None for leaves and untaped results.
    """

    __slots__ = ("data", "grad", "requires_grad", "node_id")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        if arr.ndim > 2:
            raise ValueError(f"tensors are limited to rank 2, got rank {arr.ndim}")
        self.data = np.ascontiguousarray(arr)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.node_id: Optional[int] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def parameter(data: ArrayLike, dtype=np.float32) -> Tensor:
    """Trainable leaf tensor."""
    return Tensor(data, requires_grad=True, dtype=dtype)


class Tape:
    """Ordered record of operations; recording order doubles as the topo order."""

    def __init__(self):
        # entries: (out, inputs, needs, backward_fn)
        self._entries: list = []
        self._tracked: set = set()

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self._entries)

    def produced(self, t: Tensor) -> bool:
        """True if ``t`` is the output of an operation recorded on this tape."""
        return id(t) in self._tracked

    def _tracks(self, t: Tensor) -> bool:
        return t.requires_grad or id(t) in self._tracked

    def _record(self, out: Tensor, inputs: Sequence[Tensor], backward_fn) -> None:
        needs = tuple(self._tracks(t) for t in inputs)
        out.node_id = len(self._entries)
        self._entries.append((out, tuple(inputs), needs, backward_fn))
        self._tracked.add(id(out))


_TAPE_STACK: list = []


def _active_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _maybe_record(out: Tensor, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    tape = _active_tape()
    if tape is not None and any(tape._tracks(t) for t in inputs):
        tape._record(out, inputs, backward_fn)
    return out


def backward(tape: Tape, loss: Tensor) -> dict:
    """Reverse sweep over ``tape`` from scalar ``loss``.

    Returns a dict mapping each reachable ``requires_grad`` leaf to its
    gradient array, and stores the same array on ``leaf.grad``.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if id(loss) not in tape._tracked:
        raise ValueError("backward called on a tensor not produced on this tape")

    grads: dict = {id(loss): np.ones_like(loss.data)}
    leaves: dict = {}
    for out, inputs, needs, backward_fn in reversed(tape._entries):
        g = grads.pop(id(out), None)
        if g is None:
            continue
        input_grads = backward_fn(g, needs)
        for t, gi in zip(inputs, input_grads):
            if gi is None:
                continue
            key = id(t)
            held = grads.get(key)
            grads[key] = gi if held is None else held + gi
            if t.requires_grad:
                leaves[key] = t

    result = {}
    for key, leaf in leaves.items():
        g = grads[key]
        if g.shape != leaf.data.shape:
            g = g.reshape(leaf.data.shape)
        leaf.grad = g
        result[leaf] = g
    return result


# ---------------------------------------------------------------------------
# operations


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Row-wise affine map ``x @ w + b``."""
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise ValueError("affine expects x (n,a), w (a,b), bias (b,)")
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ValueError(
            f"affine shape mismatch: x {x.shape}, w {w.shape}, bias {b.shape}"
        )
    out = Tensor(x.data @ w.data + b.data)

    def bwd(g, needs):
        gx = g @ w.data.T if needs[0] else None
        gw = x.data.T @ g if needs[1] else None
        gb = g.sum(axis=0) if needs[2] else None
        return gx, gw, gb

    return _maybe_record(out, (x, w, b), bwd)


def matmul(x: Tensor, w: Tensor) -> Tensor:
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"matmul shape mismatch: {x.shape} @ {w.shape}")
    out = Tensor(x.data @ w.data)

    def bwd(g, needs):
        gx = g @ w.data.T if needs[0] else None
        gw = x.data.T @ g if needs[1] else None
        return gx, gw

    return _maybe_record(out, (x, w), bwd)


def const_matmul(m, x: Tensor) -> Tensor:
    """Multiply by a constant dense or scipy.sparse matrix; no gradient into ``m``."""
    if x.ndim != 2:
        raise ValueError("const_matmul expects a rank-2 right operand")
    if m.shape[1] != x.shape[0]:
        raise ValueError(f"const_matmul shape mismatch: {m.shape} @ {x.shape}")
    out = Tensor(m @ x.data)

    def bwd(g, needs):
        # transposed only here: forward-only scoring never pays for it
        return ((m.T @ g) if needs[0] else None,)

    return _maybe_record(out, (x,), bwd)


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows; duplicate indices accumulate in the gradient."""
    if x.ndim != 2:
        raise ValueError("take_rows expects a rank-2 tensor")
    idx = np.asarray(idx)
    if idx.ndim != 1 or (idx.size and (idx.min() < 0 or idx.max() >= x.shape[0])):
        raise ValueError("row index out of range")
    out = Tensor(x.data[idx])

    def bwd(g, needs):
        if not needs[0]:
            return (None,)
        gx = np.zeros_like(x.data, dtype=g.dtype)
        np.add.at(gx, idx, g)
        return (gx,)

    return _maybe_record(out, (x,), bwd)


def stack_rows(parts: Sequence[Tensor]) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ValueError("stack_rows needs at least one part")
    if any(p.ndim != 2 for p in parts):
        raise ValueError("stack_rows expects rank-2 parts")
    cols = {p.shape[1] for p in parts}
    if len(cols) != 1:
        raise ValueError(f"stack_rows column mismatch: {sorted(cols)}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=0))
    sizes = [p.shape[0] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g, needs):
        return tuple(
            g[offsets[i]:offsets[i + 1]] if needs[i] else None
            for i in range(len(parts))
        )

    return _maybe_record(out, tuple(parts), bwd)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the feature axis (vectors end to end, matrices by column)."""
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ValueError("concat_cols needs at least one part")
    ranks = {p.ndim for p in parts}
    if len(ranks) != 1 or ranks not in ({1}, {2}):
        raise ValueError("concat_cols expects parts of equal rank 1 or 2")
    axis = 0 if parts[0].ndim == 1 else 1
    if axis == 1:
        rows = {p.shape[0] for p in parts}
        if len(rows) != 1:
            raise ValueError(f"concat_cols row mismatch: {sorted(rows)}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    widths = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + widths)

    def bwd(g, needs):
        if axis == 0:
            return tuple(
                g[offsets[i]:offsets[i + 1]] if needs[i] else None
                for i in range(len(parts))
            )
        return tuple(
            g[:, offsets[i]:offsets[i + 1]] if needs[i] else None
            for i in range(len(parts))
        )

    return _maybe_record(out, tuple(parts), bwd)


def mean_rows(x: Tensor) -> Tensor:
    """Column means of a rank-2 tensor; an empty tensor pools to zeros."""
    if x.ndim != 2:
        raise ValueError("mean_rows expects a rank-2 tensor")
    m = x.shape[0]
    if m == 0:
        out = Tensor(np.zeros(x.shape[1], dtype=x.dtype))
        return _maybe_record(out, (x,), lambda g, needs: (None,))
    out = Tensor(x.data.mean(axis=0))

    def bwd(g, needs):
        if not needs[0]:
            return (None,)
        return (np.broadcast_to(g / m, x.shape).astype(g.dtype, copy=True),)

    return _maybe_record(out, (x,), bwd)


_ACTIVATIONS = ("relu", "sigmoid", "identity")


def activation(x: Tensor, kind: str = "relu") -> Tensor:
    if kind == "identity":
        return x
    if kind == "relu":
        out = Tensor(np.maximum(x.data, 0))

        def bwd(g, needs):
            if not needs[0]:
                return (None,)
            return (g * (x.data > 0),)

        return _maybe_record(out, (x,), bwd)
    if kind == "sigmoid":
        z = x.data
        s = np.empty_like(z)
        pos = z >= 0
        s[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        s[~pos] = ez / (1.0 + ez)
        # keep outputs strictly inside (0, 1) even where exp underflows
        info = np.finfo(z.dtype)
        np.clip(s, info.tiny, np.nextafter(z.dtype.type(1), z.dtype.type(0)), out=s)
        out = Tensor(s)

        def bwd(g, needs):
            if not needs[0]:
                return (None,)
            return (g * s * (1.0 - s),)

        return _maybe_record(out, (x,), bwd)
    raise ValueError(f"unknown activation {kind!r}, expected one of {_ACTIVATIONS}")


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)

    def bwd(g, needs):
        return (g if needs[0] else None, g if needs[1] else None)

    return _maybe_record(out, (a, b), bwd)


def add_n(parts: Sequence[Tensor]) -> Tensor:
    """N-ary elementwise sum; one tape entry instead of a chain of adds."""
    parts = list(parts)
    if not parts:
        raise ValueError("add_n needs at least one part")
    if len(parts) == 1:
        return parts[0]
    shapes = {p.shape for p in parts}
    if len(shapes) != 1:
        raise ValueError(f"add_n shape mismatch: {sorted(shapes)}")
    acc = parts[0].data.copy()
    for p in parts[1:]:
        acc += p.data
    out = Tensor(acc)

    def bwd(g, needs):
        return tuple(g if n else None for n in needs)

    return _maybe_record(out, tuple(parts), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data)

    def bwd(g, needs):
        ga = g * b.data if needs[0] else None
        gb = g * a.data if needs[1] else None
        return ga, gb

    return _maybe_record(out, (a, b), bwd)


def scale(x: Tensor, c: float) -> Tensor:
    out = Tensor(x.data * x.dtype.type(c))

    def bwd(g, needs):
        return (g * c if needs[0] else None,)

    return _maybe_record(out, (x,), bwd)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.asarray(x.data.sum(), dtype=x.dtype))

    def bwd(g, needs):
        if not needs[0]:
            return (None,)
        return (np.full(x.shape, g.item(), dtype=g.dtype),)

    return _maybe_record(out, (x,), bwd)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; ``p`` is the drop probability."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p).astype(x.dtype) / x.dtype.type(1.0 - p)
    out = Tensor(x.data * mask)

    def bwd(g, needs):
        return (g * mask if needs[0] else None,)

    return _maybe_record(out, (x,), bwd)


BCE_CLAMP = 1e-7


def bce_loss(p: Tensor, z) -> Tensor:
    """Mean binary cross entropy over all elements.

    Predictions are clamped to [1e-7, 1 - 1e-7] before the logs; targets are
    treated as constants.  Gradient is zero wherever the clamp is active.
    """
    zd = z.data if isinstance(z, Tensor) else np.asarray(z)
    if p.shape != zd.shape:
        raise ValueError(f"bce_loss shape mismatch: {p.shape} vs {zd.shape}")
    if p.data.size == 0:
        raise ValueError("bce_loss on an empty tensor")
    zd = zd.astype(p.dtype, copy=False)
    lo = p.dtype.type(BCE_CLAMP)
    hi = p.dtype.type(1.0 - BCE_CLAMP)
    pc = np.clip(p.data, lo, hi)
    n = pc.size
    loss_val = -(zd * np.log(pc) + (1.0 - zd) * np.log1p(-pc)).sum() / n
    out = Tensor(np.asarray(loss_val, dtype=p.dtype))

    def bwd(g, needs):
        if not needs[0]:
            return (None,)
        inside = (p.data > lo) & (p.data < hi)
        gp = g.item() * (pc - zd) / (pc * (1.0 - pc) * n)
        gp[~inside] = 0.0
        return (gp.astype(p.dtype, copy=False),)

    return _maybe_record(out, (p,), bwd)


# ---------------------------------------------------------------------------
# optimizers


@dataclass
class AdamState:
    """Adam moment buffers plus hyperparameters; one instance per model."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState) -> None:
    """One Adam update, in place, with bias correction."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    corr1 = 1.0 - b1 ** state.t
    corr2 = 1.0 - b2 ** state.t
    for name in params:
        p = params[name]
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape mismatch for {name!r}: {g.shape} vs {p.data.shape}")
        g = g.astype(p.dtype, copy=False)
        if state.weight_decay:
            g = g + p.dtype.type(state.weight_decay) * p.data
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        update = (state.lr * (m / corr1)) / (np.sqrt(v / corr2) + state.eps)
        p.data -= update.astype(p.dtype, copy=False)


def sgd_step(params: dict, grads: dict, lr: float, weight_decay: float = 0.0) -> None:
    for name in params:
        p = params[name]
        g = grads.get(name)
        if g is None:
            continue
        g = g.astype(p.dtype, copy=False)
        if weight_decay:
            g = g + p.dtype.type(weight_decay) * p.data
        p.data -= p.dtype.type(lr) * g


# ---------------------------------------------------------------------------
# gradient checking


def finite_diff_check(
    f: Callable[[], Tensor],
    params: Union[dict, Iterable[Tensor]],
    h: float = 1e-3,
) -> float:
    """Max relative error between taped gradients and central differences.

    ``f`` must recompute the scalar loss from the current parameter values
    on every call.  Relative error per coordinate is
    ``|ad - fd| / max(|ad|, |fd|, 1)``.  The actual realized perturbations
    are used in the divided difference, which matters for float32 storage.
    """
    plist = list(params.values()) if isinstance(params, dict) else list(params)
    with Tape() as tape:
        loss = f()
    # a loss that never touched the tape depends on no parameter at all
    grads = backward(tape, loss) if tape.produced(loss) else {}

    worst = 0.0
    for p in plist:
        g = grads.get(p)
        gflat = None if g is None else g.reshape(-1)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i].copy()
            flat[i] = orig + h
            hp = float(flat[i] - orig)
            fp = f().item()
            flat[i] = orig - h
            hm = float(orig - flat[i])
            fm = f().item()
            flat[i] = orig
            fd = (fp - fm) / (hp + hm)
            ad = 0.0 if gflat is None else float(gflat[i])
            err = abs(ad - fd) / max(abs(ad), abs(fd), 1.0)
            if err > worst:
                worst = err
    return worst
