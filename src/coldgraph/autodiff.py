"""Minimal dense tensor engine with taped reverse-mode differentiation.

Tensors are contiguous numpy arrays of rank 0 to 2: scalars for losses,
vectors for biases and pooled rows, matrices for everything else.  Float32
is the default storage dtype; float64 is supported end to end for
high-precision gradient checks (mixing the two promotes to float64).

Differentiation uses a Wengert list.  Operations executed inside a
``with Tape():`` block record themselves in execution order, which is
already a topological order of the data flow, so ``backward`` is a single
reverse sweep, which consumes the tape: each entry is dropped once its
backward has run, so an activation lives only until its gradient is
taken, and a tape can be swept once.  Operations executed with no active
tape are plain forward computations.  An operation defined outside this
module, such as the relational layer of ``models.core``, joins the tape
through :func:`record` as the built-in ones do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "record",
    "backward",
    "parameter",
    "affine",
    "const_matmul",
    "take_rows",
    "concat_cols",
    "activation",
    "scale",
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
    """Dense array; ``requires_grad`` marks trainable leaves."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        if arr.ndim > 2:
            raise ValueError(f"tensors are limited to rank 2, got rank {arr.ndim}")
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = requires_grad

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
        self._consumed = False

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
        self._entries.append((out, tuple(inputs), needs, backward_fn))
        self._tracked.add(id(out))


_TAPE_STACK: list = []


def _active_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def record(out: Tensor, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    """Put ``out`` on the active tape as one operation of ``inputs`` and return it.

    Nothing is recorded with no active tape, or when no input is a
    trainable leaf or a taped result.  ``backward_fn(g, needs)`` receives
    the gradient of ``out`` and a flag per input telling whether that input
    needs a gradient, and returns one array or None per input.

    The op owns ``g``: nothing else holds it, so the op may overwrite it
    and return it, or a view of it, as an input's gradient.  Each array it
    returns is in turn owned by the op that produced that input.
    """
    tape = _active_tape()
    if tape is not None and any(tape._tracks(t) for t in inputs):
        tape._record(out, inputs, backward_fn)
    return out


def backward(tape: Tape, loss: Tensor) -> dict:
    """Reverse sweep over ``tape`` from scalar ``loss``; consumes the tape.

    Returns a dict mapping each reachable ``requires_grad`` leaf to its
    gradient array.  Each entry is set to None once visited, which frees
    its output and closure unless the caller holds them; ``len(tape)``
    does not change.  A second sweep of the same tape raises ValueError.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if id(loss) not in tape._tracked:
        raise ValueError("backward called on a tensor not produced on this tape")
    if tape._consumed:
        raise ValueError("backward called on a consumed tape: a tape can be swept once")
    tape._consumed = True

    entries = tape._entries
    grads: dict = {id(loss): np.ones_like(loss.data)}
    leaves: dict = {}
    for i in range(len(entries) - 1, -1, -1):
        out, inputs, needs, backward_fn = entries[i]
        entries[i] = None
        key = id(out)
        del out
        if key in grads:
            # popped straight into the call, so the op holds the only reference
            _accumulate(grads, leaves, inputs, needs, backward_fn(grads.pop(key), needs))
        del backward_fn

    return {leaf: grads[key].reshape(leaf.data.shape) for key, leaf in leaves.items()}


def _accumulate(grads: dict, leaves: dict, inputs: Sequence[Tensor], needs: tuple,
                input_grads) -> None:
    """Add one op's gradients of the inputs that need one into ``grads``; an
    array the op returns for two inputs is copied for the second, so no two
    ops share one."""
    handed: list = []
    for t, need, gi in zip(inputs, needs, input_grads):
        if gi is None or not need:
            continue
        if any(gi is h for h in handed):
            gi = gi.copy()
        handed.append(gi)
        key = id(t)
        held = grads.get(key)
        grads[key] = gi if held is None else held + gi
        if t.requires_grad:
            leaves[key] = t


# ---------------------------------------------------------------------------
# operations


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

    return record(out, (x, w, b), bwd)


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

    return record(out, (x,), bwd)


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows; duplicate indices accumulate in the gradient.

    The backward scatters by assignment when ``idx`` is strictly
    increasing and keeps the slower ``np.add.at`` for repeated indices.
    """
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
        if np.all(idx[1:] > idx[:-1]):
            gx[idx] = g
        else:
            np.add.at(gx, idx, g)
        return (gx,)

    return record(out, (x,), bwd)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate matrices with equal row counts column by column."""
    if not parts:
        raise ValueError("concat_cols needs at least one part")
    if any(p.ndim != 2 for p in parts):
        raise ValueError("concat_cols expects rank-2 parts")
    rows = {p.shape[0] for p in parts}
    if len(rows) != 1:
        raise ValueError(f"concat_cols row mismatch: {sorted(rows)}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=1))
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])

    def bwd(g, needs):
        return tuple(
            g[:, offsets[i]:offsets[i + 1]] if needs[i] else None
            for i in range(len(parts))
        )

    return record(out, tuple(parts), bwd)


_ACTIVATIONS = ("relu", "sigmoid")


def activation(x: Tensor, kind: str = "relu") -> Tensor:
    if kind == "relu":
        out = Tensor(np.maximum(x.data, 0))

        def bwd(g, needs):
            if not needs[0]:
                return (None,)
            return (g * (x.data > 0),)

        return record(out, (x,), bwd)
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

        return record(out, (x,), bwd)
    raise ValueError(f"unknown activation {kind!r}, expected one of {_ACTIVATIONS}")


def scale(x: Tensor, c: float) -> Tensor:
    out = Tensor(x.data * x.dtype.type(c))

    def bwd(g, needs):
        return (g * c if needs[0] else None,)

    return record(out, (x,), bwd)


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

    return record(out, (x,), bwd)


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

    return record(out, (p,), bwd)


# ---------------------------------------------------------------------------
# optimizers


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam's learning rate and moment buffers; one instance per model."""

    lr: float = 1e-3
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState) -> None:
    """One Adam update, in place, with bias correction."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
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
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        update = (state.lr * (m / corr1)) / (np.sqrt(v / corr2) + ADAM_EPS)
        p.data -= update.astype(p.dtype, copy=False)


def sgd_step(params: dict, grads: dict, lr: float) -> None:
    for name in params:
        p = params[name]
        g = grads.get(name)
        if g is not None:
            p.data -= p.dtype.type(lr) * g.astype(p.dtype, copy=False)


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
