"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything learnable in the pipeline runs on this module. Arrays are
row-major numpy float64 throughout. A Tape records each differentiable
operation as its output's gradient slot and a backward closure that holds
its inputs' slots and only the arrays its formula reads, so the forward
frees every other value as soon as it drops it. Backward spends the tape:
it drops each record once its closure has run, so what a node saved is
freed as soon as backward has passed it, and a tape is unwound once. Only
leaves keep a gradient: backward drops each intermediate's once it has
passed it on. An intermediate's gradient array is never written in place,
so one array may be the gradient of several tensors at once. The exception
is a leaf given a LeafSlot: its gradient is a fixed view into a vector its
caller owns (`flowgen.train` gives each parameter its segment of one
gradient vector), and every contribution is added into that view in place.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, ShapeError

_TAPE_STACK: list["Tape"] = []


class Tape:
    """Ordered record of executed operations for reverse-mode replay."""

    def __init__(self):
        self._records: list[tuple["GradSlot", object]] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPE_STACK.pop()
        return False

    def __len__(self) -> int:
        return len(self._records)


class GradSlot:
    """What backward needs of a tensor, without its value."""

    __slots__ = ("shape", "requires_grad", "grad")

    def __init__(self, shape: tuple[int, ...], requires_grad: bool):
        self.shape, self.requires_grad, self.grad = shape, requires_grad, None

    def _accum(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        g = _unbroadcast(g, self.shape)
        self.grad = g if self.grad is None else self.grad + g


class LeafSlot(GradSlot):
    """A leaf's slot whose gradient is `grad`, a view the caller owns and
    zeroes; backward adds each contribution into it in place."""

    __slots__ = ()

    def __init__(self, grad: np.ndarray):
        super().__init__(grad.shape, True)
        self.grad = grad

    def _accum(self, g: np.ndarray) -> None:
        self.grad += _unbroadcast(g, self.shape)


# shared by every tensor that wants no gradient; Tensor.grad's setter never writes it
_NO_GRAD = GradSlot((), False)


class Tensor:
    """A contiguous float64 array plus its gradient slot."""

    __slots__ = ("data", "slot")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr if arr.flags["C_CONTIGUOUS"] else np.ascontiguousarray(arr)
        self.slot = GradSlot(self.data.shape, True) if requires_grad else _NO_GRAD

    @property
    def requires_grad(self) -> bool:
        return self.slot.requires_grad

    @property
    def grad(self) -> np.ndarray | None:
        return self.slot.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        if self.slot is _NO_GRAD:
            self.slot = GradSlot(self.data.shape, False)
        self.slot.grad = g

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def _accum(self, g: np.ndarray) -> None:
        self.slot._accum(g)

    def __getitem__(self, key):
        return tslice(self, key)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _emit(out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Wrap an op's contiguous float64 output. If a tape is active and an input wants a
    gradient, the tape records a new slot for it; otherwise it shares _NO_GRAD."""
    out = Tensor.__new__(Tensor)
    out.data = out_data if type(out_data) is np.ndarray else np.asarray(out_data)
    tape = _TAPE_STACK[-1] if _TAPE_STACK else None
    if tape is not None and any(t.slot.requires_grad for t in inputs):
        out.slot = GradSlot(out.data.shape, True)
        tape._records.append((out.slot, backward_fn))
    else:
        out.slot = _NO_GRAD
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.slot, b.slot

    def bwd(g):
        sa._accum(g)
        sb._accum(g)

    return _emit(a.data + b.data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    sa, sb = a.slot, b.slot
    # each side's gradient reads the other side's value
    ad = a.data if sb.requires_grad else None
    bd = b.data if sa.requires_grad else None

    def bwd(g):
        if sa.requires_grad:
            sa._accum(g * bd)
        if sb.requires_grad:
            sb._accum(g * ad)

    return _emit(a.data * b.data, (a, b), bwd)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    sa, y = a.slot, np.empty_like(a.data)
    pos = a.data >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-a.data[pos]))
    ez = np.exp(a.data[~pos])
    y[~pos] = ez / (1.0 + ez)

    def bwd(g):
        sa._accum(g * y * (1.0 - y))

    return _emit(y, (a,), bwd)


def relu(a) -> Tensor:
    a = as_tensor(a)
    sa, y = a.slot, a.data * (a.data > 0)

    def bwd(g):
        sa._accum(g * (y > 0))  # y > 0 where a > 0; the linear after each relu keeps y anyway

    return _emit(y, (a,), bwd)


# ---------------------------------------------------------------------------
# linear algebra and shape ops


def matmul(a, b, bias=None) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast as a
    batch. An optional `bias` is added to the product in place, in the same
    node."""
    a, b = as_tensor(a), as_tensor(b)
    ad, bd, sa, sb = a.data, b.data, a.slot, b.slot
    try:
        if ad.ndim < 2 or bd.ndim < 2:
            raise ValueError
        out = np.matmul(ad, bd)
    except ValueError:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}") from None
    inputs, sbias = (a, b), None
    if bias is not None:
        bias = as_tensor(bias)
        out += bias.data
        inputs, sbias = (a, b, bias), bias.slot

    def bwd(g):
        if sbias is not None:
            sbias._accum(g)
        if sa.requires_grad:
            sa._accum(g @ bd.swapaxes(-1, -2))
        if sb.requires_grad:
            sb._accum(ad.swapaxes(-1, -2) @ g)

    return _emit(out, inputs, bwd)


linear = matmul  # a dense layer: linear(x, w, b) is x·w + b


def weighted_scatter(w, index, values, dense, width: int) -> Tensor:
    """(N, width + S) rows from (N, J) weights `w` and constant (N, J, S)
    arrays: row n sums w[n, j] * values[n, j, s] at flat position
    index[n, j, s] of the row-major output (one of row n's first `width`
    columns), and w[n, j] * dense[n, j, s] into column width + s.
    Gradient flows through `w` only."""
    w = as_tensor(w)
    sw = w.slot
    n, _, S = values.shape
    out = np.bincount(index.ravel(), (w.data[:, :, None] * values).ravel(),
                      minlength=n * (width + S)).reshape(n, width + S)
    out[:, width:] = np.matmul(w.data[:, None, :], dense)[:, 0, :]

    def bwd(g):
        sw._accum(np.einsum("njs,njs->nj", np.take(g, index), values)
                  + np.matmul(dense, g[:, width:, None])[:, :, 0])

    return _emit(out, (w,), bwd)


def attention(q, k, v, heads: int, mask=None) -> Tensor:
    """Multi-head attention of (..., nq, hidden) queries over (..., nk, hidden)
    keys and values, leading axes a batch: head h's columns of the output are
    softmax(q_h k_hᵀ / sqrt(dh) + mask) v_h, the constant `mask` broadcast to
    (..., heads, nq, nk) and added in the node, as `matmul` adds its bias. A
    key masked to -inf gets zero weight and zero gradient; each query must see
    one key. Scaling q, not the scores, is exact when 1/sqrt(dh) is a power of
    two. The scores are exponentiated in place into e and the products e v_h,
    not e, are divided by the row sums l, so the forward makes one score-sized
    array, e, and backward one more, built in place."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    sq, sk, sv = q.slot, k.slot, v.slot
    hidden = q.shape[-1]
    dh = hidden // heads
    scale = 1.0 / math.sqrt(dh)
    split = lambda y: y.reshape(*y.shape[:-1], heads, dh).swapaxes(-2, -3)  # (..., heads, n, dh)
    merge = lambda y: y.swapaxes(-2, -3).reshape(*y.shape[:-3], y.shape[-2], hidden)
    q4, k4, v4 = split(q.data * scale), split(k.data), split(v.data)
    e = q4 @ k4.swapaxes(-1, -2)
    if mask is not None:
        e += mask
    e -= e.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    l = e.sum(axis=-1, keepdims=True)
    out = e @ v4
    out /= l
    # each gradient reads what its formula needs: dq reads k, dk reads q
    q4 = q4 if sk.requires_grad else None
    k4 = k4 if sq.requires_grad else None

    def bwd(g):
        g4 = split(g)
        if sv.requires_grad:
            sv._accum(merge(e.swapaxes(-1, -2) @ (g4 / l)))
        if sq.requires_grad or sk.requires_grad:
            ds = g4 @ v4.swapaxes(-1, -2)  # d(e/l) = g vᵀ
            delta = np.einsum("...ij,...ij->...i", ds, e)[..., None]
            delta /= l
            ds -= delta
            ds *= e
            ds /= l
            if sq.requires_grad:
                sq._accum(merge((ds @ k4) * scale))
            if sk.requires_grad:
                sk._accum(merge(ds.swapaxes(-1, -2) @ q4))

    return _emit(merge(out), (q, k, v), bwd)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    sa = a.slot

    def bwd(g):
        sa._accum(g.reshape(sa.shape))

    return _emit(a.data.reshape(shape), (a,), bwd)


def concat(parts, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    slots = [p.slot for p in parts]
    splits = np.cumsum([p.data.shape[axis] for p in parts])[:-1]

    def bwd(g):
        for sp, gp in zip(slots, np.split(g, splits, axis=axis)):
            sp._accum(gp)

    return _emit(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bwd)


def tslice(a, key) -> Tensor:
    """a[key]; backward sums each selected position's gradients into it."""
    a = as_tensor(a)
    sa, size = a.slot, a.data.size

    def bwd(g):
        if sa.requires_grad:
            index = np.arange(size).reshape(sa.shape)[key]
            sa._accum(np.bincount(index.ravel(), g.ravel(), minlength=size).reshape(sa.shape))

    out = a.data[key]  # a fresh array for an integer-array key, else a view to copy
    return _emit(out.copy() if np.may_share_memory(out, a.data) else out, (a,), bwd)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    sa = a.slot

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        sa._accum(np.broadcast_to(g, sa.shape).copy())

    return _emit(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)


def mse(a, target) -> Tensor:
    """Mean of the squared differences between `a` and a constant `target`;
    gradient flows to `a` only."""
    a = as_tensor(a)
    sa, diff = a.slot, a.data - target

    def bwd(g):
        g = np.broadcast_to(g, sa.shape) / diff.size
        sa._accum(g * diff + g * diff)

    return _emit((diff * diff).mean(), (a,), bwd)


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax; rows sum to 1 along `axis`."""
    a = as_tensor(a)
    sa, y = a.slot, a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        sa._accum(y * (g - dot))

    return _emit(y, (a,), bwd)


def layer_norm(a, g, b, eps: float = 1e-5) -> Tensor:
    """Normalize along the last axis to zero mean / unit variance, then scale
    by the gain `g` and shift by the bias `b`: xhat * g + b."""
    a, g, b = as_tensor(a), as_tensor(g), as_tensor(b)
    sa, sg, sb, gd, n = a.slot, g.slot, b.slot, g.data, a.data.shape[-1]
    xhat = a.data - a.data.sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) / n + eps)
    xhat *= inv

    def bwd(dy):
        sb._accum(dy)
        if sg.requires_grad:
            sg._accum(dy * xhat)
        dx = dy * gd
        gm = dx.mean(axis=-1, keepdims=True)
        gx = (dx * xhat).mean(axis=-1, keepdims=True)
        sa._accum((dx - gm - xhat * gx) * inv)

    return _emit(xhat * gd + b.data, (a, g, b), bwd)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Populate gradients for every requires_grad leaf reachable from `loss`
    by unwinding the active tape, so call it inside the `with Tape()` block
    that recorded the loss.

    Intermediate gradients are not kept: each is dropped once passed on, so
    after the call only leaves hold one, added to any a leaf held before.
    The tape is spent: each record is dropped once its closure has run, so
    a second call on the same tape raises ContractError.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        # loss does not depend on anything recorded; nothing to do
        return
    tape = _TAPE_STACK[-1] if _TAPE_STACK else None
    if tape is None:
        raise ContractError("backward needs the tape that recorded the loss to be active")
    if tape._spent:
        raise ContractError("backward has already unwound this tape; record a new one")
    tape._spent = True
    loss._accum(np.ones_like(loss.data))
    records = tape._records
    while records:
        slot, fn = records.pop()  # rebinding fn frees the last closure and what it saved
        g, slot.grad = slot.grad, None
        if g is not None:
            fn(g)


# ---------------------------------------------------------------------------
# parameter helpers

# A parameter layout: (name, shape, initialiser) per tensor, in vector order. The
# initialiser is "zeros", "ones" or a fan-in, for a uniform draw on ±1/sqrt(fan_in).
Layout = list[tuple[str, tuple[int, ...], int | str]]


def layout_size(layout: Layout) -> int:
    return sum(math.prod(shape) for _, shape, _ in layout)


def parameters(layout: Layout, flat: np.ndarray,
               rng: np.random.Generator | None = None) -> dict[str, Tensor]:
    """Learnable tensors, by layout name, over consecutive segments of `flat`
    from its start; given `rng`, each is first set by its initialiser."""
    out, off = {}, 0
    for name, shape, init in layout:
        view = flat[off:off + math.prod(shape)].reshape(shape)
        off += view.size
        if rng is not None and init in ("zeros", "ones"):
            view[...] = 0.0 if init == "zeros" else 1.0
        elif rng is not None:
            a = 1.0 / math.sqrt(init)
            view[...] = rng.uniform(-a, a, size=shape)
        out[name] = Tensor(view, requires_grad=True)
    return out


def sinusoidal_embedding(positions, dim: int) -> np.ndarray:
    """Fixed sine/cosine embedding; one row per position, `dim` columns."""
    pos = np.atleast_1d(np.asarray(positions, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half, 1))
    args = pos[:, None] * freqs[None, :]
    emb = np.concatenate([np.sin(args), np.cos(args)], axis=1)
    if emb.shape[1] < dim:
        emb = np.concatenate([emb, np.zeros((emb.shape[0], dim - emb.shape[1]))], axis=1)
    return emb
