"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every value flowing through the models is a :class:`Tensor` wrapping a
``numpy`` float64 array.  Operations executed inside a ``with Tape():``
block append one record each (inputs, output, backward rule) to the
active tape; :func:`backward` replays the tape once in reverse, summing
gradients wherever a tensor fans out into several consumers.  Outside a
tape block the same functions run as plain numpy compute, which is how
generation and evaluation avoid graph bookkeeping.

Shapes are strict.  Ops on matrices and rows also take stacks of them,
with leading batch axes.  :func:`matmul` multiplies (..., m, k) by
(..., k, n) when the batch shapes are equal or one operand is a single
2-D matrix that every item shares; the shared operand's gradient sums
over the stack, and any other batch mismatch is a ShapeError naming both
shapes.  :func:`transpose` swaps the last two axes.  :func:`softmax`,
:func:`layer_norm`, :func:`l2_normalize` and :func:`cross_entropy` work
on the last axis of any rank; cross_entropy gives one mean per (T, V)
matrix.  The only broadcast is :func:`add_bias`, which adds a tensor to
every trailing block of its own shape: a length-C bias to every row, a
T x C table to every item of a stack.  A tape and the tensors recorded
on it belong to one thread.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from . import flops
from .errors import ContractError, ShapeError

Array = np.ndarray

LOG_FLOOR = 1e-12  # probabilities are clamped here before the log
MASK_VALUE = -1e30  # additive mask; exp(-1e30) underflows to exactly 0.0
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """A float64 array plus the gradient machinery attached to it.

    ``data`` is owned by the tensor and must not be mutated while a tape
    that saw the tensor is still alive (the optimizer mutates parameter
    data between steps, after the step's tape has been discarded).
    ``grad`` starts as None and accumulates across backward passes until
    :func:`zero_grads` clears it.
    """

    __slots__ = ("data", "requires_grad", "grad", "tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self.tape: Tape | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)


class _Record:
    __slots__ = ("output", "inputs", "grad_fn")

    def __init__(self, output: Tensor, inputs: tuple[Tensor, ...], grad_fn):
        self.output = output
        self.inputs = inputs
        self.grad_fn = grad_fn


class Tape:
    """Ordered log of operations; backward() replays it exactly once.

    Records are appended in execution order, so every record's inputs
    were produced earlier on the tape and a single reverse sweep in
    :func:`backward` visits each operation once with its output gradient
    fully accumulated.
    """

    _active: "Tape | None" = None

    def __init__(self):
        self._records: list[_Record] = []
        self._outer: Tape | None = None

    def __enter__(self) -> "Tape":
        self._outer = Tape._active
        Tape._active = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        Tape._active = self._outer
        self._outer = None

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, root: Tensor) -> None:
        if root.size != 1:
            raise ContractError(f"backward root must be scalar, got shape {root.shape}")
        if root.tape is not self:
            raise ContractError("backward root was not recorded on this tape, or the tape was already replayed")
        grads: dict[int, Array] = {id(root): np.ones_like(root.data)}
        holders: dict[int, Tensor] = {id(root): root}
        for rec in reversed(self._records):
            g_out = grads.get(id(rec.output))
            if g_out is None:
                continue
            for tensor, g_in in zip(rec.inputs, rec.grad_fn(g_out)):
                if g_in is None or not tensor.requires_grad:
                    continue
                key = id(tensor)
                if key in grads:
                    grads[key] = grads[key] + g_in
                else:
                    grads[key] = g_in
                    holders[key] = tensor
        for key, tensor in holders.items():
            if tensor.requires_grad:
                g = grads[key]
                tensor.grad = g if tensor.grad is None else tensor.grad + g
        # The tape is spent: unlinking the outputs breaks the tensor <-> tape
        # cycle, so the step's graph is freed by reference counting, and a
        # second backward from the same root fails the check above.
        for rec in self._records:
            rec.output.tape = None


def backward(root: Tensor) -> None:
    """Populate .grad on every requires_grad tensor reachable from root."""
    if root.tape is None:
        raise ContractError("backward root is not on any tape (was it computed inside 'with Tape():'?)")
    root.tape.backward(root)


def zero_grads(tensors: Sequence[Tensor]) -> None:
    for t in tensors:
        t.grad = None


def _new(data: Array) -> Tensor:
    """An op's output: a float64 array the op computed, wrapped without a copy.

    Op outputs may be views of their inputs (reshape, transpose,
    slices); no op writes into an array it did not allocate, so sharing
    is safe.
    """
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = False
    out.grad = None
    out.tape = None
    return out


def _record(output: Tensor, inputs: tuple[Tensor, ...], grad_fn) -> Tensor:
    tape = Tape._active
    if tape is not None:
        for t in inputs:
            if t.requires_grad:
                output.requires_grad = True
                output.tape = tape
                tape._records.append(_Record(output, inputs, grad_fn))
                break
    return output


def _require_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes differ: {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("add", a, b)
    out = _new(a.data + b.data)
    return _record(out, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("sub", a, b)
    out = _new(a.data - b.data)
    return _record(out, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("mul", a, b)
    out = _new(a.data * b.data)
    return _record(out, (a, b), lambda g: (g * b.data, g * a.data))


def scale(x: Tensor, factor: float) -> Tensor:
    c = float(factor)
    out = _new(x.data * c)
    return _record(out, (x,), lambda g: (g * c,))


def scale_by(x: Tensor, s: Tensor) -> Tensor:
    """Multiply every element of x by the single-element tensor s."""
    if s.size != 1:
        raise ShapeError(f"scale_by: scale must be a single element, got shape {s.shape}")
    sval = float(s.data.reshape(-1)[0])
    out = _new(x.data * sval)

    def grad_fn(g: Array):
        return g * sval, np.array([np.sum(g * x.data)]).reshape(s.shape)

    return _record(out, (x, s), grad_fn)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add b to every trailing block of x that has b's shape.

    A length-C bias goes to every row of a (..., T, C) tensor; a T x C
    table goes to every item of a (B, T, C) stack.  This is the only
    broadcasting operation in the package.
    """
    k = b.data.ndim
    if k == 0 or x.data.ndim < k or x.shape[x.data.ndim - k:] != b.shape:
        raise ShapeError(f"add_bias: bias shape must end the input shape, got {x.shape} and {b.shape}")
    out = _new(x.data + b.data)
    return _record(out, (x, b), lambda g: (g, g.reshape((-1,) + b.shape).sum(axis=0)))


def exp(x: Tensor) -> Tensor:
    out = _new(np.exp(x.data))
    return _record(out, (x,), lambda g: (g * out.data,))


def reciprocal(x: Tensor) -> Tensor:
    if np.any(x.data == 0.0):
        raise ContractError("reciprocal: input contains zero")
    out = _new(1.0 / x.data)
    return _record(out, (x,), lambda g: (-g * out.data * out.data,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two matrices, two stacks, or a stack and one shared matrix.

    Operands are (..., m, k) and (..., k, n).  Their batch shapes must be
    equal unless one operand is 2-D, in which case every item of the
    other's stack multiplies it.  FLOPs count 2*m*k*n per item.
    """
    shape_a, shape_b = a.data.shape, b.data.shape
    if len(shape_a) < 2 or len(shape_b) < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {shape_a} and {shape_b}")
    lead_a, (m, k) = shape_a[:-2], shape_a[-2:]
    lead_b, n = shape_b[:-2], shape_b[-1]
    if k != shape_b[-2]:
        raise ShapeError(f"matmul: inner dimensions differ: {shape_a} vs {shape_b}")
    if lead_a and lead_b and lead_a != lead_b:
        raise ShapeError(f"matmul: batch dimensions differ: {shape_a} vs {shape_b}")
    flops.add_matmul(math.prod(lead_a or lead_b) * m, k, n)
    if lead_b:
        out = _new(np.matmul(a.data, b.data))
    else:  # one GEMM over every row of the stack
        out = _new((a.data.reshape(-1, k) @ b.data).reshape(lead_a + (m, n)))

    def grad_fn(g: Array):
        ga = gb = None
        if a.requires_grad:
            if lead_b:
                ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
                if not lead_a:
                    ga = ga.reshape(-1, m, k).sum(axis=0)
            else:
                ga = (g.reshape(-1, n) @ b.data.T).reshape(a.shape)
        if b.requires_grad:
            if lead_b:
                gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            else:
                gb = a.data.reshape(-1, k).T @ g.reshape(-1, n)
        return ga, gb

    return _record(out, (a, b), grad_fn)


# ---------------------------------------------------------------------------
# shape manipulation


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes: a matrix transpose, item by item for a stack."""
    if x.data.ndim < 2:
        raise ShapeError(f"transpose: expected at least 2-D, got {x.shape}")
    out = _new(np.swapaxes(x.data, -1, -2))
    return _record(out, (x,), lambda g: (np.swapaxes(g, -1, -2),))


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    """x viewed as ``shape``; a reshape to x's own shape is x itself and records nothing."""
    shape = tuple(int(s) for s in shape)
    if shape == x.shape:
        return x
    if math.prod(shape) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    out = _new(x.data.reshape(shape))
    return _record(out, (x,), lambda g: (g.reshape(x.shape),))


def rearrange(x: Tensor, split: Sequence[int], axes: Sequence[int], shape: Sequence[int]) -> Tensor:
    """View x as ``split``, permute those axes by ``axes``, view the result as ``shape``.

    One op for the reshape / transpose / reshape chains that cut a stack
    into windows or heads and put it back together.
    """
    try:
        permuted = x.data.reshape(split).transpose(axes)
        out = _new(permuted.reshape(shape))
    except ValueError as e:
        raise ShapeError(f"rearrange: cannot view {x.shape} as {tuple(split)}, permute by {tuple(axes)} "
                         f"and view as {tuple(shape)}") from e

    def grad_fn(g: Array):
        inverse = [0] * len(axes)
        for i, a in enumerate(axes):
            inverse[a] = i
        return (g.reshape(permuted.shape).transpose(inverse).reshape(x.shape),)

    return _record(out, (x,), grad_fn)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ContractError("concat: need at least one tensor")
    ndim = tensors[0].data.ndim
    for t in tensors[1:]:
        if t.data.ndim != ndim:
            raise ShapeError(f"concat: ranks differ: {tensors[0].shape} vs {t.shape}")
    if axis < 0 or axis >= ndim:
        raise ShapeError(f"concat: axis {axis} out of range for rank {ndim}")
    ref = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if ref[:axis] + ref[axis + 1:] != other[:axis] + other[axis + 1:]:
            raise ShapeError(f"concat: shapes differ off-axis: {tensors[0].shape} vs {t.shape}")
    out = _new(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]

    def grad_fn(g: Array):
        pieces = []
        start = 0
        for s in sizes:
            index = [np.s_[:]] * ndim
            index[axis] = np.s_[start:start + s]
            pieces.append(g[tuple(index)])
            start += s
        return tuple(pieces)

    return _record(out, tuple(tensors), grad_fn)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) along one axis."""
    ndim = x.data.ndim
    if axis < 0 or axis >= ndim:
        raise ShapeError(f"slice_axis: axis {axis} out of range for rank {ndim}")
    if not (0 <= start < stop <= x.shape[axis]):
        raise ShapeError(f"slice_axis: range [{start}, {stop}) invalid for axis of size {x.shape[axis]}")
    index = [np.s_[:]] * ndim
    index[axis] = np.s_[start:stop]
    index = tuple(index)
    out = _new(x.data[index])

    def grad_fn(g: Array):
        full = np.zeros_like(x.data)
        full[index] = g
        return (full,)

    return _record(out, (x,), grad_fn)


def take_rows(x: Tensor, indices) -> Tensor:
    """Gather rows of a 2-D tensor; duplicate indices sum in the backward.

    The output has shape indices.shape + (columns,), so a (B, T) array of
    ids gathers a (B, T, C) stack.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"take_rows: expected 2-D, got {x.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ShapeError(f"take_rows: index out of range for {x.shape[0]} rows")
    out = _new(x.data[idx])

    def grad_fn(g: Array):
        full = np.zeros_like(x.data)
        np.add.at(full, idx, g)
        return (full,)

    return _record(out, (x,), grad_fn)


# ---------------------------------------------------------------------------
# reductions and nonlinearities


def mean(x: Tensor, axis: int | None = None) -> Tensor:
    if axis is None:
        out = _new(np.array([x.data.mean()]))
        n = x.size

        def grad_fn(g: Array):
            return (np.full_like(x.data, g.reshape(-1)[0] / n),)

        return _record(out, (x,), grad_fn)
    if axis < 0 or axis >= x.data.ndim:
        raise ShapeError(f"mean: axis {axis} out of range for rank {x.data.ndim}")
    count = x.shape[axis]
    out = _new(x.data.mean(axis=axis))

    def grad_fn_axis(g: Array):
        return (np.repeat(np.expand_dims(g / count, axis), count, axis=axis),)

    return _record(out, (x,), grad_fn_axis)


def mean_rows(x: Tensor, counts=None) -> Tensor:
    """Mean of the first ``counts`` rows of each matrix of a (..., T, C) stack.

    ``counts`` is one int per matrix (a plain int for a 2-D input), or
    None for all T rows; the output has shape (..., C).  Each mean is
    taken exactly as ``x[:count].mean(axis=0)``.
    """
    if x.data.ndim < 2:
        raise ShapeError(f"mean_rows: expected at least 2-D, got {x.shape}")
    lead, (t, c) = x.shape[:-2], x.shape[-2:]
    n = np.broadcast_to(np.asarray(t if counts is None else counts, dtype=np.intp), lead).reshape(-1)
    if n.size and (n.min() < 1 or n.max() > t):
        raise ContractError(f"mean_rows: row counts must lie in [1, {t}], got {n.tolist()}")
    flat = x.data.reshape(-1, t, c)
    out = _new(np.array([np.add.reduce(flat[i, :n[i]], axis=0) / n[i] for i in range(n.size)]).reshape(lead + (c,)))

    def grad_fn(g: Array):
        full = np.zeros_like(flat)
        for i, (gi, ni) in enumerate(zip(g.reshape(-1, c), n)):
            full[i, :ni] = gi / ni
        return (full.reshape(x.shape),)

    return _record(out, (x,), grad_fn)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Row-stochastic softmax with max subtraction for stability."""
    shifted = x.data - np.maximum.reduce(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / np.add.reduce(e, axis=axis, keepdims=True)
    out = _new(s)

    def grad_fn(g: Array):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - dot),)

    return _record(out, (x,), grad_fn)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian error linear unit, 0.5 * x * (1 + erf(x / sqrt(2)))."""
    e = erf(x.data * _INV_SQRT2)
    out = _new(0.5 * x.data * (1.0 + e))

    def grad_fn(g: Array):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
        return (g * (0.5 * (1.0 + e) + x.data * pdf),)

    return _record(out, (x,), grad_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean, unit variance; then scale and shift.

    eps sits inside the square root.  gain and bias are length-C vectors
    applied to every row of a tensor of any rank.
    """
    if x.data.ndim < 1:
        raise ShapeError(f"layer_norm: expected at least 1-D input, got {x.shape}")
    c = x.shape[-1]
    if gain.shape != (c,) or bias.shape != (c,):
        raise ShapeError(f"layer_norm: gain/bias must be ({c},), got {gain.shape} and {bias.shape}")
    # np.mean and np.var, written out: the same sums and divisions, fewer calls
    centered = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / c
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / c
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = _new(xhat * gain.data + bias.data)

    def grad_fn(g: Array):
        gy = g * gain.data
        m1 = gy.mean(axis=-1, keepdims=True)
        m2 = (gy * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (gy - m1 - xhat * m2)
        dgain = (g * xhat).reshape(-1, c).sum(axis=0)
        dbias = g.reshape(-1, c).sum(axis=0)
        return dx, dgain, dbias

    return _record(out, (x, gain, bias), grad_fn)


def l2_normalize(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale each row (or a 1-D vector) to unit Euclidean norm; any rank."""
    if x.data.ndim < 1:
        raise ShapeError(f"l2_normalize: expected at least 1-D input, got {x.shape}")
    norm = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True) + eps)
    out = _new(x.data / norm)

    def grad_fn(g: Array):
        dot = (g * out.data).sum(axis=-1, keepdims=True)
        return ((g - out.data * dot) / norm,)

    return _record(out, (x,), grad_fn)


def cross_entropy(logits: Tensor, target_ids, ignore_id: int | None = None) -> Tensor:
    """Mean negative log-likelihood of target_ids under softmax over the last axis.

    T x V logits with T targets give the mean over rows, shape (1,).  A
    stack (..., T, V) with (..., T) targets gives one mean per matrix,
    shape (...).  Rows whose target equals ignore_id are dropped from
    their mean.  The target probability is clamped at 1e-12 before the
    log; a clamped row contributes a constant to the loss and zero
    gradient.
    """
    if logits.data.ndim < 2:
        raise ShapeError(f"cross_entropy: logits must be at least 2-D, got {logits.shape}")
    targets = np.asarray(target_ids, dtype=np.intp)
    lead, v = logits.shape[:-2], logits.shape[-1]
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(
            f"cross_entropy: need targets of shape {logits.shape[:-1]} for logits {logits.shape}, got {targets.shape}"
        )
    keep = np.ones(targets.shape, dtype=bool) if ignore_id is None else targets != ignore_id
    n_kept = keep.sum(axis=-1)
    if np.any(n_kept == 0):
        raise ContractError("cross_entropy: every row is ignored")
    valid = targets[keep]
    if valid.min() < 0 or valid.max() >= v:
        raise ContractError(f"cross_entropy: target id out of range for {v} classes")

    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    rows = np.arange(targets.size)
    cols = np.clip(targets, 0, v - 1).reshape(-1)
    picked = log_probs.reshape(-1, v)[rows, cols].reshape(targets.shape)
    floor = math.log(LOG_FLOOR)
    dropped = (~keep | (picked < floor)).reshape(-1)
    picked = np.maximum(picked, floor)
    loss = -np.where(keep, picked, 0.0).sum(axis=-1) / n_kept
    out = _new(loss if lead else np.array([loss]))

    def grad_fn(g: Array):
        dlogits = np.exp(log_probs).reshape(-1, v)
        dlogits[rows, cols] -= 1.0
        dlogits[dropped] = 0.0
        weight = np.broadcast_to((g.reshape(lead) / n_kept)[..., None], targets.shape).reshape(-1, 1)
        return ((dlogits * weight).reshape(logits.shape),)

    return _record(out, (logits,), grad_fn)
