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

:func:`attention` is a whole attention branch as one op: the query, key
and value projections (one GEMM each over all rows), the scaled and
masked softmax core over any stack of heads, windows or channel groups,
and the head merge, with a hand-written backward in place of the dozen
records the composed ops would leave on the tape.
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

    ``data`` must not be mutated while a tape that saw the tensor is still
    alive (the optimizer writes parameter data, views of a model's flat
    buffer, in place between steps, after the step's tape is discarded).
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
    kept = (np.arange(t) < n[:, None])[..., None]  # (items, T, 1): row r of item i is among its first n[i]
    out = _new((np.add.reduce(flat, axis=1, where=kept) / n[:, None]).reshape(lead + (c,)))

    def grad_fn(g: Array):
        full = np.empty_like(flat)
        full[...] = (g.reshape(-1, c) / n[:, None])[:, None, :]
        full[~kept[..., 0]] = 0.0
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


# ---------------------------------------------------------------------------
# attention


def _heads(w: Tensor, width: int) -> tuple[Array, bool]:
    """A projection weight as an (n, k, d) stack of heads, and whether every head reads all columns.

    A 2-D (C, d) weight is one head.  The heads of an (n, C/n, d) stack
    read their own C/n columns of the input, those of an (n, C, d)
    stack all C of them; with one head the two are the same.
    """
    stack = w.data if w.data.ndim == 3 else w.data[None]
    if stack.ndim != 3 or width not in (stack.shape[1], stack.shape[0] * stack.shape[1]):
        raise ShapeError(f"attention: weight {w.shape} does not project rows of width {width}")
    return stack, stack.shape[1] == width


def _project(rows: Array, w: Array, full: bool) -> Array:
    """(R, C) rows through an (n, k, d) weight stack: (n, R, d), one GEMM per weight.

    Heads that all read every column are one (R, C) @ (C, n*d) product
    against the weights side by side.
    """
    n, k, d = w.shape
    flops.add_matmul(rows.shape[0], k, n * d)
    if full:
        return (rows @ w.transpose(1, 0, 2).reshape(k, n * d)).reshape(-1, n, d).transpose(1, 0, 2)
    return np.matmul(rows.reshape(-1, n, k).transpose(1, 0, 2), w)


def _heads_first(a: Array) -> Array:
    """A (..., T, n, d) array viewed as (n, ..., T, d)."""
    return a.transpose((a.ndim - 2,) + tuple(range(a.ndim - 2)) + (a.ndim - 1,))


def _grad_slots(shape: tuple[int, ...], m: int, full: bool) -> tuple[Array, list[Array]]:
    """A buffer for the output gradients of m projections of the same rows, and each one's (n, ..., T, d) slot.

    ``shape`` is (n, ..., T, d).  The m gradients sit side by side in
    the buffer, laid out as _project_grad reads it: (n, ..., T, m*d)
    for heads that slice the rows, (..., T, n, m*d) for heads that all
    read every column.
    """
    n, d = shape[0], shape[-1]
    if full:
        buf = np.empty(shape[1:-1] + (n, m * d))
        return buf, [_heads_first(buf[..., j * d:(j + 1) * d]) for j in range(m)]
    buf = np.empty(shape[:-1] + (m * d,))
    return buf, [buf[..., j * d:(j + 1) * d] for j in range(m)]


def _project_grad(rows: Array, stacks: list[Array], full: bool, buf: Array) -> tuple[Array, list[Array]]:
    """Gradients of _project for m weights that all read ``rows``: (the rows', [each weight's]).

    ``buf`` holds the m output gradients side by side (_grad_slots), so
    the rows' gradient is one product, and so are the weights'.
    """
    n, k, d = stacks[0].shape
    m, r = len(stacks), len(rows)
    if full:
        dy = buf.reshape(r, n * m * d)
        drows = dy @ np.stack(stacks, axis=2).transpose(1, 0, 2, 3).reshape(k, -1).T
        dw = (rows.T @ dy).reshape(k, n, m, d).transpose(2, 1, 0, 3)
    else:
        dy = buf.reshape(n, r, m * d)
        drows = np.empty_like(rows)
        w_t = np.concatenate([w.transpose(0, 2, 1) for w in stacks], axis=1)
        np.matmul(dy, w_t, out=drows.reshape(r, n, k).transpose(1, 0, 2))
        dw = np.matmul(rows.reshape(r, n, k).transpose(1, 2, 0), dy).reshape(n, k, m, d).transpose(2, 0, 1, 3)
    return drows, list(dw)


def attention(
    x: Tensor,
    wq: Tensor,
    wk: Tensor | None,
    wv: Tensor | None,
    factor: float,
    *,
    context: Tensor | None = None,
    cached: tuple[Array, Array] | None = None,
    mask: Array | None = None,
    windows: Array | None = None,
    channels: bool = False,
):
    """One attention branch as one tape op: project, softmax(Q K^T * factor + mask) V, merge the heads.

    ``x`` is a (..., T, C) stack of rows and the queries are its
    projection by ``wq``; keys and values project ``context`` (one
    P x W map per item of x) by ``wk`` and ``wv``, or else x itself.  A
    weight is a 2-D (C, d) matrix (one head), an (n, C/n, d) stack
    whose head i reads columns [i*C/n, (i+1)*C/n), or an (n, W, d)
    stack whose heads all read every column.  Each projection is one
    GEMM over all rows, the core runs on (n, ..., T, d) head stacks, and
    the head outputs concatenate back to width n*d.

    ``cached`` keys and values, (n, ..., L, d) arrays, come before the
    ones the call projects (it projects none when ``wk`` and ``wv`` are
    None); they are constants of the op and receive no gradient.
    ``mask`` is added to the scores, broadcast against (n, ..., T, T_k).
    ``windows`` is an (N_w, P_w) array of row indices: the rows of each
    window attend only among themselves.  With ``channels`` every head
    attends over its d feature columns instead of its rows, reading its
    projections transposed, so its scores are d x d whatever T is.

    The backward is analytic: dV = P^T dO and, with dP = dO V^T,
    dS = P * (dP - rowsum(dP * P)), dQ = factor * dS K and
    dK = factor * dS^T Q.  Matmul FLOPs count under the active scope,
    the core's under its ``core`` part.  Returns (output (..., T, n*d),
    the softmax weights P as an (n, ..., T_q, T_k) array, and the
    (keys, values) the scores read).
    """
    lead, (t, c) = x.shape[:-2], x.shape[-2:]
    wq_heads, q_full = _heads(wq, c)
    n, _, d = wq_heads.shape
    rows, items, rows_per_item, order = x.data.reshape(-1, c), lead, t, None
    if windows is not None:
        if windows.size != t:
            raise ShapeError(f"attention: windows {windows.shape} do not cover {t} rows")
        items, rows_per_item = lead + windows.shape[:1], windows.shape[1]
        if not np.array_equal(windows.reshape(-1), np.arange(t)):  # not runs of consecutive rows: gather them
            order = windows.reshape(-1)
            rows = x.data[..., order, :].reshape(-1, c)
    q = _project(rows, wq_heads, q_full).reshape((n,) + items + (rows_per_item, d))
    inputs = (x, wq)
    if wk is None:
        k, v = cached
    else:
        source = x if context is None else context
        width = source.shape[-1]
        if source.shape[:-2] != lead:
            raise ShapeError(f"attention: context {source.shape} is not one map per item of {x.shape}")
        source_rows = rows if context is None else context.data.reshape(-1, width)
        (wk_heads, kv_full), (wv_heads, _) = _heads(wk, width), _heads(wv, width)
        if wk_heads.shape != wv_heads.shape or wk_heads.shape[::2] != (n, d) or (
                context is None and wk_heads.shape != wq_heads.shape):
            raise ShapeError(f"attention: key and value weights {wk.shape}, {wv.shape} do not match queries {wq.shape}")
        k, v = (_project(source_rows, w, kv_full).reshape((n,) + items + (-1, d)) for w in (wk_heads, wv_heads))
        if cached is not None:
            k, v = np.concatenate([cached[0], k], axis=-2), np.concatenate([cached[1], v], axis=-2)
        inputs += (wk, wv) if context is None else (wk, wv, context)

    mats, tq, tk = q.size // (rows_per_item * d), q.shape[-2], k.shape[-2]  # (T, d) matrices per projection
    if channels:  # per head, scores Q^T K (d x T by T x d) and output V P^T (T x d by d x d)
        flops.add_matmul(mats * d, tq, d, part="core")
        p = np.matmul(np.swapaxes(q, -1, -2), k)
    else:  # scores Q K^T (T x d by d x T_k) and output P V (T x T_k by T_k x d)
        flops.add_matmul(mats * tq, d, tk, part="core")
        p = np.matmul(q, np.swapaxes(k, -1, -2))
    p *= factor
    if mask is not None:
        p += mask
    p -= np.maximum.reduce(p, axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    flops.add_matmul(mats * tq, d if channels else tk, d, part="core")
    heads = np.empty(items + (rows_per_item, n, d))  # the output, heads side by side
    if channels:
        np.matmul(v, np.swapaxes(p, -1, -2), out=_heads_first(heads))
    else:
        np.matmul(p, v, out=_heads_first(heads))
    out = heads.reshape(lead + (t, n * d))
    if order is not None:
        out = np.empty_like(out)
        out[..., order, :] = heads.reshape(out.shape)

    def grad_fn(g: Array):
        do = _heads_first((g if order is None else g[..., order, :]).reshape(items + (rows_per_item, n, d)))
        # Gradients of the projections go straight into side-by-side slots, one buffer per input
        # they read; keys and values with cached ones before them are computed whole, then sliced.
        own = wk is not None and context is None
        buf, slots = _grad_slots(q.shape, 3 if own else 1, q_full)
        if wk is not None and context is not None:
            source_buf, (dk_slot, dv_slot) = _grad_slots(k.shape, 2, kv_full)
        else:
            dk_slot, dv_slot = slots[1:] if own else (None, None)
        past = 0 if cached is None else cached[0].shape[-2]
        direct = past == 0 and wk is not None
        if channels:
            dv = np.matmul(do, p, out=dv_slot if direct else None)
            ds = np.matmul(np.swapaxes(do, -1, -2), v)
        else:
            dv = np.matmul(np.swapaxes(p, -1, -2), do, out=dv_slot if direct else None)
            ds = np.matmul(do, np.swapaxes(v, -1, -2))
        ds -= np.add.reduce(ds * p, axis=-1, keepdims=True)
        ds *= p
        ds *= factor
        if channels:
            np.matmul(k, np.swapaxes(ds, -1, -2), out=slots[0])
            dk = np.matmul(q, ds, out=dk_slot if direct else None)
        else:
            np.matmul(ds, k, out=slots[0])
            dk = np.matmul(np.swapaxes(ds, -1, -2), q, out=dk_slot if direct else None)
        if past and wk is not None:  # only the positions this call projected
            dk_slot[...], dv_slot[...] = dk[..., past:, :], dv[..., past:, :]
        drows, grads = _project_grad(rows, [wq_heads, wk_heads, wv_heads] if own else [wq_heads], q_full, buf)
        if wk is not None and context is not None:
            dsource, (dwk, dwv) = _project_grad(source_rows, [wk_heads, wv_heads], kv_full, source_buf)
            grads += [dwk, dwv, dsource.reshape(context.shape)]
        if order is None:
            dx = drows.reshape(x.shape)
        else:
            dx = np.empty_like(x.data)
            dx[..., order, :] = drows.reshape(x.shape)
        shapes = (wq.shape, wk.shape, wv.shape) if wk is not None else (wq.shape,)
        return (dx,) + tuple(gw.reshape(shape) for gw, shape in zip(grads, shapes)) + tuple(grads[3:])

    return _record(_new(out), inputs, grad_fn), p, (k, v)
