"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every value flowing through the models is a :class:`Tensor` wrapping a
``numpy`` float64 array.  Operations executed inside a ``with Tape():``
block append one record each (inputs, output, backward rule) to the
active tape; :func:`backward` replays the tape once in reverse, summing
gradients wherever a tensor fans out into several consumers.  Outside a
tape block the same functions run as plain numpy compute, which is how
generation and evaluation avoid graph bookkeeping.

Shapes are strict.  Ops on matrices and rows also take stacks of them,
with leading batch axes.  :func:`add_norm`, :func:`l2_normalize` and
:func:`cross_entropy` work on the last axis of any rank; cross_entropy
gives one mean per (T, V) matrix.  The only broadcast is the bias of
:func:`add_bias` and :func:`linear`, which adds to every trailing block
of its own shape: a length-C bias to every row, a T x C table to every
item of a stack.  A tape and the tensors recorded on it belong to one
thread.

Every matrix product an op computes, forward or backward, is one call
of ``_gemm``, which runs ``np.matmul`` and counts its FLOPs (see
:mod:`dualcap.flops`) from the operand shapes; no other code counts
them.  :meth:`Tape.backward` marks its replay, whose products count apart.

Four ops are whole model stages with a hand-written backward, in
place of the records the composed ops would leave on the tape.
:func:`attention` is one attention branch: the query, key and value
projections (one GEMM each over all rows), the scaled and masked
softmax core over any stack of heads or windows, and the head merge.
:func:`channel_attention` is the encoder's channel-group branch, its
scores and output formed from each group's Gram matrix, so only two of
its products run over the rows.  :func:`contrastive_loss` is the fusion head's
symmetric InfoNCE: one similarity GEMM, then cross_entropy's arithmetic
over its rows and over its columns, differentiable in the temperature.
:func:`fused_logits` is the rest of the fusion head: each position's
causal mean of the decoder states, projected and normalized beside
its image vector, mapped back to decoder width and added to the state,
then the tied output head; training and generation both run it.
Three more fuse the layers around them, each bit for bit the chain of
ops it stands for: :func:`linear` (a matrix product, then add_bias),
:func:`add_norm` (a post-norm residual: the layer norm of an add) and
:func:`ffn` (linear, exact GELU, linear).
"""

from __future__ import annotations

import math
from itertools import accumulate
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
        # id -> (tensor, its gradient so far); only tensors that require grad enter
        grads: dict[int, tuple[Tensor, Array]] = {id(root): (root, np.ones_like(root.data))}
        flops.replaying = True  # the grad functions' products count as backward FLOPs
        try:
            for rec in reversed(self._records):
                entry = grads.get(id(rec.output))
                if entry is None:
                    continue
                for tensor, g_in in zip(rec.inputs, rec.grad_fn(entry[1])):
                    if g_in is None or not tensor.requires_grad:
                        continue
                    prior = grads.get(id(tensor))
                    grads[id(tensor)] = (tensor, g_in if prior is None else prior[1] + g_in)
        finally:
            flops.replaying = False
        for tensor, g in grads.values():
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

    Op outputs may be views of their inputs (reshape, slice_axis); no op
    writes into an array it did not allocate, so sharing is safe.
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


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes differ: {a.shape} vs {b.shape}")
    out = _new(a.data + b.data)
    return _record(out, (a, b), lambda g: (g, g))


def scale(x: Tensor, factor: float) -> Tensor:
    c = float(factor)
    out = _new(x.data * c)
    return _record(out, (x,), lambda g: (g * c,))


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add b to every trailing block of x that has b's shape.

    A length-C bias goes to every row of a (..., T, C) tensor; a T x C
    table goes to every item of a (B, T, C) stack.  This is the only
    broadcast in the package; linear's bias follows the same rule.
    """
    if not _ends(x.shape, b.shape):
        raise ShapeError(f"add_bias: bias shape must end the input shape, got {x.shape} and {b.shape}")
    out = _new(x.data + b.data)
    return _record(out, (x, b), lambda g: (g, g.reshape((-1,) + b.shape).sum(axis=0)))


def exp(x: Tensor) -> Tensor:
    out = _new(np.exp(x.data))
    return _record(out, (x,), lambda g: (g * out.data,))


def _ends(shape: tuple[int, ...], tail: tuple[int, ...]) -> bool:
    """Whether ``tail`` is a non-empty shape that ends ``shape``: add_bias's rule for a bias."""
    return 0 < len(tail) <= len(shape) and shape[len(shape) - len(tail):] == tail


def _gemm(a: Array, b: Array, out: Array | None = None, part: str | None = None) -> Array:
    """np.matmul(a, b), counted by :func:`flops.add_matmul`: every matrix product of every op, forward and backward."""
    flops.add_matmul(a, b, part)
    return np.matmul(a, b, out=out)


def _affine_shapes(op: str, rows: tuple[int, ...], w: Tensor, b: Tensor) -> None:
    # an (n,) bias, or one whose shape ends the output's; the first test spares each decoder step a call
    if w.data.ndim != 2 or len(rows) < 2 or rows[-1] != w.shape[0] or (
            b.shape != w.shape[1:] and not _ends(rows[:-1] + w.shape[1:], b.shape)):
        raise ShapeError(f"{op}: need (..., m, k) rows, a (k, n) weight and a bias that ends the (..., m, n) output, "
                         f"got {rows}, {w.shape}, {b.shape}")


def _affine(x: Array, w: Array, b: Array | None = None) -> Array:
    """x @ w (+ b) over every row of x: one GEMM against a shared matrix, then add_bias's sum."""
    k, n = w.shape
    out = _gemm(x.reshape(-1, k), w).reshape(x.shape[:-1] + (n,))
    if b is not None:
        out += b
    return out


def _affine_grad(x: Array, w: Array, b: Array, g: Array, need_x: bool) -> tuple[Array | None, Array, Array]:
    """Gradients of _affine given its output's: (x's if need_x, w's, b's), as a product and add_bias give them."""
    k, n = w.shape
    rows = g.reshape(-1, n)
    dx = _gemm(rows, w.T).reshape(x.shape) if need_x else None
    return dx, _gemm(x.reshape(-1, k).T, rows), g.reshape((-1,) + b.shape).sum(axis=0)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one op, for (..., m, k) rows and a (k, n) weight.

    The bias follows add_bias's rule: any shape that ends the output's,
    an (n,) vector for every row or an m x n table for every item of a
    stack.  Values, gradients and FLOPs are those of a matrix product
    followed by add_bias, bit for bit.
    """
    _affine_shapes("linear", x.shape, w, b)
    out = _new(_affine(x.data, w.data, b.data))
    return _record(out, (x, w, b), lambda g: _affine_grad(x.data, w.data, b.data, g, x.requires_grad))


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """A feed-forward sublayer as one op: linear(gelu(linear(x, w1, b1)), w2, b2).

    The GELU is the exact 0.5 * u * (1 + erf(u / sqrt(2))).  Values,
    gradients and FLOPs are those of the three ops, bit for bit.
    """
    _affine_shapes("ffn", x.shape, w1, b1)
    _affine_shapes("ffn", x.shape[:-1] + w1.shape[1:], w2, b2)
    pre = _affine(x.data, w1.data, b1.data)
    e = erf(pre * _INV_SQRT2)
    inner = 0.5 * pre * (1.0 + e)
    out = _new(_affine(inner, w2.data, b2.data))

    def grad_fn(g: Array):
        d_inner, dw2, db2 = _affine_grad(inner, w2.data, b2.data, g, True)
        pdf = np.exp(-0.5 * pre * pre) * _INV_SQRT_2PI
        dx, dw1, db1 = _affine_grad(x.data, w1.data, b1.data, d_inner * (0.5 * (1.0 + e) + pre * pdf), x.requires_grad)
        return dx, dw1, db1, dw2, db2

    return _record(out, (x, w1, b1, w2, b2), grad_fn)


# ---------------------------------------------------------------------------
# shape manipulation


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
    sizes = [t.shape[axis] for t in tensors[:-1]]
    return _record(out, tuple(tensors), lambda g: np.split(g, [*accumulate(sizes)], axis=axis))


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


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """The contiguous run [start, stop) along one axis; the whole axis is x itself and records nothing."""
    ndim = x.data.ndim
    if axis < 0 or axis >= ndim:
        raise ShapeError(f"slice_axis: axis {axis} out of range for rank {ndim}")
    if not 0 <= start < stop <= x.shape[axis]:
        raise ShapeError(f"slice_axis: range [{start}, {stop}) invalid for axis of size {x.shape[axis]}")
    if stop - start == x.shape[axis]:
        return x
    index = (np.s_[:],) * axis + (np.s_[start:stop],)

    def grad_fn(g: Array):
        full = np.zeros_like(x.data)
        full[index] = g
        return (full,)

    return _record(_new(x.data[index]), (x,), grad_fn)


# ---------------------------------------------------------------------------
# reductions and nonlinearities


def mean(x: Tensor) -> Tensor:
    """Mean of every element, shape (1,)."""
    out = _new(np.array([x.data.mean()]))
    n = x.size

    def grad_fn(g: Array):
        return (np.full_like(x.data, g.reshape(-1)[0] / n),)

    return _record(out, (x,), grad_fn)


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
    # (items, T, 1): row r of item i is among its first n[i]; every row when counts is None
    kept = True if counts is None else (np.arange(t) < n[:, None])[..., None]
    out = _new((np.add.reduce(flat, axis=1, where=kept) / n[:, None]).reshape(lead + (c,)))

    def grad_fn(g: Array):
        full = np.empty_like(flat)
        full[...] = (g.reshape(-1, c) / n[:, None])[:, None, :]
        if counts is not None:
            full[~kept[..., 0]] = 0.0
        return (full.reshape(x.shape),)

    return _record(out, (x,), grad_fn)


def add_norm(h: Tensor, y: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """A post-norm residual as one op: h + y normalized over its last axis, then scaled and shifted.

    The sum gets zero mean and unit variance per row (eps inside the
    square root); gain and bias are length-C vectors applied to every
    row of a tensor of any rank.
    """
    if h.shape != y.shape:
        raise ShapeError(f"add_norm: shapes differ: {h.shape} vs {y.shape}")
    if h.data.ndim < 1:
        raise ShapeError(f"add_norm: expected at least 1-D input, got {h.shape}")
    c = h.shape[-1]
    if gain.shape != (c,) or bias.shape != (c,):
        raise ShapeError(f"add_norm: gain/bias must be ({c},), got {gain.shape} and {bias.shape}")
    x = h.data + y.data
    # np.mean and np.var, written out: the same sums and divisions, fewer calls
    centered = x - np.add.reduce(x, axis=-1, keepdims=True) / c
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / c
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    out = _new(xhat * gain.data + bias.data)

    def grad_fn(g: Array):
        gy = g * gain.data
        m1 = gy.mean(axis=-1, keepdims=True)
        m2 = (gy * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (gy - m1 - xhat * m2)
        return dx, dx, (g * xhat).reshape(-1, c).sum(axis=0), g.reshape(-1, c).sum(axis=0)

    return _record(out, (h, y, gain, bias), grad_fn)


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

    loss, grad = _nll(logits.data, targets, keep, n_kept)
    out = _new(loss if lead else np.array([loss]))
    return _record(out, (logits,), lambda g: (grad(g),))


def _nll(logits: Array, targets: Array, keep: Array, n_kept) -> tuple[Array, Callable[[Array], Array]]:
    """cross_entropy's arithmetic on validated arrays: (the loss per matrix, the logits' gradient given the loss's).

    Log-softmax over the last axis, the target log-probability floored
    at log(1e-12), and the mean over each matrix's kept rows; a dropped
    row (not kept, or floored) gets zero gradient.
    """
    lead, v = logits.shape[:-2], logits.shape[-1]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    rows = np.arange(targets.size)
    cols = np.clip(targets, 0, v - 1).reshape(-1)
    picked = log_probs.reshape(-1, v)[rows, cols].reshape(targets.shape)
    floor = math.log(LOG_FLOOR)
    dropped = (~keep | (picked < floor)).reshape(-1)
    picked = np.maximum(picked, floor)

    def grad(g: Array) -> Array:
        dlogits = np.exp(log_probs).reshape(-1, v)
        dlogits[rows, cols] -= 1.0
        dlogits[dropped] = 0.0
        weight = np.broadcast_to((g.reshape(lead) / n_kept)[..., None], targets.shape).reshape(-1, 1)
        return (dlogits * weight).reshape(logits.shape)

    return -np.where(keep, picked, 0.0).sum(axis=-1) / n_kept, grad


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
    if full:
        return _gemm(rows, w.transpose(1, 0, 2).reshape(k, n * d)).reshape(-1, n, d).transpose(1, 0, 2)
    return _gemm(rows.reshape(-1, n, k).transpose(1, 0, 2), w)


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
        drows = _gemm(dy, np.stack(stacks, axis=2).transpose(1, 0, 2, 3).reshape(k, -1).T)
        dw = _gemm(rows.T, dy).reshape(k, n, m, d).transpose(2, 1, 0, 3)
    else:
        dy = buf.reshape(n, r, m * d)
        drows = np.empty_like(rows)
        w_t = np.concatenate([w.transpose(0, 2, 1) for w in stacks], axis=1)
        _gemm(dy, w_t, out=drows.reshape(r, n, k).transpose(1, 0, 2))
        dw = _gemm(rows.reshape(r, n, k).transpose(1, 2, 0), dy).reshape(n, k, m, d).transpose(2, 0, 1, 3)
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
    window: int | None = None,
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
    None).  Such a call is a generation step and has no backward: one
    that would be recorded (a tape is active and an input requires
    grad) raises ContractError.
    ``mask`` is added to the scores, broadcast against (n, ..., T, T_k).
    With ``window`` each run of that many consecutive rows is one window
    whose rows attend only among themselves.

    The backward is analytic: dV = P^T dO and, with dP = dO V^T,
    dS = P * (dP - rowsum(dP * P)), dQ = factor * dS K and
    dK = factor * dS^T Q.  Forward FLOPs count under the active scope,
    the core's under its ``core`` part; the backward's four core products
    and two per projected input count as backward FLOPs.  Returns
    (output (..., T, n*d), the softmax weights P as an (n, ..., T_q, T_k)
    array, and the (keys, values) the scores read).
    """
    if (wk is None) != (wv is None) or (wk is None and cached is None):
        raise ContractError("attention: give wk and wv together, or neither with cached keys and values")
    inputs = (x, wq) if wk is None else (x, wq, wk, wv) + (() if context is None else (context,))
    if cached is not None and Tape._active is not None and any(t.requires_grad for t in inputs):
        raise ContractError("attention: a step over cached keys and values is generation-only and cannot be recorded")
    lead, (t, c) = x.shape[:-2], x.shape[-2:]
    wq_heads, q_full = _heads(wq, c)
    n, _, d = wq_heads.shape
    rows, items, rows_per_item = x.data.reshape(-1, c), lead, t
    if window is not None:
        if window < 1 or t % window != 0:
            raise ShapeError(f"attention: {window}-row windows do not tile {t} rows")
        items, rows_per_item = lead + (t // window,), window
    q = _project(rows, wq_heads, q_full).reshape((n,) + items + (rows_per_item, d))
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

    p = _gemm(q, np.swapaxes(k, -1, -2), part="core")  # scores Q K^T
    p *= factor
    if mask is not None:
        p += mask
    p -= np.maximum.reduce(p, axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    heads = np.empty(items + (rows_per_item, n, d))  # the output P V, heads side by side
    _gemm(p, v, out=_heads_first(heads), part="core")
    out = heads.reshape(lead + (t, n * d))

    def grad_fn(g: Array):
        do = _heads_first(g.reshape(items + (rows_per_item, n, d)))
        # Gradients of the projections go straight into side-by-side slots, one buffer per input they read.
        own = context is None
        buf, slots = _grad_slots(q.shape, 3 if own else 1, q_full)
        source_buf, (dk_slot, dv_slot) = (buf, slots[1:]) if own else _grad_slots(k.shape, 2, kv_full)
        _gemm(np.swapaxes(p, -1, -2), do, out=dv_slot)
        ds = _gemm(do, np.swapaxes(v, -1, -2))
        ds -= np.add.reduce(ds * p, axis=-1, keepdims=True)
        ds *= p
        ds *= factor
        _gemm(ds, k, out=slots[0])
        _gemm(np.swapaxes(ds, -1, -2), q, out=dk_slot)
        drows, grads = _project_grad(rows, [wq_heads, wk_heads, wv_heads] if own else [wq_heads], q_full, buf)
        if not own:
            dsource, (dwk, dwv) = _project_grad(source_rows, [wk_heads, wv_heads], kv_full, source_buf)
            grads += [dwk, dwv, dsource.reshape(context.shape)]
        dx = drows.reshape(x.shape)
        return (dx,) + tuple(gw.reshape(w.shape) for gw, w in zip(grads, (wq, wk, wv))) + tuple(grads[3:])

    return _record(_new(out), inputs, grad_fn), p, (k, v)


def channel_attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, factor: float):
    """Attention over the channels of G column groups as one tape op, through each group's Gram matrix.

    ``x`` is a (..., P, C) stack and the weights are (G, C_g, C_g)
    stacks with G * C_g = C; group g's columns X_g project to
    Q = X_g wq[g], K and V likewise, and it attends over its C_g
    channels: A = softmax(factor * Q^T K) and the output is V A^T.
    Since every projection is linear in X_g, the scores are
    factor * wq^T (X_g^T X_g) wk and the output X_g (wv A^T), so only
    the Gram matrix X_g^T X_g and the output are products over the P
    rows; both count under the ``core`` part, the three C_g x C_g
    products under the active scope.  Groups are batched products, so
    no sum mixes two groups.  Returns (output (..., P, C), the weights
    A as a (..., G, C_g, C_g) array).

    The op holds A transposed, so that the softmax reduces over columns
    and M = wv A^T is a plain product.  With R = X_g^T X_g and
    dS = factor * A * (dA - rowsum(dA * A)), the backward is
    dM = X_g^T dO, dA = dM^T wv, dR = wq dS wk^T,
    dX_g = dO M^T + X_g (dR + dR^T), dwq = R wk dS^T, dwk = R wq dS and
    dwv = dM A, each weight's summed over the stack.
    """
    lead, (t, c) = x.shape[:-2], x.shape[-2:]
    n, k = wq.shape[:2] if wq.data.ndim == 3 else (0, 0)
    if n * k != c or any(w.shape != (n, k, k) for w in (wq, wk, wv)):
        raise ShapeError(f"channel_attention: need (G, C/G, C/G) weights for width {c}, "
                         f"got {wq.shape}, {wk.shape} and {wv.shape}")
    xg = x.data.reshape(-1, t, n, k).transpose(0, 2, 1, 3)  # (items, G, P, C_g) views of the groups' columns
    gram = _gemm(np.swapaxes(xg, -1, -2), xg, part="core")
    gram_wq = _gemm(gram, wq.data)
    at = _gemm(np.swapaxes(wk.data, -1, -2), gram_wq)  # the scores transposed, made A^T in place
    at *= factor
    at -= np.maximum.reduce(at, axis=-2, keepdims=True)
    np.exp(at, out=at)
    at /= np.add.reduce(at, axis=-2, keepdims=True)
    a = np.swapaxes(at, -1, -2)  # the weights
    m = _gemm(wv.data, at)
    out = np.empty(xg.shape[:1] + (t, n, k))  # groups side by side
    _gemm(xg, m, out=out.transpose(0, 2, 1, 3), part="core")

    def grad_fn(g: Array):
        do = g.reshape(out.shape).transpose(0, 2, 1, 3)
        dm = _gemm(np.swapaxes(xg, -1, -2), do)
        dat = _gemm(np.swapaxes(wv.data, -1, -2), dm)
        dst = dat - np.add.reduce(dat * at, axis=-2, keepdims=True)
        dst *= at
        dst *= factor  # dS^T
        wk_dst = _gemm(wk.data, dst)
        dgram_t = _gemm(wk_dst, np.swapaxes(wq.data, -1, -2))
        # dX_g's two terms go into buffers laid out like x, so that their sum runs over contiguous rows;
        # M^T is a product of its own, since a transposed view of M would slow the P-row product
        dx, rest = np.empty_like(out), np.empty_like(out)
        _gemm(do, _gemm(a, np.swapaxes(wv.data, -1, -2)), out=dx.transpose(0, 2, 1, 3))
        _gemm(xg, dgram_t + np.swapaxes(dgram_t, -1, -2), out=rest.transpose(0, 2, 1, 3))
        dx += rest
        dwq, dwk, dwv = _gemm(gram, wk_dst), _gemm(gram_wq, np.swapaxes(dst, -1, -2)), _gemm(dm, a)
        return dx.reshape(x.shape), dwq.sum(axis=0), dwk.sum(axis=0), dwv.sum(axis=0)

    return _record(_new(out.reshape(x.shape)), (x, wq, wk, wv), grad_fn), a.reshape(lead + (n, k, k))


# ---------------------------------------------------------------------------
# contrastive loss


def contrastive_loss(image_vecs: Tensor, text_vecs: Tensor, temperature: Tensor) -> Tensor:
    """Symmetric InfoNCE over B matched image-text pairs as one tape op; shape (1,).

    The scores S = I T^T / tau rank every caption for each image (rows)
    and every image for each caption (columns), both with the matched
    pair as target; the loss is the mean of cross_entropy's arithmetic
    over the rows and over the columns, so a batch of identical vectors
    gives ln(B).  ``temperature`` tau is a single-element tensor.  The
    backward sums the columns' gradient, transposed, and the rows', as
    dS; then d(I T^T) = dS / tau, dI = d(I T^T) T,
    dT = (I^T d(I T^T))^T and dtau = -sum(dS * I T^T) / tau^2.
    """
    if image_vecs.shape != text_vecs.shape or image_vecs.data.ndim != 2:
        raise ShapeError(f"contrastive_loss: need matching B x D, got {image_vecs.shape} and {text_vecs.shape}")
    b, d = image_vecs.shape
    if b < 2:
        raise ContractError(f"contrastive_loss: need a batch of at least 2, got {b}")
    if temperature.size != 1 or not temperature.item() > 0:
        raise ContractError(f"contrastive_loss: temperature must be a single positive value, got {temperature.data}")
    inv = 1.0 / temperature.item()
    sims = _gemm(image_vecs.data, text_vecs.data.T)
    scaled = sims * inv
    targets, keep = np.arange(b), np.ones(b, dtype=bool)
    (rows_loss, rows_grad), (cols_loss, cols_grad) = (_nll(s, targets, keep, b) for s in (scaled, scaled.T))

    def grad_fn(g: Array):
        half = g * 0.5
        ds = np.swapaxes(cols_grad(half), -1, -2) + rows_grad(half)
        dsims = ds * inv
        di = _gemm(dsims, text_vecs.data) if image_vecs.requires_grad else None
        dt = _gemm(image_vecs.data.T, dsims).T if text_vecs.requires_grad else None
        return di, dt, np.full(temperature.shape, -np.sum(ds * sims) * inv * inv)

    out = _new(np.array([(rows_loss + cols_loss) * 0.5]))
    return _record(out, (image_vecs, text_vecs, temperature), grad_fn)


def fused_logits(
    hidden: Tensor,
    image_vecs: Tensor,
    txt_w: Tensor,
    txt_b: Tensor,
    cond_w: Tensor,
    cond_b: Tensor,
    emb: Tensor,
    pooled: Tensor | None = None,
) -> Tensor:
    """The fusion head's conditioning and the tied output head as one tape op: (..., T, V) logits.

    ``hidden`` is a (..., T, C) stack of decoder states and
    ``image_vecs`` one (..., D) joint-space vector per item.  Position t
    pools rows 0..t of its item (the causal mean, one GEMM with a T x T
    matrix, unless ``pooled`` gives the (..., T, C) means), projects the
    mean through ``txt_w``, ``txt_b`` and scales it to unit length.  The
    item's image vector beside it makes a (..., T, 2D) fused row, which
    ``cond_w``, ``cond_b`` map to width C and add to the hidden state
    before the product with ``emb``^T.  Values and gradients are those
    of the generic ops (matmul, linear, l2_normalize, concat, add, the
    transposed embedding) bit for bit.  So are the FLOPs, less the
    product with a column of ones that once repeated the image vector
    over the positions: a broadcast repeats it exactly.
    """
    if hidden.data.ndim < 2 or txt_w.data.ndim != 2 or emb.data.ndim != 2:
        raise ShapeError(f"fused_logits: need (..., T, C) states, a (C, D) text weight and a (V, C) embedding, "
                         f"got {hidden.shape}, {txt_w.shape} and {emb.shape}")
    lead, (t, c), (d, v) = hidden.shape[:-2], hidden.shape[-2:], (txt_w.shape[1], emb.shape[0])
    got = (image_vecs.shape, txt_w.shape, txt_b.shape, cond_w.shape, cond_b.shape, emb.shape,
           hidden.shape if pooled is None else pooled.shape)
    want = (lead + (d,), (c, d), (d,), (2 * d, c), (c,), (v, c), hidden.shape)
    if got != want:
        raise ShapeError(f"fused_logits: image vectors, text weight and bias, conditioning weight and bias, "
                         f"embedding and means must be {want}, got {got}")
    if pooled is None:
        causal = np.tril(np.ones((t, t))) / np.arange(1.0, t + 1.0)[:, None]
        means = _gemm(causal, hidden.data)
    else:
        means = pooled.data
    proj = _affine(means, txt_w.data, txt_b.data)
    norm = np.sqrt(np.add.reduce(proj * proj, axis=-1, keepdims=True) + 1e-12)
    fused = np.empty(lead + (t, 2 * d))  # each row: its item's image vector, then its unit text vector
    fused[..., :d] = image_vecs.data[..., None, :]
    text = np.divide(proj, norm, out=fused[..., d:])
    summed = hidden.data + _affine(fused, cond_w.data, cond_b.data)
    out = _new(_affine(summed, emb.data.T))

    def grad_fn(g: Array):
        rows = g.reshape(-1, v)
        d_summed = _gemm(rows, emb.data).reshape(summed.shape)
        d_emb = _gemm(summed.reshape(-1, c).T, rows).T
        d_fused, d_cond_w, d_cond_b = _affine_grad(fused, cond_w.data, cond_b.data, d_summed, True)
        d_text = d_fused[..., d:]
        d_proj = (d_text - text * (d_text * text).sum(axis=-1, keepdims=True)) / norm
        d_means, d_txt_w, d_txt_b = _affine_grad(means, txt_w.data, txt_b.data, d_proj, True)
        # the sum over positions as a product with a row of ones, whose order of additions the chain had
        d_image = _gemm(np.ones((t, 1)).T, d_fused[..., :d]).reshape(image_vecs.shape)
        grads = (d_txt_w, d_txt_b, d_cond_w, d_cond_b, d_emb)
        if pooled is not None:
            return (d_summed, d_image) + grads + (d_means,)
        return (d_summed + _gemm(causal.T, d_means), d_image) + grads

    inputs = (hidden, image_vecs, txt_w, txt_b, cond_w, cond_b, emb) + (() if pooled is None else (pooled,))
    return _record(out, inputs, grad_fn)
