"""Generic tape ops that the library no longer calls, kept as oracles and probes.

The package records the attention softmax inside ``autograd.attention``
and the symmetric InfoNCE loss as ``autograd.contrastive_loss``, and its
teacher-forced pass computes only the positions it scores.  The ops
here are the per-op pieces those replaced, each with its own backward
rule, so a test can rebuild a fused op record by record and compare
values and gradients, slice a full teacher-forced pass, or weight an
output elementwise by a probe.
"""

from __future__ import annotations

import numpy as np

from dualcap.autograd import Tensor, _new, _record, add, cross_entropy, matmul, scale, transpose
from dualcap.errors import ContractError, ShapeError


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes differ: {a.shape} vs {b.shape}")
    return _record(_new(a.data * b.data), (a, b), lambda g: (g * b.data, g * a.data))


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub: shapes differ: {a.shape} vs {b.shape}")
    return _record(_new(a.data - b.data), (a, b), lambda g: (g, -g))


def scale_by(x: Tensor, s: Tensor) -> Tensor:
    """Multiply every element of x by the single-element tensor s."""
    if s.size != 1:
        raise ShapeError(f"scale_by: scale must be a single element, got shape {s.shape}")
    sval = float(s.data.reshape(-1)[0])

    def grad_fn(g):
        return g * sval, np.array([np.sum(g * x.data)]).reshape(s.shape)

    return _record(_new(x.data * sval), (x, s), grad_fn)


def reciprocal(x: Tensor) -> Tensor:
    if np.any(x.data == 0.0):
        raise ContractError("reciprocal: input contains zero")
    out = _new(1.0 / x.data)
    return _record(out, (x,), lambda g: (-g * out.data * out.data,))


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

    def grad_fn(g):
        full = np.zeros_like(x.data)
        full[index] = g
        return (full,)

    return _record(_new(x.data[index]), (x,), grad_fn)


def mean_axis(x: Tensor, axis: int) -> Tensor:
    """Mean over one axis, which the output drops."""
    count = x.shape[axis]

    def grad_fn(g):
        return (np.repeat(np.expand_dims(g / count, axis), count, axis=axis),)

    return _record(_new(x.data.mean(axis=axis)), (x,), grad_fn)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Row-stochastic softmax with max subtraction for stability."""
    shifted = x.data - np.maximum.reduce(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / np.add.reduce(e, axis=axis, keepdims=True)

    def grad_fn(g):
        return (s * (g - (g * s).sum(axis=axis, keepdims=True)),)

    return _record(_new(s), (x,), grad_fn)


def contrastive_loss(image_vecs: Tensor, text_vecs: Tensor, temperature: Tensor) -> Tensor:
    """Symmetric InfoNCE as nine generic records: the oracle for ``autograd.contrastive_loss``."""
    scaled = scale_by(matmul(image_vecs, transpose(text_vecs)), reciprocal(temperature))
    targets = list(range(image_vecs.shape[0]))
    return scale(add(cross_entropy(scaled, targets), cross_entropy(transpose(scaled), targets)), 0.5)
