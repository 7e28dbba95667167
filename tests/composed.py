"""Generic tape ops that the library no longer calls, kept as oracles and probes.

The package records the attention softmax inside ``autograd.attention``,
the symmetric InfoNCE loss as ``autograd.contrastive_loss``, the GELU
inside ``autograd.ffn``, the layer norm inside ``autograd.add_norm``,
the fusion head's conditioning and transposed output head inside
``autograd.fused_logits`` and the patch embedding's product as
``autograd.linear``.  The ops here are the per-op pieces those replaced,
each with its own backward rule, so a test can rebuild a fused op record
by record and compare values and gradients (and, through the same
counted product, forward and backward FLOPs), or weight an output
elementwise by a probe.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from dualcap.autograd import (
    _INV_SQRT2, _INV_SQRT_2PI, Tensor, _gemm, _new, _record, add, concat, cross_entropy, l2_normalize, linear,
    reshape, scale,
)
from dualcap.errors import ContractError, ShapeError


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two matrices, two stacks, or a stack and one shared matrix.

    Operands are (..., m, k) and (..., k, n).  Their batch shapes must be
    equal unless one operand is 2-D, in which case every item of the
    other's stack multiplies it; the shared operand's gradient sums over
    the stack, and any other batch mismatch is a ShapeError naming both
    shapes.  FLOPs count 2*m*k*n per item, forward and backward, through
    ``autograd._gemm``.
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
    if lead_b:
        out = _new(_gemm(a.data, b.data))
    else:  # one GEMM over every row of the stack
        out = _new(_gemm(a.data.reshape(-1, k), b.data).reshape(lead_a + (m, n)))

    def grad_fn(g):
        ga = gb = None
        if a.requires_grad:
            if lead_b:
                ga = _gemm(g, np.swapaxes(b.data, -1, -2))
                if not lead_a:
                    ga = ga.reshape(-1, m, k).sum(axis=0)
            else:
                ga = _gemm(g.reshape(-1, n), b.data.T).reshape(a.shape)
        if b.requires_grad:
            if lead_b:
                gb = _gemm(np.swapaxes(a.data, -1, -2), g)
            else:
                gb = _gemm(a.data.reshape(-1, k).T, g.reshape(-1, n))
        return ga, gb

    return _record(out, (a, b), grad_fn)


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes: a matrix transpose, item by item for a stack."""
    if x.data.ndim < 2:
        raise ShapeError(f"transpose: expected at least 2-D, got {x.shape}")
    return _record(_new(np.swapaxes(x.data, -1, -2)), (x,), lambda g: (np.swapaxes(g, -1, -2),))


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


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian error linear unit, 0.5 * x * (1 + erf(x / sqrt(2))): the middle op of ``autograd.ffn``."""
    e = erf(x.data * _INV_SQRT2)
    out = _new(0.5 * x.data * (1.0 + e))

    def grad_fn(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
        return (g * (0.5 * (1.0 + e) + x.data * pdf),)

    return _record(out, (x,), grad_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then scale and shift: ``autograd.add_norm`` without the add."""
    c = x.shape[-1]
    centered = x.data - np.add.reduce(x.data, axis=-1, keepdims=True) / c
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / c
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv

    def grad_fn(g):
        gy = g * gain.data
        m1 = gy.mean(axis=-1, keepdims=True)
        m2 = (gy * xhat).mean(axis=-1, keepdims=True)
        return inv * (gy - m1 - xhat * m2), (g * xhat).reshape(-1, c).sum(axis=0), g.reshape(-1, c).sum(axis=0)

    return _record(_new(xhat * gain.data + bias.data), (x, gain, bias), grad_fn)


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


def fused_logits(hidden, image_vecs, txt_w, txt_b, cond_w, cond_b, emb, pooled=None) -> Tensor:
    """The conditioned tied head as generic records: the oracle for ``autograd.fused_logits``.

    Ten records for a causal mean; with ``pooled`` given, nine.  The
    image vector reaches every position through a product with a column
    of ones, as the head did before it was one op.
    """
    lead, t, d = hidden.shape[:-2], hidden.shape[-2], txt_w.shape[1]
    if pooled is None:
        pooled = matmul(Tensor(np.tril(np.ones((t, t))) / np.arange(1.0, t + 1.0)[:, None]), hidden)
    text_rows = l2_normalize(linear(pooled, txt_w, txt_b))
    image_rows = matmul(Tensor(np.ones((t, 1))), reshape(image_vecs, lead + (1, d)))
    conditioning = linear(concat([image_rows, text_rows], axis=len(lead) + 1), cond_w, cond_b)
    return matmul(add(hidden, conditioning), transpose(emb))
