"""Central finite-difference gradient oracle used across the test suite.

The oracle never touches the tape: it re-runs the forward computation as
plain numpy with one coordinate nudged by +/- h, so agreement with the
tape's analytic gradients is an independent check, not a self-check.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from dualcap.autograd import Tape, Tensor, zero_grads


def fd_grads(build: Callable[[], Tensor], tensors: Sequence[Tensor], h: float = 1e-5) -> list[np.ndarray]:
    """Central differences of the scalar build() w.r.t. each tensor's data."""
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = build().item()
            flat[i] = orig - h
            lo = build().item()
            flat[i] = orig
            gf[i] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def analytic_grads(build: Callable[[], Tensor], tensors: Sequence[Tensor]) -> list[np.ndarray]:
    """Tape gradients of the scalar build() w.r.t. each tensor."""
    for t in tensors:
        t.requires_grad = True
    zero_grads(tensors)
    with Tape() as tape:
        out = build()
    tape.backward(out)
    return [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]


def max_rel_err(a: np.ndarray, n: np.ndarray, floor: float = 1e-3) -> float:
    """Worst elementwise |a - n| / max(|a|, |n|, floor)."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))


def check_grads(
    build: Callable[[], Tensor],
    tensors: Sequence[Tensor],
    tol: float = 1e-6,
    h: float = 1e-5,
    floor: float = 1e-3,
) -> float:
    """Assert analytic and finite-difference gradients agree; return worst error."""
    analytic = analytic_grads(build, tensors)
    numeric = fd_grads(build, tensors, h=h)
    worst = 0.0
    for t, a, n in zip(tensors, analytic, numeric):
        err = max_rel_err(a, n, floor=floor)
        assert err < tol, f"gradient mismatch {err:.3e} (tol {tol:.1e}) for tensor of shape {t.shape}"
        worst = max(worst, err)
    return worst
