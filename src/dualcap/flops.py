"""Floating-point-operation accounting for matrix multiplies.

A matmul of (m x k) by (k x n) costs 2*m*k*n FLOPs (one multiply and one
add per inner-product term), per item of a stack.  Counting is opt-in:
:func:`add_matmul` records only into the counter installed by
:func:`count_flops`, and nested :func:`scope` labels let callers split
the total by pipeline stage.  Its one caller is ``autograd._gemm``, the
matrix product of every op, forward and backward; so FLOPs are counted
in one place, and generation, which runs without a counter, pays one
call and one check per product.  While ``Tape.backward`` replays a tape
(:data:`replaying`), products count in :attr:`FlopCounter.backward`
alone, so ``total`` stays comparable across train and inference.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class FlopCounter:
    """Accumulated matmul FLOPs: the forward total and per innermost scope label, and the backward total."""

    total: int = 0
    by_scope: dict[str, int] = field(default_factory=dict)
    backward: int = 0

    def add(self, flops: int, scope: str) -> None:
        self.total += flops
        self.by_scope[scope] = self.by_scope.get(scope, 0) + flops


_active: FlopCounter | None = None
_scopes: list[str] = []
replaying = False  # set by Tape.backward for the replay of a tape


@contextmanager
def count_flops():
    """Install a fresh counter for the duration of the block and yield it."""
    global _active
    previous = _active
    counter = FlopCounter()
    _active = counter
    try:
        yield counter
    finally:
        _active = previous


@contextmanager
def scope(label: str):
    """Attribute matmul FLOPs inside the block to ``label``.

    Nested scopes join with '.' so per-stage and per-kernel numbers can
    coexist, e.g. ``global.core``.
    """
    _scopes.append(label)
    try:
        yield
    finally:
        _scopes.pop()


def add_matmul(a: np.ndarray, b: np.ndarray, part: str | None = None) -> None:
    """Record np.matmul(a, b) of a (..., m, k) and a (..., k, n) array if a counter is active.

    It costs 2*m*k*n per item of the broadcast batch; the shapes are read
    only while a counter is active.  ``part`` names a stage of a fused
    op, counted as a scope nested in the active one
    (``spatial_window.core``), else ``unscoped`` outside every scope.
    While :data:`replaying`, the count goes to ``backward`` alone.
    """
    if _active is None:
        return
    (m, k), n = a.shape[-2:], b.shape[-1]
    count = 2 * math.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2])) * m * k * n
    if replaying:
        _active.backward += count
    else:
        _active.add(count, ".".join(_scopes + [part] if part else _scopes) if _scopes else "unscoped")
