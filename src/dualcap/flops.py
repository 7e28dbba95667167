"""Floating-point-operation accounting for matrix multiplies.

A matmul of (m x k) by (k x n) costs 2*m*k*n FLOPs (one multiply and one
add per inner-product term).  Counting is opt-in: operations only record
into the counter installed by :func:`count_flops`, and nested
:func:`scope` labels let callers split the total by pipeline stage.
Only forward-pass matmuls are counted; backward passes bypass the
counter so complexity claims stay comparable across train and inference.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class FlopCounter:
    """Accumulated matmul FLOPs, total and per innermost scope label."""

    total: int = 0
    by_scope: dict[str, int] = field(default_factory=dict)

    def add(self, flops: int, scope: str) -> None:
        self.total += flops
        self.by_scope[scope] = self.by_scope.get(scope, 0) + flops


_active: FlopCounter | None = None
_scopes: list[str] = []


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


def add_matmul(m: int, k: int, n: int, part: str | None = None) -> None:
    """Record one (m x k) @ (k x n) product if a counter is active.

    ``part`` names a stage of a fused op, counted as a scope nested in
    the active one (``spatial_window.core``); outside every scope it
    counts as ``unscoped`` like the rest of the op.
    """
    if _active is None:
        return
    label = ".".join(_scopes + [part] if part else _scopes) if _scopes else "unscoped"
    _active.add(2 * m * k * n, label)
