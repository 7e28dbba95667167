"""Rows of the parameter table (one per parameter, declared next to the code that reads it) and their draw."""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

import numpy as np

from .autograd import Tensor


class Param(NamedTuple):
    """One parameter: every value ``fill``, or else drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in)).

    fan_in defaults to shape[0], the input width for the x @ W convention.
    """

    name: str
    shape: tuple[int, ...]
    fill: float | None = None
    fan_in: int | None = None
    trainable: bool = True

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        if self.fill is not None:
            return np.full(self.shape, self.fill)
        bound = 1.0 / math.sqrt(self.shape[0] if self.fan_in is None else self.fan_in)
        return rng.uniform(-bound, bound, self.shape)


def init_params(rows: Iterable[Param], rng: np.random.Generator) -> dict[str, Tensor]:
    """Fresh parameters for the rows, drawn in row order."""
    return {row.name: Tensor(row.draw(rng), requires_grad=row.trainable) for row in rows}
