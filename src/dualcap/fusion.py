"""Contrastive image-text fusion head.

Both towers produce a unit-length joint vector: patch features (or
decoder hidden states) are mean-pooled over rows, linearly projected to
the joint width D, and L2-normalized.  A batch of matched pairs trains
with the symmetric InfoNCE objective, :func:`contrastive_loss`, which is
the tape op ``autograd.contrastive_loss``: similarities are divided by a
learnable temperature and cross-entropy pulls each image toward its own
caption along rows and columns of the similarity matrix.  The fused
vector for downstream conditioning is simply the concatenation of the
two normalized embeddings.
"""

from __future__ import annotations

import math

import numpy as np

from .autograd import Tensor, contrastive_loss, l2_normalize, linear, mean_rows, reshape
from .errors import ShapeError

INITIAL_TEMPERATURE = 0.07


def pool_and_project(features: Tensor, w: Tensor, b: Tensor, rows=None) -> Tensor:
    """Mean-pool rows, apply a linear layer, L2-normalize; returns (D,).

    ``rows`` limits pooling to the first rows (used to exclude PAD
    positions when pooling decoder states).  A (B, T, W) stack of
    feature maps gives (B, D), with ``rows`` one count per item.
    """
    if features.data.ndim < 2:
        raise ShapeError(f"pool_and_project: features must be at least 2-D, got {features.shape}")
    lead, (t, width) = features.shape[:-2], features.shape[-2:]
    if w.shape[0] != width:
        raise ShapeError(f"pool_and_project: projection expects width {w.shape[0]}, got {features.shape}")
    pooled = reshape(mean_rows(features, rows), (features.size // (t * width), width))
    vec = l2_normalize(linear(pooled, w, b))
    return reshape(vec, lead + (w.shape[1],))


def initial_log_temperature() -> float:
    """Init for the learnable log-temperature parameter."""
    return math.log(INITIAL_TEMPERATURE)


def retrieval_accuracy(image_vecs: np.ndarray, text_vecs: np.ndarray) -> float:
    """Mean of image->text and text->image top-1 retrieval accuracy."""
    sims = np.asarray(image_vecs) @ np.asarray(text_vecs).T
    b = sims.shape[0]
    i2t = float((sims.argmax(axis=1) == np.arange(b)).mean())
    t2i = float((sims.argmax(axis=0) == np.arange(b)).mean())
    return 0.5 * (i2t + t2i)
