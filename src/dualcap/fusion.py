"""Contrastive image-text fusion head.

Both towers produce a unit-length joint vector: patch features (or
decoder hidden states) are mean-pooled over rows, linearly projected to
the joint width D, and L2-normalized.  A batch of matched pairs trains
with the symmetric InfoNCE objective: similarities are scaled by a
learnable temperature and cross-entropy pulls each image toward its own
caption along rows and columns of the similarity matrix.  The fused
vector for downstream conditioning is simply the concatenation of the
two normalized embeddings.
"""

from __future__ import annotations

import math

import numpy as np

from .autograd import (
    Tensor,
    add,
    add_bias,
    cross_entropy,
    l2_normalize,
    matmul,
    mean_rows,
    reciprocal,
    reshape,
    scale,
    scale_by,
    transpose,
)
from .errors import ContractError, ShapeError

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
    vec = l2_normalize(add_bias(matmul(pooled, w), b))
    return reshape(vec, lead + (w.shape[1],))


def similarity_matrix(image_vecs: Tensor, text_vecs: Tensor, temperature: float | Tensor) -> Tensor:
    """Pairwise dot products divided by the temperature, shape B x B."""
    if image_vecs.shape != text_vecs.shape or image_vecs.data.ndim != 2:
        raise ShapeError(f"similarity_matrix: need matching B x D, got {image_vecs.shape} and {text_vecs.shape}")
    sims = matmul(image_vecs, transpose(text_vecs))
    if isinstance(temperature, Tensor):
        if temperature.size != 1 or float(temperature.data.reshape(-1)[0]) <= 0:
            raise ContractError("similarity_matrix: temperature tensor must be a single positive value")
        return scale_by(sims, reciprocal(temperature))
    if temperature <= 0:
        raise ContractError(f"similarity_matrix: temperature must be positive, got {temperature}")
    return scale(sims, 1.0 / temperature)


def contrastive_loss(image_vecs: Tensor, text_vecs: Tensor, temperature: float | Tensor) -> Tensor:
    """Symmetric InfoNCE over a batch of matched image-text pairs.

    Row i of the similarity matrix is a classification over captions for
    image i and column i one over images for caption i; both use target
    identity and the two cross-entropies average.  A batch of identical
    vectors gives a uniform matrix, hence loss ln(B).
    """
    b = image_vecs.shape[0]
    if b < 2:
        raise ContractError(f"contrastive_loss: need a batch of at least 2, got {b}")
    scaled = similarity_matrix(image_vecs, text_vecs, temperature)
    targets = list(range(b))
    image_to_text = cross_entropy(scaled, targets)
    text_to_image = cross_entropy(transpose(scaled), targets)
    return scale(add(image_to_text, text_to_image), 0.5)


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
