"""Vision encoder with paired spatial-window and channel-group attention.

An image is cut into P non-overlapping patches, each flattened row-major
and projected to C channels with a positional encoding added.  Encoder
blocks then run two complementary attention branches over the same
input: window attention mixes nearby patches (token axis, cost linear in
P for fixed window size) and group attention mixes channels within a
group (channel axis, also linear in P).  The branch outputs are
concatenated to width 2C; a block's tail projects them back to C and
wraps them in the usual post-norm residual + feed-forward structure.  A
conventional global multi-head attention branch exists for ablations
and as the quadratic baseline the windowed design avoids.

The encoder output is the final block's pre-projection concatenation
(P x 2C), the feature map handed to the decoder, plus the per-block
attention weight stacks from which patch saliency heatmaps are read.
Only a following block reads a block's tail, so a depth-D encoder runs
D branch stages and D-1 tails, and the final block has no tail
parameters.

Every function takes one image (H x W x ch, rows P x C) or a batch of
them (B x H x W x ch, rows B x P x C) through the same code.  Each
attention branch is one :func:`autograd.attention` op with an analytic
backward: its projections are GEMMs over every row of the batch, and
windows, groups and heads are views of one (N, B, ..., T, d) stack, so
a branch costs one tape record whatever the batch, window, group or
head count.  Weights are stored stacked: the N groups or heads of a
branch keep one (N, C/N, C/N) array per projection, e.g.
``enc.b0.channel.wq``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import flops
from .autograd import (
    Tensor,
    add_norm,
    attention,
    concat,
    ffn,
    linear,
    take_rows,
)
from .errors import ConfigError, ContractError, ShapeError
from .init import Param, init_params

MODES = ("dual", "global", "spatial", "channel")
WINDOW_LAYOUTS = ("1d", "2d")
POS_ENCODINGS = ("sinusoidal", "learned")


@dataclass(frozen=True)
class EncoderConfig:
    """Static shape of the encoder; validated on construction.

    image_size : side of the square input image in pixels
    patch_size : side of a square patch; must divide image_size
    image_channels : samples per pixel (1 grayscale, 3 color)
    dim : channel width C of patch embeddings
    heads : head count of the global-attention branch; divides dim
    window_patches : patches per spatial window; divides the patch count
    groups : channel groups; divides dim
    depth : number of encoder blocks (0 = embeddings only); every
        block but the last has a projection + feed-forward tail
    mode : which branches a block runs ("dual" pairs spatial + channel;
        the single-branch modes duplicate their output to fill the
        2C concat width so every mode shares the block shape)
    window_layout : "1d" contiguous runs of patch indices, or "2d"
        square tiles of the patch grid (window_patches must then be a
        perfect square whose side divides the grid side)
    """

    image_size: int
    patch_size: int
    image_channels: int = 3
    dim: int = 32
    heads: int = 2
    window_patches: int = 4
    groups: int = 4
    depth: int = 1
    mode: str = "dual"
    window_layout: str = "1d"
    pos_encoding: str = "sinusoidal"
    ffn_expansion: int = 4

    def __post_init__(self):
        if self.image_size <= 0 or self.patch_size <= 0:
            raise ConfigError(f"image_size and patch_size must be positive, got {self.image_size}, {self.patch_size}")
        if self.image_size % self.patch_size != 0:
            raise ConfigError(f"patch_size {self.patch_size} does not divide image_size {self.image_size}")
        if self.image_channels not in (1, 3):
            raise ConfigError(f"image_channels must be 1 or 3, got {self.image_channels}")
        if self.dim <= 0 or self.dim % 2 != 0:
            raise ConfigError(f"dim must be positive and even, got {self.dim}")
        if self.heads <= 0 or self.dim % self.heads != 0:
            raise ConfigError(f"heads {self.heads} does not divide dim {self.dim}")
        if self.groups <= 0 or self.dim % self.groups != 0:
            raise ConfigError(f"groups {self.groups} does not divide dim {self.dim}")
        if self.window_patches <= 0 or self.patches % self.window_patches != 0:
            raise ConfigError(f"window_patches {self.window_patches} does not divide patch count {self.patches}")
        if self.depth < 0:
            raise ConfigError(f"depth must be >= 0, got {self.depth}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.window_layout not in WINDOW_LAYOUTS:
            raise ConfigError(f"window_layout must be one of {WINDOW_LAYOUTS}, got {self.window_layout!r}")
        if self.pos_encoding not in POS_ENCODINGS:
            raise ConfigError(f"pos_encoding must be one of {POS_ENCODINGS}, got {self.pos_encoding!r}")
        if self.ffn_expansion < 1:
            raise ConfigError(f"ffn_expansion must be >= 1, got {self.ffn_expansion}")
        if self.window_layout == "2d":
            side = math.isqrt(self.window_patches)
            if side * side != self.window_patches:
                raise ConfigError(f"2d windows need a square window_patches, got {self.window_patches}")
            if self.grid % side != 0:
                raise ConfigError(f"2d window side {side} does not divide grid side {self.grid}")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def patches(self) -> int:
        return self.grid * self.grid

    @property
    def windows(self) -> int:
        return self.patches // self.window_patches

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    @property
    def group_dim(self) -> int:
        return self.dim // self.groups

    @property
    def patch_len(self) -> int:
        return self.patch_size * self.patch_size * self.image_channels

    @property
    def feature_width(self) -> int:
        """Width of the encoder output rows: 2C past any block, C otherwise."""
        return 2 * self.dim if self.depth >= 1 else self.dim


@dataclass
class EncoderOutput:
    """Feature map plus the attention weights of every block.

    For a batch every shape gains a leading B axis.  A depth-D encoder
    has D entries in each weight list: every block runs its branches,
    and only the D-1 blocks another block reads run their tails.  Rows
    of the features, and the windows of the spatial weights, run in
    window order: row i holds grid patch ``patch_order(cfg)[i]``.
    """

    features: Tensor  # final block's pre-projection concat P x 2C for depth >= 1, else the P x C embeddings
    spatial_weights: list  # per block: (N_w, P_w, P_w) array or None
    channel_weights: list  # per block: (N_g, C_g, C_g) array or None
    global_weights: list  # per block: (N_h, P, P) array or None
    cfg: EncoderConfig = field(repr=False, default=None)


def normalize_image(image: Tensor, mean, std) -> Tensor:
    """Standardize each channel: (pixel - mean[c]) / std[c].

    mean and std are per-channel sequences; a non-positive std marks a
    degenerate channel and is rejected.
    """
    if image.data.ndim < 3:
        raise ShapeError(f"normalize_image: expected (B x) H x W x channels, got {image.shape}")
    ch = image.shape[-1]
    mean = np.asarray(mean, dtype=np.float64).reshape(-1)
    std = np.asarray(std, dtype=np.float64).reshape(-1)
    if mean.shape != (ch,) or std.shape != (ch,):
        raise ShapeError(f"normalize_image: need {ch} mean/std values, got {mean.shape} and {std.shape}")
    bad = np.nonzero(std <= 0)[0]
    if bad.size:
        raise ContractError(f"normalize_image: channel {int(bad[0])} has non-positive std {std[bad[0]]}")
    return Tensor((image.data - mean) / std)


def sinusoidal_positions(count: int, dim: int, start: int = 0) -> Tensor:
    """Fixed sin/cos positional table over positions start .. start + count - 1, shape count x dim."""
    if dim % 2 != 0:
        raise ConfigError(f"sinusoidal positions need an even dim, got {dim}")
    return Tensor(_sinusoid_table(start + count, dim)[start:])


@functools.lru_cache(maxsize=64)
def _sinusoid_table(count: int, dim: int) -> np.ndarray:
    """The table behind sinusoidal_positions, built once per shape (callers get a copy of their rows)."""
    pos = np.arange(count, dtype=np.float64)[:, None]
    idx = np.arange(dim // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * idx / dim)
    table = np.zeros((count, dim))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return table


def _window_major(blocks: np.ndarray, cfg: EncoderConfig) -> np.ndarray:
    """(..., g, u, g, v) grids of blocks as (N, g/s, g/s, s, s, u, v): their s x s tiles, row-major.

    s is the 2d window side; 1d windows (s = 1) keep row-major grid order.
    """
    s = math.isqrt(cfg.window_patches) if cfg.window_layout == "2d" else 1
    g, u, _, v = blocks.shape[-4:]
    return blocks.reshape(-1, g // s, s, u, g // s, s, v).transpose(0, 1, 4, 2, 5, 3, 6)


def patch_order(cfg: EncoderConfig) -> np.ndarray:
    """The grid patch (row-major index) behind each encoder row: (P,) ints, window by window.

    Each window is a run of window_patches consecutive rows.  The order is
    the identity for 1d layouts; 2d ones take the grid's square tiles row-major.
    """
    return _window_major(np.arange(cfg.patches).reshape(cfg.grid, 1, cfg.grid, 1), cfg).reshape(-1)


def split_patches(image: Tensor, cfg: EncoderConfig) -> np.ndarray:
    """Cut (B x) H x W x ch pixels into P rows of row-major flattened patches, in patch_order."""
    lead, (h, w, ch) = image.shape[:-3], image.shape[-3:]
    if image.data.ndim not in (3, 4) or (h, w, ch) != (cfg.image_size, cfg.image_size, cfg.image_channels):
        raise ShapeError(
            f"image shape {image.shape} does not match config "
            f"({cfg.image_size}, {cfg.image_size}, {cfg.image_channels})"
        )
    g, ps = cfg.grid, cfg.patch_size
    tiles = _window_major(image.data.reshape(lead + (g, ps, g, ps * ch)), cfg)
    return tiles.reshape(lead + (cfg.patches, cfg.patch_len))


def embed_patches(image: Tensor, cfg: EncoderConfig, w_proj: Tensor, positions: Tensor) -> Tensor:
    """Flatten patches row-major, project linearly to C, add positions: (B x) P x C in patch_order.

    ``positions`` row i belongs to grid patch i.  One ``linear`` op takes
    the position table as its bias, and the projection has none of its
    own, so a zero image with zero positions embeds to exactly zero.
    """
    patches = Tensor(split_patches(image, cfg))
    if positions.shape != (cfg.patches, cfg.dim):
        raise ShapeError(f"positions must be {(cfg.patches, cfg.dim)}, got {positions.shape}")
    return linear(patches, w_proj, take_rows(positions, patch_order(cfg)))


def _per_item(weights: np.ndarray) -> np.ndarray:
    """(n, ..., a, b) weights of n heads or groups as a (..., n, a, b) view."""
    return np.moveaxis(weights, 0, -3)


def _stacked_count(kernel: str, unit: str, width: int, weights: tuple[Tensor, ...]) -> int:
    """The n of (n, C/n, C/n) q/k/v weight stacks over width C; anything else is a ShapeError."""
    n = weights[0].shape[0]
    if n == 0 or width % n != 0:
        raise ShapeError(f"{kernel}: {n} {unit}s do not divide width {width}")
    want = (n, width // n, width // n)
    if any(w.shape != want for w in weights):
        raise ShapeError(f"{kernel}: {unit} weights must be {want} stacks, got {[w.shape for w in weights]}")
    return n


def global_attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor):
    """Full multi-head self-attention over all P patches.

    Heads slice the channel axis: head i sees columns [i*C_h, (i+1)*C_h)
    and applies its own C_h x C_h query/key/value maps ``wq[i]`` etc.;
    the head count N_h is the weights' leading axis.  Scores are scaled
    by 1/sqrt(C_h); head outputs concatenate back to width C.  Returns
    (output P x C, weights stacked N_h x P x P).
    """
    c = x.shape[-1]
    n_h = _stacked_count("global_attention", "head", c, (wq, wk, wv))
    with flops.scope("global"):
        out, attn, _ = attention(x, wq, wk, wv, 1.0 / math.sqrt(c // n_h))
    return out, _per_item(attn)


def spatial_window_attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, window_patches: int):
    """Single-head attention restricted to disjoint patch windows.

    Each run of ``window_patches`` consecutive rows is one window, so
    rows in patch_order make the configured 1d or 2d windows.  All
    windows share one set of C x C projections; scores inside a window
    are scaled by 1/sqrt(C).  Patches never attend outside their window,
    which caps the score matrices at P_w x P_w and keeps the cost linear
    in P.  Returns (output P x C, weights N_w x P_w x P_w).
    """
    c = x.shape[-1]
    if wq.shape != (c, c) or wk.shape != (c, c) or wv.shape != (c, c):
        raise ShapeError(f"spatial_window_attention: projections must be {(c, c)}, got {wq.shape}")
    with flops.scope("spatial_window"):
        out, attn, _ = attention(x, wq, wk, wv, 1.0 / math.sqrt(c), window=window_patches)
    return out, attn[0]


def channel_group_attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor):
    """Attention transposed onto the channel axis, all groups at once.

    Group g sees its C_g columns, projects them with its own C_g x C_g
    maps ``wq[g]`` etc. (the group count N_g is the weights' leading
    axis), and forms channel-to-channel scores Q^T K / sqrt(P), so the
    attention matrix is C_g x C_g regardless of patch count.  Values
    aggregate as (A V^T)^T = V A^T, returning P x C_g per group; groups
    concatenate back to width C.  This is the row attention core run on
    the transposed P x C_g projections.  Returns (output P x C, weights
    N_g x C_g x C_g).
    """
    p, c = x.shape[-2:]
    _stacked_count("channel_group_attention", "group", c, (wq, wk, wv))
    with flops.scope("channel_group"):
        out, attn, _ = attention(x, wq, wk, wv, 1.0 / math.sqrt(p), channels=True)
    return out, _per_item(attn)


def encoder_param_rows(cfg: EncoderConfig) -> Iterator[Param]:
    """The encoder's rows of the parameter table, in build order."""
    c, hidden = cfg.dim, cfg.dim * cfg.ffn_expansion
    yield Param("enc.patch.w", (cfg.patch_len, c))
    if cfg.pos_encoding == "learned":
        yield Param("enc.pos", (cfg.patches, c), fan_in=c)
    # per branch: the stacked group or head count, and each projection's width
    stacks = {"spatial": ((), c), "channel": ((cfg.groups,), cfg.group_dim), "global": ((cfg.heads,), cfg.head_dim)}
    for i in range(cfg.depth):
        b = f"enc.b{i}"
        for branch in ("spatial", "channel") if cfg.mode == "dual" else (cfg.mode,):
            stack, w = stacks[branch]
            for name in ("wq", "wk", "wv"):
                yield Param(f"{b}.{branch}.{name}", stack + (w, w), fan_in=w)
        if i == cfg.depth - 1:
            break  # nothing reads the final block's tail
        yield Param(f"{b}.proj.w", (2 * c, c))
        yield Param(f"{b}.proj.b", (c,), fill=0.0)
        yield Param(f"{b}.ln1.g", (c,), fill=1.0)
        yield Param(f"{b}.ln1.b", (c,), fill=0.0)
        yield Param(f"{b}.ffn.w1", (c, hidden))
        yield Param(f"{b}.ffn.b1", (hidden,), fill=0.0)
        yield Param(f"{b}.ffn.w2", (hidden, c))
        yield Param(f"{b}.ffn.b2", (c,), fill=0.0)
        yield Param(f"{b}.ln2.g", (c,), fill=1.0)
        yield Param(f"{b}.ln2.b", (c,), fill=0.0)


def init_encoder_params(cfg: EncoderConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """Fresh trainable parameters for the configured encoder."""
    return init_params(encoder_param_rows(cfg), rng)


def block_branches(x: Tensor, params: dict[str, Tensor], prefix: str, cfg: EncoderConfig):
    """A block's attention branches, concatenated to width 2C.

    Returns (concat P x 2C, and the spatial / channel / global weight
    stacks, None for absent branches).
    """
    outs, attn = [], {}
    for branch in ("spatial", "channel") if cfg.mode == "dual" else (cfg.mode,):
        wq, wk, wv = (params[f"{prefix}.{branch}.{name}"] for name in ("wq", "wk", "wv"))
        if branch == "spatial":
            out, attn[branch] = spatial_window_attention(x, wq, wk, wv, cfg.window_patches)
        elif branch == "channel":
            out, attn[branch] = channel_group_attention(x, wq, wk, wv)
        else:
            out, attn[branch] = global_attention(x, wq, wk, wv)
        outs.append(out)
    # a single-branch mode duplicates its output to fill the 2C width
    branches = concat(outs if len(outs) == 2 else outs * 2, axis=x.data.ndim - 1)
    return branches, attn.get("spatial"), attn.get("channel"), attn.get("global")


def block_tail(x: Tensor, branches: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    """A block's output P x C: project the concat back to C, then the residual norms and FFN.

    ``x`` is the block input and ``branches`` its block_branches concat.
    """
    with flops.scope("block_proj"):
        projected = linear(branches, params[f"{prefix}.proj.w"], params[f"{prefix}.proj.b"])
    y = add_norm(x, projected, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
    with flops.scope("ffn"):
        ffn_out = ffn(y, *(params[f"{prefix}.ffn.{name}"] for name in ("w1", "b1", "w2", "b2")))
    return add_norm(y, ffn_out, params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])


def encode(image: Tensor, cfg: EncoderConfig, params: dict[str, Tensor]) -> EncoderOutput:
    """Full encoder pass: normalize, embed patches, run depth blocks.

    ``image`` is one H x W x ch image or a B x H x W x ch batch.

    Per-channel normalization stats live in the params dict under
    ``norm.mean`` / ``norm.std`` so checkpoints carry them; identity
    stats are assumed when absent.
    """
    mean_t = params.get("norm.mean")
    std_t = params.get("norm.std")
    if mean_t is not None and std_t is not None:
        image = normalize_image(image, mean_t.data, std_t.data)
    if cfg.pos_encoding == "learned":
        positions = params["enc.pos"]
    else:
        positions = sinusoidal_positions(cfg.patches, cfg.dim)
    x = features = embed_patches(image, cfg, params["enc.patch.w"], positions)
    spatial_w, channel_w, global_w = [], [], []
    for i in range(cfg.depth):
        if i > 0:  # block i reads the output of block i-1
            x = block_tail(x, features, params, f"enc.b{i - 1}")
        features, sw, cw, gw = block_branches(x, params, f"enc.b{i}", cfg)
        spatial_w.append(sw)
        channel_w.append(cw)
        global_w.append(gw)
    return EncoderOutput(
        features=features,
        spatial_weights=spatial_w,
        channel_weights=channel_w,
        global_weights=global_w,
        cfg=cfg,
    )


def patch_saliency(output: EncoderOutput, block: int = -1) -> np.ndarray:
    """Attention received per grid patch: column sums of one block's window weights, (B x) P.

    Every query row of the window attention is a distribution over the
    window's patches, so an image's raw saliency sums to P.  Entry i is
    grid patch i (row-major) whatever the window layout.
    """
    depth = len(output.spatial_weights)
    if depth == 0:
        raise ContractError("patch_saliency: encoder has no blocks")
    if not -depth <= block < depth:
        raise ContractError(f"patch_saliency: block {block} is out of range for encoder depth {depth}")
    weights = output.spatial_weights[block]
    if weights is None:
        raise ContractError(f"patch_saliency: block {block} has no spatial branch (mode {output.cfg.mode!r})")
    received = weights.sum(axis=-2).reshape(weights.shape[:-3] + (-1,))  # per encoder row
    saliency = np.empty_like(received)
    saliency[..., patch_order(output.cfg)] = received
    return saliency


def heatmap(output: EncoderOutput, block: int = -1) -> np.ndarray:
    """Min-max normalized saliency as a (B x) grid x grid map in [0, 1], each image on its own.

    A constant saliency map normalizes to all zeros.
    """
    saliency = patch_saliency(output, block)
    lo = saliency.min(axis=-1, keepdims=True)
    span = saliency.max(axis=-1, keepdims=True) - lo
    saliency = np.divide(saliency - lo, span, out=np.zeros_like(saliency), where=span > 0)
    g = output.cfg.grid
    return saliency.reshape(saliency.shape[:-1] + (g, g))


def heatmap_to_gray(hm: np.ndarray) -> np.ndarray:
    """Quantize a [0, 1] heatmap to 8-bit grayscale via round(255 * v)."""
    if hm.min() < 0 or hm.max() > 1:
        raise ContractError(f"heatmap values must lie in [0, 1], got [{hm.min()}, {hm.max()}]")
    return np.rint(hm * 255.0).astype(np.uint8)
