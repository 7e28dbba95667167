"""The full captioning model: encoder, decoder, and fusion head in one bundle.

Parameters for all three parts live in one name -> Tensor dict, one
entry per row of :func:`param_table` (``build_model`` draws the rows, a
checkpoint load checks its manifest against them); the trainable ones,
in dict order, are views of one float64 buffer.  The fusion head owns
four pieces: an image projection (pooled encoder features -> joint
space), a text projection (pooled decoder states -> joint space, shared
between the contrastive tower and generation conditioning), a
conditioning map from the fused joint vector back into decoder width,
and the learnable log-temperature of the symmetric InfoNCE loss (the
tape op ``autograd.contrastive_loss``), which pulls each image's
unit-length joint vector toward its own caption's within a batch.

Conditioning works per position: position t pools the decoder's hidden
states 0..t (a causal mean, so generation stays causal), projects and
normalizes them into the joint space, concatenates the image embedding,
and maps the fused vector through a linear layer that is added to the
hidden state before the tied output head.  That whole path is one tape
op, ``autograd.fused_logits``, which a train step records once and a
generation step calls once, on each row's running mean.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import accumulate
from typing import Iterator

import numpy as np

from .autograd import Tensor, fused_logits, l2_normalize, linear, mean_rows, reshape
from .encoder import EncoderConfig, EncoderOutput, encode, encoder_param_rows
from .errors import ConfigError
from .init import Param, init_params
from .textdec import DecoderConfig, TokenSequence, Vocabulary, decode_text, decoder_param_rows


INITIAL_TEMPERATURE = 0.07


@dataclass(frozen=True)
class ModelConfig:
    encoder: EncoderConfig
    decoder: DecoderConfig
    joint_dim: int = 16

    def __post_init__(self):
        if self.joint_dim < 2:
            raise ConfigError(f"joint_dim must be >= 2, got {self.joint_dim}")
        if self.decoder.context_width != self.encoder.feature_width:
            raise ConfigError(
                f"decoder context_width {self.decoder.context_width} must equal "
                f"encoder feature width {self.encoder.feature_width}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        """The config ``to_dict`` gave; a value not of its field's type is a ConfigError naming it."""
        try:
            return cls(
                encoder=EncoderConfig(**_typed("encoder.", EncoderConfig, data["encoder"])),
                decoder=DecoderConfig(**_typed("decoder.", DecoderConfig, data["decoder"])),
                joint_dim=_typed("", cls, data)["joint_dim"],
            )
        except (KeyError, TypeError) as e:
            raise ConfigError(f"malformed model config: {e}") from e


_FIELD_TYPES = {"int": int, "str": str}


def _typed(section: str, cls, values: dict) -> dict:
    """``values``, once each int or str field of ``cls`` they set holds exactly that type (no bool)."""
    for f in fields(cls):
        want = _FIELD_TYPES.get(f.type)
        if want is not None and f.name in values and type(values[f.name]) is not want:
            raise ConfigError(f"model config {section}{f.name} must be {f.type}, got {values[f.name]!r}")
    return values


@dataclass
class CaptionModel:
    """Config, vocabulary and parameters; trainable data are views of ``flat``: write them in place."""

    cfg: ModelConfig
    vocab: Vocabulary
    params: dict[str, Tensor] = field(repr=False)
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat = np.concatenate([t.data.reshape(-1) for t in self.trainable().values()])
        for name, view in self.views(self.flat).items():
            self.params[name].data = view

    def trainable(self) -> dict[str, Tensor]:
        return {name: t for name, t in self.params.items() if t.requires_grad}

    def views(self, buffer: np.ndarray) -> dict[str, np.ndarray]:
        """Each trainable parameter's view of a buffer laid out like ``flat``."""
        arrays = {name: t.data for name, t in self.trainable().items()}
        ends = accumulate(a.size for a in arrays.values())
        return {name: buffer[end - a.size:end].reshape(a.shape) for (name, a), end in zip(arrays.items(), ends)}


def param_table(cfg: ModelConfig) -> Iterator[Param]:
    """Every parameter of the model, one row each, in ``params`` order; lazily, so that
    a check against a file can stop at the file's end whatever the config asks for."""
    yield from encoder_param_rows(cfg.encoder)
    yield from decoder_param_rows(cfg.decoder)
    fw, dd, jd = cfg.encoder.feature_width, cfg.decoder.dim, cfg.joint_dim
    for name, width in (("img", fw), ("txt", dd)):
        yield Param(f"fuse.{name}.w", (width, jd))
        yield Param(f"fuse.{name}.b", (jd,), fill=0.0)
    yield Param("fuse.cond.w", (2 * jd, dd))
    yield Param("fuse.cond.b", (dd,), fill=0.0)
    yield Param("fuse.log_temp", (1,), fill=math.log(INITIAL_TEMPERATURE))
    ch = cfg.encoder.image_channels
    yield Param("norm.mean", (ch,), fill=0.0, trainable=False)
    yield Param("norm.std", (ch,), fill=1.0, trainable=False)


def check_vocabulary(cfg: ModelConfig, vocab: Vocabulary) -> None:
    if len(vocab) != cfg.decoder.vocab_size:
        raise ConfigError(f"vocabulary has {len(vocab)} tokens, config says {cfg.decoder.vocab_size}")


def parameter_count(cfg: ModelConfig) -> int:
    """How many values the rows of ``param_table(cfg)`` hold, in closed form.

    Each encoder block past the first adds the same rows, and so does
    each decoder block, so the count is that of a table one block deep
    (none for a depth-0 encoder) plus the depths times one block's rows:
    a table of depth 2**63 is never walked.
    """
    def count(enc_depth: int, dec_depth: int) -> int:
        shallow = replace(cfg, encoder=replace(cfg.encoder, depth=enc_depth),
                          decoder=replace(cfg.decoder, depth=dec_depth))
        return sum(math.prod(row.shape) for row in param_table(shallow))

    enc_depth, dec_depth = cfg.encoder.depth, cfg.decoder.depth
    first = count(min(enc_depth, 1), 1)
    enc_block = count(2, 1) - count(1, 1) if enc_depth > 1 else 0
    dec_block = count(min(enc_depth, 1), 2) - first if dec_depth > 1 else 0
    return first + max(enc_depth - 1, 0) * enc_block + (dec_depth - 1) * dec_block


def build_model(cfg: ModelConfig, vocab: Vocabulary, seed: int = 0) -> CaptionModel:
    """Model with freshly initialized parameters, deterministic in seed.

    A config whose parameters do not fit in memory is a ConfigError,
    raised before any row is drawn.
    """
    check_vocabulary(cfg, vocab)
    count = parameter_count(cfg)
    try:
        np.empty(count)  # one buffer of them all: refused at once when they cannot fit
        return CaptionModel(cfg=cfg, vocab=vocab, params=init_params(param_table(cfg), np.random.default_rng(seed)))
    except (MemoryError, ValueError) as e:  # numpy refuses a size past int64 with a ValueError
        raise ConfigError(f"model config is too large to allocate: {count} parameters: {e}") from e


def set_channel_stats(model: CaptionModel, mean, std) -> None:
    """Install dataset normalization stats (stored with the checkpoint)."""
    ch = model.cfg.encoder.image_channels
    mean, std = np.asarray(mean, dtype=np.float64), np.asarray(std, dtype=np.float64)
    if not mean.shape == std.shape == (ch,):
        raise ConfigError(f"channel stats of shapes {mean.shape}, {std.shape} do not fit image_channels {ch}")
    if not (np.isfinite(mean).all() and np.isfinite(std).all() and np.all(std > 0)):
        raise ConfigError(f"channel stats must be finite and std positive, got mean {mean}, std {std}")
    model.params["norm.mean"] = Tensor(mean)
    model.params["norm.std"] = Tensor(std)


def encode_image(model: CaptionModel, image: Tensor) -> EncoderOutput:
    """Encode one H x W x ch image or a B x H x W x ch batch."""
    return encode(image, model.cfg.encoder, model.params)


def image_embedding(model: CaptionModel, enc_out: EncoderOutput) -> Tensor:
    """Unit-norm joint-space embedding of an encoded image, shape (D,) or (B, D)."""
    return pool_and_project(enc_out.features, model.params["fuse.img.w"], model.params["fuse.img.b"])


def pool_and_project(features: Tensor, w: Tensor, b: Tensor, rows=None) -> Tensor:
    """Mean-pool rows, apply a linear layer, L2-normalize; returns (D,).

    ``rows`` limits pooling to the first rows (used to exclude PAD
    positions when pooling decoder states).  A (B, T, W) stack of
    feature maps gives (B, D), with ``rows`` one count per item.
    """
    pooled = mean_rows(features, rows)
    lead, width = pooled.shape[:-1], pooled.shape[-1]
    vec = l2_normalize(linear(reshape(pooled, (math.prod(lead), width)), w, b))
    return reshape(vec, lead + (w.shape[1],))


def retrieval_accuracy(image_vecs: np.ndarray, text_vecs: np.ndarray) -> float:
    """Mean of image->text and text->image top-1 retrieval accuracy."""
    sims = np.asarray(image_vecs) @ np.asarray(text_vecs).T
    b = sims.shape[0]
    i2t = float((sims.argmax(axis=1) == np.arange(b)).mean())
    t2i = float((sims.argmax(axis=0) == np.arange(b)).mean())
    return 0.5 * (i2t + t2i)


def _lengths(tokens: TokenSequence | list[TokenSequence]):
    return tokens.length if isinstance(tokens, TokenSequence) else [seq.length for seq in tokens]


def text_embedding(model: CaptionModel, seq: TokenSequence | list[TokenSequence], hidden: Tensor | None = None) -> Tensor:
    """Unit-norm joint-space embedding of a caption on its own, shape (D,).

    Runs the decoder without image context and pools the non-PAD rows,
    so the embedding describes only the text.  A list of sequences runs
    as one PAD-padded batch and gives (B, D).  A caller that already has
    those context-free states passes them as ``hidden``.
    """
    if hidden is None:
        hidden = decode_text(seq, model.params, model.cfg.decoder, context=None)
    return pool_and_project(hidden, model.params["fuse.txt.w"], model.params["fuse.txt.b"], rows=_lengths(seq))


def conditioned_logits(model: CaptionModel, hidden: Tensor, image_vec: Tensor, pooled: Tensor | None = None) -> Tensor:
    """Tied logits with the fused image-text vector added per position: one ``autograd.fused_logits`` op.

    Position t sees the causal mean of hidden states 0..t projected into
    the joint space (same projection as the contrastive text tower),
    fused with the image embedding, and mapped back to decoder width.
    ``hidden`` is T x C with a (D,) image vector, or a B x T x C stack
    with (B, D) image vectors.  ``pooled`` replaces the causal mean when
    the caller has it: generation, whose hidden states are each row's
    newest position only, passes its running means.
    """
    p = model.params
    return fused_logits(hidden, image_vec, p["fuse.txt.w"], p["fuse.txt.b"], p["fuse.cond.w"], p["fuse.cond.b"],
                        p["dec.emb"], pooled)


def caption_logits(model: CaptionModel, image: Tensor, seq: TokenSequence | list[TokenSequence] | np.ndarray):
    """Teacher-forced pass over the given positions; returns (logits, encoder output, image vec).

    One image with one sequence gives T x V logits; a B x H x W x ch
    batch with a list of B sequences runs as one PAD-padded stack and
    gives B x T x V logits.  A (B, T) array of ids runs as given.
    """
    enc_out = encode_image(model, image)
    hidden = decode_text(seq, model.params, model.cfg.decoder, context=enc_out.features)
    img_vec = image_embedding(model, enc_out)
    logits = conditioned_logits(model, hidden, img_vec)
    return logits, enc_out, img_vec
