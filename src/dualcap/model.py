"""The full captioning model: encoder, decoder, and fusion head in one bundle.

Parameters for all three parts live in one name -> Tensor dict; the
trainable ones, in dict order, are views of one float64 buffer.  The
fusion head owns four pieces: an image projection (pooled encoder
features -> joint space), a text projection (pooled decoder states ->
joint space, shared between the contrastive tower and generation
conditioning), a conditioning map from the fused joint vector back into
decoder width, and the learnable log-temperature of the contrastive
loss.

Conditioning works per position: position t pools the decoder's hidden
states 0..t (a causal mean, so generation stays causal), projects and
normalizes them into the joint space, concatenates the image embedding,
and maps the fused vector through a linear layer that is added to the
hidden state before the tied output head.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .autograd import (
    Tensor,
    add,
    add_bias,
    concat,
    l2_normalize,
    matmul,
    reshape,
    transpose,
)
from .encoder import EncoderConfig, EncoderOutput, encode, init_encoder_params
from .errors import ConfigError
from .fusion import initial_log_temperature, pool_and_project
from .init import uniform_init, zeros_init
from .textdec import DecoderConfig, TokenSequence, Vocabulary, decode_text, init_decoder_params


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
        return {
            "encoder": asdict(self.encoder),
            "decoder": asdict(self.decoder),
            "joint_dim": self.joint_dim,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        try:
            return cls(
                encoder=EncoderConfig(**data["encoder"]),
                decoder=DecoderConfig(**data["decoder"]),
                joint_dim=int(data["joint_dim"]),
            )
        except (KeyError, TypeError) as e:
            raise ConfigError(f"malformed model config: {e}") from e


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
        trainable = self.trainable()
        ends = np.cumsum([t.size for t in trainable.values()]).tolist()
        return {name: buffer[end - t.size:end].reshape(t.shape) for (name, t), end in zip(trainable.items(), ends)}


def build_model(cfg: ModelConfig, vocab: Vocabulary, seed: int = 0) -> CaptionModel:
    """Model with freshly initialized parameters, deterministic in seed."""
    if len(vocab) != cfg.decoder.vocab_size:
        raise ConfigError(f"vocabulary has {len(vocab)} tokens, config says {cfg.decoder.vocab_size}")
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    params.update(init_encoder_params(cfg.encoder, rng))
    params.update(init_decoder_params(cfg.decoder, rng))
    fw, dd, jd = cfg.encoder.feature_width, cfg.decoder.dim, cfg.joint_dim
    params["fuse.img.w"] = uniform_init(rng, (fw, jd))
    params["fuse.img.b"] = zeros_init(jd)
    params["fuse.txt.w"] = uniform_init(rng, (dd, jd))
    params["fuse.txt.b"] = zeros_init(jd)
    params["fuse.cond.w"] = uniform_init(rng, (2 * jd, dd))
    params["fuse.cond.b"] = zeros_init(dd)
    params["fuse.log_temp"] = Tensor([initial_log_temperature()], requires_grad=True)
    ch = cfg.encoder.image_channels
    params["norm.mean"] = Tensor(np.zeros(ch))
    params["norm.std"] = Tensor(np.ones(ch))
    return CaptionModel(cfg=cfg, vocab=vocab, params=params)


def set_channel_stats(model: CaptionModel, mean, std) -> None:
    """Install dataset normalization stats (stored with the checkpoint)."""
    ch = model.cfg.encoder.image_channels
    mean = np.asarray(mean, dtype=np.float64).reshape(ch)
    std = np.asarray(std, dtype=np.float64).reshape(ch)
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


def _lengths(tokens: TokenSequence | list[TokenSequence]):
    return tokens.length if isinstance(tokens, TokenSequence) else [seq.length for seq in tokens]


def text_embedding(model: CaptionModel, seq: TokenSequence | list[TokenSequence]) -> Tensor:
    """Unit-norm joint-space embedding of a caption on its own, shape (D,).

    Runs the decoder without image context and pools the non-PAD rows,
    so the embedding describes only the text.  A list of sequences runs
    as one PAD-padded batch and gives (B, D).
    """
    hidden = decode_text(seq, model.params, model.cfg.decoder, context=None)
    return pool_and_project(hidden, model.params["fuse.txt.w"], model.params["fuse.txt.b"], rows=_lengths(seq))


def conditioned_logits(model: CaptionModel, hidden: Tensor, image_vec: Tensor, pooled: Tensor | None = None) -> Tensor:
    """Tied logits with the fused image-text vector added per position.

    Position t sees the causal mean of hidden states 0..t projected into
    the joint space (same projection as the contrastive text tower),
    fused with the image embedding, and mapped back to decoder width.
    ``hidden`` is T x C with a (D,) image vector, or a B x T x C stack
    with (B, D) image vectors; an ``image_vec`` already of shape
    (..., T, D) gives each position its own.  ``pooled`` replaces the
    causal mean when the caller has it: generation, whose hidden states
    are each row's newest position only, passes its running means.
    """
    lead, t = hidden.shape[:-2], hidden.shape[-2]
    jd = model.cfg.joint_dim
    p = model.params
    if pooled is None:
        causal_mean = Tensor(np.tril(np.ones((t, t))) / np.arange(1.0, t + 1.0)[:, None])
        pooled = matmul(causal_mean, hidden)
    text_rows = l2_normalize(add_bias(matmul(pooled, p["fuse.txt.w"]), p["fuse.txt.b"]))
    image_rows = image_vec
    if image_vec.shape != lead + (t, jd):  # one vector per item: repeat it at every position
        image_rows = matmul(Tensor(np.ones((t, 1))), reshape(image_vec, lead + (1, jd)))
    fused = concat([image_rows, text_rows], axis=len(lead) + 1)
    conditioning = add_bias(matmul(fused, p["fuse.cond.w"]), p["fuse.cond.b"])
    return matmul(add(hidden, conditioning), transpose(p["dec.emb"]))


def caption_logits(model: CaptionModel, image: Tensor, seq: TokenSequence | list[TokenSequence]):
    """Full teacher-forced pass; returns (logits, encoder output, image vec).

    One image with one sequence gives T x V logits; a B x H x W x ch
    batch with a list of B sequences runs as one PAD-padded stack and
    gives B x T x V logits.
    """
    enc_out = encode_image(model, image)
    hidden = decode_text(seq, model.params, model.cfg.decoder, context=enc_out.features)
    img_vec = image_embedding(model, enc_out)
    logits = conditioned_logits(model, hidden, img_vec)
    return logits, enc_out, img_vec
