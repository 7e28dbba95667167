"""Masked text decoder with always-on cross-attention to image features.

Text is lowercased, punctuation becomes whitespace, and tokens map
through a frequency-ordered vocabulary with four reserved ids (PAD=0,
BOS=1, EOS=2, UNK=3).  The decoder itself is a stack of post-norm
transformer blocks: causal self-attention (a position sees itself and
earlier positions only; PAD keys are masked out), cross-attention over
encoder patch features, and a GELU feed-forward.  Each attention
sublayer stores its heads stacked, one (N_h, C_in, C_h) weight per
projection.  The decoder returns hidden states; the output head, tied
to the input embedding, is applied by model.conditioned_logits after
the fused image-text conditioning.

The cross-attention sublayer always runs.  With context=None its
attention term is exactly zero, which makes no-context decoding
bitwise identical to decoding against a zero context with zero
cross-value weights; the contrastive text pathway relies on this.

Generation decodes incrementally: a :class:`DecoderCache` keeps what
earlier positions computed (the cross-attention keys and values of a
whole stack of images, every block's self-attention keys and values,
and the running sum of the hidden states), so each call runs one new
position of every live (image, beam) row, all images as one batch.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .autograd import (
    MASK_VALUE,
    Tensor,
    add,
    add_bias,
    gelu,
    layer_norm,
    matmul,
    reshape,
    slice_axis,
    take_rows,
)
from .encoder import attend, merge_heads, project_heads, sinusoidal_positions, split_heads
from .errors import ConfigError, ContractError, VocabError
from .init import ones_init, uniform_init, zeros_init

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")


def tokenize(text: str) -> list[str]:
    """Lowercase, map punctuation to spaces, split on whitespace."""
    lowered = text.lower()
    cleaned = "".join(ch if ch.isalnum() else " " for ch in lowered)
    return cleaned.split()


class Vocabulary:
    """Token <-> id map with four reserved ids and frequency ordering.

    Real tokens get ids from 4 upward, ordered by descending corpus
    frequency with ties broken lexicographically, so a vocabulary is a
    pure function of its corpus.
    """

    def __init__(self, tokens: Sequence[str]):
        self._id_to_token = list(RESERVED_TOKENS)
        self._token_to_id: dict[str, int] = {t: i for i, t in enumerate(RESERVED_TOKENS)}
        for tok in tokens:
            if not tok or any(ch.isspace() for ch in tok):
                raise VocabError(f"invalid vocabulary token {tok!r}")
            if tok in self._token_to_id:
                raise VocabError(f"duplicate vocabulary token {tok!r}")
            self._token_to_id[tok] = len(self._id_to_token)
            self._id_to_token.append(tok)

    @classmethod
    def from_corpus(cls, texts: Iterable[str], min_freq: int = 1) -> "Vocabulary":
        counts = Counter()
        for text in texts:
            counts.update(tokenize(text))
        kept = [t for t, c in counts.items() if c >= min_freq]
        kept.sort(key=lambda t: (-counts[t], t))
        return cls(kept)

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def token_id(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def token(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._id_to_token):
            raise VocabError(f"token id {token_id} out of range for vocabulary of {len(self)}")
        return self._id_to_token[token_id]

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return [self.token_id(t) for t in tokens]

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self.token(i) for i in ids]

    def save(self, path) -> None:
        """One real token per line; line number equals id - 4."""
        Path(path).write_text("".join(t + "\n" for t in self._id_to_token[4:]), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except OSError as e:
            raise VocabError(f"cannot read vocabulary {path}: {e}") from e
        except UnicodeDecodeError as e:
            raise VocabError(f"{path}: not UTF-8 text (byte {e.start})") from e
        tokens = []
        for i, line in enumerate(lines):
            tok = line.strip()
            if not tok:
                raise VocabError(f"{path}: empty token on line {i + 1}")
            if tok in RESERVED_TOKENS:
                raise VocabError(f"{path}: reserved token {tok!r} on line {i + 1}")
            tokens.append(tok)
        try:
            return cls(tokens)
        except VocabError as e:
            raise VocabError(f"{path}: {e}") from e


@dataclass(frozen=True)
class TokenSequence:
    """Token ids in decoder order: BOS, words, EOS, then PAD only.

    ``length`` counts the real tokens (BOS through EOS inclusive);
    ``ids[length:]`` must be PAD.
    """

    ids: tuple[int, ...]
    length: int

    def __post_init__(self):
        ids = tuple(int(i) for i in self.ids)
        object.__setattr__(self, "ids", ids)
        if not 2 <= self.length <= len(ids):
            raise ContractError(f"sequence length {self.length} invalid for {len(ids)} ids")
        if ids[0] != BOS_ID:
            raise ContractError(f"sequence must start with BOS, got id {ids[0]}")
        if ids[self.length - 1] != EOS_ID:
            raise ContractError(f"sequence position {self.length - 1} must be EOS, got id {ids[self.length - 1]}")
        body = ids[1:self.length - 1]
        if any(i in (PAD_ID, BOS_ID, EOS_ID) for i in body):
            raise ContractError("reserved id inside the sequence body")
        if any(i != PAD_ID for i in ids[self.length:]):
            raise ContractError("non-PAD id after EOS")

    def words(self) -> tuple[int, ...]:
        """The ids between BOS and EOS."""
        return self.ids[1:self.length - 1]


def encode_caption(vocab: Vocabulary, text: str, max_len: int | None = None) -> TokenSequence:
    """Text -> BOS + token ids + EOS, padded to max_len when given.

    Captions longer than max_len - 2 tokens are truncated so EOS always
    fits.
    """
    word_ids = vocab.encode(tokenize(text))
    if max_len is not None:
        if max_len < 3:
            raise ContractError(f"max_len must be >= 3, got {max_len}")
        word_ids = word_ids[:max_len - 2]
    ids = [BOS_ID, *word_ids, EOS_ID]
    length = len(ids)
    if max_len is not None:
        ids.extend([PAD_ID] * (max_len - length))
    return TokenSequence(ids=tuple(ids), length=length)


@dataclass(frozen=True)
class DecoderConfig:
    """Static shape of the text decoder.

    context_width is the row width of the encoder features the
    cross-attention keys and values read from.
    """

    vocab_size: int
    dim: int = 32
    heads: int = 2
    depth: int = 1
    context_width: int = 32
    ffn_expansion: int = 4

    def __post_init__(self):
        if self.vocab_size < len(RESERVED_TOKENS):
            raise ConfigError(f"vocab_size must be >= {len(RESERVED_TOKENS)}, got {self.vocab_size}")
        if self.dim <= 0 or self.dim % 2 != 0:
            raise ConfigError(f"dim must be positive and even, got {self.dim}")
        if self.heads <= 0 or self.dim % self.heads != 0:
            raise ConfigError(f"heads {self.heads} does not divide dim {self.dim}")
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        if self.context_width <= 0:
            raise ConfigError(f"context_width must be positive, got {self.context_width}")
        if self.ffn_expansion < 1:
            raise ConfigError(f"ffn_expansion must be >= 1, got {self.ffn_expansion}")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads


def init_decoder_params(cfg: DecoderConfig, rng: np.random.Generator, prefix: str = "dec") -> dict[str, Tensor]:
    """Fresh trainable parameters for the configured decoder."""
    c, c_h, n_h, w = cfg.dim, cfg.head_dim, cfg.heads, cfg.context_width
    params: dict[str, Tensor] = {}
    params[f"{prefix}.emb"] = uniform_init(rng, (cfg.vocab_size, c), fan_in=c)
    hidden = c * cfg.ffn_expansion
    for i in range(cfg.depth):
        b = f"{prefix}.b{i}"
        for name in ("wq", "wk", "wv"):
            params[f"{b}.self.{name}"] = uniform_init(rng, (n_h, c_h, c_h), fan_in=c_h)
        params[f"{b}.cross.wq"] = uniform_init(rng, (n_h, c_h, c_h), fan_in=c_h)
        params[f"{b}.cross.wk"] = uniform_init(rng, (n_h, w, c_h), fan_in=w)
        params[f"{b}.cross.wv"] = uniform_init(rng, (n_h, w, c_h), fan_in=w)
        params[f"{b}.ln1.g"] = ones_init(c)
        params[f"{b}.ln1.b"] = zeros_init(c)
        params[f"{b}.ln2.g"] = ones_init(c)
        params[f"{b}.ln2.b"] = zeros_init(c)
        params[f"{b}.ffn.w1"] = uniform_init(rng, (c, hidden))
        params[f"{b}.ffn.b1"] = zeros_init(hidden)
        params[f"{b}.ffn.w2"] = uniform_init(rng, (hidden, c))
        params[f"{b}.ffn.b2"] = zeros_init(c)
        params[f"{b}.ln3.g"] = ones_init(c)
        params[f"{b}.ln3.b"] = zeros_init(c)
    return params


def token_ids(tokens) -> np.ndarray:
    """Ids of one sequence (a TokenSequence, or a list or array of ids) as a (T,) array, or of a batch as (B, T).

    A batch is a list of TokenSequences; each is PAD-padded to the
    longest, which the attention masks and a PAD ``ignore_id`` then
    leave out.
    """
    if isinstance(tokens, TokenSequence):
        return np.asarray(tokens.ids)
    if isinstance(tokens, np.ndarray):
        return tokens.astype(np.intp, copy=False)
    if tokens and all(isinstance(seq, TokenSequence) for seq in tokens):
        t = max(len(seq.ids) for seq in tokens)
        return np.array([seq.ids + (PAD_ID,) * (t - len(seq.ids)) for seq in tokens])
    return np.asarray([int(i) for i in tokens], dtype=np.intp)


def attention_masks(ids) -> Tensor:
    """Additive (..., T, T) mask: 0 where key j is visible to query i, else -1e30.

    Position i sees positions j <= i whose token is not PAD.  The mask
    value is finite but large enough that softmax underflows those
    entries to exactly zero.  A (B, T) batch of ids gives one mask per row.
    """
    ids = np.asarray(ids)
    if np.any(ids[..., 0] == PAD_ID):
        raise ContractError("first position must not be PAD")
    positions = np.arange(ids.shape[-1])
    future = positions[None, :] > positions[:, None]
    return Tensor(np.where(future | (ids[..., None, :] == PAD_ID), MASK_VALUE, 0.0))


def _take(t: Tensor, rows: np.ndarray, b: int) -> Tensor:
    """Gather ``rows`` on the B axis of a head-major (n_h*B, ...) stack viewed as (n_h, B, ...)."""
    return Tensor(t.data.reshape((-1, b) + t.shape[1:]).take(rows, axis=1).reshape((-1,) + t.shape[1:]))


@dataclass
class DecoderCache:
    """What decode_text keeps between incremental calls over a stack of N images.

    Its B rows are the live (image, beam) pairs: row b describes image
    ``image[b]`` of the stack, and all rows hold ``length`` tokens, none
    of them PAD.  ``cross`` is each block's cross-attention (K, V) of
    every row, head-major (n_h*B, P, C_h), row ``head*B + b``: projected
    once from the whole stack, each row reading its image's through
    ``image``.  ``keys`` and ``values`` are each block's self-attention K
    and V of every row so far, head-major (n_h*B, length, C_h);
    ``hidden_sum`` is the (B, 1, C) sum of each row's hidden states over
    its ``length`` positions, for the causal-mean conditioning.
    """

    image: np.ndarray
    length: int = 0
    cross: list[tuple[Tensor, Tensor]] = field(default_factory=list)
    keys: list[Tensor] = field(default_factory=list)
    values: list[Tensor] = field(default_factory=list)
    hidden_sum: np.ndarray | None = None

    def extend(self, block: int, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Append one position's self-attention K and V to a block; return all of them."""
        if self.length == 0:
            self.keys.append(k)
            self.values.append(v)
        else:
            self.keys[block] = Tensor(np.concatenate([self.keys[block].data, k.data], axis=1))
            self.values[block] = Tensor(np.concatenate([self.values[block].data, v.data], axis=1))
        return self.keys[block], self.values[block]

    def select(self, rows: Sequence[int]) -> None:
        """Keep row ``rows[i]`` as row i (rows may repeat, images may mix): one take per cached array."""
        rows = np.asarray(rows, dtype=np.intp)
        b = len(self.image)
        image = self.image[rows]
        if len(rows) != b or (image != self.image).any():  # a row's cross K and V are its image's
            self.cross = [(_take(k, rows, b), _take(v, rows, b)) for k, v in self.cross]
        self.keys = [_take(k, rows, b) for k in self.keys]
        self.values = [_take(v, rows, b) for v in self.values]
        self.hidden_sum = self.hidden_sum.take(rows, axis=0)
        self.image = image


def decode_text(
    tokens,
    params: dict[str, Tensor],
    cfg: DecoderConfig,
    context: Tensor | None = None,
    prefix: str = "dec",
    cache: DecoderCache | None = None,
) -> Tensor:
    """Run the decoder over a full sequence with teacher forcing.

    ``tokens`` is one sequence (a TokenSequence or a list of ids) with a
    P x W ``context``, or a batch of TokenSequences (see
    :func:`token_ids`) with a B x P x W context; a batch runs as one
    stack.  Returns the (B x) T x C hidden states of every position,
    including PAD positions (mask their targets out of the loss instead).

    With a ``cache``, ``tokens`` holds one new id for each of the
    cache's B rows and ``context`` is the N x P x W stack of the images
    they describe, row b reading image ``cache.image[b]``.  The ids run
    at position ``cache.length``; each row attends over its cached keys
    plus its own, so no mask is needed.  The call appends its keys,
    values and hidden states to the cache, advances ``cache.length`` and
    returns the B x 1 x C hidden states of the new position.  The first
    call projects the whole stack's cross-attention keys and values,
    which later calls read back row by row.
    """
    ids = token_ids(tokens)
    if ids.size == 0:
        raise ContractError("decode_text: empty token sequence")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise VocabError(f"token id out of range for vocabulary of {cfg.vocab_size}")
    start = 0
    if cache is not None:
        if ids.ndim != 1 or context is None or context.data.ndim != 3 or context.shape[-1] != cfg.context_width:
            raise ConfigError(
                f"cached decode_text takes one id per row and an N x P x {cfg.context_width} context stack, "
                f"got ids {ids.shape} and context {None if context is None else context.shape}"
            )
        if len(ids) != len(cache.image):
            raise ContractError(f"decode_text: {len(ids)} ids for a cache of {len(cache.image)} rows")
        start, ids = cache.length, ids[:, None]
    lead, t = ids.shape[:-1], ids.shape[-1]
    if cache is None and context is not None and (
        context.data.ndim != len(lead) + 2 or context.shape[:-2] != lead or context.shape[-1] != cfg.context_width
    ):
        raise ConfigError(
            f"context must be one P x {cfg.context_width} map per token sequence (ids {ids.shape}), got {context.shape}"
        )
    c, n_h = cfg.dim, cfg.heads
    positions = slice_axis(sinusoidal_positions(start + t, c), 0, start, start + t)
    h = add_bias(take_rows(params[f"{prefix}.emb"], ids), positions)
    mask = None
    if cache is None:
        mask = attention_masks(ids).data
        mask = Tensor(np.broadcast_to(mask, (n_h,) + mask.shape).reshape(-1, t, t))  # one per head and item
    inv_sqrt = 1.0 / math.sqrt(cfg.head_dim)
    if context is not None:
        patches = context.shape[-2]
        context_rows = reshape(context, (context.size // cfg.context_width, cfg.context_width))

    for i in range(cfg.depth):
        b = f"{prefix}.b{i}"
        xh = split_heads(h, n_h)
        q, k, v = (project_heads(xh, params[f"{b}.self.{name}"], t) for name in ("wq", "wk", "wv"))
        if cache is not None:
            k, v = cache.extend(i, k, v)
        self_out, _ = attend(q, k, v, inv_sqrt, mask)
        h = layer_norm(add(h, merge_heads(self_out, lead)), params[f"{b}.ln1.g"], params[f"{b}.ln1.b"])

        if context is not None:
            q = project_heads(split_heads(h, n_h), params[f"{b}.cross.wq"], t)
            if cache is not None and i < len(cache.cross):
                k, v = cache.cross[i]
            else:
                k, v = (project_heads(context_rows, params[f"{b}.cross.{name}"], patches) for name in ("wk", "wv"))
                if cache is not None:  # each row reads its own image's keys and values
                    k, v = _take(k, cache.image, len(context.data)), _take(v, cache.image, len(context.data))
                    cache.cross.append((k, v))
            cross_out, _ = attend(q, k, v, inv_sqrt)
            h = layer_norm(add(h, merge_heads(cross_out, lead)), params[f"{b}.ln2.g"], params[f"{b}.ln2.b"])
        else:
            # context-free pass: the attention term is exactly zero, so
            # the residual add is skipped and only the norm runs
            h = layer_norm(h, params[f"{b}.ln2.g"], params[f"{b}.ln2.b"])

        inner = gelu(add_bias(matmul(h, params[f"{b}.ffn.w1"]), params[f"{b}.ffn.b1"]))
        ffn_out = add_bias(matmul(inner, params[f"{b}.ffn.w2"]), params[f"{b}.ffn.b2"])
        h = layer_norm(add(h, ffn_out), params[f"{b}.ln3.g"], params[f"{b}.ln3.b"])
    if cache is not None:
        cache.length += 1
        cache.hidden_sum = h.data if cache.hidden_sum is None else cache.hidden_sum + h.data
    return h
