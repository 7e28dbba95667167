"""Masked text decoder with always-on cross-attention to image features.

Text is lowercased, punctuation becomes whitespace, and tokens map
through a frequency-ordered vocabulary with four reserved ids (PAD=0,
BOS=1, EOS=2, UNK=3).  A caption is a :class:`TokenSequence` of BOS,
words and EOS, never padded; :func:`token_ids` pads a batch of them to
its longest, the one place PAD is written.  The decoder itself is a
stack of post-norm transformer blocks: causal self-attention (a
position sees itself and earlier positions only; PAD keys are masked
out), cross-attention over encoder patch features, and a GELU
feed-forward (one ``autograd.ffn`` op), each closed by a post-norm
residual (``add_norm``).  Each attention sublayer stores its heads
stacked, one (N_h, C_in, C_h) weight per projection, and runs as one
:func:`autograd.attention` op: the cross-attention keys and values are
one GEMM of the context rows against the N_h heads side by side.  The
decoder returns hidden states; the output head, tied to the input
embedding, is applied by model.conditioned_logits after the fused
image-text conditioning.

The cross-attention sublayer always runs.  With context=None its
attention term is exactly zero, which makes no-context decoding
bitwise identical to decoding against a zero context with zero
cross-value weights; the contrastive text pathway relies on this.  A
teacher-forced batch can mix both kinds of row: a context that covers
only the first rows adds that exact zero term to the others, so one
call runs the captions and the text tower together.

Every call runs against a :class:`DecoderCache` of what earlier
positions computed: the cross-attention keys and values of a stack of
images and every block's self-attention keys and values.  A
teacher-forced pass is the prefill of a fresh, empty cache, which it
returns nothing of; generation keeps one cache and adds one new
position of every live (image, beam) row per call, all images as one
batch.  Both run the same code.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .autograd import (
    MASK_VALUE,
    Tensor,
    _new,
    add_bias,
    add_norm,
    attention,
    concat,
    ffn,
    int_ids,
    slice_axis,
    take_rows,
)
from .encoder import sinusoidal_positions
from .errors import ConfigError, ContractError, VocabError, read_file
from .init import Param, init_params

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
            self._add(tok)

    def _add(self, tok: str) -> None:
        """Give ``tok`` the next id; an empty, reserved, whitespace-holding or repeated token is a VocabError."""
        if not tok:
            raise VocabError("empty token")
        if tok in RESERVED_TOKENS:
            raise VocabError(f"reserved token {tok!r}")
        if any(ch.isspace() for ch in tok):
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
        """The vocabulary ``save`` wrote; a bad token is a VocabError naming the file and the line."""
        vocab = cls(())
        for lineno, line in enumerate(read_file(path, VocabError, "vocabulary", text=True).splitlines(), start=1):
            try:
                vocab._add(line.strip())
            except VocabError as e:
                raise VocabError(f"{path}: {e} on line {lineno}") from e
        return vocab


@dataclass(frozen=True)
class TokenSequence:
    """Token ids in decoder order: BOS, words, EOS; ``length`` counts them all."""

    ids: tuple[int, ...]

    def __post_init__(self):
        ids = tuple(int_ids(self.ids, "sequence ids").tolist())
        object.__setattr__(self, "ids", ids)
        if len(ids) < 2 or ids[0] != BOS_ID or ids[-1] != EOS_ID:
            raise ContractError(f"sequence must run from BOS to EOS, got ids {ids}")
        if any(i in (PAD_ID, BOS_ID, EOS_ID) for i in ids[1:-1]):
            raise ContractError("reserved id inside the sequence body")

    @property
    def length(self) -> int:
        return len(self.ids)

    def words(self) -> tuple[int, ...]:
        """The ids between BOS and EOS."""
        return self.ids[1:-1]


def encode_caption(vocab: Vocabulary, text: str) -> TokenSequence:
    """Text -> BOS + token ids + EOS."""
    return TokenSequence(ids=(BOS_ID, *vocab.encode(tokenize(text)), EOS_ID))


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


def decoder_param_rows(cfg: DecoderConfig) -> Iterator[Param]:
    """The decoder's rows of the parameter table, in build order."""
    c, c_h, n_h, w = cfg.dim, cfg.head_dim, cfg.heads, cfg.context_width
    hidden = c * cfg.ffn_expansion
    yield Param("dec.emb", (cfg.vocab_size, c), fan_in=c)
    for i in range(cfg.depth):
        b = f"dec.b{i}"
        for name in ("self.wq", "self.wk", "self.wv", "cross.wq"):
            yield Param(f"{b}.{name}", (n_h, c_h, c_h), fan_in=c_h)
        for name in ("cross.wk", "cross.wv"):
            yield Param(f"{b}.{name}", (n_h, w, c_h), fan_in=w)
        for ln in ("ln1", "ln2"):
            yield Param(f"{b}.{ln}.g", (c,), fill=1.0)
            yield Param(f"{b}.{ln}.b", (c,), fill=0.0)
        yield Param(f"{b}.ffn.w1", (c, hidden))
        yield Param(f"{b}.ffn.b1", (hidden,), fill=0.0)
        yield Param(f"{b}.ffn.w2", (hidden, c))
        yield Param(f"{b}.ffn.b2", (c,), fill=0.0)
        yield Param(f"{b}.ln3.g", (c,), fill=1.0)
        yield Param(f"{b}.ln3.b", (c,), fill=0.0)


def init_decoder_params(cfg: DecoderConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """Fresh trainable parameters for the configured decoder."""
    return init_params(decoder_param_rows(cfg), rng)


def token_ids(tokens) -> np.ndarray:
    """Ids of one sequence (a TokenSequence, or a list or array of ids) as a (T,) array, or of a batch as (B, T).

    A batch is a list of TokenSequences; each is PAD-padded to the
    longest, which the attention masks and a PAD ``ignore_id`` then
    leave out.  Ids that are not of an integer dtype raise ContractError.
    """
    if isinstance(tokens, TokenSequence):
        return np.asarray(tokens.ids, dtype=np.intp)
    if not isinstance(tokens, np.ndarray) and tokens and all(isinstance(seq, TokenSequence) for seq in tokens):
        t = max(len(seq.ids) for seq in tokens)
        return np.array([seq.ids + (PAD_ID,) * (t - len(seq.ids)) for seq in tokens], dtype=np.intp)
    return int_ids(tokens, "token ids")


def attention_masks(ids) -> Tensor:
    """Additive (..., T, T) mask: 0 where key j is visible to query i, else -1e30.

    Position i sees positions j <= i whose token is not PAD.  The mask
    value is finite but large enough that softmax underflows those
    entries to exactly zero.  A (B, T) batch of ids gives one mask per row.
    """
    ids = np.asarray(ids)
    if (ids[..., 0] == PAD_ID).any():
        raise ContractError("first position must not be PAD")
    return _new(np.where(ids[..., None, :] == PAD_ID, MASK_VALUE, _causal_mask(ids.shape[-1])))


@functools.lru_cache(maxsize=64)
def _causal_mask(t: int) -> np.ndarray:
    """attention_masks' (T, T) mask for ids without PAD: -1e30 above the diagonal, 0.0 elsewhere; read-only."""
    mask = np.where(np.arange(t)[None, :] > np.arange(t)[:, None], MASK_VALUE, 0.0)
    mask.flags.writeable = False
    return mask


@dataclass
class DecoderCache:
    """What decode_text keeps between calls over a stack of N images.

    Its B rows are the live (image, beam) pairs: row b describes image
    ``image[b]`` of the stack, and all rows hold ``length`` tokens.
    ``cross`` is each block's cross-attention (K, V) of every row, as
    (n_h, B, P, C_h) arrays: projected once from the whole stack by the
    first call, each row reading its image's through ``image``.
    ``past`` is each block's self-attention (K, V) of every row so far,
    (n_h, B, length, C_h).  A call on a filled cache is a generation
    step, which no tape can record.
    """

    image: np.ndarray
    length: int = 0
    cross: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    past: list[tuple[np.ndarray, np.ndarray] | None] = field(default_factory=list)

    def select(self, rows: Sequence[int]) -> None:
        """Keep row ``rows[i]`` as row i (rows may repeat, images may mix): one take per cached array."""
        rows = np.asarray(rows, dtype=np.intp)
        image = self.image[rows]
        if len(rows) != len(self.image) or (image != self.image).any():  # a row's cross K and V are its image's
            self.cross = [(k.take(rows, axis=1), v.take(rows, axis=1)) for k, v in self.cross]
        self.past = [(k.take(rows, axis=1), v.take(rows, axis=1)) for k, v in self.past]
        self.image = image


def decode_text(
    tokens,
    params: dict[str, Tensor],
    cfg: DecoderConfig,
    context: Tensor | None = None,
    cache: DecoderCache | None = None,
) -> Tensor:
    """Run the decoder over the new positions of each row; returns their (B x) T x C hidden states.

    ``tokens`` is one sequence (a TokenSequence, or a list or array of
    ids) with a P x W ``context``, or a batch (see :func:`token_ids`)
    with a B x P x W context; a batch runs as one stack.  Without a
    ``cache`` this is a teacher-forced pass, the prefill of a fresh
    cache, and PAD positions are returned too (mask their targets out
    of the loss instead).  Its context may also hold N < B maps: rows
    0..N-1 read them, and the cross-attention of the other rows adds an
    exact zero, so those rows get the states of a context-free pass.
    train_step runs its captions and its text tower this way, as one
    call; given a cache, such a context raises ContractError.

    A filled ``cache`` takes B x 1 ids, one new position at
    ``cache.length`` for each of its B rows, and ``context`` is the
    N x P x W stack of the images the rows describe, row b reading image
    ``cache.image[b]``.  The first call given a context projects the
    stack's cross-attention keys and values, which later calls read
    back row by row.  Each call appends its self-attention keys and
    values to the cache and advances ``cache.length``.  Such a step is
    for generation only: inside a tape, with trainable parameters, it
    raises ContractError.
    """
    ids = token_ids(tokens)
    if ids.size == 0:
        raise ContractError("decode_text: empty token sequence")
    if np.maximum.reduce(ids.view(np.uintp), None) >= cfg.vocab_size:  # a negative id views as a huge one
        raise VocabError(f"token id out of range for vocabulary of {cfg.vocab_size}")
    lead, t = ids.shape[:-1], ids.shape[-1]
    rows, cache_given = math.prod(lead), cache is not None
    if cache is None:
        cache = DecoderCache(image=np.arange(rows))
    if rows != len(cache.image):
        raise ContractError(f"decode_text: {rows} rows of ids for a cache of {len(cache.image)} rows")
    start = cache.length
    if start and t > 1:
        raise ContractError(f"decode_text: {t} new positions for a cache of length {start}; add one at a time")
    if not start:
        if (ids[..., 0] == PAD_ID).any():
            raise ContractError("decode_text: first position must not be PAD")
        cache.past = [None] * cfg.depth
    c, w = cfg.dim, cfg.context_width
    h = add_bias(take_rows(params["dec.emb"], ids), sinusoidal_positions(t, c, start=start))
    mask = attention_masks(ids).data if t > 1 else None
    inv_sqrt = 1.0 / math.sqrt(cfg.head_dim)
    project = context is not None and not cache.cross  # this call projects the cross-attention K and V
    if project and not (context.data.ndim == len(lead) + 2 and context.shape[-1] == w
                        and context.shape[1:-2] == lead[1:] and (not lead or 0 < context.shape[0] <= lead[0])):
        raise ConfigError(f"context must be one P x {w} map per row of ids {ids.shape}, got {context.shape}")
    partial = project and context.shape[:-2] != lead  # the maps cover the first rows only
    if partial and cache_given:
        raise ContractError(f"decode_text: {context.shape[0]} context maps for {lead[0]} rows of ids; "
                            "a partial context is for a teacher-forced pass without a cache")

    for i in range(cfg.depth):
        b = f"dec.b{i}."
        wq, wk, wv = params[b + "self.wq"], params[b + "self.wk"], params[b + "self.wv"]
        self_out, _, cache.past[i] = attention(h, wq, wk, wv, inv_sqrt, mask=mask, cached=cache.past[i])
        h = add_norm(h, self_out, params[b + "ln1.g"], params[b + "ln1.b"])

        # a row without an image map adds an exact zero attention term: h + 0.0 is h
        wq = params[b + "cross.wq"]
        if context is None:
            cross_out = _new(np.zeros(h.shape))
        elif project:
            wk, wv = params[b + "cross.wk"], params[b + "cross.wv"]
            queries = slice_axis(h, 0, 0, len(context.data)) if partial else h
            cross_out, _, kv = attention(queries, wq, wk, wv, inv_sqrt, context=context)
            cache.cross.append(kv)
            if partial:
                zeros = _new(np.zeros((lead[0] - len(context.data),) + cross_out.shape[1:]))
                cross_out = concat([cross_out, zeros], axis=0)
        else:
            cross_out, _, _ = attention(h, wq, None, None, inv_sqrt, cached=cache.cross[i])
        h = add_norm(h, cross_out, params[b + "ln2.g"], params[b + "ln2.b"])

        ffn_out = ffn(h, params[b + "ffn.w1"], params[b + "ffn.b1"], params[b + "ffn.w2"], params[b + "ffn.b2"])
        h = add_norm(h, ffn_out, params[b + "ln3.g"], params[b + "ln3.b"])
    cache.length += t
    return h
