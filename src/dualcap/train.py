"""Training loop, Adam optimizer, caption generation, and ablations.

The training objective per batch is

    mean caption cross-entropy + contrastive_weight * contrastive loss

where the cross-entropy for one pair covers positions 0..L-2 predicting
ids 1..L-1 (teacher forcing, PAD ignored) and the contrastive term
aligns pooled image and text embeddings across the batch.  Both come
from one decoder call over all L positions of a stack of 2B rows: the
captions with image context, then the same captions without, the
context-free text tower, which pools through EOS.  Position L-1 of a
caption row predicts nothing and is left out of the loss.  Batches are
consecutive slices of the pair list in a fixed order, so a run is fully
determined by the seed that built the model.

Generation is beam search over word tokens with PAD/BOS/UNK masked out;
finished beams are ranked by log-probability divided by length^0.7 and
ties broken toward lexicographically smaller id sequences.  Beam width
1 reduces to greedy decoding exactly.  A batch of images is one search
over the live (image, beam) rows: one encoder pass and one decoder call
per step.  An image leaves the search once its caption is decided: its
best finished score beats the best any of its live rows could reach at
the length cap (the "optimal stopping" of Huang et al., arXiv
1708.00111, for these scores), so captions are those of the full search.
caption_records captions a split CAPTION_BATCH images per search, which
bounds the decoder cache a search holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .autograd import (
    Tape,
    Tensor,
    add,
    contrastive_loss,
    cross_entropy,
    exp,
    mean,
    scale,
    slice_axis,
    zero_grads,
)
from .data import CaptionDataset, Record
from .errors import ConfigError, ContractError, NonFiniteError, ShapeError
from .metrics import ScoredCorpus, ScoreReport, score_report
from .model import (
    CaptionModel,
    ModelConfig,
    build_model,
    conditioned_logits,
    encode_image,
    image_embedding,
    set_channel_stats,
    text_embedding,
)
from .textdec import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    DecoderCache,
    TokenSequence,
    Vocabulary,
    decode_text,
    encode_caption,
    token_ids,
)

LENGTH_NORM_POWER = 0.7  # beam scores divide by (generated tokens)**0.7
# Images per generate_batch search in caption_records: a search's memory grows
# with images x beam_width, its throughput little past 64 (figures in README).
CAPTION_BATCH = 64

ABLATION_VARIANTS = (
    "dual",
    "dual-nc",
    "spatial",
    "spatial-nc",
    "channel",
    "channel-nc",
    "global",
    "global-nc",
)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.003
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    contrastive_weight: float = 0.5
    batch_size: int = 8

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError(f"betas must be in [0, 1), got {self.beta1}, {self.beta2}")
        if not 0 < self.eps < math.inf:
            raise ConfigError(f"eps must be positive and finite, got {self.eps}")
        if not 0 <= self.contrastive_weight < math.inf:
            raise ConfigError(f"contrastive_weight must be >= 0 and finite, got {self.contrastive_weight}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class AdamState:
    """The global step count and Adam's moments, laid out like CaptionModel.flat (None: zero)."""

    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


@dataclass(frozen=True)
class StepLosses:
    step: int
    ce: float
    contrastive: float
    total: float


@dataclass(frozen=True)
class TrainingPair:
    name: str
    image: Tensor
    tokens: TokenSequence
    caption: str


def training_pairs(ds: CaptionDataset, vocab: Vocabulary, split: str = "train") -> list[TrainingPair]:
    """One pair per (record, caption) combination, sequences unpadded."""
    pairs = []
    for record, caption in ds.caption_pairs(split):
        pairs.append(
            TrainingPair(
                name=record.name,
                image=Tensor(record.image),
                tokens=encode_caption(vocab, caption),
                caption=caption,
            )
        )
    return pairs


def adam_step(model: CaptionModel, state: AdamState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update of model.flat and the moments, in place.

    Parameter data are views of model.flat, so write parameters in place.
    The update is elementwise over the buffer; a parameter without a grad
    steps on a zero gradient, which leaves it and zero moments bitwise as
    they are.  A non-finite gradient or update raises NonFiniteError naming
    the step and the first such parameter, before anything changes.
    """
    rebound = [name for name, t in model.trainable().items() if t.data.base is not model.flat]
    if rebound:
        raise ContractError(f"adam_step: {rebound[0]!r} is no view of model.flat; write parameters in place")
    if state.m is not None and not state.m.shape == state.v.shape == model.flat.shape:
        raise ContractError(f"adam_step: moments of shapes {state.m.shape}, {state.v.shape}, flat {model.flat.shape}")
    g = np.concatenate([np.zeros(t.size) if t.grad is None else t.grad.ravel() for t in model.trainable().values()])
    if not np.isfinite(g).all():
        bad = next(name for name, x in model.views(g).items() if not np.isfinite(x).all())
        raise NonFiniteError(f"step {state.step + 1}: gradient of {bad!r} is not finite")
    t = state.step + 1
    m, v = (0.0, 0.0) if state.m is None else (state.m, state.v)
    m = cfg.beta1 * m + (1 - cfg.beta1) * g
    v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
    m_hat = m / (1 - cfg.beta1 ** t)
    v_hat = v / (1 - cfg.beta2 ** t)
    theta = model.flat - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
    if not np.isfinite(theta).all():
        bad = next(name for name, x in model.views(theta).items() if not np.isfinite(x).all())
        raise NonFiniteError(f"step {t}: update of {bad!r} is not finite")
    state.step, state.m, state.v = t, m, v
    model.flat[...] = theta


def train_step(model: CaptionModel, batch: list[TrainingPair], state: AdamState, cfg: TrainConfig) -> StepLosses:
    """Forward, backward, and Adam update over one batch.

    The batch runs as one stack: one encoder pass over its images and
    one decoder call over its captions, PAD-padded to the longest.  With
    the contrastive term on, that call stacks the B captions twice: the
    first B rows read the image features and feed the conditioned head,
    and the other B, which read no image, are the text tower.  Each
    pair's caption cross-entropy is the mean over its own predicted
    tokens, and the batch's is the mean over pairs.  A loss that is not
    finite raises NonFiniteError before the update.
    """
    if not batch:
        raise ContractError("train_step: empty batch")
    if cfg.contrastive_weight > 0 and len(batch) < 2:
        raise ContractError("contrastive loss needs a batch of at least 2 pairs")
    shapes = sorted({pair.image.shape for pair in batch})
    if len(shapes) > 1:
        raise ShapeError(f"train_step: batch images differ in shape: {shapes}")
    zero_grads(model.trainable().values())
    images = Tensor(np.stack([pair.image.data for pair in batch]))
    seqs = [pair.tokens for pair in batch]
    ids = token_ids(seqs)
    b, towers = len(batch), 2 if cfg.contrastive_weight > 0 else 1
    # each position predicts the next token; the last predicts nothing, and its PAD target leaves it out
    targets = np.concatenate([ids[:, 1:], np.full((b, 1), PAD_ID)], axis=1)
    with Tape() as tape:
        enc_out = encode_image(model, images)
        img_vecs = image_embedding(model, enc_out)
        # one decoder call: the caption rows read the images, the text tower's rows after them none
        hidden = decode_text(np.concatenate([ids] * towers), model.params, model.cfg.decoder, context=enc_out.features)
        logits = conditioned_logits(model, slice_axis(hidden, 0, 0, b), img_vecs)
        ce = mean(cross_entropy(logits, targets, ignore_id=PAD_ID))
        if towers == 2:
            temperature = exp(model.params["fuse.log_temp"])
            text_vecs = text_embedding(model, seqs, hidden=slice_axis(hidden, 0, b, 2 * b))
            closs = contrastive_loss(img_vecs, text_vecs, temperature)
            total = add(ce, scale(closs, cfg.contrastive_weight))
            contrastive_value = closs.item()
        else:
            total = ce
            contrastive_value = 0.0
        tape.backward(total)
    if not math.isfinite(total.item()):
        raise NonFiniteError(
            f"step {state.step + 1}: loss is {total.item()!r} (ce {ce.item()!r}, contrastive {contrastive_value!r})"
        )
    adam_step(model, state, cfg)
    return StepLosses(step=state.step, ce=ce.item(), contrastive=contrastive_value, total=total.item())


def fit(
    model: CaptionModel,
    pairs: list[TrainingPair],
    cfg: TrainConfig,
    steps: int,
    state: AdamState | None = None,
    on_step=None,
) -> tuple[AdamState, list[StepLosses]]:
    """Run optimizer steps over fixed-order batches, resuming from state.

    Step s (counting from the optimizer's global step) takes batch
    s mod ceil(len(pairs) / batch_size), so a run split across calls or
    checkpoint resumes sees the identical batch schedule.
    """
    check_batches(len(pairs), cfg)
    if steps < 1:
        raise ContractError(f"fit: steps must be >= 1, got {steps}")
    per_epoch = steps_per_epoch(len(pairs), cfg.batch_size)
    state = state if state is not None else AdamState()
    history = []
    for _ in range(steps):
        b = state.step % per_epoch
        batch = pairs[b * cfg.batch_size:(b + 1) * cfg.batch_size]
        losses = train_step(model, batch, state, cfg)
        history.append(losses)
        if on_step is not None:
            on_step(losses)
    return state, history


def check_batches(n_pairs: int, cfg: TrainConfig) -> None:
    """fit's check of its pairs, for a caller to make before it writes anything.

    A ContractError if there are none, or if a batch of one pair would
    meet the contrastive loss.
    """
    if not n_pairs:
        raise ContractError("fit: no training pairs")
    if cfg.contrastive_weight > 0 and (cfg.batch_size == 1 or n_pairs % cfg.batch_size == 1):
        raise ContractError(
            f"{n_pairs} pairs with batch_size {cfg.batch_size} leaves a "
            "1-pair batch, too small for the contrastive loss"
        )


def steps_per_epoch(n_pairs: int, batch_size: int) -> int:
    return -(-n_pairs // batch_size)


def generate(model: CaptionModel, image: Tensor, max_len: int = 16, beam_width: int = 1) -> TokenSequence:
    """Beam-search a caption for one H x W x ch image: generate_batch on a batch of one."""
    return generate_batch(model, Tensor(image.data[None]), max_len=max_len, beam_width=beam_width)[0]


def generate_batch(model: CaptionModel, images: Tensor, max_len: int = 16, beam_width: int = 1) -> list[TokenSequence]:
    """Beam-search a caption for each image of a B x H x W x ch batch; max_len counts BOS and EOS.

    The batch is one search in which each image gets the caption it
    would get alone: one encoder pass, then per step one decoder call
    over the newest token of every live (image, beam) row, whose past
    one DecoderCache holds.  The search itself keeps each row's running
    sum of hidden states and its image's vector, gathered with the
    cache's rows, and passes the running mean and the vector to
    conditioned_logits.  Each image keeps its best beam_width
    candidates by log-probability, ties to the smaller id sequence;
    finished beams rank by log-probability / length^0.7, ties the same
    way.  An image is decided, and all its rows leave the search, once
    its best finished score beats the best score any of its live rows
    could still reach (see _beam_search); the search ends when every
    image is decided or out of room.  The cache holds B x beam_width
    rows, so caption_records passes a split CAPTION_BATCH images at a
    time.  An image with a non-finite pixel raises ContractError; a
    search too large to allocate raises ConfigError.
    """
    if images.data.ndim != 4:
        raise ShapeError(f"generate_batch: images must be B x H x W x ch, got {images.shape}")
    if max_len < 3:
        raise ContractError(f"generate: max_len must be >= 3, got {max_len}")
    if beam_width < 1:
        raise ContractError(f"generate: beam_width must be >= 1, got {beam_width}")
    finite = np.isfinite(images.data)
    if not finite.all():
        bad = np.flatnonzero(~finite.reshape(len(finite), -1).all(axis=1))[0]
        raise ContractError(f"generate: image {bad} of the batch has a non-finite pixel")
    if not len(images.data):
        return []
    try:
        return _beam_search(model, images, max_len, beam_width)
    except MemoryError as e:
        raise ConfigError(
            f"max_len {max_len} with beam_width {beam_width} on a batch of {len(images.data)} "
            f"is too large to search: {e}"
        ) from e


def _beam_search(model: CaptionModel, images: Tensor, max_len: int, beam_width: int) -> list[TokenSequence]:
    """generate_batch's search over a non-empty batch of finite images.

    The early stop is exact.  A row's cost never falls, since every
    log-probability is <= 0 as computed, and a caption has at most
    max_len - 1 generated tokens, so a live row of cost c finishes no
    better than -c / (max_len - 1)^0.7, computed as finish computes a
    score.  An image whose best finished score is strictly above that
    for each of its live rows keeps that caption whatever they become.
    Only whole images leave: dropping single rows would free beam slots
    for others and could change the answer.
    """
    enc_out = encode_image(model, images)
    features = enc_out.features
    img_rows = image_embedding(model, enc_out)  # each live row's image vector, (rows, D)
    n = len(images.data)
    cache = DecoderCache(image=np.arange(n))
    hidden_sum = np.zeros((n, 1, model.cfg.decoder.dim))  # each live row's sum of its hidden states
    seqs = np.full((n, 1), BOS_ID)  # the ids of every live row so far, one column per step
    cost = np.zeros(n)  # and its negated log-probability
    rank = np.zeros(n, dtype=np.intp)  # and a rank that orders an image's live rows by their ids
    done = [[] for _ in range(n)]  # per image: (normalized score, ids) of each finished beam
    best_done = np.full(n, -np.inf)  # per image: the best of those scores
    longest = float(max_len - 1) ** LENGTH_NORM_POWER  # the length divisor of a caption of max_len ids
    words = np.array([EOS_ID, *range(UNK_ID + 1, model.cfg.decoder.vocab_size)])  # never PAD, BOS or UNK
    deciding = False  # an image may be decided once a beam of a beam_width > 1 search has finished

    def finish(row: int, row_cost: float) -> None:
        ids = (*seqs[row].tolist(), EOS_ID)
        image = cache.image[row]
        score = -float(row_cost) / float(len(ids) - 1) ** LENGTH_NORM_POWER
        done[image].append((score, ids))
        best_done[image] = max(best_done[image], score)

    for step in range(max_len - 1):
        hidden = decode_text(seqs[:, -1:], model.params, model.cfg.decoder, context=features, cache=cache)
        hidden_sum = hidden_sum + hidden.data
        logits = conditioned_logits(model, hidden, img_rows, pooled=Tensor(hidden_sum / (step + 1))).data[:, -1, words]
        top = logits.max(axis=1, keepdims=True)
        lp = logits - (top + np.log(np.exp(logits - top).sum(axis=1, keepdims=True)))
        costs = cost[:, None] - lp  # of every (row, next word) candidate
        if step == max_len - 2:  # out of room: close every live beam with a forced EOS
            for row, c in enumerate(costs[:, 0]):
                finish(row, c)
            break
        # only a row's own best beam_width (ties to the smaller id) can rank among its image's best
        best = np.argsort(costs, axis=1, kind="stable")[:, :beam_width]
        parent = np.arange(len(best)).repeat(best.shape[1])
        cost = costs[parent, best.ravel()]
        tok = words[best.ravel()]
        if beam_width > 1:  # with one live row per image, that row's best token is its image's best
            # an image's live rows hold ids of one length, so ids + (tok,) sort as (parent's ids, tok)
            image = cache.image[parent]
            order = np.lexsort((tok, rank[parent], cost, image))
            image = image[order]
            order = order[np.arange(len(order)) - np.searchsorted(image, image) < beam_width]
            parent, tok, cost = parent[order], tok[order], cost[order]
            rank = np.argsort(np.lexsort((tok, rank[parent])))
        live = tok != EOS_ID
        ended = not live.all()
        if ended:
            for row, c in zip(parent[~live], cost[~live]):
                finish(row, c)
            deciding = beam_width > 1  # a greedy image's one row ends with its caption: nothing to decide
        if deciding:  # every row of a decided image leaves; an image with a live row that may still win stays
            image = cache.image[parent]
            undecided = np.zeros(n, dtype=bool)
            undecided[image[live & (best_done[image] <= -cost / longest)]] = True
            live &= undecided[image]
            ended = not live.all()
        if ended:
            if not live.any():
                break
            parent, tok, cost, rank = parent[live], tok[live], cost[live], rank[live]
        if beam_width > 1 or len(parent) < len(cache.image):  # one beam per image, none ended: rows stay put
            cache.select(parent)
            hidden_sum, img_rows, seqs = hidden_sum[parent], Tensor(img_rows.data[parent]), seqs[parent]
        seqs = np.concatenate((seqs, tok[:, None]), axis=1)
    chosen = [min(finished, key=lambda c: (-c[0], c[1]))[1] for finished in done]
    return [TokenSequence(ids=ids, length=len(ids)) for ids in chosen]


def sequence_text(vocab: Vocabulary, seq: TokenSequence) -> str:
    """The caption string a token sequence spells, specials stripped."""
    return " ".join(vocab.token(i) for i in seq.words())


def caption_records(
    model: CaptionModel,
    records: list[Record],
    max_len: int = 16,
    beam_width: int = 1,
) -> dict[str, tuple[str, list[str]]]:
    """Caption every record, CAPTION_BATCH images per generate_batch search: name -> (hypothesis, references)."""
    out = {}
    for start in range(0, len(records), CAPTION_BATCH):
        batch = records[start:start + CAPTION_BATCH]
        seqs = generate_batch(model, Tensor(np.stack([r.image for r in batch])), max_len=max_len, beam_width=beam_width)
        out.update((r.name, (sequence_text(model.vocab, seq), list(r.captions))) for r, seq in zip(batch, seqs))
    return out


def evaluate_model(
    model: CaptionModel,
    records: list[Record],
    max_len: int = 16,
    beam_width: int = 1,
) -> ScoreReport:
    generated = caption_records(model, records, max_len=max_len, beam_width=beam_width)
    return score_report(ScoredCorpus.from_texts(generated))


def ablate(
    variant: str,
    ds: CaptionDataset,
    vocab: Vocabulary,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    steps: int,
    seed: int = 0,
    eval_split: str = "train",
    max_len: int = 16,
) -> tuple[CaptionModel, ScoreReport]:
    """Train one ablation variant from scratch and score its captions.

    Variant names are an attention mode (dual, spatial, channel, global)
    with an optional "-nc" suffix that turns the contrastive term off.
    """
    if variant not in ABLATION_VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}, expected one of {ABLATION_VARIANTS}")
    mode, _, suffix = variant.partition("-")
    cfg = replace(model_cfg, encoder=replace(model_cfg.encoder, mode=mode))
    tcfg = replace(train_cfg, contrastive_weight=0.0) if suffix == "nc" else train_cfg
    model = build_model(cfg, vocab, seed=seed)
    set_channel_stats(model, ds.mean, ds.std)
    pairs = training_pairs(ds, vocab, "train")
    fit(model, pairs, tcfg, steps)
    report = evaluate_model(model, ds.split_records(eval_split), max_len=max_len)
    return model, report


def run_ablation(
    ds: CaptionDataset,
    vocab: Vocabulary,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    steps: int,
    seed: int = 0,
    eval_split: str = "train",
    max_len: int = 16,
) -> dict[str, ScoreReport]:
    """All eight variants (4 attention modes x contrastive on/off)."""
    reports = {}
    for variant in ABLATION_VARIANTS:
        _, reports[variant] = ablate(
            variant, ds, vocab, model_cfg, train_cfg, steps,
            seed=seed, eval_split=eval_split, max_len=max_len,
        )
    return reports
