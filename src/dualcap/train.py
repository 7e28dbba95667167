"""Training loop, Adam optimizer, caption generation, and ablations.

The training objective per batch is

    mean caption cross-entropy + contrastive_weight * contrastive loss

where the cross-entropy for one pair covers positions 0..L-2 predicting
ids 1..L-1 (teacher forcing, PAD ignored) and the contrastive term
aligns pooled image and text embeddings across the batch.  Batches are
consecutive slices of the pair list in a fixed order, so a run is fully
determined by the seed that built the model.

Generation is beam search over word tokens with PAD/BOS/UNK masked out;
finished beams are ranked by log-probability divided by length^0.7 and
ties broken toward lexicographically smaller id sequences.  Beam width
1 reduces to greedy decoding exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .autograd import (
    Tape,
    Tensor,
    add,
    cross_entropy,
    exp,
    mean,
    scale,
    slice_axis,
    zero_grads,
)
from .data import CaptionDataset, Record
from .errors import ConfigError, ContractError, NonFiniteError, ShapeError
from .fusion import contrastive_loss
from .metrics import ScoredCorpus, ScoreReport, score_report
from .model import (
    CaptionModel,
    ModelConfig,
    build_model,
    caption_logits,
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
    TokenSequence,
    Vocabulary,
    decode_text,
    encode_caption,
    token_ids,
)

LENGTH_NORM_POWER = 0.7  # beam scores divide by (generated tokens)**0.7

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
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError(f"betas must be in [0, 1), got {self.beta1}, {self.beta2}")
        if self.eps <= 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if self.contrastive_weight < 0:
            raise ConfigError(f"contrastive_weight must be >= 0, got {self.contrastive_weight}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class AdamState:
    """First and second moment estimates plus the global step count."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


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


def adam_step(params: dict[str, Tensor], state: AdamState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update; parameters without a grad are skipped.

    The update runs once over every parameter that has a grad, flattened
    into one vector.  The arithmetic is elementwise, so each element gets
    exactly the value a per-parameter update would give it.  A gradient
    that is not finite raises NonFiniteError, naming the step and the
    first such parameter, before the step count or any value changes.
    """
    stepped = [(name, tensor) for name, tensor in params.items() if tensor.grad is not None]

    def flat(arrays) -> np.ndarray:
        return np.concatenate([a.reshape(-1) for a in arrays] or [np.zeros(0)])

    def moments(store: dict[str, np.ndarray]) -> np.ndarray:
        return flat(store[name] if name in store else np.zeros(tensor.size) for name, tensor in stepped)

    g = flat(tensor.grad for _, tensor in stepped)
    if not np.isfinite(g).all():
        bad = next(name for name, tensor in stepped if not np.isfinite(tensor.grad).all())
        raise NonFiniteError(f"step {state.step + 1}: gradient of {bad!r} is not finite")
    state.step += 1
    t = state.step
    m, v = moments(state.m), moments(state.v)
    m = cfg.beta1 * m + (1 - cfg.beta1) * g
    v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
    m_hat = m / (1 - cfg.beta1 ** t)
    v_hat = v / (1 - cfg.beta2 ** t)
    theta = flat(tensor.data for _, tensor in stepped) - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
    start = 0
    for name, tensor in stepped:
        shape = tensor.data.shape
        stop = start + tensor.size
        state.m[name] = m[start:stop].reshape(shape)
        state.v[name] = v[start:stop].reshape(shape)
        tensor.data = theta[start:stop].reshape(shape)
        start = stop


def train_step(model: CaptionModel, batch: list[TrainingPair], state: AdamState, cfg: TrainConfig) -> StepLosses:
    """Forward, backward, and Adam update over one batch.

    The batch runs as one stack: one encoder pass over its images, one
    decoder pass with image context and one without over its captions,
    PAD-padded to the longest.  Each pair's caption cross-entropy is the
    mean over its own predicted tokens, and the batch's is the mean over
    pairs.  A loss that is not finite raises NonFiniteError before the
    update.
    """
    if not batch:
        raise ContractError("train_step: empty batch")
    if cfg.contrastive_weight > 0 and len(batch) < 2:
        raise ContractError("contrastive loss needs a batch of at least 2 pairs")
    shapes = sorted({pair.image.shape for pair in batch})
    if len(shapes) > 1:
        raise ShapeError(f"train_step: batch images differ in shape: {shapes}")
    trainable = model.trainable()
    zero_grads(trainable.values())
    images = Tensor(np.stack([pair.image.data for pair in batch]))
    seqs = [pair.tokens for pair in batch]
    ids = token_ids(seqs)
    with Tape() as tape:
        logits, _, img_vecs = caption_logits(model, images, seqs)
        predictions = slice_axis(logits, 1, 0, ids.shape[1] - 1)
        ce = mean(cross_entropy(predictions, ids[:, 1:], ignore_id=PAD_ID))
        if cfg.contrastive_weight > 0:
            temperature = exp(model.params["fuse.log_temp"])
            closs = contrastive_loss(img_vecs, text_embedding(model, seqs), temperature)
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
    adam_step(trainable, state, cfg)
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
    if not pairs:
        raise ContractError("fit: no training pairs")
    if steps < 1:
        raise ContractError(f"fit: steps must be >= 1, got {steps}")
    per_epoch = steps_per_epoch(len(pairs), cfg.batch_size)
    if cfg.contrastive_weight > 0 and len(pairs) % cfg.batch_size == 1:
        raise ContractError(
            f"{len(pairs)} pairs with batch_size {cfg.batch_size} leaves a "
            "1-pair batch, too small for the contrastive loss"
        )
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


def steps_per_epoch(n_pairs: int, batch_size: int) -> int:
    return -(-n_pairs // batch_size)


def generate(model: CaptionModel, image: Tensor, max_len: int = 16, beam_width: int = 1) -> TokenSequence:
    """Beam-search a caption for one image; max_len counts BOS and EOS."""
    if max_len < 3:
        raise ContractError(f"generate: max_len must be >= 3, got {max_len}")
    if beam_width < 1:
        raise ContractError(f"generate: beam_width must be >= 1, got {beam_width}")
    enc_out = encode_image(model, image)
    img_vec = image_embedding(model, enc_out)
    features = enc_out.features

    def next_logprobs(ids: tuple[int, ...]) -> np.ndarray:
        hidden = decode_text(ids, model.params, model.cfg.decoder, context=features)
        row = conditioned_logits(model, hidden, img_vec).data[-1].copy()
        row[[PAD_ID, BOS_ID, UNK_ID]] = -np.inf
        top = row.max()
        return row - (top + math.log(np.exp(row - top).sum()))

    def norm_score(logp: float, ids: tuple[int, ...]) -> float:
        return logp / float(len(ids) - 1) ** LENGTH_NORM_POWER

    live = [(0.0, (BOS_ID,))]
    done = []
    for _ in range(max_len - 2):
        candidates = []
        for logp, ids in live:
            lp = next_logprobs(ids)
            for tok in np.flatnonzero(np.isfinite(lp)):
                candidates.append((logp + float(lp[tok]), ids + (int(tok),)))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        live = []
        for logp, ids in candidates[:beam_width]:
            if ids[-1] == EOS_ID:
                done.append((norm_score(logp, ids), ids))
            else:
                live.append((logp, ids))
        if not live:
            break
    for logp, ids in live:  # out of room: close the beam with a forced EOS
        lp = next_logprobs(ids)
        ids = ids + (EOS_ID,)
        done.append((norm_score(logp + float(lp[EOS_ID]), ids), ids))
    done.sort(key=lambda c: (-c[0], c[1]))
    ids = done[0][1]
    return TokenSequence(ids=ids, length=len(ids))


def sequence_text(vocab: Vocabulary, seq: TokenSequence) -> str:
    """The caption string a token sequence spells, specials stripped."""
    return " ".join(vocab.token(i) for i in seq.words())


def caption_records(
    model: CaptionModel,
    records: list[Record],
    max_len: int = 16,
    beam_width: int = 1,
) -> dict[str, tuple[str, list[str]]]:
    """Generate one caption per record: name -> (hypothesis, references)."""
    out = {}
    for record in records:
        seq = generate(model, Tensor(record.image), max_len=max_len, beam_width=beam_width)
        out[record.name] = (sequence_text(model.vocab, seq), list(record.captions))
    return out


def evaluate_model(
    model: CaptionModel,
    records: list[Record],
    max_len: int = 16,
    beam_width: int = 1,
    smoothing: bool = False,
) -> ScoreReport:
    generated = caption_records(model, records, max_len=max_len, beam_width=beam_width)
    return score_report(ScoredCorpus.from_texts(generated), smoothing=smoothing)


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
    cfg = ModelConfig(
        encoder=replace(model_cfg.encoder, mode=mode),
        decoder=model_cfg.decoder,
        joint_dim=model_cfg.joint_dim,
    )
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
