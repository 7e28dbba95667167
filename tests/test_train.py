"""Tests for the optimizer, training loop, generation, and ablations.

The Adam update is checked against an independently written numpy
reference and a hand-derived first step; the training loop against
resume/determinism invariants; generation against structural and
tie-break properties on degenerate models, and against a beam search
that recomputes every prefix from scratch.
"""

import gc
import math
import platform
import resource
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dualcap.model as model_mod
import dualcap.train as train_mod
from dualcap import autograd, flops
from dualcap.autograd import (
    Tape,
    Tensor,
    add,
    concat,
    contrastive_loss,
    cross_entropy,
    exp,
    mean,
    reshape,
    scale,
    slice_axis,
    zero_grads,
)
from dualcap.data import make_synthetic
from dualcap.encoder import EncoderConfig
from dualcap.errors import ConfigError, ContractError, NonFiniteError, ShapeError
from dualcap.metrics import ScoreReport
from dualcap.model import (
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
from dualcap.textdec import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    DecoderConfig,
    TokenSequence,
    Vocabulary,
    decode_text,
    encode_caption,
    token_ids,
)
from dualcap.train import (
    ABLATION_VARIANTS,
    AdamState,
    TrainConfig,
    TrainingPair,
    ablate,
    adam_step,
    caption_records,
    fit,
    generate,
    generate_batch,
    run_ablation,
    sequence_text,
    steps_per_epoch,
    train_step,
    training_pairs,
)


def synthetic_setup(n=8, dim=16, seed=1, pos_encoding="sinusoidal", **train_kw):
    ds = make_synthetic(n, grid=16, seed=0)
    vocab = Vocabulary.from_corpus([c for _, c in ds.caption_pairs("train")])
    enc = EncoderConfig(image_size=16, patch_size=4, image_channels=3, dim=dim,
                        heads=2, window_patches=4, groups=4, depth=1, pos_encoding=pos_encoding)
    dec = DecoderConfig(vocab_size=len(vocab), dim=dim, heads=2, depth=1,
                        context_width=enc.feature_width)
    model = build_model(ModelConfig(encoder=enc, decoder=dec, joint_dim=8), vocab, seed=seed)
    set_channel_stats(model, ds.mean, ds.std)
    pairs = training_pairs(ds, vocab)
    return ds, vocab, model, pairs, TrainConfig(lr=0.003, batch_size=8, **train_kw)


def p256_setup():
    """synthetic_setup's ops on bigger arrays: 32 x 32 images in patches of 2 (P = 256), dim 32."""
    _, vocab, model, _, cfg = synthetic_setup()
    ds = make_synthetic(8, grid=32, seed=0)
    enc = replace(model.cfg.encoder, image_size=32, patch_size=2, dim=32)
    dec = replace(model.cfg.decoder, context_width=enc.feature_width)
    model = build_model(replace(model.cfg, encoder=enc, decoder=dec), vocab, seed=1)
    set_channel_stats(model, ds.mean, ds.std)
    return ds, vocab, model, training_pairs(ds, vocab), cfg


@pytest.fixture(scope="module")
def overfit_run():
    """One 150-step training run on 8 synthetic pairs, shared read-only."""
    ds, vocab, model, pairs, cfg = synthetic_setup()
    state, history = fit(model, pairs, cfg, steps=150)
    return ds, vocab, model, pairs, history


def numpy_adam(history, lr, beta1, beta2, eps):
    """Reference trajectory for one parameter given its gradient history."""
    theta = history["x0"].astype(float).copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(history["grads"], start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        theta -= lr * (m / (1 - beta1 ** t)) / (np.sqrt(v / (1 - beta2 ** t)) + eps)
    return theta


def trainables(**params):
    """A CaptionModel of bare tensors: adam_step reads only a model's params and flat."""
    return CaptionModel(cfg=None, vocab=None, params=params)


class TestAdam:
    def test_first_step_moves_by_signed_lr(self):
        # bias corrections cancel at t=1: delta = -lr * g / (|g| + eps)
        cfg = TrainConfig(lr=0.01)
        p = Tensor([2.0, -3.0], requires_grad=True)
        model = trainables(p=p)
        p.grad = np.array([0.5, -4.0])
        adam_step(model, AdamState(), cfg)
        expected = np.array([2.0, -3.0]) - 0.01 * np.array([0.5, -4.0]) / (np.array([0.5, 4.0]) + cfg.eps)
        np.testing.assert_allclose(p.data, expected, atol=1e-15)

    def test_matches_numpy_reference_over_many_steps(self):
        rng = np.random.default_rng(0)
        cfg = TrainConfig(lr=0.05, beta1=0.8, beta2=0.95, eps=1e-7)
        x0 = rng.standard_normal((3, 2))
        grads = [rng.standard_normal((3, 2)) for _ in range(12)]
        p = Tensor(x0.copy(), requires_grad=True)
        model = trainables(p=p)
        state = AdamState()
        for g in grads:
            p.grad = g.copy()
            adam_step(model, state, cfg)
        expected = numpy_adam({"x0": x0, "grads": grads}, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
        np.testing.assert_allclose(p.data, expected, atol=1e-12)
        assert state.step == 12

    def test_param_without_grad_is_untouched(self):
        cfg = TrainConfig()
        used = Tensor([1.0], requires_grad=True)
        used.grad = np.array([1.0])
        idle = Tensor([5.0], requires_grad=True)
        model = trainables(used=used, idle=idle)
        state = AdamState()
        adam_step(model, state, cfg)
        assert idle.data.tobytes() == np.array([5.0]).tobytes()
        assert state.m[1] == 0.0 and state.v[1] == 0.0  # idle's moments stay zero
        assert used.data[0] != 1.0

    def test_non_finite_gradient_changes_nothing(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0, 3.0], requires_grad=True)
        model = trainables(a=a, b=b)
        a.grad = np.array([0.5])
        b.grad = np.array([0.5, np.inf])
        state = AdamState()
        with pytest.raises(NonFiniteError, match="step 1: gradient of 'b'"):
            adam_step(model, state, TrainConfig())
        assert state.step == 0 and state.m is None and state.v is None
        np.testing.assert_array_equal(a.data, [1.0])
        np.testing.assert_array_equal(b.data, [2.0, 3.0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_update_changes_nothing(self):
        # lr * m_hat overflows where |g| > 1.06 at lr 1.7e308: b's update is inf
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0, 3.0], requires_grad=True)
        model = trainables(a=a, b=b)
        state = AdamState()
        a.grad, b.grad = np.array([0.5]), np.array([0.5, 0.5])
        adam_step(model, state, TrainConfig())
        flat, m, v = model.flat.tobytes(), state.m.tobytes(), state.v.tobytes()
        a.grad, b.grad = np.array([0.5]), np.array([0.5, -4.0])
        with pytest.raises(NonFiniteError, match="step 2: update of 'b' is not finite"):
            adam_step(model, state, TrainConfig(lr=1.7e308))
        assert state.step == 1
        assert (model.flat.tobytes(), state.m.tobytes(), state.v.tobytes()) == (flat, m, v)

    def test_flat_holds_the_trainable_parameters_as_views(self):
        _, _, model, _, _ = synthetic_setup()
        trainable = model.trainable()
        assert model.flat.size == sum(t.size for t in trainable.values())
        assert all(t.data.base is model.flat for t in trainable.values())
        assert not any(np.shares_memory(model.params[name].data, model.flat) for name in ("norm.mean", "norm.std"))
        views = model.views(model.flat)
        assert all(views[name].tobytes() == t.data.tobytes() for name, t in trainable.items())

    def test_a_rebound_trainable_is_refused(self):
        _, _, model, pairs, cfg = synthetic_setup()
        model.params["fuse.img.b"].data = np.zeros_like(model.params["fuse.img.b"].data)
        state = AdamState()
        with pytest.raises(ContractError, match="'fuse.img.b' is no view of model.flat"):
            train_step(model, pairs, state, cfg)
        assert state.step == 0 and state.m is None

    def test_moments_of_another_size_are_refused(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        model = trainables(p=p)
        p.grad = np.array([0.5, 0.5])
        state = AdamState(step=1, m=np.zeros(3), v=np.zeros(3))
        with pytest.raises(ContractError, match="moments of shapes"):
            adam_step(model, state, TrainConfig())
        assert state.step == 1 and p.data.tolist() == [1.0, 2.0]

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="lr"):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigError, match="betas"):
            TrainConfig(beta2=1.0)
        with pytest.raises(ConfigError, match="contrastive_weight"):
            TrainConfig(contrastive_weight=-0.1)
        with pytest.raises(ConfigError, match="batch_size"):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize("key", ["lr", "eps", "contrastive_weight"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_config_values_are_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            TrainConfig(**{key: value})


class TestTrainingPairs:
    def test_one_pair_per_caption(self):
        ds, vocab, model, pairs, _ = synthetic_setup(n=6)
        assert len(pairs) == sum(len(r.captions) for r in ds.split_records("train"))
        assert all(not p.image.requires_grad for p in pairs)
        assert pairs[0].tokens.ids[0] == BOS_ID
        assert pairs[0].tokens.ids[pairs[0].tokens.length - 1] == EOS_ID


class TestTrainStep:
    def test_total_is_ce_plus_weighted_contrastive(self):
        _, _, model, pairs, cfg = synthetic_setup()
        losses = train_step(model, pairs, AdamState(), cfg)
        assert losses.total == pytest.approx(losses.ce + 0.5 * losses.contrastive, abs=1e-12)

    def test_contrastive_needs_two_pairs(self):
        _, _, model, pairs, cfg = synthetic_setup()
        with pytest.raises(ContractError, match="at least 2"):
            train_step(model, pairs[:1], AdamState(), cfg)

    def test_weight_zero_allows_single_pair_and_freezes_temperature(self):
        _, _, model, pairs, cfg = synthetic_setup(contrastive_weight=0.0)
        before = model.params["fuse.log_temp"].data.copy()
        state = AdamState()
        for _ in range(3):
            losses = train_step(model, pairs[:1], state, cfg)
        assert losses.contrastive == 0.0
        np.testing.assert_array_equal(model.params["fuse.log_temp"].data, before)

    def test_loss_decreases(self):
        _, _, model, pairs, cfg = synthetic_setup()
        state = AdamState()
        first = train_step(model, pairs, state, cfg)
        for _ in range(29):
            last = train_step(model, pairs, state, cfg)
        assert last.total < 0.7 * first.total


def per_pair_step(model, batch, cfg):
    """Loss and gradients of one step computed pair by pair: the oracle for train_step.

    Every pair runs on its own through caption_logits and text_embedding,
    as train_step did before batching; its cross-entropy covers its own
    L-1 predictions.
    """
    trainable = model.trainable()
    zero_grads(trainable.values())
    jd = model.cfg.joint_dim
    with Tape() as tape:
        ce_terms, img_rows, txt_rows = [], [], []
        for pair in batch:
            logits, _, img_vec = caption_logits(model, pair.image, pair.tokens)
            n = pair.tokens.length
            ce_terms.append(cross_entropy(slice_axis(logits, 0, 0, n - 1), pair.tokens.ids[1:n]))
            img_rows.append(reshape(img_vec, (1, jd)))
            txt_rows.append(reshape(text_embedding(model, pair.tokens), (1, jd)))
        total = mean(concat(ce_terms, axis=0))
        if cfg.contrastive_weight > 0:
            temperature = exp(model.params["fuse.log_temp"])
            closs = contrastive_loss(concat(img_rows, axis=0), concat(txt_rows, axis=0), temperature)
            total = add(total, scale(closs, cfg.contrastive_weight))
        tape.backward(total)
    return total.item(), {name: t.grad for name, t in trainable.items()}


def ragged_batch(vocab, pairs):
    """The pairs' images with captions of 3 to 8 tokens, one of them stored PAD-padded."""
    batch = []
    for i, pair in enumerate(pairs):
        text = " ".join(pair.caption.split()[:1 + i % 6])
        tokens = encode_caption(vocab, text, max_len=12 if i == 3 else None)
        batch.append(TrainingPair(name=pair.name, image=pair.image, tokens=tokens, caption=text))
    assert len({p.tokens.length for p in batch}) > 1
    return batch


def encoder_forward_flops(model) -> int:
    """Closed-form forward matmul FLOPs of encoding one image and pooling it into the joint space.

    The patch embedding, every block's branches, every block's tail but
    the last, and the image vector's projection.
    """
    e = model.cfg.encoder
    p, c = e.patches, e.dim
    c_g = e.group_dim
    # windows, then groups: the Gram matrices and outputs over the P rows, and three C_g x C_g products each
    branches = 6 * p * c * c + 4 * p * e.window_patches * c + 4 * p * c * c_g + 6 * c * c_g * c_g
    tail = 2 * p * e.feature_width * c + 4 * e.ffn_expansion * p * c * c  # block projection + feed-forward
    return 2 * p * e.patch_len * c + e.depth * branches + (e.depth - 1) * tail + 2 * e.feature_width * model.cfg.joint_dim


def step_forward_flops(model, caption_tokens: int, batch_size: int) -> int:
    """Closed-form forward matmul FLOPs of one train step on equal-length captions.

    Per pair: the encoder and the image pooling, and the one stacked
    decoder call over all T positions of two rows: the caption's with
    image context, then the text tower's without.  Then the conditioned
    head (the only tied head) over the caption row's T positions and the
    text pooling; per batch, the contrastive similarity matrix.
    """
    e, d, j = model.cfg.encoder, model.cfg.decoder, model.cfg.joint_dim
    p, w = e.patches, e.feature_width
    dd, v = d.dim, d.vocab_size

    def self_block(t):
        return 6 * t * dd * d.head_dim + 4 * t * t * dd + 4 * d.ffn_expansion * t * dd * dd

    t = caption_tokens
    cross = 2 * t * dd * d.head_dim + 4 * p * w * dd + 4 * t * p * dd
    with_context = d.depth * (self_block(t) + cross)
    conditioned = 2 * t * t * dd + 2 * t * dd * j + 4 * t * j * dd + 2 * t * dd * v
    without_context = d.depth * self_block(t)
    per_pair = encoder_forward_flops(model) + with_context + conditioned + without_context + 2 * dd * j
    return batch_size * per_pair + 2 * batch_size * j * batch_size


def step_backward_flops(model, caption_tokens: int, batch_size: int) -> int:
    """Closed-form backward matmul FLOPs of one train step on equal-length captions.

    A product's backward repeats its forward FLOPs once for each operand
    that needs a gradient, so most of the step costs twice its forward:
    a projection's dX and dW, and each attention core's four backward
    products against its two forward ones.  Per pair, four terms differ:
    - the patch embedding's pixels need no gradient, so it costs its
      forward once;
    - so does the conditioned head's causal mean, whose T x T averaging
      matrix is a constant;
    - the head sums each image vector's gradient over the T positions as
      a product with a row of ones, 2*T*D, which has no forward product;
    - each block's Gram-form channel op runs ten products of its own:
      dM, dX's two terms over the P rows, and seven C_g x C_g ones.
    """
    e, j, t = model.cfg.encoder, model.cfg.joint_dim, caption_tokens
    p, c, c_g = e.patches, e.dim, e.group_dim
    channel_forward = 4 * p * c * c_g + 6 * c * c_g * c_g
    channel_backward = 6 * p * c * c_g + 14 * c * c_g * c_g
    per_pair = (-2 * p * e.patch_len * c - 2 * t * t * model.cfg.decoder.dim + 2 * t * j
                + e.depth * (channel_backward - 2 * channel_forward))
    return 2 * step_forward_flops(model, t, batch_size) + batch_size * per_pair


def greedy_caption_flops(model, steps: int) -> int:
    """Closed-form forward matmul FLOPs of a greedy caption of one image that ran ``steps`` decoder steps.

    The encoder and the image pooling; the first step's projection of
    every block's cross-attention keys and values from the P x W map.
    Then each step, over its one new position with s cached positions
    (its own included): self-attention's three projections, its scores
    and weighted sum over s keys, the cross-attention query and its P
    keys, the feed-forward; and the conditioned head on the running
    mean (text projection, conditioning map, tied head).
    """
    e, d, j = model.cfg.encoder, model.cfg.decoder, model.cfg.joint_dim
    p, dd = e.patches, d.dim
    cross_kv = d.depth * 4 * p * e.feature_width * dd

    def step(s):
        block = 6 * dd * d.head_dim + 4 * s * dd + 2 * dd * d.head_dim + 4 * p * dd + 4 * d.ffn_expansion * dd * dd
        return d.depth * block + 2 * dd * j + 4 * j * dd + 2 * dd * d.vocab_size

    return encoder_forward_flops(model) + cross_kv + sum(step(s) for s in range(1, steps + 1))


class TestBatchedStep:
    @pytest.mark.parametrize("weight, pos", [(0.5, "sinusoidal"), (0.0, "sinusoidal"), (0.5, "learned")],
                             ids=["0.5", "0.0", "0.5-learned"])
    def test_matches_the_per_pair_oracle_on_ragged_captions(self, weight, pos):
        _, vocab, batched, pairs, cfg = synthetic_setup(pos_encoding=pos, contrastive_weight=weight)
        _, _, oracle, _, _ = synthetic_setup(pos_encoding=pos, contrastive_weight=weight)
        assert ("enc.pos" in batched.params) == (pos == "learned")
        batch = ragged_batch(vocab, pairs)
        expected_loss, expected_grads = per_pair_step(oracle, batch, cfg)
        losses = train_step(batched, batch, AdamState(), cfg)
        assert abs(losses.total - expected_loss) < 1e-12
        for name, t in batched.trainable().items():
            if expected_grads[name] is None:
                assert t.grad is None, name
            else:
                np.testing.assert_allclose(t.grad, expected_grads[name], atol=1e-12, rtol=0, err_msg=name)

    def test_the_context_pass_runs_the_input_positions_and_the_text_tower_all(self, monkeypatch):
        """One stacked decoder call: the captions with their images, then the text tower's copies without."""
        _, vocab, model, pairs, cfg = synthetic_setup(contrastive_weight=0.5)
        batch = ragged_batch(vocab, pairs)
        ids = token_ids([pair.tokens for pair in batch])
        calls = []

        def spy(tokens, params, dec_cfg, context=None, cache=None):
            calls.append((token_ids(tokens), None if context is None else context.shape, cache))
            return decode_text(tokens, params, dec_cfg, context=context, cache=cache)

        monkeypatch.setattr(train_mod, "decode_text", spy)
        monkeypatch.setattr(model_mod, "decode_text", spy)
        train_step(model, batch, AdamState(), cfg)
        (stacked, context, cache), = calls
        np.testing.assert_array_equal(stacked, np.concatenate([ids, ids]))
        assert context[0] == len(batch) and cache is None
        calls.clear()
        train_step(model, batch, AdamState(), replace(cfg, contrastive_weight=0.0))
        (alone, context, _), = calls
        np.testing.assert_array_equal(alone, ids)
        assert context[0] == len(batch)

    def test_the_text_rows_are_a_context_free_pass(self):
        _, vocab, model, pairs, _ = synthetic_setup()
        batch = ragged_batch(vocab, pairs)
        seqs = [pair.tokens for pair in batch]
        ids = token_ids(seqs)
        features = encode_image(model, Tensor(np.stack([pair.image.data for pair in batch]))).features
        stacked = decode_text(np.concatenate([ids, ids]), model.params, model.cfg.decoder, context=features)
        with_images = decode_text(ids, model.params, model.cfg.decoder, context=features)
        text_only = decode_text(ids, model.params, model.cfg.decoder)
        np.testing.assert_allclose(stacked.data[len(batch):], text_only.data, atol=1e-12, rtol=0)
        np.testing.assert_allclose(stacked.data[:len(batch)], with_images.data, atol=1e-12, rtol=0)
        pooled = text_embedding(model, seqs, hidden=slice_axis(stacked, 0, len(batch), 2 * len(batch)))
        np.testing.assert_allclose(pooled.data, text_embedding(model, seqs).data, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("patches", [16, 256])
    def test_records_at_most_29_tape_ops(self, monkeypatch, patches):
        _, _, model, pairs, cfg = p256_setup() if patches == 256 else synthetic_setup()
        assert model.cfg.encoder.patches == patches
        records = []
        replay = autograd.Tape.backward

        def counting_backward(tape, root):
            records.append(len(tape))
            replay(tape, root)

        monkeypatch.setattr(autograd.Tape, "backward", counting_backward)
        train_step(model, pairs, AdamState(), cfg)
        assert len(records) == 1 and records[0] <= 29

    def test_forward_flops_match_the_closed_form(self):
        ds, vocab, model, pairs, cfg = synthetic_setup()
        lengths = {len(p.tokens.ids) for p in pairs}
        assert len(lengths) == 1  # no padding, so batched and per-pair costs agree
        deeper = build_model(replace(model.cfg, encoder=replace(model.cfg.encoder, depth=2)), vocab, seed=1)
        set_channel_stats(deeper, ds.mean, ds.std)
        for m in (model, deeper):
            with flops.count_flops() as counter:
                train_step(m, pairs, AdamState(), cfg)
            assert counter.total == step_forward_flops(m, next(iter(lengths)), len(pairs))

    @pytest.mark.parametrize("shape", ["readme", "depth-2", "p256"])
    def test_backward_flops_match_the_closed_form(self, shape):
        ds, vocab, model, pairs, cfg = p256_setup() if shape == "p256" else synthetic_setup()
        if shape == "depth-2":
            model = build_model(replace(model.cfg, encoder=replace(model.cfg.encoder, depth=2)), vocab, seed=1)
            set_channel_stats(model, ds.mean, ds.std)
        (length,) = {len(p.tokens.ids) for p in pairs}
        with flops.count_flops() as counter:
            train_step(model, pairs, AdamState(), cfg)
        assert counter.total == step_forward_flops(model, length, len(pairs))
        assert counter.backward == step_backward_flops(model, length, len(pairs))
        assert sum(counter.by_scope.values()) == counter.total  # the scopes count the forward pass alone

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("mode, pos", [(mode, "sinusoidal") for mode in ("dual", "spatial", "channel", "global")]
                             + [("dual", "learned")], ids=["dual", "spatial", "channel", "global", "dual-learned"])
    def test_every_trainable_parameter_gets_a_gradient(self, mode, pos, depth):
        ds, vocab, model, pairs, cfg = synthetic_setup(contrastive_weight=0.5)
        enc = replace(model.cfg.encoder, mode=mode, depth=depth, pos_encoding=pos)
        model = build_model(replace(model.cfg, encoder=enc), vocab, seed=1)
        set_channel_stats(model, ds.mean, ds.std)
        train_step(model, pairs, AdamState(), cfg)
        assert [name for name, t in model.trainable().items() if t.grad is None] == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_temperature_stops_before_the_update(self):
        _, _, model, pairs, cfg = synthetic_setup()
        state = AdamState()
        train_step(model, pairs, state, cfg)
        model.params["fuse.log_temp"].data[...] = 800.0  # exp(800) overflows to inf
        params = {name: t.data.tobytes() for name, t in model.params.items()}
        moments = (state.m.tobytes(), state.v.tobytes())
        with pytest.raises(NonFiniteError, match="step 2: gradient of 'fuse.log_temp' is not finite"):
            train_step(model, pairs, state, cfg)
        assert state.step == 1
        assert {name: t.data.tobytes() for name, t in model.params.items()} == params
        assert (state.m.tobytes(), state.v.tobytes()) == moments

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_stops_before_the_update(self):
        _, _, model, pairs, cfg = synthetic_setup()
        cfg = replace(cfg, lr=1e300)
        state = AdamState()
        train_step(model, pairs, state, cfg)  # finite, but it leaves parameters near 1e300
        params = {name: t.data.tobytes() for name, t in model.params.items()}
        with pytest.raises(NonFiniteError, match="step 2: loss is nan"):
            train_step(model, pairs, state, cfg)
        assert state.step == 1
        assert {name: t.data.tobytes() for name, t in model.params.items()} == params

    def test_images_of_different_shapes_are_rejected(self):
        _, _, model, pairs, cfg = synthetic_setup()
        odd = TrainingPair(name="odd", image=Tensor(np.zeros((8, 8, 3))), tokens=pairs[1].tokens, caption="")
        with pytest.raises(ShapeError, match="differ in shape"):
            train_step(model, [pairs[0], odd], AdamState(), cfg)

    def test_a_step_leaves_no_reference_cycles(self):
        _, _, model, pairs, cfg = synthetic_setup()
        state = AdamState()
        train_step(model, pairs, state, cfg)
        gc.collect()
        gc.disable()
        try:
            train_step(model, pairs, state, cfg)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestFit:
    def test_history_counts_global_steps(self):
        _, _, model, pairs, cfg = synthetic_setup()
        state, history = fit(model, pairs, cfg, steps=4)
        assert [h.step for h in history] == [1, 2, 3, 4]
        assert state.step == 4

    def test_resume_matches_uninterrupted_run(self):
        _, _, a, pairs_a, cfg = synthetic_setup(seed=7)
        _, _, b, pairs_b, _ = synthetic_setup(seed=7)
        _, hist_a = fit(a, pairs_a, cfg, steps=8)
        state_b, hist_b1 = fit(b, pairs_b, cfg, steps=5)
        _, hist_b2 = fit(b, pairs_b, cfg, steps=3, state=state_b)
        assert hist_a == hist_b1 + hist_b2
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)

    def test_two_seeded_runs_are_bitwise_identical(self):
        _, _, a, pairs_a, cfg = synthetic_setup(seed=3)
        _, _, b, pairs_b, _ = synthetic_setup(seed=3)
        _, hist_a = fit(a, pairs_a, cfg, steps=6)
        _, hist_b = fit(b, pairs_b, cfg, steps=6)
        assert hist_a == hist_b

    def test_rejects_one_pair_tail_batch_with_contrastive(self):
        _, _, model, pairs, _ = synthetic_setup()
        cfg = TrainConfig(lr=0.003, batch_size=2)
        with pytest.raises(ContractError, match="1-pair batch"):
            fit(model, pairs[:5], cfg, steps=1)
        cfg_off = TrainConfig(lr=0.003, batch_size=2, contrastive_weight=0.0)
        fit(model, pairs[:5], cfg_off, steps=3)

    def test_batches_cycle_through_all_pairs(self, monkeypatch):
        _, _, model, pairs, _ = synthetic_setup()
        cfg = TrainConfig(lr=0.003, batch_size=3, contrastive_weight=0.0)
        assert steps_per_epoch(8, 3) == 3
        seen = []

        def spy(model_, batch, state, cfg_):
            seen.append([p.name for p in batch])
            return train_step(model_, batch, state, cfg_)

        monkeypatch.setattr(train_mod, "train_step", spy)
        fit(model, pairs, cfg, steps=7)
        names = [p.name for p in pairs]
        expected = [names[0:3], names[3:6], names[6:8]]
        assert seen == expected + expected + [expected[0]]

    def test_validation(self):
        _, _, model, pairs, cfg = synthetic_setup()
        with pytest.raises(ContractError, match="no training pairs"):
            fit(model, [], cfg, steps=1)
        with pytest.raises(ContractError, match="steps"):
            fit(model, pairs, cfg, steps=0)


def no_c_library(name):
    raise OSError("no C library to load")


class TestHeapPolicy:
    """Freed step memory stays in the heap between train requests (the allocator policy set at import)."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
    def test_a_second_train_requests_first_step_takes_few_page_faults(self):
        first_step_faults = []
        for _ in range(2):  # a request as the CLI runs one: a fresh model, then fit epoch by epoch
            _, _, model, pairs, cfg = p256_setup()
            start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            state, _ = fit(model, pairs, cfg, steps=1, on_step=lambda h: first_step_faults.append(
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start))
            fit(model, pairs, cfg, steps=1, state=state)
            del model, pairs, state
            gc.collect()
        # about 2,250 when glibc hands the step's temporaries back to the OS between requests
        assert first_step_faults[1] <= 200, first_step_faults

    @pytest.mark.parametrize("cdll", [lambda name: object(), no_c_library], ids=["no mallopt", "no C library"])
    def test_without_mallopt_the_policy_is_a_no_op(self, monkeypatch, cdll):
        monkeypatch.setattr(train_mod.ctypes, "CDLL", cdll)
        train_mod._keep_heap()  # returns without raising


def log_softmax_words(row: np.ndarray) -> np.ndarray:
    """Log-probabilities of one logit row with PAD, BOS and UNK ruled out."""
    row = row.copy()
    row[[PAD_ID, BOS_ID, UNK_ID]] = -np.inf
    top = row.max()
    return row - (top + math.log(np.exp(row - top).sum()))


def full_recompute_generate(model, image, max_len, beam_width):
    """Beam search that re-runs the decoder on the whole prefix of every beam.

    The oracle for the incremental ``generate``: same ranking (log-prob,
    then smaller ids, length^0.7 normalization), but every next-token
    distribution comes from a teacher-forced pass over the full prefix,
    one beam at a time.  Returns the ids and, per step, the (B, V)
    log-probabilities of the live beams in rank order.
    """
    enc_out = encode_image(model, image)
    img_vec = image_embedding(model, enc_out)

    def next_logprobs(ids):
        hidden = decode_text(ids, model.params, model.cfg.decoder, context=enc_out.features)
        return log_softmax_words(conditioned_logits(model, hidden, img_vec).data[-1])

    def norm_score(logp, ids):
        return logp / float(len(ids) - 1) ** train_mod.LENGTH_NORM_POWER

    live, done, steps = [(0.0, (BOS_ID,))], [], []
    for _ in range(max_len - 2):
        candidates, rows = [], []
        for logp, ids in live:
            lp = next_logprobs(ids)
            rows.append(lp)
            for tok in np.flatnonzero(np.isfinite(lp)):
                candidates.append((logp + float(lp[tok]), ids + (int(tok),)))
        steps.append(np.stack(rows))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        live = []
        for logp, ids in candidates[:beam_width]:
            if ids[-1] == EOS_ID:
                done.append((norm_score(logp, ids), ids))
            else:
                live.append((logp, ids))
        if not live:
            break
    rows = []
    for logp, ids in live:  # out of room: close the beam with a forced EOS
        lp = next_logprobs(ids)
        rows.append(lp)
        ids = ids + (EOS_ID,)
        done.append((norm_score(logp + float(lp[EOS_ID]), ids), ids))
    if rows:
        steps.append(np.stack(rows))
    done.sort(key=lambda c: (-c[0], c[1]))
    return done[0][1], steps


class TestGenerate:
    def test_valid_sequence_and_length_cap(self):
        _, vocab, model, pairs, _ = synthetic_setup()
        seq = generate(model, pairs[0].image, max_len=5)
        assert len(seq.ids) <= 5
        assert seq.ids[0] == BOS_ID and seq.ids[seq.length - 1] == EOS_ID

    def test_deterministic(self):
        _, vocab, model, pairs, _ = synthetic_setup()
        a = generate(model, pairs[0].image, max_len=10, beam_width=3)
        b = generate(model, pairs[0].image, max_len=10, beam_width=3)
        assert a == b

    def test_all_zero_model_ties_break_to_eos(self):
        # uniform logits make every candidate equal; the lexicographically
        # smallest id sequence wins, which is an immediate EOS
        _, vocab, model, pairs, _ = synthetic_setup()
        for t in model.params.values():
            t.data = np.zeros_like(t.data)
        set_channel_stats(model, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        seq = generate(model, pairs[0].image, max_len=8)
        assert seq.ids == (BOS_ID, EOS_ID)
        assert sequence_text(vocab, seq) == ""

    def test_beam_matches_greedy_once_distribution_is_peaked(self, overfit_run):
        _, vocab, model, pairs, _ = overfit_run
        for p in pairs:
            g = generate(model, p.image, max_len=12, beam_width=1)
            b = generate(model, p.image, max_len=12, beam_width=3)
            assert sequence_text(vocab, g) == sequence_text(vocab, b)

    @pytest.mark.parametrize("beam_width", [1, 3, 4])
    @pytest.mark.parametrize("max_len", [5, 12, 16])
    def test_matches_the_full_recompute_oracle(self, overfit_run, monkeypatch, max_len, beam_width):
        # max_len 5 is shorter than every caption, so it exercises the forced-EOS close
        _, _, model, pairs, _ = overfit_run
        steps = []

        def spy(*args, **kwargs):
            logits = conditioned_logits(*args, **kwargs)
            steps.append(np.stack([log_softmax_words(row) for row in logits.data[:, -1]]))
            return logits

        monkeypatch.setattr(train_mod, "conditioned_logits", spy)
        for p in pairs:
            steps.clear()
            seq = generate(model, p.image, max_len=max_len, beam_width=beam_width)
            want_ids, want_steps = full_recompute_generate(model, p.image, max_len, beam_width)
            assert seq.ids == want_ids
            assert_a_prefix_of_the_oracle_steps(steps, want_steps)

    def test_a_greedy_decoder_step_makes_9_op_calls(self, monkeypatch):
        """One decoder block's eight ops and the conditioned head, the same at every step."""
        _, _, model, pairs, _ = synthetic_setup()
        ops, starts = [], []
        record, decode = autograd._record, train_mod.decode_text

        def counting_record(*args):
            ops.append(sys._getframe(1).f_code.co_name)
            return record(*args)

        def spy(*args, **kwargs):
            starts.append(len(ops))
            return decode(*args, **kwargs)

        monkeypatch.setattr(autograd, "_record", counting_record)
        monkeypatch.setattr(train_mod, "decode_text", spy)
        seq = generate(model, pairs[0].image, max_len=8)
        steps = [ops[start:end] for start, end in zip(starts, starts[1:] + [len(ops)])]
        assert len(steps) == seq.length - 1 >= 2
        assert steps == [["take_rows", "add_bias", "attention", "add_norm", "attention", "add_norm", "ffn",
                          "add_norm", "fused_logits"]] * len(steps)

    def test_greedy_forward_flops_match_the_closed_form(self):
        """The cached path counts each step's products on its one new position, as the closed form does."""
        ds, vocab, model, pairs, _ = synthetic_setup()
        deeper = build_model(replace(model.cfg, decoder=replace(model.cfg.decoder, depth=2)), vocab, seed=1)
        set_channel_stats(deeper, ds.mean, ds.std)
        for m in (model, deeper):
            with flops.count_flops() as counter:
                seq = generate(m, pairs[0].image, max_len=8)
            assert seq.length >= 3
            assert counter.total == greedy_caption_flops(m, seq.length - 1)

    def test_greedy_feeds_each_token_to_the_decoder_once(self, overfit_run, monkeypatch):
        _, _, model, pairs, _ = overfit_run
        fed = []

        def spy(tokens, *args, **kwargs):
            fed.append(token_ids(tokens).size)
            return decode_text(tokens, *args, **kwargs)

        monkeypatch.setattr(train_mod, "decode_text", spy)
        for p in pairs:
            fed.clear()
            seq = generate(model, p.image, max_len=12)
            assert seq.length >= 3
            assert fed == [1] * (seq.length - 1)

    def test_validation(self):
        _, _, model, pairs, _ = synthetic_setup()
        with pytest.raises(ContractError, match="max_len"):
            generate(model, pairs[0].image, max_len=2)
        with pytest.raises(ContractError, match="beam_width"):
            generate(model, pairs[0].image, beam_width=0)

    def test_an_image_with_a_non_finite_pixel_is_a_contract_error(self):
        _, _, model, pairs, _ = synthetic_setup()
        images = np.stack([p.image.data for p in pairs[:3]])
        images[1, 5, 7, 2] = np.nan
        images[2, 0, 0, 0] = np.inf
        with pytest.raises(ContractError, match="image 1 of the batch has a non-finite pixel"):
            generate_batch(model, Tensor(images), beam_width=3)
        with pytest.raises(ContractError, match="image 0 of the batch"):
            generate(model, Tensor(images[2]))

    def test_a_search_too_large_to_allocate_is_a_config_error(self, monkeypatch):
        _, _, model, pairs, _ = synthetic_setup()

        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(train_mod, "decode_text", out_of_memory)
        with pytest.raises(ConfigError, match="max_len 100000000 with beam_width 3 on a batch of 1 is too large"):
            generate(model, pairs[0].image, max_len=100_000_000, beam_width=3)


def spy_word_logprobs(monkeypatch) -> list:
    """Per conditioned_logits call in generate: (image of each row, word log-probs of each row).

    A row's image is read from the cache of the decode_text call that made its hidden state.
    """
    steps, caches = [], []
    decode = train_mod.decode_text

    def spy_decode(*args, **kwargs):
        caches.append(kwargs["cache"])
        return decode(*args, **kwargs)

    def spy(*args, **kwargs):
        logits = conditioned_logits(*args, **kwargs)
        rows = np.stack([log_softmax_words(row) for row in logits.data[:, -1]])
        steps.append((caches[-1].image.copy(), rows))
        return logits

    monkeypatch.setattr(train_mod, "decode_text", spy_decode)
    monkeypatch.setattr(train_mod, "conditioned_logits", spy)
    return steps


def assert_a_prefix_of_the_oracle_steps(got_steps, want_steps):
    """The steps a search ran equal the oracle's first steps: an image decided early runs fewer."""
    assert 0 < len(got_steps) <= len(want_steps)
    assert [s.shape for s in got_steps] == [s.shape for s in want_steps[:len(got_steps)]]
    for got, want in zip(got_steps, want_steps):
        finite = np.isfinite(want)
        assert np.array_equal(finite, np.isfinite(got))
        np.testing.assert_allclose(got[finite], want[finite], rtol=0, atol=1e-12)


def assert_each_image_matches_the_oracle(model, images, got_ids, steps, max_len, beam_width):
    """Every image's ids equal its own full-recompute search's, its per-step log-probs a prefix of that search's."""
    for i, image in enumerate(images):
        want_ids, want_steps = full_recompute_generate(model, image, max_len, beam_width)
        assert got_ids[i] == want_ids
        assert_a_prefix_of_the_oracle_steps([lp[rows == i] for rows, lp in steps if (rows == i).any()], want_steps)


@pytest.fixture(scope="module")
def midway_run():
    """A 40-step run: its captions end at different steps, some at the length cap."""
    _, _, model, pairs, cfg = synthetic_setup()
    fit(model, pairs, cfg, steps=40)
    return model, pairs


class TestBatchedGenerate:
    @pytest.mark.parametrize("beam_width", [1, 3, 4])
    @pytest.mark.parametrize("max_len", [5, 12, 16])
    def test_a_stacked_batch_matches_the_oracle_per_image(self, overfit_run, monkeypatch, max_len, beam_width):
        _, _, model, pairs, _ = overfit_run
        steps = spy_word_logprobs(monkeypatch)
        images = [p.image for p in pairs]
        seqs = generate_batch(model, Tensor(np.stack([im.data for im in images])), max_len=max_len, beam_width=beam_width)
        assert isinstance(seqs, list) and len(seqs) == len(images)
        assert len(steps) <= max_len - 1
        assert_each_image_matches_the_oracle(model, images, [s.ids for s in seqs], steps, max_len, beam_width)

    @pytest.mark.parametrize("beam_width", [1, 3, 4])
    @pytest.mark.parametrize("max_len", [5, 12, 16])
    def test_caption_records_is_one_search_that_matches_the_oracle(self, overfit_run, monkeypatch, max_len, beam_width):
        ds, vocab, model, _, _ = overfit_run
        records = ds.split_records("train")
        calls = {"generate_batch": 0, "encode_image": 0, "decode_text": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(train_mod, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(train_mod, name, counted)
        steps = spy_word_logprobs(monkeypatch)
        texts = caption_records(model, records, max_len=max_len, beam_width=beam_width)
        assert calls["generate_batch"] == calls["encode_image"] == 1
        assert calls["decode_text"] <= max_len - 1
        assert list(texts) == [r.name for r in records]
        images = [Tensor(r.image) for r in records]
        ids = [full_recompute_generate(model, im, max_len, beam_width)[0] for im in images]
        for record, want in zip(records, ids):
            want_text = sequence_text(vocab, TokenSequence(ids=want, length=len(want)))
            assert texts[record.name] == (want_text, list(record.captions))
        assert_each_image_matches_the_oracle(model, images, ids, steps, max_len, beam_width)

    @pytest.mark.parametrize("beam_width", [1, 3])
    def test_rows_leave_mid_search(self, midway_run, monkeypatch, beam_width):
        model, pairs = midway_run
        steps = spy_word_logprobs(monkeypatch)
        images = [p.image for p in pairs]
        seqs = generate_batch(model, Tensor(np.stack([im.data for im in images])), max_len=12, beam_width=beam_width)
        assert len({s.length for s in seqs}) > 1  # images finish at different steps
        rows = [len(image_of_row) for image_of_row, _ in steps]
        assert any(after < before for before, after in zip(rows, rows[1:]))  # the search goes on without them
        assert_each_image_matches_the_oracle(model, images, [s.ids for s in seqs], steps, 12, beam_width)

    @pytest.mark.parametrize("beam_width", [3, 4])
    def test_exact_ties_rank_like_the_oracle(self, monkeypatch, beam_width):
        # uniform logits tie every candidate, so each step's rows are ordered by ids alone
        _, _, model, pairs, _ = synthetic_setup()
        for t in model.params.values():
            t.data = np.zeros_like(t.data)
        set_channel_stats(model, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        steps = spy_word_logprobs(monkeypatch)
        images = [p.image for p in pairs[:2]]
        seqs = generate_batch(model, Tensor(np.stack([im.data for im in images])), max_len=6, beam_width=beam_width)
        # a live row costs 4x the immediate EOS after 4 steps, more than 5**0.7x: the EOS is decided
        assert len(steps) == 4
        assert_each_image_matches_the_oracle(model, images, [s.ids for s in seqs], steps, 6, beam_width)

    @pytest.mark.parametrize("beam_width", [1, 4])
    def test_a_batch_of_one_is_the_single_image_search(self, midway_run, beam_width):
        model, pairs = midway_run
        for p in pairs:
            alone = generate(model, p.image, max_len=12, beam_width=beam_width)
            assert generate_batch(model, Tensor(p.image.data[None]), max_len=12, beam_width=beam_width) == [alone]

    def test_an_empty_batch_captions_to_nothing(self, midway_run, monkeypatch):
        model, pairs = midway_run
        monkeypatch.setattr(train_mod, "encode_image", None)  # not reached
        for beam_width in (1, 3):
            assert generate_batch(model, Tensor(np.zeros((0, 16, 16, 3))), beam_width=beam_width) == []

    @pytest.mark.parametrize("beam_width", [3, 4])
    def test_a_decided_image_stops_before_the_oracle(self, overfit_run, monkeypatch, beam_width):
        # a converged model's best beam ends first; its losing beams need not run on to max_len
        _, _, model, pairs, _ = overfit_run
        calls = []
        decode = train_mod.decode_text

        def counted(*args, **kwargs):
            calls.append(1)
            return decode(*args, **kwargs)

        monkeypatch.setattr(train_mod, "decode_text", counted)
        pruned = 0
        for p in pairs:
            calls.clear()
            seq = generate(model, p.image, max_len=16, beam_width=beam_width)
            want_ids, want_steps = full_recompute_generate(model, p.image, 16, beam_width)
            assert seq.ids == want_ids
            assert len(calls) <= len(want_steps)
            pruned += len(calls) < len(want_steps)
        assert pruned >= 2

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 16),
        beam_width=st.integers(2, 6),
        max_len=st.integers(3, 16),
        picks=st.lists(st.integers(0, 7), min_size=1, max_size=3),
    )
    def test_random_models_caption_like_the_unpruned_oracle(self, seed, beam_width, max_len, picks):
        # about one search in four on these untrained models decides an image before the oracle stops
        _, _, model, pairs, _ = synthetic_setup(seed=seed)
        images = [pairs[i].image for i in picks]
        with pytest.MonkeyPatch.context() as mp:
            steps = spy_word_logprobs(mp)
            batched = generate_batch(model, Tensor(np.stack([im.data for im in images])), max_len=max_len, beam_width=beam_width)
        ids = [s.ids for s in batched]
        assert_each_image_matches_the_oracle(model, images, ids, steps, max_len, beam_width)
        assert [generate(model, im, max_len=max_len, beam_width=beam_width).ids for im in images] == ids

    def test_a_batch_is_a_stack_of_images(self, midway_run):
        model, pairs = midway_run
        with pytest.raises(ShapeError, match="B x H x W x ch"):
            generate_batch(model, pairs[0].image)

    def test_a_split_larger_than_one_batch_is_captioned_batch_by_batch(self, overfit_run, monkeypatch):
        ds, _, model, _, _ = overfit_run
        records = ds.split_records("train")
        whole = caption_records(model, records, max_len=12, beam_width=3)
        sizes = []

        def counted(m, images, **kwargs):
            sizes.append(len(images.data))
            return generate_batch(m, images, **kwargs)

        monkeypatch.setattr(train_mod, "CAPTION_BATCH", 3)
        monkeypatch.setattr(train_mod, "generate_batch", counted)
        assert list(caption_records(model, records, max_len=12, beam_width=3).items()) == list(whole.items())
        assert sizes == [3, 3, 2]

    def test_no_records_caption_to_nothing(self):
        _, _, model, _, _ = synthetic_setup(n=4, dim=8)
        assert caption_records(model, []) == {}

    def test_ablation_on_an_empty_split_is_a_contract_error(self):
        ds, vocab, model, pairs, cfg = synthetic_setup(n=4, dim=8)
        assert ds.split_records("val") == []
        with pytest.raises(ContractError, match="ScoredCorpus: need at least one entry"):
            ablate("dual", ds, vocab, model.cfg, cfg, steps=1, eval_split="val", max_len=8)


class TestOverfit:
    def test_eight_pairs_are_memorized(self, overfit_run):
        ds, vocab, model, pairs, history = overfit_run
        assert history[-1].total < 0.1 * history[0].total
        texts = caption_records(model, ds.split_records("train"), max_len=12)
        verbatim = sum(hyp == refs[0] for hyp, refs in texts.values())
        assert verbatim >= 6


class TestAblation:
    def test_all_variants_run_and_report(self):
        ds, vocab, model, pairs, cfg = synthetic_setup(n=4, dim=8)
        model_cfg = model.cfg
        reports = run_ablation(ds, vocab, model_cfg, cfg, steps=2, seed=0, max_len=8)
        assert tuple(reports) == ABLATION_VARIANTS
        assert all(isinstance(r, ScoreReport) for r in reports.values())
        for r in reports.values():
            assert all(np.isfinite(v) for v in r.values())

    def test_nc_suffix_disables_contrastive(self):
        ds, vocab, model, pairs, cfg = synthetic_setup(n=4, dim=8)
        trained, report = ablate("global-nc", ds, vocab, model.cfg, cfg, steps=2, max_len=8)
        assert trained.cfg.encoder.mode == "global"
        assert trained.params["fuse.log_temp"].data[0] == pytest.approx(np.log(0.07))

    def test_unknown_variant_rejected(self):
        ds, vocab, model, pairs, cfg = synthetic_setup(n=4, dim=8)
        with pytest.raises(ConfigError, match="variant"):
            ablate("windowed", ds, vocab, model.cfg, cfg, steps=1)
