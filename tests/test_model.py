"""Tests for the assembled captioning model.

The conditioning head is checked against a hand-written numpy oracle
and for causality (position t must not see tokens after t); gradients
of the full pipeline are checked with finite differences.
"""

import re

import numpy as np
import pytest

from dualcap.autograd import Tape, Tensor, cross_entropy, slice_axis
from dualcap.encoder import EncoderConfig
from dualcap.errors import ConfigError
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
from dualcap.textdec import DecoderConfig, TokenSequence, Vocabulary, decode_text, encode_caption

from gradcheck import check_grads


def tiny_config(vocab_size, mode="dual", joint_dim=4):
    enc = EncoderConfig(
        image_size=4, patch_size=2, image_channels=3, dim=4,
        heads=2, window_patches=2, groups=2, depth=1, mode=mode,
    )
    dec = DecoderConfig(vocab_size=vocab_size, dim=4, heads=2, depth=1, context_width=enc.feature_width)
    return ModelConfig(encoder=enc, decoder=dec, joint_dim=joint_dim)


def tiny_model(seed=0, mode="dual"):
    vocab = Vocabulary(["red", "dot", "blue", "box"])
    cfg = tiny_config(len(vocab), mode=mode)
    return build_model(cfg, vocab, seed=seed)


def np_l2(rows):
    return rows / np.sqrt((rows * rows).sum(axis=-1, keepdims=True) + 1e-12)


class TestConfig:
    def test_context_width_must_match_feature_width(self):
        enc = EncoderConfig(image_size=4, patch_size=2, image_channels=3, dim=4,
                            heads=2, window_patches=2, groups=2, depth=1)
        dec = DecoderConfig(vocab_size=8, dim=4, heads=2, depth=1, context_width=enc.feature_width + 1)
        with pytest.raises(ConfigError, match="context_width"):
            ModelConfig(encoder=enc, decoder=dec)

    def test_joint_dim_validated(self):
        enc = EncoderConfig(image_size=4, patch_size=2, image_channels=3, dim=4,
                            heads=2, window_patches=2, groups=2, depth=1)
        dec = DecoderConfig(vocab_size=8, dim=4, heads=2, depth=1, context_width=enc.feature_width)
        with pytest.raises(ConfigError, match="joint_dim"):
            ModelConfig(encoder=enc, decoder=dec, joint_dim=1)

    def test_dict_round_trip(self):
        cfg = tiny_config(9, mode="spatial", joint_dim=6)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_missing_key(self):
        data = tiny_config(9).to_dict()
        del data["decoder"]
        with pytest.raises(ConfigError, match="malformed"):
            ModelConfig.from_dict(data)


class TestBuild:
    def test_vocab_size_must_match(self):
        vocab = Vocabulary(["red", "dot", "blue", "box"])
        with pytest.raises(ConfigError, match="vocabulary"):
            build_model(tiny_config(len(vocab) + 1), vocab)

    def test_same_seed_same_params(self):
        a, b = tiny_model(seed=3), tiny_model(seed=3)
        assert set(a.params) == set(b.params)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)

    def test_different_seed_differs(self):
        a, b = tiny_model(seed=3), tiny_model(seed=4)
        assert any(not np.array_equal(a.params[n].data, b.params[n].data) for n in a.params)

    def test_norm_stats_not_trainable(self):
        model = tiny_model()
        trainable = model.trainable()
        assert "norm.mean" not in trainable and "norm.std" not in trainable
        assert "fuse.log_temp" in trainable

    def test_log_temp_initialized_to_point_07(self):
        model = tiny_model()
        assert model.params["fuse.log_temp"].data[0] == pytest.approx(np.log(0.07), abs=1e-12)

    def test_set_channel_stats(self):
        model = tiny_model()
        set_channel_stats(model, [0.1, 0.2, 0.3], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(model.params["norm.mean"].data, [0.1, 0.2, 0.3])
        with pytest.raises(ConfigError, match="positive"):
            set_channel_stats(model, [0, 0, 0], [1.0, 0.0, 1.0])

    @pytest.mark.parametrize("mean, std", [
        ([0.1, np.nan, 0.3], [1.0, 1.0, 1.0]),
        ([0.1, 0.2, 0.3], [1.0, np.nan, 1.0]),
        ([0.1, 0.2, 0.3], [1.0, np.inf, 1.0]),
        ([0.1, -np.inf, 0.3], [1.0, 1.0, 1.0]),
    ])
    def test_non_finite_channel_stats_are_config_errors(self, mean, std):
        model = tiny_model()
        with pytest.raises(ConfigError, match="channel stats must be finite"):
            set_channel_stats(model, mean, std)
        np.testing.assert_array_equal(model.params["norm.std"].data, [1.0, 1.0, 1.0])


    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("mode", ["dual", "spatial", "channel", "global"])
    def test_attention_weights_are_stored_stacked(self, mode, depth):
        enc = EncoderConfig(image_size=8, patch_size=2, image_channels=3, dim=8,
                            heads=2, window_patches=4, groups=4, depth=depth, mode=mode)
        dec = DecoderConfig(vocab_size=8, dim=12, heads=3, depth=2, context_width=enc.feature_width)
        model = build_model(ModelConfig(encoder=enc, decoder=dec), Vocabulary(["red", "dot", "blue", "box"]))
        branches = {"spatial": (8, 8), "channel": (4, 2, 2), "global": (2, 4, 4)}
        expected = {}
        for i in range(depth):
            for branch in ("spatial", "channel") if mode == "dual" else (mode,):
                expected.update({f"enc.b{i}.{branch}.{w}": branches[branch] for w in ("wq", "wk", "wv")})
        for i in range(2):
            expected.update({f"dec.b{i}.self.{w}": (3, 4, 4) for w in ("wq", "wk", "wv")})
            expected.update({f"dec.b{i}.cross.wq": (3, 4, 4), f"dec.b{i}.cross.wk": (3, 16, 4),
                             f"dec.b{i}.cross.wv": (3, 16, 4)})
        attention = {name: t.shape for name, t in model.params.items()
                     if re.search(r"\.(spatial|channel|global|self|cross)\.", name)}
        assert attention == expected
        assert not [name for name in model.params if re.search(r"\.[hg]\d+\.", name)]
        for name in attention:  # U(-b, b) with b = 1/sqrt(input width) for every stacked head
            bound = 1.0 / np.sqrt(attention[name][-2])
            assert 0.8 * bound < np.abs(model.params[name].data).max() <= bound, name


class TestEmbeddings:
    def test_image_embedding_unit_norm(self):
        model = tiny_model()
        rng = np.random.default_rng(0)
        vec = image_embedding(model, encode_image(model, Tensor(rng.random((4, 4, 3)))))
        assert vec.shape == (4,)
        assert np.linalg.norm(vec.data) == pytest.approx(1.0, abs=1e-9)

    def test_text_embedding_ignores_padding(self):
        model = tiny_model()
        short = encode_caption(model.vocab, "red dot")
        padded = encode_caption(model.vocab, "red dot", max_len=9)
        a = text_embedding(model, short).data
        b = text_embedding(model, padded).data
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestConditionedLogits:
    def test_matches_numpy_oracle(self):
        model = tiny_model(seed=5)
        rng = np.random.default_rng(1)
        hidden = Tensor(rng.standard_normal((5, 4)))
        image_vec = Tensor(np_l2(rng.standard_normal(4)))
        got = conditioned_logits(model, hidden, image_vec).data

        p = {k: t.data for k, t in model.params.items()}
        t_len = hidden.shape[0]
        logits = np.empty((t_len, len(model.vocab)))
        for t in range(t_len):
            pooled = hidden.data[:t + 1].mean(axis=0)
            text_vec = np_l2(pooled @ p["fuse.txt.w"] + p["fuse.txt.b"])
            fused = np.concatenate([image_vec.data, text_vec])
            cond = fused @ p["fuse.cond.w"] + p["fuse.cond.b"]
            logits[t] = (hidden.data[t] + cond) @ p["dec.emb"].T
        np.testing.assert_allclose(got, logits, atol=1e-12)

    def test_causal_in_the_token_sequence(self):
        model = tiny_model(seed=2)
        rng = np.random.default_rng(7)
        image = Tensor(rng.random((4, 4, 3)))
        a = encode_caption(model.vocab, "red dot blue")
        b = encode_caption(model.vocab, "red dot box")
        la, *_ = caption_logits(model, image, a)
        lb, *_ = caption_logits(model, image, b)
        np.testing.assert_array_equal(la.data[:3], lb.data[:3])
        assert not np.array_equal(la.data[3], lb.data[3])

    def test_image_changes_every_position(self):
        model = tiny_model(seed=2)
        rng = np.random.default_rng(7)
        seq = encode_caption(model.vocab, "red dot")
        la, *_ = caption_logits(model, Tensor(rng.random((4, 4, 3))), seq)
        lb, *_ = caption_logits(model, Tensor(rng.random((4, 4, 3))), seq)
        assert np.all(np.any(la.data != lb.data, axis=1))


class TestPipelineGradients:
    @pytest.mark.parametrize("mode", ["dual", "spatial"])
    def test_full_caption_loss_gradients(self, mode):
        model = tiny_model(seed=9, mode=mode)
        rng = np.random.default_rng(3)
        image = Tensor(rng.random((4, 4, 3)))
        seq = encode_caption(model.vocab, "red dot blue")
        trainable = model.trainable()

        def build():
            logits, _, _ = caption_logits(model, image, seq)
            predictions = slice_axis(logits, 0, 0, seq.length - 1)
            return cross_entropy(predictions, list(seq.ids[1:seq.length]))

        check_grads(build, list(trainable.values()), tol=1e-5)
