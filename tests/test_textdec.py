"""Text decoder: tokenizer, vocabulary, masking, tied head, gradients."""

import math

import numpy as np
import pytest

from dualcap.autograd import Tape, Tensor, mean
from dualcap.errors import ConfigError, ContractError, VocabError
from dualcap.textdec import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    DecoderCache,
    DecoderConfig,
    TokenSequence,
    Vocabulary,
    attention_masks,
    decode_text,
    encode_caption,
    init_decoder_params,
    tokenize,
)

from composed import mul
from gradcheck import check_grads


class TestTokenize:
    def test_lowercases_and_strips_punctuation(self):
        assert tokenize("A red Square!") == ["a", "red", "square"]
        assert tokenize("the cat, the mat.") == ["the", "cat", "the", "mat"]
        assert tokenize("ocean's edge") == ["ocean", "s", "edge"]

    def test_whitespace_and_empty(self):
        assert tokenize("  a\t b\nc ") == ["a", "b", "c"]
        assert tokenize("") == []
        assert tokenize("?!.,") == []

    def test_digits_survive(self):
        assert tokenize("2 dogs") == ["2", "dogs"]


class TestVocabulary:
    def test_reserved_ids_are_fixed(self):
        v = Vocabulary([])
        assert (PAD_ID, BOS_ID, EOS_ID, UNK_ID) == (0, 1, 2, 3)
        assert v.decode([0, 1, 2, 3]) == ["<pad>", "<bos>", "<eos>", "<unk>"]
        assert len(v) == 4

    def test_frequency_then_lexicographic_ordering(self):
        v = Vocabulary.from_corpus(["b b b a a c", "c a"])
        # a:3 b:3 c:2 -> a before b by tie-break, then c
        assert v.encode(["a", "b", "c"]) == [4, 5, 6]

    def test_min_freq_filters(self):
        v = Vocabulary.from_corpus(["a a b"], min_freq=2)
        assert "a" in v and "b" not in v
        assert v.token_id("b") == UNK_ID

    def test_unknown_maps_to_unk(self):
        v = Vocabulary.from_corpus(["a red square"])
        assert v.encode(["a", "blue", "square"])[1] == UNK_ID

    def test_save_load_round_trip(self, tmp_path):
        v = Vocabulary.from_corpus(["a red square at top left", "a blue circle"])
        path = tmp_path / "vocab.txt"
        v.save(path)
        lines = path.read_text().splitlines()
        assert lines[0] == v.token(4)  # line number = id - 4
        loaded = Vocabulary.load(path)
        assert loaded.encode(["red", "circle", "zzz"]) == v.encode(["red", "circle", "zzz"])
        assert len(loaded) == len(v)

    def test_load_drops_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes(b"\xef\xbb\xbfa\nred\n")
        loaded = Vocabulary.load(path)
        assert (loaded.token(4), loaded.token_id("a")) == ("a", 4)

    def test_load_rejects_bad_files(self, tmp_path):
        bad = tmp_path / "vocab.txt"
        bad.write_text("a\n\nb\n")
        with pytest.raises(VocabError, match="line 2"):
            Vocabulary.load(bad)
        bad.write_text("a\n<pad>\n")
        with pytest.raises(VocabError, match="reserved"):
            Vocabulary.load(bad)
        bad.write_text("a\na\n")
        with pytest.raises(VocabError, match="duplicate"):
            Vocabulary.load(bad)
        bad.write_bytes(b"a\n\xff\n")
        with pytest.raises(VocabError, match="vocab.txt: not UTF-8 text"):
            Vocabulary.load(bad)
        with pytest.raises(VocabError, match="cannot read vocabulary"):
            Vocabulary.load(tmp_path)

    @pytest.mark.parametrize("lines, message", [
        ("a\n\nb\n", "empty token on line 2"),
        ("a\n<pad>\n", "reserved token '<pad>' on line 2"),
        ("a\nb c\n", "invalid vocabulary token 'b c' on line 2"),
        ("a\nb\na\n", "duplicate vocabulary token 'a' on line 3"),
    ], ids=["empty", "reserved", "whitespace", "duplicate"])
    def test_every_bad_token_names_its_file_and_line(self, tmp_path, lines, message):
        bad = tmp_path / "vocab.txt"
        bad.write_text(lines, encoding="utf-8")
        with pytest.raises(VocabError) as info:
            Vocabulary.load(bad)
        assert str(info.value) == f"{bad}: {message}"

    def test_token_id_out_of_range(self):
        with pytest.raises(VocabError):
            Vocabulary([]).token(99)


class TestTokenSequence:
    def test_encode_caption_structure(self):
        v = Vocabulary.from_corpus(["a red square"])
        seq = encode_caption(v, "a red square", max_len=8)
        assert seq.ids[0] == BOS_ID and seq.ids[seq.length - 1] == EOS_ID
        assert seq.length == 5 and len(seq.ids) == 8
        assert all(i == PAD_ID for i in seq.ids[5:])
        assert seq.words() == tuple(v.encode(["a", "red", "square"]))

    def test_encode_caption_truncates_to_fit_eos(self):
        v = Vocabulary.from_corpus(["a b c d e f"])
        seq = encode_caption(v, "a b c d e f", max_len=5)
        assert len(seq.ids) == 5 and seq.ids[-1] == EOS_ID and seq.length == 5

    def test_invariants_are_enforced(self):
        with pytest.raises(ContractError):
            TokenSequence(ids=(4, 5, EOS_ID), length=3)  # no BOS
        with pytest.raises(ContractError):
            TokenSequence(ids=(BOS_ID, 4, 5), length=3)  # no EOS
        with pytest.raises(ContractError):
            TokenSequence(ids=(BOS_ID, PAD_ID, EOS_ID), length=3)  # PAD inside
        with pytest.raises(ContractError):
            TokenSequence(ids=(BOS_ID, EOS_ID, 4), length=2)  # token after EOS

    def test_minimal_sequence(self):
        seq = TokenSequence(ids=(BOS_ID, EOS_ID), length=2)
        assert seq.words() == ()


class TestMasks:
    def test_causal_and_pad_masking(self):
        mask = attention_masks([BOS_ID, 4, EOS_ID, PAD_ID]).data
        visible = mask == 0.0
        expected = np.array([
            [1, 0, 0, 0],
            [1, 1, 0, 0],
            [1, 1, 1, 0],
            [1, 1, 1, 0],  # PAD key masked even for the PAD query row
        ], dtype=bool)
        np.testing.assert_array_equal(visible, expected)

    def test_first_position_must_not_be_pad(self):
        with pytest.raises(ContractError):
            attention_masks([PAD_ID, 4])


def tiny_cfg(**kw):
    base = dict(vocab_size=9, dim=4, heads=2, depth=1, context_width=6)
    base.update(kw)
    return DecoderConfig(**base)


def seq(*word_ids, pad_to=None):
    ids = [BOS_ID, *word_ids, EOS_ID]
    length = len(ids)
    if pad_to:
        ids += [PAD_ID] * (pad_to - length)
    return TokenSequence(ids=tuple(ids), length=length)


class TestDecodeText:
    def test_output_is_hidden_states(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(0)
        params = init_decoder_params(cfg, rng)
        assert decode_text(seq(4, 5, 6), params, cfg).shape == (5, 4)
        batch = decode_text([seq(4, 5, 6), seq(7)], params, cfg, context=Tensor(rng.standard_normal((2, 3, 6))))
        assert batch.shape == (2, 5, 4)

    def test_causality_is_exact(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(1)
        params = init_decoder_params(cfg, rng)
        ctx = Tensor(rng.standard_normal((3, 6)))
        a = decode_text([BOS_ID, 4, 5, 6, EOS_ID], params, cfg, context=ctx)
        b = decode_text([BOS_ID, 4, 5, 8, EOS_ID], params, cfg, context=ctx)
        np.testing.assert_array_equal(a.data[:3], b.data[:3])
        assert not np.array_equal(a.data[3], b.data[3])

    def test_pad_positions_do_not_leak(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(2)
        params = init_decoder_params(cfg, rng)
        short = decode_text(seq(4, 5), params, cfg)
        padded = decode_text(seq(4, 5, pad_to=7), params, cfg)
        np.testing.assert_array_equal(short.data, padded.data[:4])

    def test_no_context_equals_zero_context_with_zero_values(self):
        cfg = tiny_cfg(depth=2)
        rng = np.random.default_rng(3)
        params = init_decoder_params(cfg, rng)
        tokens = seq(4, 5, 6)
        plain = decode_text(tokens, params, cfg, context=None)
        for key in list(params):
            if ".cross." in key and key.endswith(".wv"):
                params[key] = Tensor(np.zeros(params[key].shape), requires_grad=True)
        zeroed = decode_text(tokens, params, cfg, context=Tensor(np.zeros((4, 6))))
        np.testing.assert_array_equal(plain.data, zeroed.data)

    def test_context_changes_the_output(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(4)
        params = init_decoder_params(cfg, rng)
        tokens = seq(4, 5)
        without = decode_text(tokens, params, cfg)
        with_ctx = decode_text(tokens, params, cfg, context=Tensor(rng.standard_normal((3, 6))))
        assert not np.array_equal(without.data, with_ctx.data)

    def test_outputs_are_finite(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(5)
        params = init_decoder_params(cfg, rng)
        out = decode_text(seq(4, 5, 6, 7, pad_to=10), params, cfg,
                          context=Tensor(rng.standard_normal((4, 6)) * 10))
        assert np.all(np.isfinite(out.data))

    def test_rejects_bad_ids_and_context(self):
        cfg = tiny_cfg()
        params = init_decoder_params(cfg, np.random.default_rng(6))
        with pytest.raises(VocabError):
            decode_text([BOS_ID, 99, EOS_ID], params, cfg)
        with pytest.raises(ConfigError):
            decode_text(seq(4), params, cfg, context=Tensor(np.zeros((3, 5))))
        with pytest.raises(ContractError):
            decode_text([], params, cfg)

    @pytest.mark.parametrize("ids", [[PAD_ID], [PAD_ID, 4], [[BOS_ID], [PAD_ID]], [[BOS_ID, 4], [PAD_ID, 4]]])
    def test_a_fresh_cache_rejects_a_leading_pad_at_any_length(self, ids):
        cfg = tiny_cfg()
        params = init_decoder_params(cfg, np.random.default_rng(10))
        ids = np.array(ids)
        context = Tensor(np.zeros(ids.shape[:-1] + (3, 6)))
        with pytest.raises(ContractError, match="first position must not be PAD"):
            decode_text(ids, params, cfg, context=context)
        with pytest.raises(ContractError, match="first position must not be PAD"):
            decode_text(ids, params, cfg, context=context, cache=DecoderCache(image=np.arange(math.prod(ids.shape[:-1]))))

    @pytest.mark.parametrize("with_context", [True, False])
    def test_one_position_at_a_time_through_a_cache_is_the_teacher_forced_pass(self, with_context):
        cfg = tiny_cfg(depth=2)
        rng = np.random.default_rng(8)
        params = init_decoder_params(cfg, rng)
        ids = np.array([[BOS_ID, 4, 5, 6, EOS_ID], [BOS_ID, 7, 8, 4, 5]])
        ctx = Tensor(rng.standard_normal((2, 3, 6))) if with_context else None
        full = decode_text(ids, params, cfg, context=ctx).data
        cache = DecoderCache(image=np.arange(2))
        for pos in range(ids.shape[1]):
            step = decode_text(ids[:, pos:pos + 1], params, cfg, context=ctx, cache=cache).data
            assert step.shape == (2, 1, 4)
            np.testing.assert_allclose(step[:, 0], full[:, pos], rtol=0, atol=1e-12)
        assert cache.length == ids.shape[1]
        assert len(cache.cross) == (2 if with_context else 0)
        cache = DecoderCache(image=np.arange(2))  # a prefill of three positions, then one at a time
        prefill = decode_text(ids[:, :3], params, cfg, context=ctx, cache=cache).data
        np.testing.assert_array_equal(prefill, full[:, :3])
        for pos in range(3, ids.shape[1]):
            step = decode_text(ids[:, pos:pos + 1], params, cfg, context=ctx, cache=cache).data
            np.testing.assert_allclose(step[:, 0], full[:, pos], rtol=0, atol=1e-12)

    def test_a_filled_cache_takes_one_position_per_row(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(9)
        params = init_decoder_params(cfg, rng)
        ctx = Tensor(rng.standard_normal((2, 3, 6)))
        cache = DecoderCache(image=np.arange(2))
        decode_text(np.array([[BOS_ID], [BOS_ID]]), params, cfg, context=ctx, cache=cache)
        with pytest.raises(ContractError, match="one at a time"):
            decode_text(np.array([[4, 5], [6, 7]]), params, cfg, context=ctx, cache=cache)
        with pytest.raises(ContractError, match="for a cache of 2 rows"):
            decode_text(np.array([[4]]), params, cfg, context=ctx, cache=cache)
        with pytest.raises(ConfigError, match="context"):  # checked by the call that projects
            decode_text(np.array([[BOS_ID], [BOS_ID]]), params, cfg, context=Tensor(np.zeros((2, 3, 5))),
                        cache=DecoderCache(image=np.arange(2)))

    def test_a_partial_context_covers_the_first_rows(self):
        cfg = tiny_cfg(depth=2)
        rng = np.random.default_rng(12)
        params = init_decoder_params(cfg, rng)
        ids = np.array([[BOS_ID, 4, 5, EOS_ID], [BOS_ID, 7, EOS_ID, PAD_ID], [BOS_ID, 6, 8, 4]])
        ctx = Tensor(rng.standard_normal((2, 3, 6)), requires_grad=True)
        mixed = decode_text(ids, params, cfg, context=ctx).data
        np.testing.assert_allclose(mixed[:2], decode_text(ids[:2], params, cfg, context=ctx).data, atol=1e-12, rtol=0)
        np.testing.assert_allclose(mixed[2:], decode_text(ids[2:], params, cfg).data, atol=1e-12, rtol=0)
        probe = Tensor(rng.standard_normal(mixed.shape))
        check_grads(lambda: mean(mul(decode_text(ids, params, cfg, context=ctx), probe)),
                    [ctx] + list(params.values()), tol=1e-5)
        with pytest.raises(ContractError, match="partial context"):
            decode_text(ids, params, cfg, context=ctx, cache=DecoderCache(image=np.arange(3)))
        for maps in (0, 4):
            with pytest.raises(ConfigError, match="context"):
                decode_text(ids, params, cfg, context=Tensor(np.zeros((maps, 3, 6))))

    @pytest.mark.parametrize("with_context", [True, False])
    def test_a_filled_cache_step_cannot_be_recorded(self, with_context):
        cfg = tiny_cfg(depth=2)
        rng = np.random.default_rng(11)
        params = init_decoder_params(cfg, rng)
        ctx = Tensor(rng.standard_normal((2, 3, 6))) if with_context else None
        cache = DecoderCache(image=np.arange(2))
        with Tape() as tape:
            decode_text(np.array([[BOS_ID], [BOS_ID]]), params, cfg, context=ctx, cache=cache)  # a prefill records
            assert len(tape) > 0
            with pytest.raises(ContractError, match="generation-only"):
                decode_text(np.array([[4], [5]]), params, cfg, context=ctx, cache=cache)
        assert cache.length == 1 and all(k.shape[2] == 1 for k, _ in cache.past)
        decode_text(np.array([[4], [5]]), params, cfg, context=ctx, cache=cache)  # the same step, untaped
        assert cache.length == 2

    def test_gradients_match_finite_differences(self):
        cfg = tiny_cfg()
        rng = np.random.default_rng(7)
        params = init_decoder_params(cfg, rng)
        ctx = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        tokens = seq(4, 5, 6)

        def build():
            out = decode_text(tokens, params, cfg, context=ctx)
            return mean(mul(out, out))

        check_grads(build, [ctx] + list(params.values()), tol=1e-5)

    def test_config_validation(self):
        for bad in (
            dict(vocab_size=3),
            dict(dim=5),
            dict(heads=3),
            dict(depth=0),
            dict(context_width=0),
        ):
            with pytest.raises(ConfigError):
                tiny_cfg(**bad)
