"""Tests for the binary checkpoint format.

Round trips must be bitwise; resuming from a checkpoint must continue a
run exactly as if it had never stopped; structural damage and any
corruption of header or payload must raise IntegrityError, never produce
silently wrong parameters.
"""

import json
import re
import struct
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualcap import checkpoint, init
from dualcap.autograd import Tensor
from dualcap.checkpoint import (
    MAGIC,
    load_checkpoint,
    load_model,
    model_from_checkpoint,
    save_checkpoint,
    save_model,
)
from dualcap.data import make_synthetic
from dualcap.encoder import EncoderConfig
from dualcap.errors import ConfigError, ContractError, IntegrityError
from dualcap.model import ModelConfig, build_model, set_channel_stats
from dualcap.textdec import DecoderConfig, Vocabulary
from dualcap.train import AdamState, TrainConfig, fit, generate, sequence_text, training_pairs


def small_setup(seed=1):
    ds = make_synthetic(4, grid=8, seed=0)
    vocab = Vocabulary.from_corpus([c for _, c in ds.caption_pairs("train")])
    enc = EncoderConfig(image_size=8, patch_size=4, image_channels=3, dim=8,
                        heads=2, window_patches=2, groups=2, depth=1)
    dec = DecoderConfig(vocab_size=len(vocab), dim=8, heads=2, depth=1,
                        context_width=enc.feature_width)
    model = build_model(ModelConfig(encoder=enc, decoder=dec, joint_dim=4), vocab, seed=seed)
    set_channel_stats(model, ds.mean, ds.std)
    pairs = training_pairs(ds, vocab)
    return ds, vocab, model, pairs, TrainConfig(lr=0.003, batch_size=4)


class TestRoundTrip:
    def test_params_restore_bitwise(self, tmp_path):
        _, vocab, model, pairs, cfg = small_setup()
        state, _ = fit(model, pairs, cfg, steps=3)
        path = tmp_path / "model.ckpt"
        save_model(path, model, state)
        ckpt = load_checkpoint(path)
        assert ckpt.step == 3
        assert set(ckpt.params) == set(model.params)
        for name, t in model.params.items():
            assert ckpt.params[name].tobytes() == t.data.tobytes()
        assert (ckpt.m.tobytes(), ckpt.v.tobytes()) == (state.m.tobytes(), state.v.tobytes())
        assert not ckpt.m.flags.writeable and not ckpt.v.flags.writeable

    def test_same_state_same_bytes(self, tmp_path):
        _, _, model, pairs, cfg = small_setup()
        state, _ = fit(model, pairs, cfg, steps=2)
        save_model(tmp_path / "a.ckpt", model, state)
        save_model(tmp_path / "b.ckpt", model, state)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_config_snapshot_round_trips(self, tmp_path):
        _, vocab, model, _, _ = small_setup()
        save_model(tmp_path / "m.ckpt", model, extra={"note": {"k": [1, 2]}})
        ckpt = load_checkpoint(tmp_path / "m.ckpt")
        assert ModelConfig.from_dict(ckpt.config["model"]) == model.cfg
        assert ckpt.config["note"] == {"k": [1, 2]}

    def test_without_state_step_is_zero(self, tmp_path):
        _, vocab, model, _, _ = small_setup()
        save_model(tmp_path / "m.ckpt", model)
        ckpt = load_checkpoint(tmp_path / "m.ckpt")
        assert ckpt.step == 0
        assert ckpt.m is None and ckpt.v is None
        _, state, _ = load_model(tmp_path / "m.ckpt", vocab)
        assert not state.m.any() and not state.v.any() and state.m.shape == state.v.shape == model.flat.shape

    def test_load_model_rebuilds_equivalent_model(self, tmp_path):
        _, vocab, model, pairs, cfg = small_setup()
        state, _ = fit(model, pairs, cfg, steps=4)
        save_model(tmp_path / "m.ckpt", model, state)
        restored, rstate, _ = load_model(tmp_path / "m.ckpt", vocab)
        assert restored.cfg == model.cfg
        assert rstate.step == 4
        for name in model.params:
            np.testing.assert_array_equal(restored.params[name].data, model.params[name].data)
        a = sequence_text(vocab, generate(model, pairs[0].image, max_len=10))
        b = sequence_text(vocab, generate(restored, pairs[0].image, max_len=10))
        assert a == b

    def test_a_learned_position_model_round_trips(self, tmp_path):
        ds, vocab, model, pairs, cfg = small_setup()
        learned = build_model(replace(model.cfg, encoder=replace(model.cfg.encoder, pos_encoding="learned")), vocab, seed=1)
        set_channel_stats(learned, ds.mean, ds.std)
        state, _ = fit(learned, pairs, cfg, steps=4)
        save_model(tmp_path / "m.ckpt", learned, state)
        restored, rstate, _ = load_model(tmp_path / "m.ckpt", vocab)
        assert restored.cfg == learned.cfg and "enc.pos" in restored.params
        assert {name: t.data.tobytes() for name, t in restored.params.items()} == \
            {name: t.data.tobytes() for name, t in learned.params.items()}
        assert (rstate.m.tobytes(), rstate.v.tobytes()) == (state.m.tobytes(), state.v.tobytes())
        for beam_width in (1, 3):
            captions = [[sequence_text(vocab, generate(m, p.image, max_len=10, beam_width=beam_width)) for p in pairs]
                        for m in (learned, restored)]
            assert captions[0] == captions[1]


class TestResume:
    def test_resumed_training_matches_uninterrupted(self, tmp_path):
        _, vocab, solo, pairs, cfg = small_setup(seed=5)
        _, hist_solo = fit(solo, pairs, cfg, steps=10)

        _, _, first, pairs2, _ = small_setup(seed=5)
        state, hist_a = fit(first, pairs2, cfg, steps=6)
        save_model(tmp_path / "mid.ckpt", first, state)

        resumed, rstate, _ = load_model(tmp_path / "mid.ckpt", vocab)
        _, hist_b = fit(resumed, pairs2, cfg, steps=4, state=rstate)
        assert hist_solo == hist_a + hist_b
        for name in solo.params:
            np.testing.assert_array_equal(solo.params[name].data, resumed.params[name].data)


def per_array_checkpoint(params: dict, config: dict, step: int, m: np.ndarray, v: np.ndarray) -> bytes:
    """Format 4 bytes built one value at a time, from the layout alone."""
    header = {
        "format": 4,
        "step": step,
        "config": config,
        "arrays": [{"name": name, "shape": list(t.shape)} for name, t in params.items()],
        "moments": len(m),
    }
    values = [float(x) for t in params.values() for x in t.data.flat] + [float(x) for x in m] + [float(x) for x in v]
    payload = struct.pack(f"<{len(values)}d", *values)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return MAGIC + struct.pack("<II", len(blob), zlib.crc32(blob + payload)) + blob + payload


class TestFlatMoments:
    @pytest.mark.parametrize("weight", [0.5, 0.0])
    def test_bytes_equal_the_per_array_writer(self, tmp_path, weight):
        _, _, model, pairs, cfg = small_setup()
        state, _ = fit(model, pairs, replace(cfg, contrastive_weight=weight), steps=3)
        save_model(tmp_path / "m.ckpt", model, state, extra={"seed": 1})
        expected = per_array_checkpoint(model.params, {"model": model.cfg.to_dict(), "seed": 1}, state.step, state.m, state.v)
        assert (tmp_path / "m.ckpt").read_bytes() == expected


def split_file(data: bytes) -> tuple[dict, bytes, bytes]:
    """(header, payload, stored CRC-32 bytes) of a checkpoint's bytes."""
    (hlen,) = struct.unpack("<I", data[4:8])
    return json.loads(data[12:12 + hlen]), data[12 + hlen:], data[8:12]


def join_file(header: dict, payload: bytes, crc: bytes) -> bytes:
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return MAGIC + struct.pack("<I", len(blob)) + crc + blob + payload


class TestCorruption:
    def make_file(self, tmp_path):
        _, _, model, pairs, cfg = small_setup()
        state, _ = fit(model, pairs, cfg, steps=1)
        path = tmp_path / "m.ckpt"
        save_model(path, model, state)
        return path, model

    def test_bad_magic(self, tmp_path):
        path, _ = self.make_file(tmp_path)
        data = path.read_bytes()
        path.write_bytes(b"NOPE" + data[4:])
        with pytest.raises(IntegrityError, match="magic"):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path, _ = self.make_file(tmp_path)
        path.write_bytes(path.read_bytes()[:6])
        with pytest.raises(IntegrityError, match="magic|header"):
            load_checkpoint(path)

    def test_header_length_beyond_file(self, tmp_path):
        path, _ = self.make_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", len(data) * 2)
        path.write_bytes(bytes(data))
        with pytest.raises(IntegrityError, match="header length"):
            load_checkpoint(path)

    def test_garbled_json(self, tmp_path):
        path, _ = self.make_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[12] = ord("X")
        path.write_bytes(bytes(data))
        with pytest.raises(IntegrityError, match="corrupt header"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path, _ = self.make_file(tmp_path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(IntegrityError, match="past end"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path, _ = self.make_file(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(IntegrityError, match="trailing"):
            load_checkpoint(path)

    def edit_header(self, tmp_path, edit):
        path, _ = self.make_file(tmp_path)
        header, payload, crc = split_file(path.read_bytes())
        edit(header)
        path.write_bytes(join_file(header, payload, crc))
        return path

    @pytest.mark.parametrize("key, value", [
        ("shape", "ab"), ("shape", 5), ("shape", [1.5]), ("shape", [True]), ("shape", None),
        ("name", ["fuse", "img"]), ("name", 7),
    ])
    def test_manifest_values_of_the_wrong_type(self, tmp_path, key, value):
        path = self.edit_header(tmp_path, lambda h: h["arrays"][0].__setitem__(key, value))
        with pytest.raises(IntegrityError, match=f"malformed manifest entry: .*'{key}': {re.escape(repr(value))}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("entry", [["enc.patch.w", [48, 8]], {"name": "enc.patch.w"}, {"shape": [48, 8]}, 5])
    def test_a_manifest_entry_that_is_not_a_name_and_a_shape(self, tmp_path, entry):
        path = self.edit_header(tmp_path, lambda h: h["arrays"].__setitem__(0, entry))
        with pytest.raises(IntegrityError, match=f"malformed manifest entry: {re.escape(repr(entry))}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", ["x", None, 1.5, True, [1]])
    def test_a_step_that_is_not_an_int(self, tmp_path, value):
        path = self.edit_header(tmp_path, lambda h: h.__setitem__("step", value))
        with pytest.raises(IntegrityError, match=f"step {re.escape(repr(value))} is not an integer"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", ["0", 0.0, None, True, [1]])
    def test_a_moment_count_that_is_not_an_int(self, tmp_path, value):
        path = self.edit_header(tmp_path, lambda h: h.__setitem__("moments", value))
        with pytest.raises(IntegrityError, match=f"moments {re.escape(repr(value))} is not an integer"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["step", "moments"])
    def test_a_negative_step_or_moment_count(self, tmp_path, key):
        path = self.edit_header(tmp_path, lambda h: h.__setitem__(key, -1))
        with pytest.raises(IntegrityError, match=f"{key} -1 is not an integer >= 0"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["step", "config", "arrays", "moments"])
    def test_a_missing_header_key(self, tmp_path, key):
        path = self.edit_header(tmp_path, lambda h: h.pop(key))
        with pytest.raises(IntegrityError, match=f"header missing '{key}'"):
            load_checkpoint(path)

    def test_a_moment_count_the_payload_does_not_hold(self, tmp_path):
        path = self.edit_header(tmp_path, lambda h: h.__setitem__("moments", h["moments"] + 1))
        moments = split_file(path.read_bytes())[0]["moments"]
        with pytest.raises(IntegrityError, match=f"moments of {moments} values each run past end of payload"):
            load_checkpoint(path)

    def test_a_negative_shape(self, tmp_path):
        # the product, 12, is a size the payload holds, so only the sign check catches it
        path = self.edit_header(tmp_path, lambda h: h["arrays"][0].__setitem__("shape", [-2, -6]))
        with pytest.raises(IntegrityError, match=r"malformed manifest entry: .*'shape': \[-2, -6\]"):
            load_checkpoint(path)

    def test_a_duplicate_name(self, tmp_path):
        path = self.edit_header(tmp_path, lambda h: h["arrays"][1].__setitem__("name", h["arrays"][0]["name"]))
        with pytest.raises(IntegrityError, match="duplicate array 'enc.patch.w'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [("config", [1]), ("arrays", {"a": 1}), ("arrays", 5)])
    def test_config_and_manifest_of_the_wrong_type(self, tmp_path, key, value):
        path = self.edit_header(tmp_path, lambda h: h.__setitem__(key, value))
        with pytest.raises(IntegrityError, match="config must be an object and arrays a list"):
            load_checkpoint(path)

    def test_a_shape_whose_size_overflows_int64_runs_past_the_payload(self, tmp_path):
        # np.prod in int64 wraps 2**64 to 0; the exact size is far past the end
        path = self.edit_header(tmp_path, lambda h: h["arrays"][0].__setitem__("shape", [2**32, 2**32]))
        name = split_file(path.read_bytes())[0]["arrays"][0]["name"]
        with pytest.raises(IntegrityError, match=f"array '{re.escape(name)}' runs past end of payload"):
            load_checkpoint(path)

    def test_header_edit_fails_the_crc(self, tmp_path):
        # a well-formed header with a changed step parses; only the CRC-32 catches it
        path, _ = self.make_file(tmp_path)
        header, payload, crc = split_file(path.read_bytes())
        header["step"] += 1
        path.write_bytes(join_file(header, payload, crc))
        with pytest.raises(IntegrityError, match="CRC-32"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IntegrityError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_a_missing_parameter_is_named(self, tmp_path):
        path, model = self.make_file(tmp_path)
        ckpt = load_checkpoint(path)
        del ckpt.params["fuse.img.w"]
        with pytest.raises(IntegrityError, match=r"missing \['fuse.img.w'\]"):
            model_from_checkpoint(ckpt, model.vocab)

    def test_a_parameter_of_another_shape_is_refused(self, tmp_path):
        path, model = self.make_file(tmp_path)
        ckpt = load_checkpoint(path)
        ckpt.params["fuse.img.b"] = np.zeros(7)
        with pytest.raises(IntegrityError, match=r"param array 'fuse.img.b' of shape \(7,\) fits no parameter "
                                                 r"of the model \(expected 'fuse.img.b' of shape \(4,\)\)"):
            model_from_checkpoint(ckpt, model.vocab)

    def test_parameters_in_another_order_are_refused(self, tmp_path):
        path, model = self.make_file(tmp_path)
        ckpt = load_checkpoint(path)
        ckpt.params["enc.patch.w"] = ckpt.params.pop("enc.patch.w")
        second = list(model.params)[1]
        with pytest.raises(IntegrityError, match=f"param array '{re.escape(second)}' .* \\(expected 'enc.patch.w'"):
            model_from_checkpoint(ckpt, model.vocab)

    def test_an_extra_parameter_is_refused(self, tmp_path):
        path, model = self.make_file(tmp_path)
        ckpt = load_checkpoint(path)
        ckpt.params["fuse.other.b"] = np.zeros(4)
        with pytest.raises(IntegrityError, match=r"param array 'fuse.other.b' of shape \(4,\) fits no parameter of the model$"):
            model_from_checkpoint(ckpt, model.vocab)

    def test_parameters_are_copies_of_the_read_only_file_views(self, tmp_path):
        path, model = self.make_file(tmp_path)
        ckpt = load_checkpoint(path)
        assert not any(arr.flags.writeable for arr in ckpt.params.values())
        restored, _ = model_from_checkpoint(ckpt, model.vocab)
        for name, t in restored.params.items():
            assert t.data.flags.writeable and not np.shares_memory(t.data, ckpt.params[name])
            assert t.data.tobytes() == ckpt.params[name].tobytes()

    def test_moments_are_copies(self, tmp_path):
        path, model = self.make_file(tmp_path)
        ckpt = load_checkpoint(path)
        restored, state = model_from_checkpoint(ckpt, model.vocab)
        assert isinstance(state, AdamState) and state.step == 1
        assert state.m.shape == state.v.shape == restored.flat.shape
        for stored, buffer in ((ckpt.m, state.m), (ckpt.v, state.v)):
            assert buffer.flags.writeable and not np.shares_memory(buffer, stored)
            assert buffer.tobytes() == stored.tobytes()

    @pytest.mark.parametrize("flipped", ["fuse.log_temp", "norm.mean"])
    def test_a_stored_moment_that_fits_no_parameter_is_an_integrity_error(self, tmp_path, flipped):
        # moments written for a model that trains one parameter fewer or more
        _, vocab, model, pairs, cfg = small_setup()
        state, _ = fit(model, pairs, cfg, steps=1)
        params = {name: Tensor(t.data, not t.requires_grad) if name == flipped else t for name, t in model.params.items()}
        size = sum(t.size for t in params.values() if t.requires_grad)
        save_checkpoint(tmp_path / "m.ckpt", params, {"model": model.cfg.to_dict()},
                        AdamState(state.step, np.resize(state.m, size), np.resize(state.v, size)))
        assert load_checkpoint(tmp_path / "m.ckpt").m.size == size != model.flat.size
        with pytest.raises(IntegrityError, match=f"moments of {size} values each do not fit "
                                                 f"the model's {model.flat.size} trainable values"):
            load_model(tmp_path / "m.ckpt", vocab)

    def test_moments_that_do_not_match_the_parameters_are_refused(self, tmp_path):
        _, _, model, pairs, cfg = small_setup()
        state, _ = fit(model, pairs, cfg, steps=1)
        with pytest.raises(ContractError, match="moments of shapes"):
            save_model(tmp_path / "m.ckpt", model, AdamState(state.step, state.m[:-1], state.v[:-1]))
        assert list(tmp_path.iterdir()) == []


def readme_file(tmp_path, section=None, key=None, value=None):
    """A README-sized checkpoint with Adam moments; a given model config key is set to value, the CRC-32 made to match."""
    vocab = Vocabulary([f"w{i}" for i in range(13)])
    enc = EncoderConfig(image_size=16, patch_size=4, dim=16)
    dec = DecoderConfig(vocab_size=len(vocab), dim=16, context_width=enc.feature_width)
    model = build_model(ModelConfig(encoder=enc, decoder=dec, joint_dim=8), vocab, seed=1)
    path = tmp_path / "readme.ckpt"
    save_model(path, model, AdamState(2, np.full_like(model.flat, 0.5), np.full_like(model.flat, 0.25)))
    header, payload, _ = split_file(path.read_bytes())
    if key is not None:
        model_config = header["config"]["model"]
        (model_config[section] if section else model_config)[key] = value
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(join_file(header, payload, struct.pack("<I", zlib.crc32(payload, zlib.crc32(blob)))))
    return path, model


class TestLoadBuildsNothing:
    def test_a_load_draws_no_random_values(self, tmp_path, monkeypatch):
        path, model = readme_file(tmp_path)

        def no_draws(*args, **kwargs):
            raise AssertionError("a load drew random values")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        monkeypatch.setattr(init.Param, "draw", no_draws)
        restored, state, _ = load_model(path, model.vocab)
        assert restored.flat.tobytes() == model.flat.tobytes()
        assert [(n, t.shape, t.data.tobytes()) for n, t in restored.params.items()] == [
            (n, t.shape, t.data.tobytes()) for n, t in model.params.items()]
        assert state.step == 2 and np.all(state.m == 0.5) and np.all(state.v == 0.25)

    def test_a_config_larger_than_the_file_allocates_nothing(self, tmp_path):
        path, model = readme_file(tmp_path, None, "joint_dim", 10**12)  # fuse.img.w would be about 233 TiB
        tracemalloc.start()
        try:
            with pytest.raises(IntegrityError, match=re.escape(
                    f"param array 'fuse.img.w' of shape (32, 8) fits no parameter of the model "
                    f"(expected 'fuse.img.w' of shape (32, {10**12}))")):
                load_model(path, model.vocab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_a_config_with_far_more_parameters_than_the_file_is_refuted_from_its_first_rows(self, tmp_path):
        path, model = readme_file(tmp_path, "encoder", "depth", 10**12)
        with pytest.raises(IntegrityError, match=r"missing \[.*'enc\.b0\.proj\.w'.*\] and more$"):
            load_model(path, model.vocab)

    def test_a_vocabulary_of_another_size_is_a_config_error(self, tmp_path):
        path, _ = readme_file(tmp_path)
        with pytest.raises(ConfigError, match="vocabulary has 6 tokens, config says 17"):
            load_model(path, Vocabulary(["red", "dot"]))


class _TornFile:
    """A file whose write stores half the bytes and then fails, like a full disk."""

    def __init__(self, path, mode):
        self.f = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[:len(data) // 2])
        raise OSError("disk full")


class TestAtomicWrite:
    @pytest.mark.parametrize("failure", ["write", "rename"])
    def test_failed_save_keeps_the_previous_file(self, tmp_path, monkeypatch, failure):
        _, _, model, pairs, cfg = small_setup()
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        before = path.read_bytes()
        state, _ = fit(model, pairs, cfg, steps=1)
        if failure == "write":
            monkeypatch.setattr(checkpoint, "open", _TornFile, raising=False)
        else:
            def failing_replace(src, dst):
                raise OSError("rename failed")

            monkeypatch.setattr(checkpoint.os, "replace", failing_replace)
        with pytest.raises(OSError):
            save_model(path, model, state)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    """A tiny checkpoint (two params with Adam moments): path, bytes, payload start."""
    rng = np.random.default_rng(0)
    params = {"a": Tensor(rng.standard_normal((2, 3)), True), "b": Tensor(rng.standard_normal(4), True)}
    state = AdamState(step=3, m=rng.standard_normal(10), v=rng.random(10))
    path = tmp_path_factory.mktemp("fuzz") / "c.ckpt"
    save_checkpoint(path, params, {"model": {"dim": 8}, "seed": 0}, state)
    data = path.read_bytes()
    return path, data, 12 + struct.unpack("<I", data[4:8])[0]


FUZZ = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def flip(data: bytes, pos: int, bit: int) -> bytes:
    flipped = bytearray(data)
    flipped[pos] ^= 1 << bit
    return bytes(flipped)


class TestFuzz:
    @FUZZ
    @given(draw=st.data())
    def test_truncation_raises_integrity_error(self, fuzz_file, draw):
        path, data, _ = fuzz_file
        path.write_bytes(data[:draw.draw(st.integers(0, len(data) - 1))])
        with pytest.raises(IntegrityError):
            load_checkpoint(path)

    @FUZZ
    @given(draw=st.data(), bit=st.integers(0, 7))
    def test_bit_flip_raises_only_integrity_error(self, fuzz_file, draw, bit):
        path, data, _ = fuzz_file
        path.write_bytes(flip(data, draw.draw(st.integers(0, len(data) - 1)), bit))
        with pytest.raises(IntegrityError):
            load_checkpoint(path)

    @FUZZ
    @given(draw=st.data(), bit=st.integers(0, 7))
    def test_payload_bit_flip_always_raises(self, fuzz_file, draw, bit):
        path, data, payload_start = fuzz_file
        path.write_bytes(flip(data, draw.draw(st.integers(payload_start, len(data) - 1)), bit))
        with pytest.raises(IntegrityError, match="CRC-32"):
            load_checkpoint(path)
