"""Tests for the binary checkpoint format.

Round trips must be bitwise; resuming from a checkpoint must continue a
run exactly as if it had never stopped; structural damage and any
corruption of header or payload must raise IntegrityError, never produce
silently wrong parameters.
"""

import json
import re
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualcap import checkpoint
from dualcap.autograd import Tensor
from dualcap.checkpoint import (
    MAGIC,
    adam_state,
    load_checkpoint,
    load_into,
    load_model,
    save_checkpoint,
    save_model,
)
from dualcap.data import make_synthetic
from dualcap.encoder import EncoderConfig
from dualcap.errors import ContractError, IntegrityError
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


def per_name(trainable: dict, buffer: np.ndarray) -> dict[str, bytes]:
    """The bytes of each trainable parameter's run of a flat buffer, in order, sized by its tensor."""
    out, start = {}, 0
    for name, t in trainable.items():
        out[name] = buffer[start:start + t.size].tobytes()
        start += t.size
    assert start == buffer.size
    return out


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
        for stored, buffer in ((ckpt.adam_m, state.m), (ckpt.adam_v, state.v)):
            assert {name: arr.tobytes() for name, arr in stored.items()} == per_name(model.trainable(), buffer)

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
        _, _, model, _, _ = small_setup()
        save_model(tmp_path / "m.ckpt", model)
        ckpt = load_checkpoint(tmp_path / "m.ckpt")
        assert ckpt.step == 0
        assert ckpt.adam_m == {} and ckpt.adam_v == {}

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


def per_array_checkpoint(params: dict, config: dict, step: int, m: dict, v: dict) -> bytes:
    """Format 3 bytes written one array at a time: the writer from before the flat moment buffers."""
    arrays = [(name, "param", t.data) for name, t in params.items()]
    arrays.extend((name, "adam_m", arr) for name, arr in m.items())
    arrays.extend((name, "adam_v", arr) for name, arr in v.items())
    manifest, chunks, offset = [], [], 0
    for name, kind, arr in arrays:
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        manifest.append({"name": name, "kind": kind, "shape": list(arr.shape), "offset": offset})
        chunks.append(raw)
        offset += len(raw)
    header = {"format": 3, "step": step, "config": config, "arrays": manifest}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(b"".join(chunks), zlib.crc32(blob))
    return b"".join([MAGIC, struct.pack("<II", len(blob), crc), blob, *chunks])


class TestFlatMoments:
    @pytest.mark.parametrize("weight", [0.5, 0.0])
    def test_bytes_equal_the_per_array_writer(self, tmp_path, weight):
        _, _, model, pairs, cfg = small_setup()
        state, _ = fit(model, pairs, replace(cfg, contrastive_weight=weight), steps=3)
        save_model(tmp_path / "m.ckpt", model, state, extra={"seed": 1})
        trainable = model.trainable()
        m, v = (
            {name: np.frombuffer(raw).reshape(trainable[name].shape) for name, raw in per_name(trainable, buffer).items()}
            for buffer in (state.m, state.v)
        )
        expected = per_array_checkpoint(model.params, {"model": model.cfg.to_dict(), "seed": 1}, state.step, m, v)
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

    def test_unknown_kind(self, tmp_path):
        path, _ = self.make_file(tmp_path)
        header, payload, crc = split_file(path.read_bytes())
        header["arrays"][0]["kind"] = "momentum"
        path.write_bytes(join_file(header, payload, crc))
        with pytest.raises(IntegrityError, match="kind"):
            load_checkpoint(path)

    def test_wrong_offset(self, tmp_path):
        path, _ = self.make_file(tmp_path)
        header, payload, crc = split_file(path.read_bytes())
        header["arrays"][1]["offset"] += 8
        path.write_bytes(join_file(header, payload, crc))
        with pytest.raises(IntegrityError, match="offset"):
            load_checkpoint(path)

    def edit_header(self, tmp_path, edit):
        path, _ = self.make_file(tmp_path)
        header, payload, crc = split_file(path.read_bytes())
        edit(header)
        path.write_bytes(join_file(header, payload, crc))
        return path

    @pytest.mark.parametrize("key, value", [
        ("shape", "ab"), ("shape", 5), ("shape", [1.5]), ("shape", [True]), ("shape", None),
        ("name", ["fuse", "img"]), ("name", 7), ("offset", "0"), ("offset", 0.0), ("offset", None),
    ])
    def test_manifest_values_of_the_wrong_type(self, tmp_path, key, value):
        path = self.edit_header(tmp_path, lambda h: h["arrays"][0].__setitem__(key, value))
        with pytest.raises(IntegrityError, match=f"malformed manifest entry: .*'{key}': {re.escape(repr(value))}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", ["x", None, 1.5, True, [1]])
    def test_a_step_that_is_not_an_int(self, tmp_path, value):
        path = self.edit_header(tmp_path, lambda h: h.__setitem__("step", value))
        with pytest.raises(IntegrityError, match=f"step {re.escape(repr(value))} is not an integer"):
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

    def test_load_into_name_mismatch(self, tmp_path):
        path, model = self.make_file(tmp_path)
        ckpt = load_checkpoint(path)
        del ckpt.params["fuse.img.w"]
        with pytest.raises(IntegrityError, match="missing"):
            load_into(model, ckpt)

    def test_load_into_shape_mismatch(self, tmp_path):
        path, model = self.make_file(tmp_path)
        ckpt = load_checkpoint(path)
        ckpt.params["fuse.img.b"] = np.zeros(7)
        with pytest.raises(IntegrityError, match="shape"):
            load_into(model, ckpt)

    def test_load_into_copies_the_read_only_file_views(self, tmp_path):
        path, model = self.make_file(tmp_path)
        ckpt = load_checkpoint(path)
        assert not any(arr.flags.writeable for arr in ckpt.params.values())
        load_into(model, ckpt)
        for name, t in model.params.items():
            assert t.data.flags.writeable and not np.shares_memory(t.data, ckpt.params[name])
            assert t.data.tobytes() == ckpt.params[name].tobytes()

    def test_adam_state_copies(self, tmp_path):
        path, model = self.make_file(tmp_path)
        ckpt = load_checkpoint(path)
        state = adam_state(ckpt, model)
        assert isinstance(state, AdamState) and state.step == 1
        assert state.m.shape == state.v.shape == model.flat.shape
        assert state.m.flags.writeable and not np.shares_memory(state.m, ckpt.adam_m["fuse.img.w"])
        name = next(iter(ckpt.adam_m))
        state.m[...] = 0.0
        assert not np.array_equal(state.m[:ckpt.adam_m[name].size], ckpt.adam_m[name].reshape(-1)) \
            or not ckpt.adam_m[name].any()

    def test_missing_moments_load_as_zeros(self, tmp_path):
        _, vocab, model, pairs, cfg = small_setup()
        state, _ = fit(model, pairs, cfg, steps=2)
        # as written before every trainable had moments: fuse.log_temp, last in the layout, without
        params = {name: Tensor(t.data) if name == "fuse.log_temp" else t for name, t in model.params.items()}
        save_checkpoint(tmp_path / "m.ckpt", params, {"model": model.cfg.to_dict()},
                        AdamState(state.step, state.m[:-1], state.v[:-1]))
        assert "fuse.log_temp" not in load_checkpoint(tmp_path / "m.ckpt").adam_m
        restored, rstate, _ = load_model(tmp_path / "m.ckpt", vocab)
        assert rstate.m[-1] == 0.0 and rstate.v[-1] == 0.0
        assert rstate.m[:-1].tobytes() == state.m[:-1].tobytes()
        assert rstate.v[:-1].tobytes() == state.v[:-1].tobytes()

    @pytest.mark.parametrize("change", ["shape", "name"])
    def test_a_stored_moment_that_fits_no_parameter_is_an_integrity_error(self, tmp_path, change):
        path, model = self.make_file(tmp_path)
        ckpt = load_checkpoint(path)
        if change == "shape":
            ckpt.adam_v["fuse.img.b"] = np.zeros(7)
        else:
            ckpt.adam_m["fuse.other.b"] = ckpt.adam_m.pop("fuse.img.b")
        with pytest.raises(IntegrityError, match="'fuse.(img|other).b' of shape"):
            adam_state(ckpt, model)

    def test_moments_that_do_not_match_the_parameters_are_refused(self, tmp_path):
        _, _, model, pairs, cfg = small_setup()
        state, _ = fit(model, pairs, cfg, steps=1)
        with pytest.raises(ContractError, match="moments of shapes"):
            save_model(tmp_path / "m.ckpt", model, AdamState(state.step, state.m[:-1], state.v[:-1]))
        assert list(tmp_path.iterdir()) == []


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
