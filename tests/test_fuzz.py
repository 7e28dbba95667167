"""Parsers, loaders and config paths fed arbitrary input raise only their typed error.

Each input either parses or raises the one DualcapError its caller maps
to an exit code: DataError for images and caption files, ConfigError
for config files, VocabError for vocabularies.  Inputs mix raw bytes
with near-valid ones (a netpbm magic and header, text lines built from
the characters the parsers split on), so the fuzzing reaches past the
first check.  The two config paths, a run's key=value file and a
checkpoint's model config, must build a model or raise a DualcapError;
their ints stay small (16 or less) so that every model built is tiny.
A CRC-valid checkpoint whose stored model config asks for 0, 1, 2 or a
huge count must load exactly or raise IntegrityError or ConfigError,
never allocate what the file does not hold.  A whole CLI session, run
in process, ends in a documented exit code with a one-line message for
any integer key set to 0, 1 or a huge value.  Runs are derandomized and
keep no example database.
"""

import contextlib
import copy
import io
import json
import struct
import tempfile
import zlib
from argparse import Namespace
from dataclasses import fields
from pathlib import Path

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

from dualcap.checkpoint import MAGIC, load_model, save_model
from dualcap.cli import RunConfig, load_run_dataset, main, model_config, parse_config_file, run_config, train_config
from dualcap.data import parse_caption_file, parse_netpbm, write_netpbm
from dualcap.encoder import EncoderConfig
from dualcap.errors import ConfigError, DataError, DualcapError, IntegrityError, VocabError
from dualcap.model import ModelConfig, build_model, set_channel_stats
from dualcap.textdec import DecoderConfig, Vocabulary

FUZZ = settings(max_examples=200, derandomize=True, database=None, deadline=None)

NETPBM_STARTS = (b"", b"P5", b"P6", b"P5 2 2 255\n", b"P6 1 1 1 ", b"P5 #c\n3 1\n4\n")
netpbm_bytes = st.builds(lambda head, rest: head + rest, st.sampled_from(NETPBM_STARTS), st.binary(max_size=64))
# lines from the characters the text parsers split on, plus invalid UTF-8 bytes
text_lines = st.lists(st.text(alphabet="ab <>\t=#.\r\x1c\xe9", max_size=12), max_size=6).map(
    lambda lines: "\n".join(lines).encode("utf-8")
)
text_bytes = st.one_of(st.binary(max_size=64), text_lines, st.builds(bytes.__add__, text_lines, st.binary(max_size=4)))


@pytest.fixture(scope="module")
def text_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


@FUZZ
@given(data=netpbm_bytes)
def test_parse_netpbm(data):
    try:
        pixels, maxval = parse_netpbm(data)
    except DataError:
        return
    assert pixels.ndim == 3 and pixels.max(initial=0) <= maxval


@FUZZ
@given(data=text_bytes)
def test_parse_caption_file(text_file, data):
    text_file.write_bytes(data)
    try:
        pairs = parse_caption_file(text_file)
    except DataError:
        return
    assert pairs and all(name and caption for name, caption in pairs)


@FUZZ
@given(data=text_bytes)
def test_parse_config_file(text_file, data):
    text_file.write_bytes(data)
    try:
        parse_config_file(text_file)
    except ConfigError:
        pass


@FUZZ
@given(data=text_bytes)
def test_vocabulary_load(text_file, data):
    text_file.write_bytes(data)
    try:
        vocab = Vocabulary.load(text_file)
    except VocabError:
        return
    assert len(vocab) >= 4


# a tiny run that builds; each input sets one to three keys over it
RUN_BASE = {"synthetic": 4, "image_size": 8, "patch_size": 4, "dim": 8, "window_patches": 2, "groups": 2,
            "dec_dim": 8, "joint_dim": 4}
WORDS = ("", "x", "-0", "1.5", "nan", "inf", "-inf", "1e308", "0.5,0.5,0", "1,1", "true",
         "dual", "spatial", "channel", "global", "1d", "2d", "sinusoidal", "learned", "train", "val", "test")
run_values = st.one_of(st.integers(-2, 16).map(str), st.sampled_from(WORDS))
run_entries = st.dictionaries(st.sampled_from([f.name for f in fields(RunConfig)]), run_values, min_size=1, max_size=3)


@FUZZ
@given(entries=run_entries)
def test_a_run_config_builds_a_model_or_raises_a_dualcap_error(text_file, entries):
    text_file.write_text("".join(f"{key} = {value}\n" for key, value in {**RUN_BASE, **entries}.items()))
    try:
        rc = run_config(Namespace(config=str(text_file), seed=None, out=None))
        ds = load_run_dataset(rc)
        vocab = Vocabulary.from_corpus([c for _, c in ds.caption_pairs("train")], min_freq=rc.min_freq)
        train_config(rc)
        model = build_model(model_config(rc, len(vocab)), vocab, seed=rc.seed)
        set_channel_stats(model, ds.mean, ds.std)
    except DualcapError:
        return
    assert model.params["norm.std"].shape == (rc.image_channels,)


MODEL_VOCAB = Vocabulary(["red", "dot"])
MODEL_BASE = ModelConfig(
    encoder=EncoderConfig(image_size=8, patch_size=4, dim=8, heads=2, window_patches=2, groups=2),
    decoder=DecoderConfig(vocab_size=len(MODEL_VOCAB), dim=8, heads=2, context_width=16),
    joint_dim=4,
).to_dict()
MODEL_KEYS = [(section, f.name) for section, cls in (("encoder", EncoderConfig), ("decoder", DecoderConfig))
              for f in fields(cls)] + [(None, "joint_dim")]
mistyped = st.one_of(
    st.integers(-2, 16), st.booleans(), st.floats(-2, 16), st.sampled_from([float("nan"), float("inf")]),
    st.text(max_size=3), st.none(),
    st.lists(st.integers(0, 4), max_size=2), st.sampled_from(WORDS),
)
model_edits = st.lists(st.tuples(st.sampled_from(MODEL_KEYS), mistyped), min_size=1, max_size=2)


@FUZZ
@given(edits=model_edits)
def test_a_stored_model_config_builds_a_model_or_raises_a_dualcap_error(edits):
    data = copy.deepcopy(MODEL_BASE)
    for (section, key), value in edits:
        (data[section] if section else data)[key] = value
    try:
        model = build_model(ModelConfig.from_dict(data), MODEL_VOCAB, seed=0)
    except DualcapError:
        return
    assert model.cfg.to_dict() == data


INT_KEYS = [(section, f.name) for section, cls in (("encoder", EncoderConfig), ("decoder", DecoderConfig))
            for f in fields(cls) if f.type == "int"] + [(None, "joint_dim")]
counts = st.lists(st.tuples(st.sampled_from(INT_KEYS), st.sampled_from([0, 1, 2, 2**63])), min_size=1, max_size=3)


@pytest.fixture(scope="module")
def stored_model(tmp_path_factory):
    """A checkpoint of the MODEL_BASE model: its path, model, and the header and payload of its bytes."""
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    model = build_model(ModelConfig.from_dict(MODEL_BASE), MODEL_VOCAB, seed=0)
    save_model(path, model)
    data = path.read_bytes()
    (header_len,) = struct.unpack("<I", data[4:8])
    return path, model, json.loads(data[12:12 + header_len]), data[12 + header_len:]


@FUZZ
@given(edits=counts)
def test_a_stored_model_config_of_any_size_loads_exactly_or_raises_integrity_or_config_error(stored_model, edits):
    path, model, header, payload = stored_model
    header = copy.deepcopy(header)
    for (section, key), value in edits:
        model_config = header["config"]["model"]
        (model_config[section] if section else model_config)[key] = value
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    crafted = path.with_name("crafted.ckpt")
    crafted.write_bytes(MAGIC + struct.pack("<II", len(blob), zlib.crc32(payload, zlib.crc32(blob))) + blob + payload)
    try:
        loaded, _, _ = load_model(crafted, MODEL_VOCAB)
    except (IntegrityError, ConfigError):
        return
    assert loaded.flat.tobytes() == model.flat.tobytes()
    assert [(name, t.shape) for name, t in loaded.params.items()] == [(name, t.shape) for name, t in model.params.items()]


# A tiny run for the in-process CLI session below: 4 synthetic 8 x 8 images, one step per epoch.
CLI_BASE = {"synthetic": 4, "image_size": 8, "patch_size": 4, "dim": 8, "heads": 2, "window_patches": 2,
            "groups": 2, "dec_dim": 8, "dec_heads": 2, "joint_dim": 4, "batch_size": 4, "epochs": 1,
            "max_len": 5, "eval_split": "train"}
HUGE = 2**63
# Keys whose huge value asks for unbounded work rather than a bad run, left at 0 and 1: `epochs` trains
# that long, and `max_len` lets an untrained model caption that many tokens.
UNBOUNDED = {"epochs", "max_len"}
CLI_EDITS = [(f.name, value) for f in fields(RunConfig) if type(f.default) is int
             for value in (0, 1, HUGE) if not (value == HUGE and f.name in UNBOUNDED)]
EXIT_CODES = {0, 1, 2, 3, 4}


def cli(*argv: str) -> tuple[int, str]:
    """main(argv) in process: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    return code, err.getvalue()


def assert_documented(code: int, err: str) -> None:
    assert code in EXIT_CODES
    assert (code == 0) == (err == "") and "Traceback" not in err
    assert err.count("\n") <= 1, err


def write_config(root: Path, edits) -> Path:
    """CLI_BASE with the edits applied, as a config file in root."""
    cfg = root / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in {**CLI_BASE, **dict(edits)}.items()))
    return cfg


def run_cli_session(edits) -> None:
    """train, then caption and eval with the same config; a train that exits 1 writes nothing."""
    entries = {**CLI_BASE, **dict(edits)}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg, out = write_config(root, edits), root / "run"
        code, err = cli("train", "--config", str(cfg), "--out", str(out))
        assert_documented(code, err)
        if code == 1:
            assert not out.exists() or not any(out.iterdir())
        if code != 0:
            return
        checkpoint = str(max(out.glob("epoch-*.ckpt")))
        image = root / "image.ppm"
        write_netpbm(image, np.zeros((entries["image_size"],) * 2 + (3,), dtype=np.uint8))
        assert_documented(*cli("caption", "--config", str(cfg), checkpoint, str(image)))
        assert_documented(*cli("eval", "--config", str(cfg), "--out", str(root / "eval"), checkpoint))


@pytest.mark.parametrize("key, value", CLI_EDITS, ids=[f"{key}={value}" for key, value in CLI_EDITS])
def test_a_cli_session_with_one_edit_ends_in_a_documented_exit_code(key, value):
    run_cli_session([(key, value)])


@pytest.mark.parametrize("key, value", CLI_EDITS, ids=[f"{key}={value}" for key, value in CLI_EDITS])
def test_bench_with_one_edit_ends_in_a_documented_exit_code(key, value):
    """bench writes its table exactly when it exits 0."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "bench"
        code, err = cli("bench", "--config", str(write_config(Path(tmp), [(key, value)])), "--out", str(out))
        assert_documented(code, err)
        assert (out / "bench.txt").exists() == (code == 0)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(edits=st.lists(st.sampled_from(CLI_EDITS), min_size=2, max_size=2))
def test_a_cli_session_ends_in_a_documented_exit_code(edits):
    """Pairs of edits; every single edit runs in the test above."""
    run_cli_session(edits)
