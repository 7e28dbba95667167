"""Tests for the command-line interface.

Commands run in-process through main(argv); a shared fixture trains one
small model to convergence so caption/eval tests can check real output
quality.  Exit codes follow the contract: 0 ok, 1 usage/config, 2 data,
3 integrity, 4 non-finite values, 141 a closed stdout.
"""

import hashlib
import json
import os
import struct
import subprocess
import sys
import zlib
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import dualcap
from dualcap.cli import (
    RunConfig,
    main,
    model_config,
    parse_config_file,
    run_config,
    train_config,
)
from dualcap.data import make_synthetic, read_netpbm, write_dataset, write_netpbm
from dualcap.checkpoint import load_model, save_model
from dualcap.encoder import EncoderConfig
from dualcap.errors import ConfigError
from dualcap.metrics import ScoredCorpus, score_report
from dualcap.model import ModelConfig, build_model, set_channel_stats
from dualcap.textdec import DecoderConfig, Vocabulary
from dualcap.autograd import Tensor
from dualcap.train import TrainConfig, caption_records, fit, generate, sequence_text, training_pairs

CFG_KEYS = {
    "synthetic": 8, "image_size": 16, "dim": 16, "dec_dim": 16, "joint_dim": 8,
    "heads": 2, "window_patches": 4, "groups": 4, "depth": 1,
    "batch_size": 8, "lr": 0.003, "max_len": 12, "eval_split": "train", "seed": 0,
}


# every model and training key: a valid non-default value and the typed field it must reach
TYPED_KEYS = [
    ("image_size", "32", "encoder.image_size", 32),
    ("patch_size", "8", "encoder.patch_size", 8),
    ("image_channels", "1", "encoder.image_channels", 1),
    ("dim", "32", "encoder.dim", 32),
    ("heads", "4", "encoder.heads", 4),
    ("window_patches", "8", "encoder.window_patches", 8),
    ("groups", "2", "encoder.groups", 2),
    ("depth", "2", "encoder.depth", 2),
    ("mode", "spatial", "encoder.mode", "spatial"),
    ("window_layout", "2d", "encoder.window_layout", "2d"),
    ("pos_encoding", "learned", "encoder.pos_encoding", "learned"),
    ("ffn_expansion", "2", "encoder.ffn_expansion", 2),
    ("dec_dim", "32", "decoder.dim", 32),
    ("dec_heads", "4", "decoder.heads", 4),
    ("dec_depth", "2", "decoder.depth", 2),
    ("dec_ffn_expansion", "2", "decoder.ffn_expansion", 2),
    ("joint_dim", "4", "model.joint_dim", 4),
    ("lr", "0.01", "train.lr", 0.01),
    ("beta1", "0.8", "train.beta1", 0.8),
    ("beta2", "0.99", "train.beta2", 0.99),
    ("eps", "1e-6", "train.eps", 1e-6),
    ("contrastive_weight", "0.25", "train.contrastive_weight", 0.25),
    ("batch_size", "4", "train.batch_size", 4),
]

# the "key = default" lines of `dualcap <cmd> --help`, in order
HELP_KEYS = [
    "images = ", "captions = ", "synthetic = 0", "ratios = 0.8,0.1,0.1", "min_freq = 1",
    "image_size = 16", "patch_size = 4", "image_channels = 3", "dim = 16", "heads = 2",
    "window_patches = 4", "groups = 4", "depth = 1", "mode = dual", "window_layout = 1d",
    "pos_encoding = sinusoidal", "ffn_expansion = 4",
    "dec_dim = 16", "dec_heads = 2", "dec_depth = 1", "dec_ffn_expansion = 4", "joint_dim = 8",
    "lr = 0.003", "beta1 = 0.9", "beta2 = 0.999", "eps = 1e-08", "contrastive_weight = 0.5", "batch_size = 8",
    "epochs = 1", "max_len = 16", "beam_width = 1", "eval_split = val", "vocab = ", "seed = 0", "out = out",
]


def readme_model_config(vocab_size):
    """The model a config file with no model keys asks for, built by hand."""
    enc = EncoderConfig(image_size=16, patch_size=4, dim=16)
    dec = DecoderConfig(vocab_size=vocab_size, dim=16, context_width=enc.feature_width)
    return ModelConfig(encoder=enc, decoder=dec, joint_dim=8)


def write_cfg(path, **overrides):
    entries = {**CFG_KEYS, **overrides}
    path.write_text("# test run\n" + "".join(f"{k} = {v}\n" for k, v in entries.items()))
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A 150-step run saved to disk: checkpoint, vocab, dataset, config."""
    root = tmp_path_factory.mktemp("trained")
    ds = make_synthetic(8, grid=16, seed=0)
    vocab = Vocabulary.from_corpus([c for _, c in ds.caption_pairs("train")])
    enc = EncoderConfig(image_size=16, patch_size=4, image_channels=3, dim=16,
                        heads=2, window_patches=4, groups=4, depth=1)
    dec = DecoderConfig(vocab_size=len(vocab), dim=16, heads=2, depth=1,
                        context_width=enc.feature_width)
    model = build_model(ModelConfig(encoder=enc, decoder=dec, joint_dim=8), vocab, seed=0)
    set_channel_stats(model, ds.mean, ds.std)
    state, _ = fit(model, training_pairs(ds, vocab), TrainConfig(lr=0.003, batch_size=8), steps=150)
    save_model(root / "model.ckpt", model, state)
    vocab.save(root / "vocab.txt")
    data_dir = root / "data"
    write_dataset(ds, data_dir)
    cfg_path = write_cfg(root / "run.cfg")
    expected = caption_records(model, ds.split_records("train"), max_len=12)
    return {"root": root, "ds": ds, "model": model, "vocab": vocab,
            "ckpt": root / "model.ckpt", "cfg": cfg_path, "data": data_dir,
            "expected": expected}


class TestConfigParsing:
    def test_file_syntax(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("# comment\n\nlr = 0.5\nmode=spatial  # trailing\n")
        assert parse_config_file(p) == {"lr": "0.5", "mode": "spatial"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config_file(tmp_path / "nope.cfg")

    def test_unreadable_files_are_config_errors(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_bytes(b"lr=0.5\nmode=sp\xffatial\n")
        with pytest.raises(ConfigError, match="a.cfg: not UTF-8 text"):
            parse_config_file(p)
        with pytest.raises(ConfigError, match="cannot read config file"):
            parse_config_file(tmp_path)

    def test_a_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_bytes(b"\xef\xbb\xbfsynthetic = 8\n")
        assert parse_config_file(p) == {"synthetic": "8"}

    def test_bad_line(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("lr 0.5\n")
        with pytest.raises(ConfigError, match="a.cfg:1"):
            parse_config_file(p)

    def test_duplicate_key(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("lr=1\nlr=2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("learning_rate=0.5\n")
        args = type("A", (), {"config": str(p), "seed": None, "out": None})
        with pytest.raises(ConfigError, match="learning_rate"):
            run_config(args)

    def test_type_error_names_key(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("epochs=three\n")
        args = type("A", (), {"config": str(p), "seed": None, "out": None})
        with pytest.raises(ConfigError, match="epochs"):
            run_config(args)

    def test_flag_overrides_and_ratios(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("seed=7\nratios=0.7,0.2,0.1\nout=cfgout\n")
        args = type("A", (), {"config": str(p), "seed": 9, "out": "flagout"})
        rc = run_config(args)
        assert rc.seed == 9 and rc.out == "flagout"
        assert rc.ratios == (0.7, 0.2, 0.1)

    def test_defaults_without_config(self):
        args = type("A", (), {"config": None, "seed": None, "out": None})
        assert run_config(args) == RunConfig()

    def test_default_keys_give_the_readme_model_and_the_library_training_config(self):
        assert model_config(RunConfig(), 10) == readme_model_config(10)
        assert train_config(RunConfig()) == TrainConfig()

    @pytest.mark.parametrize("key, text, target, value", TYPED_KEYS, ids=[k[0] for k in TYPED_KEYS])
    def test_every_model_and_training_key_reaches_its_typed_field(self, tmp_path, key, text, target, value):
        p = tmp_path / "a.cfg"
        p.write_text(f"{key} = {text}\n")
        rc = run_config(type("A", (), {"config": str(p), "seed": None, "out": None}))
        section, name = target.split(".")
        if section == "train":
            assert getattr(TrainConfig(), name) != value
            assert train_config(rc) == replace(TrainConfig(), **{name: value})
            return
        default = readme_model_config(10)
        assert getattr(default if section == "model" else getattr(default, section), name) != value
        enc = replace(default.encoder, **{name: value}) if section == "encoder" else default.encoder
        dec = replace(default.decoder, **{name: value}) if section == "decoder" else default.decoder
        joint_dim = value if section == "model" else default.joint_dim
        want = ModelConfig(encoder=enc, decoder=replace(dec, context_width=enc.feature_width), joint_dim=joint_dim)
        assert model_config(rc, 10) == want


class TestTrainCommand:
    def test_writes_checkpoints_vocab_and_log(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "run.cfg", epochs=2)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        out = tmp_path / "run"
        for name in ("epoch-0000.ckpt", "epoch-0001.ckpt", "epoch-0002.ckpt", "vocab.txt"):
            assert (out / name).exists()
        lines = (out / "loss.tsv").read_text().splitlines()
        assert lines[0] == "step\tce\tcontrastive\ttotal"
        assert len(lines) == 3  # 8 pairs, batch 8: one step per epoch
        step, ce, con, total = lines[1].split("\t")
        assert step == "1"
        assert float(total) == pytest.approx(float(ce) + 0.5 * float(con), abs=1e-12)

    def test_epochs_zero_writes_initial_checkpoint_only(self, tmp_path):
        cfg = write_cfg(tmp_path / "run.cfg", epochs=0)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        ckpts = sorted(p.name for p in (tmp_path / "run").glob("*.ckpt"))
        assert ckpts == ["epoch-0000.ckpt"]

    def test_same_seed_identical_logs_and_checkpoints(self, tmp_path):
        cfg = write_cfg(tmp_path / "run.cfg", epochs=3)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a/loss.tsv").read_bytes() == (tmp_path / "b/loss.tsv").read_bytes()
        assert (tmp_path / "a/epoch-0003.ckpt").read_bytes() == (tmp_path / "b/epoch-0003.ckpt").read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_run_exits_4_without_that_epochs_checkpoint(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "run.cfg", epochs=3, lr=1e300)  # step 2's loss is nan
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 4
        assert "step 2: loss is nan" in capsys.readouterr().err
        ckpts = sorted(p.name for p in (tmp_path / "run").glob("*.ckpt"))
        assert ckpts == ["epoch-0000.ckpt", "epoch-0001.ckpt"]
        assert len((tmp_path / "run/loss.tsv").read_text().splitlines()) == 2  # header and step 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_an_overflowing_update_exits_4_before_any_trained_checkpoint(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "run.cfg", epochs=3, lr=1.7e308)  # lr * m_hat overflows at step 1
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 4
        assert "step 1: update of 'enc.patch.w' is not finite" in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "run").glob("*.ckpt")) == ["epoch-0000.ckpt"]
        assert len((tmp_path / "run/loss.tsv").read_text().splitlines()) == 1  # the header alone

    @pytest.mark.parametrize("key", ["lr", "eps", "contrastive_weight"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_a_non_finite_optimizer_value_is_a_config_error(self, tmp_path, capsys, key, value):
        cfg = write_cfg(tmp_path / "run.cfg", epochs=3, **{key: value})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert f"config error: {key} must be" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_non_finite_split_ratios_are_a_config_error(self, trained, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "run.cfg", synthetic=0, images=str(trained["data"]),
                        captions=str(trained["data"] / "captions.tsv"), ratios="nan,0.1,0.1")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert "config error: ratios must be" in capsys.readouterr().err

    def test_overflowing_split_ratios_are_a_config_error(self, trained, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "run.cfg", synthetic=0, images=str(trained["data"]),
                        captions=str(trained["data"] / "captions.tsv"), ratios="1e308,1,0")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert "config error: ratios must be" in capsys.readouterr().err

    def test_refuses_an_out_that_holds_a_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "run.cfg", epochs=2)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert "loss.tsv" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        (out / "loss.tsv").unlink()  # a checkpoint alone also marks a used --out
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert "epoch-0000.ckpt" in capsys.readouterr().err

    @pytest.mark.parametrize("synthetic, batch_size", [(9, 8), (8, 1)])
    def test_a_schedule_fit_refuses_writes_nothing(self, tmp_path, capsys, synthetic, batch_size):
        cfg = write_cfg(tmp_path / "run.cfg", synthetic=synthetic, batch_size=batch_size)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert "1-pair batch" in capsys.readouterr().err
        assert list(out.iterdir()) == []
        assert main(["train", "--config", str(write_cfg(cfg, synthetic=synthetic, batch_size=batch_size,
                                                          contrastive_weight=0)), "--out", str(out)]) == 0

    def test_a_split_with_no_training_captions_is_a_data_error(self, trained, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "run.cfg", synthetic=0, images=str(trained["data"]),
                        captions=str(trained["data"] / "captions.tsv"), ratios="0,1,0")
        with pytest.warns(UserWarning, match="empty train split: using identity channel stats"):
            code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err == "data error: training split has no captions\n"
        assert list((tmp_path / "run").iterdir()) == []

    @pytest.mark.parametrize("bad", [dict(groups=0), dict(groups=3), dict(heads=0), dict(window_patches=0)])
    def test_kernel_shapes_that_do_not_fit_are_config_errors(self, tmp_path, capsys, bad):
        cfg = write_cfg(tmp_path / "run.cfg", **bad)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert "config error" in capsys.readouterr().err
        assert list((tmp_path / "run").iterdir()) == []

    def test_unset_dataset_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "run.cfg", synthetic=0)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert "dataset" in capsys.readouterr().err


class TestCaptionCommand:
    def test_prints_training_caption_verbatim(self, trained, tmp_path, capsys):
        record = trained["ds"].records[0]
        image_path = trained["data"] / record.name
        code = main(["caption", "--config", str(trained["cfg"]),
                     "--out", str(tmp_path), str(trained["ckpt"]), str(image_path)])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert printed == trained["expected"][record.name][0]
        assert printed == record.captions[0]

    def test_a_huge_max_len_captions_like_a_small_one(self, trained, tmp_path, capsys):
        # the search grows its ids a column per step: max_len bounds its steps, not what it allocates
        cfg = write_cfg(tmp_path / "run.cfg", max_len=100_000_000, beam_width=3)
        for record in trained["ds"].records[:2]:
            code = main(["caption", "--config", str(cfg), "--out", str(tmp_path),
                         str(trained["ckpt"]), str(trained["data"] / record.name)])
            assert code == 0
            assert capsys.readouterr().out.strip() == trained["expected"][record.name][0]

    def test_identical_invocations_identical_output(self, trained, tmp_path, capsys):
        record = trained["ds"].records[1]
        image_path = trained["data"] / record.name
        argv = ["caption", "--config", str(trained["cfg"]),
                "--out", str(tmp_path), str(trained["ckpt"]), str(image_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_does_not_mutate_inputs(self, trained, tmp_path, capsys):
        record = trained["ds"].records[2]
        image_path = trained["data"] / record.name
        before = hashlib.md5(image_path.read_bytes()).hexdigest()
        ckpt_before = hashlib.md5(trained["ckpt"].read_bytes()).hexdigest()
        main(["caption", "--config", str(trained["cfg"]),
              "--out", str(tmp_path), str(trained["ckpt"]), str(image_path)])
        capsys.readouterr()
        assert hashlib.md5(image_path.read_bytes()).hexdigest() == before
        assert hashlib.md5(trained["ckpt"].read_bytes()).hexdigest() == ckpt_before

    def test_missing_image_is_data_error(self, trained, tmp_path, capsys):
        code = main(["caption", "--config", str(trained["cfg"]),
                     "--out", str(tmp_path), str(trained["ckpt"]), str(tmp_path / "nope.pgm")])
        assert code == 2
        capsys.readouterr()

    def test_a_checkpoint_without_a_vocabulary_is_a_data_error(self, trained, tmp_path, capsys):
        lone = tmp_path / "lone.ckpt"
        lone.write_bytes(trained["ckpt"].read_bytes())
        image_path = trained["data"] / trained["ds"].records[0].name
        code = main(["caption", "--config", str(trained["cfg"]), "--out", str(tmp_path), str(lone), str(image_path)])
        assert code == 2
        vocab = tmp_path / "vocab.txt"
        assert capsys.readouterr().err == f"data error: vocabulary file {vocab} not found (set the vocab= config key)\n"

    def test_a_vocabulary_that_does_not_fit_the_checkpoint_is_a_data_error_naming_it(self, trained, tmp_path, capsys):
        lone = tmp_path / "lone.ckpt"
        lone.write_bytes(trained["ckpt"].read_bytes())
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("".join((trained["root"] / "vocab.txt").read_text().splitlines(keepends=True)[:3]))
        image_path = trained["data"] / trained["ds"].records[0].name
        code = main(["caption", "--config", str(trained["cfg"]), "--out", str(tmp_path), str(lone), str(image_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error: vocabulary file {vocab} does not fit checkpoint {lone}: "
            f"vocabulary has 7 tokens, config says {len(trained['vocab'])}\n")

    def test_an_image_of_another_size_is_a_data_error(self, trained, tmp_path, capsys):
        small = tmp_path / "small.ppm"
        write_netpbm(small, np.zeros((8, 8, 3), dtype=np.uint8))
        code = main(["caption", "--config", str(trained["cfg"]), "--out", str(tmp_path), str(trained["ckpt"]), str(small)])
        assert code == 2
        assert capsys.readouterr().err == f"data error: image {small} is (8, 8, 3), model expects (16, 16, 3)\n"

    @pytest.mark.parametrize("name, values, channel", [("norm.std", [np.nan, 1.0, 1.0], 0),
                                                       ("norm.mean", [0.5, np.inf, 0.5], 1)])
    def test_non_finite_channel_stats_in_a_checkpoint_are_a_config_error(self, trained, tmp_path, capsys,
                                                                        name, values, channel):
        """A load copies norm.* as stored, so a CRC-valid file can carry stats that would caption NaN pixels."""
        model, state, _ = load_model(trained["ckpt"], trained["vocab"])
        model.params[name] = Tensor(values)
        bad = tmp_path / "bad.ckpt"
        save_model(bad, model, state)
        trained["vocab"].save(tmp_path / "vocab.txt")
        image_path = trained["data"] / trained["ds"].records[0].name
        code = main(["caption", "--config", str(trained["cfg"]), str(bad), str(image_path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"config error: normalize_image: channel {channel} has non-finite stats")

    def test_corrupt_checkpoint_is_integrity_error(self, trained, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint at all")
        record = trained["ds"].records[0]
        image_path = trained["data"] / record.name
        code = main(["caption", "--config", str(trained["cfg"]),
                     "--out", str(tmp_path), str(bad), str(image_path)])
        assert code == 3
        assert "integrity" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("step", "x", "step 'x' is not an integer"),
        ("step", -1, "step -1 is not an integer >= 0"),
        ("shape", [2**32, 2**32], "runs past end of payload"),
        ("shape", [1.5], "malformed manifest entry"),
    ])
    def test_a_header_value_of_the_wrong_type_is_integrity_error(self, trained, tmp_path, capsys, key, value, message):
        data = trained["ckpt"].read_bytes()
        (hlen,) = struct.unpack("<I", data[4:8])
        header = json.loads(data[12:12 + hlen])
        (header if key == "step" else header["arrays"][0])[key] = value
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(data[:4] + struct.pack("<I", len(blob)) + data[8:12] + blob + data[12 + hlen:])
        image_path = trained["data"] / trained["ds"].records[0].name
        code = main(["caption", "--config", str(trained["cfg"]),
                     "--out", str(tmp_path), str(bad), str(image_path)])
        assert code == 3
        assert message in capsys.readouterr().err

    def test_a_header_that_is_not_a_json_object_is_integrity_error(self, trained, tmp_path, capsys):
        data = trained["ckpt"].read_bytes()
        (hlen,) = struct.unpack("<I", data[4:8])
        blob, payload = b"[" + data[12:12 + hlen] + b"]", data[12 + hlen:]  # the header inside a list
        listed = tmp_path / "listed.ckpt"
        listed.write_bytes(data[:4] + struct.pack("<II", len(blob), zlib.crc32(payload, zlib.crc32(blob))) + blob + payload)
        image_path = trained["data"] / trained["ds"].records[0].name
        code = main(["caption", "--config", str(trained["cfg"]), "--out", str(tmp_path), str(listed), str(image_path)])
        assert code == 3
        assert capsys.readouterr().err == f"integrity error: {listed}: corrupt header: not a JSON object\n"

    def caption_with_earlier_format(self, trained, tmp_path, fmt) -> int:
        # formats 1 and 2 put the JSON header right after its length (format 2 with a payload CRC-32)
        data = trained["ckpt"].read_bytes()
        (hlen,) = struct.unpack("<I", data[4:8])
        header, payload = json.loads(data[12:12 + hlen]), data[12 + hlen:]
        header["format"] = fmt
        if fmt == 2:
            header["crc32"] = zlib.crc32(payload)
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        old = tmp_path / "old.ckpt"
        old.write_bytes(data[:4] + struct.pack("<I", len(blob)) + blob + payload)
        image_path = trained["data"] / trained["ds"].records[0].name
        return main(["caption", "--config", str(trained["cfg"]),
                     "--out", str(tmp_path), str(old), str(image_path)])

    def test_format_1_checkpoint_is_integrity_error(self, trained, tmp_path, capsys):
        assert self.caption_with_earlier_format(trained, tmp_path, 1) == 3
        assert "unsupported format 1" in capsys.readouterr().err

    def test_format_2_checkpoint_is_integrity_error(self, trained, tmp_path, capsys):
        assert self.caption_with_earlier_format(trained, tmp_path, 2) == 3
        assert "unsupported format 2" in capsys.readouterr().err

    def test_format_3_checkpoint_is_integrity_error(self, trained, tmp_path, capsys):
        # format 3 has format 4's prefix and CRC-32, so only its number tells them apart
        def as_format_3(header, payload):
            header["format"] = 3
            return payload

        assert self.caption_with_edited_header(trained, tmp_path, as_format_3) == 3
        assert "unsupported format 3" in capsys.readouterr().err

    def caption_with_edited_header(self, trained, tmp_path, edit) -> int:
        """Caption with the trained checkpoint after payload = edit(header, payload), its CRC-32 made to match again."""
        data = trained["ckpt"].read_bytes()
        (hlen,) = struct.unpack("<I", data[4:8])
        header, payload = json.loads(data[12:12 + hlen]), data[12 + hlen:]
        payload = edit(header, payload)
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        crafted = tmp_path / "crafted.ckpt"
        (tmp_path / "vocab.txt").write_bytes((trained["root"] / "vocab.txt").read_bytes())
        crafted.write_bytes(data[:4] + struct.pack("<II", len(blob), zlib.crc32(payload, zlib.crc32(blob))) + blob + payload)
        image_path = trained["data"] / trained["ds"].records[0].name
        return main(["caption", "--config", str(trained["cfg"]),
                     "--out", str(tmp_path), str(crafted), str(image_path)])

    def test_a_checkpoint_config_without_a_model_is_integrity_error(self, trained, tmp_path, capsys):
        def edit(header, payload):
            del header["config"]["model"]
            return payload

        assert self.caption_with_edited_header(trained, tmp_path, edit) == 3
        assert capsys.readouterr().err == "integrity error: checkpoint config has no model entry\n"

    def test_a_stored_moment_that_fits_no_parameter_is_integrity_error(self, trained, tmp_path, capsys):
        size = trained["model"].flat.size

        def one_value_short(header, payload):
            # moments as a model with one trainable value fewer would store them
            assert header["moments"] == size
            header["moments"] = size - 1
            params, m, v = payload[:-16 * size], payload[-16 * size:-8 * size], payload[-8 * size:]
            return params + m[8:] + v[8:]

        assert self.caption_with_edited_header(trained, tmp_path, one_value_short) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"integrity error: moments of {size - 1} values each do not fit the model's {size} trainable values" in captured.err

    @pytest.mark.parametrize("section, key, value", [
        ("encoder", "dim", 16.0),
        (None, "joint_dim", "x"),
        (None, "joint_dim", 8.7),
        ("encoder", "depth", True),
    ])
    def test_a_model_config_value_of_the_wrong_type_is_config_error(self, trained, tmp_path, capsys, section, key, value):
        def edit(header, payload):
            model = header["config"]["model"]
            (model[section] if section else model)[key] = value
            return payload

        assert self.caption_with_edited_header(trained, tmp_path, edit) == 1
        name = f"{section}.{key}" if section else key
        assert f"config error: model config {name} must be" in capsys.readouterr().err

    def test_a_model_config_larger_than_the_file_is_integrity_error(self, trained, tmp_path, capsys):
        def edit(header, payload):
            header["config"]["model"]["joint_dim"] = 10**12  # fuse.img.w would be about 233 TiB
            return payload

        assert self.caption_with_edited_header(trained, tmp_path, edit) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        fw = trained["model"].cfg.encoder.feature_width
        assert (f"integrity error: param array 'fuse.img.w' of shape ({fw}, 8) fits no parameter of the model "
                f"(expected 'fuse.img.w' of shape ({fw}, {10**12}))") in captured.err


class TestEvalCommand:
    def test_overfit_model_scores_perfectly(self, trained, tmp_path, capsys):
        code = main(["eval", "--config", str(trained["cfg"]),
                     "--out", str(tmp_path), str(trained["ckpt"])])
        assert code == 0
        capsys.readouterr()
        report = (tmp_path / "report.txt").read_text()
        values = dict(
            line.split("=", 1) for line in report.splitlines() if "=" in line
        )
        assert float(values["train.B-1"]) == 1.0
        assert float(values["train.B-4"]) == 1.0
        assert float(values["train.R-L"]) == 1.0

    def test_report_matches_metrics_on_dumped_candidates(self, trained, tmp_path, capsys):
        code = main(["eval", "--config", str(trained["cfg"]),
                     "--out", str(tmp_path), str(trained["ckpt"])])
        assert code == 0
        capsys.readouterr()
        refs = {r.name: r.captions for r in trained["ds"].split_records("train")}
        items = {}
        for line in (tmp_path / "candidates.tsv").read_text().splitlines():
            name, _, hypothesis = line.partition("\t")
            items[name] = (hypothesis, refs[name])
        direct = score_report(ScoredCorpus.from_texts(items))
        reported = dict(
            line.split("=", 1)
            for line in (tmp_path / "report.txt").read_text().splitlines()
            if "=" in line
        )
        for column, value in zip(direct.COLUMNS, direct.values()):
            assert abs(float(reported[f"train.{column}"]) - value) < 1e-12

    def test_beam_search_eval_writes_each_images_own_beam_caption(self, trained, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "run.cfg", beam_width=3)
        code = main(["eval", "--config", str(cfg), "--out", str(tmp_path), str(trained["ckpt"])])
        assert code == 0
        capsys.readouterr()
        images = {r.name: Tensor(r.image) for r in trained["ds"].split_records("train")}
        lines = (tmp_path / "candidates.tsv").read_text().splitlines()
        assert sorted(line.partition("\t")[0] for line in lines) == sorted(images)
        for line in lines:
            name, _, hypothesis = line.partition("\t")
            want = generate(trained["model"], images[name], max_len=12, beam_width=3)
            assert hypothesis == sequence_text(trained["vocab"], want)

    def test_empty_split_is_data_error(self, trained, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "run.cfg", eval_split="val")
        code = main(["eval", "--config", str(cfg),
                     "--out", str(tmp_path), str(trained["ckpt"])])
        assert code == 2
        assert "val" in capsys.readouterr().err


    def test_an_unknown_split_is_a_config_error(self, trained, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "run.cfg", eval_split="dev")
        code = main(["eval", "--config", str(cfg), "--out", str(tmp_path / "ev"), str(trained["ckpt"])])
        assert code == 1
        assert capsys.readouterr().err == "config error: unknown split 'dev', have ['test', 'train', 'val']\n"
        assert list((tmp_path / "ev").iterdir()) == []

    def test_a_split_of_another_image_size_is_a_data_error_naming_the_first_image(self, trained, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "run.cfg", image_size=8)  # the split is drawn at 8x8, the model takes 16x16
        code = main(["eval", "--config", str(cfg), "--out", str(tmp_path / "ev"), str(trained["ckpt"])])
        assert code == 2
        assert capsys.readouterr().err == "data error: image synthetic_0000.ppm is (8, 8, 3), model expects (16, 16, 3)\n"
        assert list((tmp_path / "ev").iterdir()) == []


class TestHeatmapCommand:
    def test_writes_one_pgm_per_block(self, trained, tmp_path, capsys):
        record = trained["ds"].records[0]
        image_path = trained["data"] / record.name
        code = main(["heatmap", "--config", str(trained["cfg"]),
                     "--out", str(tmp_path), str(trained["ckpt"]), str(image_path)])
        assert code == 0
        capsys.readouterr()
        paths = sorted(tmp_path.glob("*heatmap-block*.pgm"))
        assert len(paths) == 1
        pixels, maxval = read_netpbm(paths[0])
        assert maxval == 255
        assert pixels.shape == (4, 4, 1)

    def test_a_model_without_blocks_is_a_config_error(self, trained, tmp_path, capsys):
        cfg = trained["model"].cfg
        flat = replace(cfg, encoder=replace(cfg.encoder, depth=0),
                       decoder=replace(cfg.decoder, context_width=cfg.encoder.dim))
        save_model(tmp_path / "flat.ckpt", build_model(flat, trained["vocab"], seed=0))
        trained["vocab"].save(tmp_path / "vocab.txt")
        image_path = trained["data"] / trained["ds"].records[0].name
        code = main(["heatmap", "--config", str(trained["cfg"]),
                     "--out", str(tmp_path / "maps"), str(tmp_path / "flat.ckpt"), str(image_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "encoder has no blocks" in captured.err and captured.out == ""
        assert list((tmp_path / "maps").glob("*.pgm")) == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_model_whose_saliency_overflows_exits_4(self, trained, tmp_path, capsys):
        """Finite parameters scaled by 1e150 overflow the attention weights; min-max scaling would map them to zeros."""
        model, state, _ = load_model(trained["ckpt"], trained["vocab"])
        model.flat *= 1e150
        huge = tmp_path / "huge.ckpt"
        save_model(huge, model, state)  # CRC-valid, and every value is finite
        trained["vocab"].save(tmp_path / "vocab.txt")
        image_path = trained["data"] / trained["ds"].records[0].name
        code = main(["heatmap", "--config", str(trained["cfg"]),
                     "--out", str(tmp_path / "maps"), str(huge), str(image_path)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err == "non-finite error: heatmap: block 0 has a non-finite saliency\n" and captured.out == ""
        assert list((tmp_path / "maps").glob("*.pgm")) == []


class TestAblateCommand:
    def test_writes_table_with_all_variants(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "run.cfg", synthetic=4, dim=8, dec_dim=8,
                        joint_dim=4, epochs=1, batch_size=4, max_len=8)
        assert main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "ab")]) == 0
        capsys.readouterr()
        table = (tmp_path / "ab" / "ablation.txt").read_text()
        for variant in ("dual", "dual-nc", "spatial", "channel-nc", "global"):
            assert f"\n{variant} " in table or table.startswith(f"{variant} ")

    def test_an_empty_eval_split_is_a_data_error_before_any_training(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"  # the README's smallest config: 8 synthetic images leave val empty
        cfg.write_text("synthetic = 8\nimage_size = 16\ndim = 16\ndec_dim = 16\njoint_dim = 8\n"
                       "epochs = 50\nlr = 0.003\nseed = 1\n")
        assert main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "ab")]) == 2
        assert "data error: split 'val' is empty" in capsys.readouterr().err
        assert not (tmp_path / "ab" / "ablation.txt").exists()


    def test_zero_epochs_is_a_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "run.cfg", epochs=0)
        assert main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "ab")]) == 1
        assert capsys.readouterr().err == "config error: ablate needs epochs >= 1\n"
        assert list((tmp_path / "ab").iterdir()) == []


class TestExitCodes:
    def test_text_inputs_that_are_not_utf8(self, trained, tmp_path, capsys):
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_bytes(b"epochs=1\xff\n")
        assert main(["train", "--config", str(bad_cfg), "--out", str(tmp_path / "a")]) == 1
        assert "bad.cfg: not UTF-8 text" in capsys.readouterr().err

        captions = tmp_path / "captions.tsv"
        captions.write_bytes(b"x.ppm\ta red \xff square\n")
        cfg = write_cfg(tmp_path / "run.cfg", synthetic=0, images=str(trained["data"]), captions=str(captions))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 2
        assert "captions.tsv: not UTF-8 text" in capsys.readouterr().err

        vocab = tmp_path / "vocab.txt"
        vocab.write_bytes(trained["root"].joinpath("vocab.txt").read_bytes() + b"\xff\n")
        image_path = trained["data"] / trained["ds"].records[0].name
        vocab_cfg = tmp_path / "vocab.cfg"
        vocab_cfg.write_text(trained["cfg"].read_text() + f"vocab={vocab}\n")
        code = main(["caption", "--config", str(vocab_cfg), "--out", str(tmp_path),
                     str(trained["ckpt"]), str(image_path)])
        assert code == 2
        assert "vocab.txt: not UTF-8 text" in capsys.readouterr().err

    def test_non_ascii_captions_are_written_and_printed_as_utf8_under_an_ascii_locale(self, trained, tmp_path):
        # the trained model's "green" id renamed: its captions now hold a non-ASCII word
        vocab = tmp_path / "vocab.txt"
        vocab.write_text((trained["root"] / "vocab.txt").read_text().replace("green\n", "grün\n"), encoding="utf-8")
        cfg = write_cfg(tmp_path / "run.cfg", vocab=vocab)
        src = str(Path(dualcap.__file__).resolve().parent.parent)
        env = {key: value for key, value in os.environ.items() if key != "PYTHONIOENCODING"}
        env.update(PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])),
                   LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "dualcap.cli", *argv, "--config", str(cfg),
                                   "--out", str(tmp_path)], capture_output=True, env=env)

        want = {name: hypothesis.replace("green", "grün") for name, (hypothesis, _) in trained["expected"].items()}
        proc = run("eval", str(trained["ckpt"]))
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert (tmp_path / "candidates.tsv").read_text(encoding="utf-8") == "".join(
            f"{name}\t{hypothesis}\n" for name, hypothesis in want.items())
        green = trained["ds"].records[0]
        assert "grün" in want[green.name]
        proc = run("caption", str(trained["ckpt"]), str(trained["data"] / green.name))
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == f"{want[green.name]}\n".encode("utf-8")

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("where", ["file", "flag"])
    def test_a_negative_seed_is_a_config_error(self, tmp_path, capsys, command, where):
        cfg = write_cfg(tmp_path / "run.cfg", seed=-1 if where == "file" else 0)
        flag = ["--seed", "-1"] if where == "flag" else []
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "run"), *flag]) == 1
        assert "config error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "heatmap", "ablate"])
    @pytest.mark.parametrize("under", ["", "sub"], ids=["onto", "under"])
    def test_an_out_through_or_onto_a_file_is_a_one_line_config_error(self, tmp_path, capsys, command, under):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / under if under else afile  # mkdir raises FileExistsError, or NotADirectoryError under it
        positionals = {"eval": ["x.ckpt"], "heatmap": ["x.ckpt", "x.ppm"]}.get(command, [])
        cfg = write_cfg(tmp_path / "run.cfg")
        assert main([command, "--config", str(cfg), "--out", str(out), *positionals]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --out {out} ") and err.count("\n") == 1 and "Traceback" not in err
        assert afile.read_text() == "kept\n"

    @pytest.mark.parametrize("entries, message", [
        ({"max_len": 1, "beam_width": 0}, "max_len must be >= 3, got 1"),
        ({"max_len": 2}, "max_len must be >= 3, got 2"),
        ({"beam_width": 0}, "beam_width must be >= 1, got 0"),
    ])
    def test_a_max_len_or_beam_width_no_search_accepts_is_a_config_error(self, tmp_path, capsys, entries, message):
        # train would write a full run that eval and caption then refuse
        cfg = write_cfg(tmp_path / "run.cfg", **entries)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_a_model_too_large_to_allocate_is_a_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "run.cfg", joint_dim=10**12)  # fuse.img.w would be about 233 TiB
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert "config error: model config is too large to allocate" in capsys.readouterr().err
        assert list((tmp_path / "run").iterdir()) == []

    @pytest.mark.parametrize("command, entries, message", [
        pytest.param("train", {"image_channels": 1}, "do not fit image_channels 1", id="train"),
        pytest.param("ablate", {"image_channels": 1}, "do not fit image_channels 1", id="ablate"),
        pytest.param("train", {"image_size": 8}, "image_size 8: image synthetic_0000.ppm is (16, 16, 3)",
                     id="train-image_size"),
        pytest.param("ablate", {"image_size": 8}, "image_size 8: image synthetic_0000.ppm is (16, 16, 3)",
                     id="ablate-image_size"),
    ])
    def test_a_channel_count_the_dataset_lacks_is_a_config_error(self, trained, tmp_path, capsys, command, entries,
                                                                 message):
        """So is an image_size the dataset's images lack: both are refused before the run writes anything."""
        data = trained["data"]  # the synthetic images, 16x16 RGB, on disk
        cfg = write_cfg(tmp_path / "run.cfg", synthetic=0, images=data, captions=data / "captions.tsv", **entries)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert message in capsys.readouterr().err
        assert list((tmp_path / "run").iterdir()) == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("beam_width", [1, 4])
    def test_a_model_whose_scores_overflow_exits_4_from_caption_and_eval(self, trained, tmp_path, capsys, beam_width):
        """Finite parameters scaled by 1e150 overflow the forward pass: the search stops rather than caption nothing."""
        model, state, _ = load_model(trained["ckpt"], trained["vocab"])
        model.flat *= 1e150
        huge = tmp_path / "huge.ckpt"
        save_model(huge, model, state)  # CRC-valid, and every value is finite
        trained["vocab"].save(tmp_path / "vocab.txt")
        cfg = write_cfg(tmp_path / "run.cfg", beam_width=beam_width)
        image_path = trained["data"] / trained["ds"].records[0].name
        assert main(["caption", "--config", str(cfg), "--out", str(tmp_path), str(huge), str(image_path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "non-finite error: generate: image 0 of the batch has a non-finite score at step 1\n"
        assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "eval"), str(huge)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("non-finite error: generate: image ") and err.count("\n") == 1
        assert not (tmp_path / "eval" / "report.txt").exists()

    def test_a_reader_that_closes_the_pipe_early_ends_in_exit_141_without_a_traceback(
            self, trained, tmp_path, capsys, monkeypatch):
        read_end, write_end = os.pipe()
        os.close(read_end)  # as `dualcap eval ... | head -1` leaves it once head has its line
        stdout = open(write_end, "w")  # its write, or the flush after it, raises BrokenPipeError
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            code = main(["eval", "--config", str(trained["cfg"]), "--out", str(tmp_path), str(trained["ckpt"])])
        finally:
            stdout.close()  # the descriptor now points at devnull, so what is still buffered goes there
        assert code == 141
        assert capsys.readouterr().err == ""
        assert (tmp_path / "report.txt").exists()

    def test_train_help_lists_every_config_key_with_its_default(self, capsys):
        assert main(["train", "--help"]) == 0
        out = capsys.readouterr().out
        assert "  ratios = 0.8,0.1,0.1\n" in out
        for f in fields(RunConfig):
            assert f"\n  {f.name} = " in out, f.name

    def test_train_help_lists_the_config_keys_in_order(self, capsys):
        assert main(["train", "--help"]) == 0
        listing = capsys.readouterr().out.split("config keys (key = default):\n", 1)[1]
        assert [line.removeprefix("  ") for line in listing.splitlines()] == HELP_KEYS

    def test_unknown_subcommand(self, capsys):
        assert main(["nonsense"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "train" in capsys.readouterr().out

    def test_console_entry_point(self):
        # the child imports dualcap from where this process did, installed or not
        src = str(Path(dualcap.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "dualcap.cli", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "caption" in proc.stdout
