"""Command-line interface: train, caption, eval, heatmap, ablate.

Configuration comes from a key=value file (one pair per line, # starts
a comment) plus the --seed and --out overrides; unknown keys are
rejected before any compute.  All outputs land under the --out
directory.  Exit codes: 0 success, 1 usage or config error, 2 data
error, 3 checkpoint integrity error, 4 non-finite values (a loss,
gradient or update in training, and that epoch writes no checkpoint; or
a caption's scores), 141 a closed stdout (a broken pipe).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, make_dataclass
from pathlib import Path

import numpy as np

from .autograd import Tensor
from .checkpoint import load_checkpoint, model_from_checkpoint, save_model
from .data import CaptionDataset, Record, load_dataset, make_synthetic, read_netpbm, write_netpbm
from .encoder import EncoderConfig, heatmap, heatmap_to_gray
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    IntegrityError,
    NonFiniteError,
    ShapeError,
    VocabError,
    read_file,
)
from .metrics import ScoredCorpus, format_reports, score_report
from .model import CaptionModel, ModelConfig, build_model, encode_image, set_channel_stats
from .textdec import DecoderConfig, Vocabulary
from .train import (
    TrainConfig,
    caption_records,
    check_batches,
    fit,
    generate,
    run_ablation,
    sequence_text,
    steps_per_epoch,
    training_pairs,
)

EXIT_BROKEN_PIPE = 141  # what a shell reports for a command that SIGPIPE ended


# The CLI defaults that differ from the typed configs' own (or stand in where those have none).
CLI_DEFAULTS = {"image_size": 16, "patch_size": 4, "dim": 16, "dec_dim": 16, "joint_dim": 8}


def _config_keys(cls, prefix: str = "", derived: tuple[str, ...] = ()) -> list[tuple]:
    """One (key, type, default) per field of a typed config, less the fields a run derives."""
    return [
        (prefix + f.name, f.type, CLI_DEFAULTS.get(prefix + f.name, f.default))
        for f in fields(cls) if f.name not in derived
    ]


RunConfig = make_dataclass("RunConfig", [
    # dataset: either synthetic=N or images=DIR with captions=FILE
    ("images", str, ""),
    ("captions", str, ""),
    ("synthetic", int, 0),
    ("ratios", tuple, (0.8, 0.1, 0.1)),
    ("min_freq", int, 1),
    # model and optimization: the typed configs' fields, the decoder's under dec_
    *_config_keys(EncoderConfig),
    *_config_keys(DecoderConfig, "dec_", derived=("vocab_size", "context_width")),
    *_config_keys(ModelConfig, derived=("encoder", "decoder")),
    *_config_keys(TrainConfig),
    ("epochs", int, 1),
    # generation and evaluation
    ("max_len", int, 16),
    ("beam_width", int, 1),
    ("eval_split", str, "val"),
    # run plumbing
    ("vocab", str, ""),
    ("seed", int, 0),
    ("out", str, "out"),
], namespace={"__doc__": "Every tunable of a run, flat so a key=value file covers it all.", "__module__": __name__})


_CASTS = {int: int, float: float, str: str, tuple: lambda raw: tuple(float(p) for p in raw.split(","))}


def parse_config_file(path) -> dict[str, str]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} not found")
    raw: dict[str, str] = {}
    for lineno, line in enumerate(read_file(path, ConfigError, "config file", text=True).splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key = key.strip()
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def run_config(args) -> RunConfig:
    """The RunConfig for parsed CLI args: file values, then flag overrides."""
    rc = RunConfig()
    known = {f.name for f in fields(RunConfig)}
    if args.config:
        for key, value in parse_config_file(args.config).items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            caster = _CASTS[type(getattr(rc, key))]
            try:
                setattr(rc, key, caster(value))
            except ValueError as e:
                raise ConfigError(f"config key {key!r}: {e}") from e
    if args.seed is not None:
        rc.seed = args.seed
    if args.out is not None:
        rc.out = args.out
    for key, least in (("seed", 0), ("epochs", 0), ("max_len", 3), ("beam_width", 1)):
        if getattr(rc, key) < least:
            raise ConfigError(f"{key} must be >= {least}, got {getattr(rc, key)}")
    return rc


def typed_config(cls, rc: RunConfig, prefix: str = "", /, **derived):
    """``cls`` from the run's keys for its fields (each named prefix + field), plus the derived fields."""
    return cls(**{f.name: getattr(rc, prefix + f.name) for f in fields(cls) if f.name not in derived}, **derived)


def model_config(rc: RunConfig, vocab_size: int) -> ModelConfig:
    enc = typed_config(EncoderConfig, rc)
    dec = typed_config(DecoderConfig, rc, "dec_", vocab_size=vocab_size, context_width=enc.feature_width)
    return typed_config(ModelConfig, rc, encoder=enc, decoder=dec)


def train_config(rc: RunConfig) -> TrainConfig:
    return typed_config(TrainConfig, rc)


def load_run_dataset(rc: RunConfig) -> CaptionDataset:
    if rc.synthetic > 0:
        return make_synthetic(rc.synthetic, grid=rc.image_size, seed=rc.seed)
    if rc.images and rc.captions:
        return load_dataset(rc.images, rc.captions, rc.ratios)
    raise ConfigError("dataset unset: give synthetic=N, or images=DIR and captions=FILE")


def out_dir(rc: RunConfig) -> Path:
    out = Path(rc.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # a path through or onto a file
        raise ConfigError(f"--out {out} is not a directory that can be made: {e}") from e
    return out


def train_vocab(rc: RunConfig, ds: CaptionDataset) -> tuple[Vocabulary, int]:
    """The vocabulary of the training captions, and how many there are."""
    captions = [c for _, c in ds.caption_pairs("train")]
    if not captions:
        raise DataError("training split has no captions")
    return Vocabulary.from_corpus(captions, min_freq=rc.min_freq), len(captions)


def eval_records(rc: RunConfig, ds: CaptionDataset) -> list[Record]:
    records = ds.split_records(rc.eval_split)
    if not records:
        raise DataError(f"split {rc.eval_split!r} is empty")
    return records


def load_run_model(rc: RunConfig, checkpoint_path) -> CaptionModel:
    """The checkpoint's model, with the vocab key's vocabulary or else the vocab.txt beside it.

    A vocabulary whose size is not the checkpoint's is a VocabError naming its file.
    """
    ckpt = load_checkpoint(checkpoint_path)
    path = Path(rc.vocab) if rc.vocab else Path(checkpoint_path).parent / "vocab.txt"
    if not path.exists():
        raise DataError(f"vocabulary file {path} not found (set the vocab= config key)")
    vocab = Vocabulary.load(path)
    try:
        return model_from_checkpoint(ckpt, vocab)[0]
    except ConfigError as e:
        # a stored config that does not parse raises here again; one that does says how many tokens it wants
        if ModelConfig.from_dict(ckpt.config["model"]).decoder.vocab_size == len(vocab):
            raise
        raise VocabError(f"vocabulary file {path} does not fit checkpoint {checkpoint_path}: {e}") from e


def check_images(images, cfg: EncoderConfig) -> None:
    """A DataError naming the first of the (name, array) pairs whose shape the encoder does not take."""
    want = (cfg.image_size, cfg.image_size, cfg.image_channels)
    for name, arr in images:
        if arr.shape != want:
            raise DataError(f"image {name} is {arr.shape}, model expects {want}")


def check_run_images(ds: CaptionDataset, cfg: EncoderConfig) -> None:
    """train's and ablate's check of the dataset against the config, before either writes or trains anything."""
    try:
        check_images(((r.name, r.image) for r in ds.records), cfg)
    except DataError as e:
        raise ConfigError(f"the dataset's images do not fit image_channels {cfg.image_channels} "
                          f"and image_size {cfg.image_size}: {e}") from e


def load_image(path, cfg: EncoderConfig) -> Tensor:
    pixels, maxval = read_netpbm(path)
    arr = pixels.astype(np.float64) / maxval
    check_images([(path, arr)], cfg)
    return Tensor(arr)


def cmd_train(args) -> int:
    rc = run_config(args)
    tcfg = train_config(rc)
    out = out_dir(rc)
    used = [p for p in (out / "loss.tsv", *sorted(out.glob("epoch-*.ckpt"))) if p.exists()]
    if used:
        raise ConfigError(f"--out {out} already holds a run ({used[0]} exists); give a new directory")
    ds = load_run_dataset(rc)
    vocab, _ = train_vocab(rc, ds)
    mcfg = model_config(rc, len(vocab))
    check_run_images(ds, mcfg.encoder)
    model = build_model(mcfg, vocab, seed=rc.seed)
    set_channel_stats(model, ds.mean, ds.std)
    pairs = training_pairs(ds, vocab)
    check_batches(len(pairs), tcfg)  # a refused run writes nothing
    vocab.save(out / "vocab.txt")
    extra = {"seed": rc.seed}
    save_model(out / "epoch-0000.ckpt", model, None, extra=extra)
    state = None
    with open(out / "loss.tsv", "w", encoding="utf-8") as log:
        log.write("step\tce\tcontrastive\ttotal\n")

        def on_step(h):
            log.write(f"{h.step}\t{h.ce!r}\t{h.contrastive!r}\t{h.total!r}\n")

        per_epoch = steps_per_epoch(len(pairs), tcfg.batch_size)
        for epoch in range(1, rc.epochs + 1):
            state, _ = fit(model, pairs, tcfg, steps=per_epoch, state=state, on_step=on_step)
            save_model(out / f"epoch-{epoch:04d}.ckpt", model, state, extra=extra)
    steps = state.step if state is not None else 0
    print(f"trained {rc.epochs} epochs ({steps} steps) over {len(pairs)} pairs; outputs in {out}")
    return 0


def cmd_caption(args) -> int:
    rc = run_config(args)
    model = load_run_model(rc, args.checkpoint)
    image = load_image(args.image, model.cfg.encoder)
    seq = generate(model, image, max_len=rc.max_len, beam_width=rc.beam_width)
    print(sequence_text(model.vocab, seq))
    return 0


def cmd_eval(args) -> int:
    rc = run_config(args)
    out = out_dir(rc)
    ds = load_run_dataset(rc)
    model = load_run_model(rc, args.checkpoint)
    records = eval_records(rc, ds)
    check_images(((r.name, r.image) for r in records), model.cfg.encoder)
    generated = caption_records(model, records, max_len=rc.max_len, beam_width=rc.beam_width)
    with open(out / "candidates.tsv", "w", encoding="utf-8") as f:
        for name, (hypothesis, _) in generated.items():
            f.write(f"{name}\t{hypothesis}\n")
    report = score_report(ScoredCorpus.from_texts(generated))
    table = format_reports({rc.eval_split: report})
    (out / "report.txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    return 0


def cmd_heatmap(args) -> int:
    rc = run_config(args)
    out = out_dir(rc)
    model = load_run_model(rc, args.checkpoint)
    image = load_image(args.image, model.cfg.encoder)
    enc_out = encode_image(model, image)
    stem = Path(args.image).stem
    for block in range(max(model.cfg.encoder.depth, 1)):  # depth 0 ends in heatmap's "no blocks" error
        gray = heatmap_to_gray(heatmap(enc_out, block=block))
        path = out / f"{stem}-heatmap-block{block}.pgm"
        write_netpbm(path, gray)
        print(path)
    return 0


def cmd_ablate(args) -> int:
    rc = run_config(args)
    out = out_dir(rc)
    ds = load_run_dataset(rc)
    vocab, n_captions = train_vocab(rc, ds)
    steps = rc.epochs * steps_per_epoch(n_captions, rc.batch_size)
    if steps < 1:
        raise ConfigError("ablate needs epochs >= 1")
    eval_records(rc, ds)  # an empty eval split fails here, not after the first variant trains
    mcfg = model_config(rc, len(vocab))
    check_run_images(ds, mcfg.encoder)
    reports = run_ablation(
        ds, vocab, mcfg, train_config(rc), steps,
        seed=rc.seed, eval_split=rc.eval_split, max_len=rc.max_len,
    )
    table = format_reports(reports)
    (out / "ablation.txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--out", default=None, help="output directory (default: out)")

    parser = _Parser(prog="dualcap", description="Train and run a dual-attention image captioner.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    epilog = "config keys (key = default):\n" + "\n".join(
        f"  {f.name} = {','.join(map(str, f.default)) if isinstance(f.default, tuple) else f.default}"
        for f in fields(RunConfig)
    )

    def command(name, func, help, *positionals):
        p = sub.add_parser(name, parents=[common], help=help, epilog=epilog,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        for arg in positionals:
            p.add_argument(arg)
        p.set_defaults(func=func)

    command("train", cmd_train, "train a model, write checkpoints and a loss log")
    command("caption", cmd_caption, "caption one image with a trained model", "checkpoint", "image")
    command("eval", cmd_eval, "score generated captions on a dataset split", "checkpoint")
    command("heatmap", cmd_heatmap, "write per-block attention heatmaps as PGM", "checkpoint", "image")
    command("ablate", cmd_ablate, "train and score all attention/contrastive variants")
    return parser


def main(argv=None) -> int:
    if hasattr(sys.stdout, "reconfigure"):  # captions print as UTF-8 whatever the locale, as files are written
        sys.stdout.reconfigure(encoding="utf-8")
    try:
        code = _dispatch(argv)
        sys.stdout.flush()  # a reader that closed the pipe early fails here, not in the flush at exit
        return code
    except BrokenPipeError:
        # as in the Python docs' note on SIGPIPE: whatever is still buffered goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def _dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except IntegrityError as e:
        print(f"integrity error: {e}", file=sys.stderr)
        return 3
    except NonFiniteError as e:
        print(f"non-finite error: {e}", file=sys.stderr)
        return 4
    except (DataError, VocabError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except (ConfigError, ContractError, ShapeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
