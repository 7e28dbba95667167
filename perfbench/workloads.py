"""Set-up, requests and output checks of the three workloads.

Every workload is one closed-loop client: the next request goes out when
the previous one returns.  There are four request kinds, all made through
the same library functions the ``dualcap`` CLI calls:

* ``train``: ``dualcap train`` from a fresh model, i.e. ``fit`` one
  epoch at a time with a checkpoint saved before training and after
  every epoch;
* ``greedy`` / ``beam4``: ``dualcap caption`` on one PPM image, i.e.
  ``read_netpbm`` then ``generate`` with beam width 1 or 4;
* ``eval``: ``dualcap eval``, i.e. ``load_model``, ``caption_records``
  over the split, then ``score_report``.

Every workload runs all four kinds, so every end-to-end metric has a
value on every workload; the workloads differ in the training config and
in how the client's time is split between training and captioning.
Captions always come from the README model trained in set-up until it
reproduces its training captions, because only a converged model makes
captions (and so caption latency) the same from seed to seed.

Library functions are looked up on their modules at call time
(``train.fit``, not a name imported here) so the tracer's wraps apply.
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dualcap import checkpoint, data, metrics, model, train
from dualcap.autograd import Tensor
from dualcap.encoder import EncoderConfig
from dualcap.textdec import DecoderConfig, Vocabulary

README_ENCODER = dict(image_size=16, patch_size=4, dim=16, heads=2, window_patches=4, groups=4, depth=1)
# patch 2 on 32x32 images: P=256 patches in 64 windows of 4
P256_ENCODER = dict(image_size=32, patch_size=2, dim=32, heads=2, window_patches=4, groups=4, depth=1)
TRAIN_CONFIG = train.TrainConfig(lr=0.003, batch_size=8)
# Captions are 8 tokens with BOS and EOS.  At the CLI default of 16 the beams
# that lose to the greedy path run on to the cap on some images and not on
# others (107 vs 280-440 decoder tokens), so beam-4 work would swing 3x
# between seeds; 10 leaves two spare words and keeps every image near 110-145.
MAX_LEN = 10
# Set-up only needs a model that reproduces its captions, so it trains at a
# higher rate than the README's 0.003: seeds tried converge in 50-120 steps
# at 0.01 against 125-175 at 0.003 (0.02 oscillates in and out of it).
CONVERGE_CONFIG = train.TrainConfig(lr=0.01, batch_size=8)
CONVERGE_CHECK_EVERY = 10
# Seeds first reproduce their captions after 50-120 steps, so checking only
# from step 120 on makes set-up the same work for nearly every seed, and
# setup_s a time rather than a count of the steps a seed needed.  Of seeds
# 1-24, all reproduce at 150 and all but two already at 120.
CONVERGE_MIN_STEPS = 120
CONVERGE_MAX_STEPS = 400
CAPTION_KINDS = ("greedy", "beam4", "eval")
# Neighbours on a shared host change its speed by up to 1.7x, for seconds to
# minutes at a time, so times are scaled to a host of fixed speed.  Every
# PROBE_EVERY_S of work (between requests, and between train steps) the
# client runs two probes and records the host's slowness: the geometric mean
# of each probe's time over its time on an undisturbed host (REFERENCE_S).
# A measured time is divided by the median slowness read within
# PROBE_SPAN_S of it; time spent probing is left out of every measured time.
# The probes stand for the kinds of work dualcap does: interpreter work with
# small numpy ops, and a walk along a shuffled Python list larger than L2.
# On the 2-vCPU Xeon this was tuned on, the median greedy and beam-4 caption
# time of 15-second stretches varied by 10-11% (coefficient of variation)
# and the scaled one by 4%; for two-second stretches of train steps, 13% and
# 6%.  Probes that allocate and write arrays of a few MiB tracked slightly
# better over minutes but later read 1.6x slower while dualcap was not, so
# neither probe makes a system call.  The probes use none of dualcap, so a
# change to the library cannot speed them up.
PROBE_EVERY_S = 0.1
PROBE_SPAN_S = 0.5
REFERENCE_S = (0.0013, 0.00125)
_MIX_A = np.linspace(-1.0, 1.0, 256).reshape(16, 16)
_MIX_B = _MIX_A.T.copy()


def _cycle(n: int) -> list[int]:
    """``nxt`` with ``nxt[i]`` the next index of one shuffled cycle through range(n)."""
    order = np.random.default_rng(2).permutation(n).tolist()
    nxt = [0] * n
    for a, b in zip(order, order[1:] + order[:1]):
        nxt[a] = b
    return nxt


_WALK = _cycle(1 << 18)  # ints are not tracked by the garbage collector


def _probe_mix() -> None:
    x, total = _MIX_A, 0
    for i in range(170):
        x = np.tanh(x @ _MIX_B * 0.05)
        for j in range(160):
            total += i ^ j


def _probe_walk() -> None:
    i = 0
    for _ in range(10000):
        i = _WALK[i]


class HostSpeed:
    """Slowness readings over a run, and times scaled by them to the reference host."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter() of each reading, ascending
        self.slowness: list[float] = []
        self.spent = 0.0  # seconds spent probing; callers leave it out of their times
        self._last = -math.inf

    def tick(self, force: bool = False) -> None:
        """Take a reading if PROBE_EVERY_S has passed since the last one."""
        start = time.perf_counter()
        if not force and start - self._last < PROBE_EVERY_S:
            return
        slowness = 1.0
        for probe, reference in zip((_probe_mix, _probe_walk), REFERENCE_S):
            t = time.perf_counter()
            probe()
            slowness *= (time.perf_counter() - t) / reference
        end = time.perf_counter()
        self.at.append((start + end) / 2)
        self.slowness.append(slowness ** (1 / len(REFERENCE_S)))
        self.spent += end - start
        self._last = end

    def scaled(self, sample: tuple[float, float, float]) -> float:
        """``(start, end, seconds)`` measured -> seconds on the reference host."""
        start, end, seconds = sample
        lo = bisect.bisect_left(self.at, start - PROBE_SPAN_S)
        hi = bisect.bisect_right(self.at, end + PROBE_SPAN_S)
        return seconds / statistics.median(self.slowness[lo:hi])


@dataclass(frozen=True)
class TrainSpec:
    pairs: int
    encoder: dict
    epochs: int  # few enough that the last-epoch loss varies little across seeds


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is in BENCHMARK.json and perfbench/README.md."""

    train: TrainSpec
    train_share: float  # share of the client's time spent in train requests

    def shares(self) -> dict[str, float]:
        rest = (1.0 - self.train_share) / len(CAPTION_KINDS)
        return {"train": self.train_share, **{k: rest for k in CAPTION_KINDS}}


WORKLOADS = {
    "train-readme": Workload(
        train=TrainSpec(pairs=8, encoder=README_ENCODER, epochs=16),
        train_share=0.75,
    ),
    "train-p256": Workload(
        train=TrainSpec(pairs=16, encoder=P256_ENCODER, epochs=4),
        train_share=0.75,
    ),
    "caption": Workload(
        train=TrainSpec(pairs=8, encoder=README_ENCODER, epochs=16),
        train_share=0.25,
    ),
}


def build(ds, encoder: dict, seed: int) -> model.CaptionModel:
    """A fresh captioner for ``ds`` with the README decoder and fusion widths."""
    vocab = Vocabulary.from_corpus([c for _, c in ds.caption_pairs("train")])
    enc = EncoderConfig(**encoder)
    dec = DecoderConfig(vocab_size=len(vocab), dim=16, heads=2, depth=1, context_width=enc.feature_width)
    m = model.build_model(model.ModelConfig(encoder=enc, decoder=dec, joint_dim=8), vocab, seed=seed)
    model.set_channel_stats(m, ds.mean, ds.std)
    return m


@dataclass
class Recorder:
    """Samples and failure counts of one timed phase.

    Times are recorded as ``(start, end, seconds)`` and replaced by seconds
    on the reference host when the phase ends (:meth:`rescale`).
    """

    attempted: int = 0
    failed: int = 0
    tried: Counter = field(default_factory=Counter)  # requests per kind, failed ones too
    request_s: dict[str, list[float]] = field(default_factory=lambda: {k: [] for k in ("train", *CAPTION_KINDS)})
    step_s: list[float] = field(default_factory=list)
    train_steps: int = 0
    train_s: list[float] = field(default_factory=list)  # per train request
    loss_final: float = math.nan
    eval_images: int = 0
    eval_s: list[float] = field(default_factory=list)  # per eval request
    greedy_exact: int = 0
    gc_pause_s: float = 0.0
    gc_collections: list[int] = field(default_factory=lambda: [0, 0, 0])
    _gc_start: float = 0.0

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections[info["generation"]] += 1

    def _timed(self) -> list[list[float]]:
        return [self.step_s, self.train_s, self.eval_s, *self.request_s.values()]

    def rescale(self, speed: HostSpeed) -> None:
        """Replace the samples not yet scaled by seconds on the reference host."""
        for xs in self._timed():
            xs[:] = [x if isinstance(x, float) else speed.scaled(x) for x in xs]

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED: {what}", file=sys.stderr)


class Session:
    """One set-up: the trained captioner on disk and in memory, plus train data.

    ``speed`` takes its readings between train steps and between requests.
    """

    def __init__(self, workload: Workload, seed: int, workdir: Path, rec: Recorder, speed: HostSpeed):
        self.workload = workload
        self.speed = speed
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True)
        rec.attempted += 1
        ds = data.make_synthetic(8, grid=README_ENCODER["image_size"], seed=seed)
        captioner = build(ds, README_ENCODER, seed)
        pairs = train.training_pairs(ds, captioner.vocab)
        records = ds.split_records("train")
        state = None
        while True:
            state, _ = train.fit(captioner, pairs, CONVERGE_CONFIG, steps=CONVERGE_CHECK_EVERY, state=state)
            speed.tick()
            if state.step < CONVERGE_MIN_STEPS:
                continue
            reproduced = self._reproduces(captioner, records)
            if reproduced or state.step >= CONVERGE_MAX_STEPS:
                break
        self.checkpoint = workdir / "captioner.ckpt"
        checkpoint.save_model(self.checkpoint, captioner, state)
        captions = data.write_dataset(ds, workdir / "images")
        self.images = [captions.parent / r.name for r in records]
        self.references = [r.captions[0] for r in records]
        self.records = records
        self.vocab = captioner.vocab
        self.model, _, _ = checkpoint.load_model(self.checkpoint, self.vocab)
        if not reproduced:
            rec.fail(f"set-up: captions not reproduced after {state.step} steps")
        if not all(
            self.model.params[name].data.tobytes() == t.data.tobytes()
            for name, t in captioner.params.items()
        ):
            rec.fail("set-up: reloaded checkpoint differs from the saved parameters")
        spec = workload.train
        self.train_ds = data.make_synthetic(spec.pairs, grid=spec.encoder["image_size"], seed=seed)
        self.beam_texts: dict[int, str] = {}
        self.first_losses: list[float] | None = None
        self.served = Counter()  # requests so far per beam width; picks the next image

    @staticmethod
    def _reproduces(m, records) -> bool:
        out = train.caption_records(m, records, max_len=MAX_LEN)
        return all(hyp == refs[0] for hyp, refs in out.values())

    # -- requests; each returns a failure message or None ----------------

    def train_run(self, rec: Recorder) -> str | None:
        spec = self.workload.train
        out = self.workdir / "train"
        out.mkdir(exist_ok=True)
        start, probed = time.perf_counter(), self.speed.spent
        m = build(self.train_ds, spec.encoder, self.seed)
        m.vocab.save(out / "vocab.txt")
        pairs = train.training_pairs(self.train_ds, m.vocab)
        extra = {"seed": self.seed}
        checkpoint.save_model(out / "epoch-0000.ckpt", m, None, extra=extra)
        per_epoch = train.steps_per_epoch(len(pairs), TRAIN_CONFIG.batch_size)
        losses: list[float] = []
        steps: list[tuple[float, float, float]] = []
        state = None
        mark = 0.0

        def on_step(h):
            nonlocal mark
            now = time.perf_counter()
            steps.append((mark, now, now - mark))
            losses.append(h.total)
            self.speed.tick()
            mark = time.perf_counter()

        for epoch in range(1, spec.epochs + 1):
            mark = time.perf_counter()
            state, _ = train.fit(m, pairs, TRAIN_CONFIG, steps=per_epoch, state=state, on_step=on_step)
            checkpoint.save_model(out / f"epoch-{epoch:04d}.ckpt", m, state, extra=extra)
        end = time.perf_counter()
        if not all(math.isfinite(x) for x in losses):
            return "train: non-finite loss"
        if self.first_losses is None:
            self.first_losses = losses
        elif losses != self.first_losses:
            return "train: a rerun from the same seed gave different losses"
        rec.train_s.append((start, end, end - start - (self.speed.spent - probed)))
        rec.step_s.extend(steps)
        rec.train_steps += len(steps)
        rec.loss_final = statistics.fmean(losses[-per_epoch:])
        return None

    def caption(self, rec: Recorder, beam_width: int) -> str | None:
        i = self.served[beam_width] % len(self.images)
        self.served[beam_width] += 1
        pixels, maxval = data.read_netpbm(self.images[i])
        image = Tensor(pixels.astype(np.float64) / maxval)
        seq = train.generate(self.model, image, max_len=MAX_LEN, beam_width=beam_width)
        text = train.sequence_text(self.vocab, seq)
        if beam_width == 1:
            if text != self.references[i]:
                return f"greedy caption {text!r} != reference {self.references[i]!r}"
            rec.greedy_exact += 1
        elif self.beam_texts.setdefault(i, text) != text:
            return f"beam-{beam_width} caption changed between identical requests"
        return None

    def evaluate(self, rec: Recorder) -> str | None:
        start = time.perf_counter()
        m, _, _ = checkpoint.load_model(self.checkpoint, self.vocab)
        generated = train.caption_records(m, self.records, max_len=MAX_LEN)
        report = metrics.score_report(metrics.ScoredCorpus.from_texts(generated))
        end = time.perf_counter()
        if not all(math.isfinite(v) for v in report.values()):
            return f"eval: non-finite score {report.as_dict()}"
        rec.eval_s.append((start, end, end - start))
        rec.eval_images += len(self.records)
        return None

    def request(self, kind: str, rec: Recorder) -> float:
        """Make one request; returns its time, probing left out."""
        rec.attempted += 1
        rec.tried[kind] += 1
        start, probed = time.perf_counter(), self.speed.spent
        try:
            if kind == "train":
                problem = self.train_run(rec)
            elif kind == "eval":
                problem = self.evaluate(rec)
            else:
                problem = self.caption(rec, 1 if kind == "greedy" else 4)
        except Exception:  # a request that raises is a failed operation
            problem = f"{kind} raised:\n{traceback.format_exc()}"
        end = time.perf_counter()
        seconds = end - start - (self.speed.spent - probed)
        if problem is None:
            rec.request_s[kind].append((start, end, seconds))
        else:
            rec.fail(problem)
        return seconds


def run_loop(session: Session, seconds: float, rec: Recorder, tracer=None) -> None:
    """Closed loop for ``seconds``; each request goes to the kind furthest below its time share.

    Times are scaled to the reference host when the loop ends.
    """
    shares = session.workload.shares()
    spent = dict.fromkeys(shares, 0.0)
    speed = session.speed
    gc.collect()  # garbage from before this phase is not billed to it
    gc.callbacks.append(rec.on_gc)
    try:
        speed.tick(force=True)
        deadline = time.perf_counter() + seconds
        last = None
        while time.perf_counter() < deadline:
            kind = min(shares, key=lambda k: spent[k] / shares[k])
            if (kind == "train") != (last == "train"):
                # Untimed: the tape cycles training leaves are not billed to the
                # caption requests after it, as separate CLI processes would not
                # be, nor caption garbage to training.
                gc.collect()
            last = kind
            if tracer is None:
                spent[kind] += session.request(kind, rec)
            else:
                with tracer.request(kind):
                    spent[kind] += session.request(kind, rec)
            speed.tick()
        speed.tick(force=True)
    finally:
        gc.callbacks.remove(rec.on_gc)
    rec.rescale(speed)
