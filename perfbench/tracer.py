"""Spans around dualcap's public functions, installed from outside src/.

A wrap target is the module attribute a caller looks up at call time:
``generate`` calls ``dualcap.train.decode_text``, so replacing that
attribute times every decoder call made while captioning without editing
the library.  Targets that no longer exist (a helper renamed by a
refactor) are listed as missing, and the metrics that need them are
reported missing instead of zero.

Spans nest.  A span's self time is its duration minus the durations of
its direct child spans; garbage-collector pauses are child spans named
``gc`` of whatever was running when the collector started.  Every span
belongs to the request kind (``train``, ``greedy``, ...) of the root
span opened by :meth:`Tracer.request`, so numbers can be split by kind.
"""

from __future__ import annotations

import functools
import gc
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager

# (target, span name).  Two targets may feed one span when the same
# library function is called from two modules.
TARGETS = (
    ("dualcap.train.train_step", "train.train_step"),
    ("dualcap.train.adam_step", "train.adam_step"),
    ("dualcap.train.generate", "train.generate"),
    ("dualcap.train.contrastive_loss", "fusion.contrastive_loss"),
    ("dualcap.train.decode_text", "textdec.decode_text"),
    ("dualcap.train.conditioned_logits", "model.conditioned_logits"),
    ("dualcap.model.encode", "encoder.encode"),
    ("dualcap.model.decode_text", "textdec.decode_text"),
    ("dualcap.model.conditioned_logits", "model.conditioned_logits"),
    ("dualcap.model.pool_and_project", "fusion.pool_and_project"),
    ("dualcap.autograd.Tape.backward", "autograd.backward"),
    ("dualcap.metrics.score_report", "metrics.score_report"),
    ("dualcap.metrics.bleu", "metrics.bleu"),
    ("dualcap.metrics.rouge_l", "metrics.rouge_l"),
    ("dualcap.metrics.meteor", "metrics.meteor"),
    ("dualcap.metrics.cider", "metrics.cider"),
    ("dualcap.checkpoint.save_model", "checkpoint.save"),
    ("dualcap.checkpoint.load_model", "checkpoint.load"),
    ("dualcap.data.read_netpbm", "data.read_netpbm"),
)
FLOP_COUNTER = "dualcap.flops.count_flops"


class Missing(Exception):
    """A per-layer metric whose spans never fired; the message says why."""


def resolve(target: str):
    """(owner object, attribute name) for a dotted target, or None if absent."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
            getattr(owner, parts[-1])
        except AttributeError:
            return None
        return owner, parts[-1]
    return None


def _token_count(tokens) -> int:
    return len(tokens.ids) if hasattr(tokens, "ids") else len(tokens)


class Tracer:
    """Span and counter totals keyed by (request kind, name)."""

    def __init__(self):
        self.kind = "idle"  # request kind of the spans being recorded
        self._stack: list[list] = []  # open spans: [name, start, child seconds]
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counters = defaultdict(float)
        self.installed: list[str] = []
        self.missing: list[str] = []
        self._span_targets = defaultdict(list)
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def push(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def pop(self) -> None:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        if self._stack:
            self._stack[-1][2] += duration
        key = (self.kind, name)
        self.calls[key] += 1
        self.seconds[key] += duration
        self.self_seconds[key] += duration - child

    @contextmanager
    def request(self, kind: str):
        """Root span of one request; spans inside it count toward ``kind``."""
        self.kind = kind
        self.push(f"request.{kind}")
        try:
            yield
        finally:
            self.pop()
            self.kind = "idle"

    def count(self, name: str, value: float) -> None:
        self.counters[(self.kind, name)] += value

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.push("gc")
        else:
            self.pop()
            if info["generation"] == 2:
                self.count("gc.gen2", 1)

    # -- wrapping ------------------------------------------------------

    def install(self) -> None:
        """Replace every target present with a timing wrapper."""
        self.installed, self.missing = [], []
        self._span_targets.clear()
        counter = resolve(FLOP_COUNTER)
        if counter is None:
            self.missing.append(FLOP_COUNTER)
        for target, span in TARGETS:
            self._span_targets[span].append(target)
            where = resolve(target)
            if where is None:
                self.missing.append(target)
                continue
            owner, attr = where
            original = getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, counter))
            self.installed.append(target)
        gc.callbacks.append(self.on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self.on_gc)
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, span: str, flop_counter):
        after = _AFTER.get(span)
        counted = span == "train.train_step" and flop_counter is not None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.push(span)
            try:
                if counted:
                    owner, attr = flop_counter
                    with getattr(owner, attr)() as flops:
                        result = fn(*args, **kwargs)
                    self.count("flops.total", flops.total)
                    for scope, n in flops.by_scope.items():
                        self.count(f"flops.{scope}", n)
                else:
                    result = fn(*args, **kwargs)
                if after is not None:
                    after(self, args)
                return result
            finally:
                self.pop()

        return traced

    # -- reading totals ------------------------------------------------

    def n(self, kinds, name: str) -> int:
        """Calls of span ``name`` in ``kinds``; Missing if there were none."""
        calls = sum(self.calls[(k, name)] for k in kinds)
        if calls == 0:
            targets = self._span_targets.get(name, [])
            gone = [t for t in targets if t in self.missing]
            why = f"wrap target absent: {', '.join(gone)}" if gone else f"{name} never called"
            raise Missing(why)
        return calls

    def ms(self, kinds, name: str) -> float:
        return 1e3 * sum(self.seconds[(k, name)] for k in kinds)

    def self_ms(self, kinds, name: str) -> float:
        return 1e3 * sum(self.self_seconds[(k, name)] for k in kinds)

    def counter(self, kinds, name: str) -> float:
        if name.startswith("flops.") and FLOP_COUNTER in self.missing:
            raise Missing(f"wrap target absent: {FLOP_COUNTER}")
        return sum(self.counters[(k, name)] for k in kinds)

    def flops(self, kinds, scope: str) -> float:
        """Forward FLOPs in ``scope`` and its nested scopes."""
        self.counter(kinds, "flops.total")  # raises Missing without a FLOP counter
        prefix = f"flops.{scope}"
        return sum(
            v for (k, name), v in self.counters.items()
            if k in kinds and (name == prefix or name.startswith(prefix + "."))
        )


def _after_backward(tracer: Tracer, args) -> None:
    tracer.count("autograd.tape_records", len(args[0]))


def _after_decode(tracer: Tracer, args) -> None:
    tracer.count("textdec.tokens", _token_count(args[0]))


def _after_save(tracer: Tracer, args) -> None:
    tracer.count("checkpoint.bytes", os.path.getsize(args[0]))


_AFTER = {
    "autograd.backward": _after_backward,
    "textdec.decode_text": _after_decode,
    "checkpoint.save": _after_save,
}
