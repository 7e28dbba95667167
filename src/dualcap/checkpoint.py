"""Binary checkpoints: every parameter and optimizer moment, bitwise.

Layout:

    magic "TFN1" | u32 little-endian header length | JSON header | payload

The header carries the step count, an arbitrary JSON config snapshot,
and a manifest of arrays (name, kind, shape, byte offset into the
payload).  The payload is the arrays' float64 bytes, little-endian, in
manifest order: parameters first (model insertion order), then Adam
first moments, then second moments.  JSON keys are sorted, so the same
state always produces byte-identical files.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autograd import Tensor
from .errors import IntegrityError
from .model import CaptionModel, ModelConfig, build_model
from .textdec import Vocabulary
from .train import AdamState

MAGIC = b"TFN1"
_KINDS = ("param", "adam_m", "adam_v")


@dataclass
class Checkpoint:
    config: dict
    step: int
    params: dict[str, np.ndarray] = field(default_factory=dict)
    adam_m: dict[str, np.ndarray] = field(default_factory=dict)
    adam_v: dict[str, np.ndarray] = field(default_factory=dict)


def save_checkpoint(path, params: dict[str, Tensor], config: dict, state: AdamState | None = None) -> None:
    """Write params (and optimizer moments, when given) to one file.

    The file is replaced in one rename, so a reader sees the old file or
    the new one, never a partial write.
    """
    arrays: list[tuple[str, str, np.ndarray]] = [
        (name, "param", t.data) for name, t in params.items()
    ]
    if state is not None:
        arrays.extend((name, "adam_m", arr) for name, arr in state.m.items())
        arrays.extend((name, "adam_v", arr) for name, arr in state.v.items())
    manifest = []
    chunks = []
    offset = 0
    for name, kind, arr in arrays:
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        manifest.append({"name": name, "kind": kind, "shape": list(arr.shape), "offset": offset})
        chunks.append(raw)
        offset += len(raw)
    header = {
        "format": 1,
        "step": state.step if state is not None else 0,
        "config": config,
        "arrays": manifest,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    data = b"".join([MAGIC, struct.pack("<I", len(blob)), blob, *chunks])
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint back; any structural damage raises IntegrityError."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as e:
        raise IntegrityError(f"cannot read checkpoint {path}: {e}") from e
    if len(data) < 8 or data[:4] != MAGIC:
        raise IntegrityError(f"{path}: not a checkpoint (bad magic)")
    (header_len,) = struct.unpack("<I", data[4:8])
    if 8 + header_len > len(data):
        raise IntegrityError(f"{path}: header length {header_len} exceeds file size")
    try:
        header = json.loads(data[8:8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise IntegrityError(f"{path}: corrupt header: {e}") from e
    for key in ("format", "step", "config", "arrays"):
        if key not in header:
            raise IntegrityError(f"{path}: header missing {key!r}")
    if header["format"] != 1:
        raise IntegrityError(f"{path}: unsupported format {header['format']!r}")
    payload = data[8 + header_len:]
    ckpt = Checkpoint(config=header["config"], step=int(header["step"]))
    stores = {"param": ckpt.params, "adam_m": ckpt.adam_m, "adam_v": ckpt.adam_v}
    expected_offset = 0
    for entry in header["arrays"]:
        try:
            name, kind, shape, offset = entry["name"], entry["kind"], entry["shape"], entry["offset"]
        except (KeyError, TypeError) as e:
            raise IntegrityError(f"{path}: malformed manifest entry: {entry!r}") from e
        if kind not in _KINDS:
            raise IntegrityError(f"{path}: unknown array kind {kind!r}")
        if offset != expected_offset:
            raise IntegrityError(f"{path}: array {name!r} offset {offset}, expected {expected_offset}")
        shape = tuple(int(s) for s in shape)
        if any(s < 0 for s in shape):
            raise IntegrityError(f"{path}: array {name!r} has negative shape {shape}")
        nbytes = int(np.prod(shape, dtype=np.int64)) * 8
        if offset + nbytes > len(payload):
            raise IntegrityError(f"{path}: array {name!r} runs past end of payload")
        if name in stores[kind]:
            raise IntegrityError(f"{path}: duplicate array {kind}/{name}")
        arr = np.frombuffer(payload, dtype="<f8", count=nbytes // 8, offset=offset)
        stores[kind][name] = arr.reshape(shape).astype(np.float64)
        expected_offset = offset + nbytes
    if expected_offset != len(payload):
        raise IntegrityError(f"{path}: {len(payload) - expected_offset} trailing payload bytes")
    return ckpt


def load_into(model: CaptionModel, ckpt: Checkpoint) -> None:
    """Install checkpoint parameters into a built model, names must match."""
    have, want = set(ckpt.params), set(model.params)
    if have != want:
        missing = sorted(want - have)
        extra = sorted(have - want)
        raise IntegrityError(f"checkpoint parameter mismatch: missing {missing}, unexpected {extra}")
    for name, tensor in model.params.items():
        arr = ckpt.params[name]
        if arr.shape != tensor.data.shape:
            raise IntegrityError(f"parameter {name!r}: checkpoint shape {arr.shape} != model shape {tensor.data.shape}")
        tensor.data = arr.copy()


def adam_state(ckpt: Checkpoint) -> AdamState:
    return AdamState(
        step=ckpt.step,
        m={name: arr.copy() for name, arr in ckpt.adam_m.items()},
        v={name: arr.copy() for name, arr in ckpt.adam_v.items()},
    )


def save_model(path, model: CaptionModel, state: AdamState | None = None, extra: dict | None = None) -> None:
    """Checkpoint a CaptionModel; config records the model shape."""
    config = {"model": model.cfg.to_dict()}
    if extra:
        config.update(extra)
    save_checkpoint(path, model.params, config, state)


def model_from_checkpoint(ckpt: Checkpoint, vocab: Vocabulary) -> CaptionModel:
    """Build a CaptionModel carrying exactly the checkpoint's parameters."""
    if "model" not in ckpt.config:
        raise IntegrityError("checkpoint config has no model entry")
    cfg = ModelConfig.from_dict(ckpt.config["model"])
    model = build_model(cfg, vocab, seed=0)
    load_into(model, ckpt)
    return model


def load_model(path, vocab: Vocabulary) -> tuple[CaptionModel, AdamState, Checkpoint]:
    """Rebuild a CaptionModel (plus optimizer state) from a checkpoint."""
    ckpt = load_checkpoint(path)
    return model_from_checkpoint(ckpt, vocab), adam_state(ckpt), ckpt
