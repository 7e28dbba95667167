"""Binary checkpoints: every parameter and optimizer moment, bitwise.

Layout:

    magic "TFN1" | u32 header length | u32 CRC-32 | JSON header | payload

Both integers are little-endian; the CRC-32 covers the header and the
payload.  The header carries the format number (3), the step count, an
arbitrary JSON config snapshot and a manifest of arrays (name, kind,
shape, byte offset into the payload).  The payload is the arrays'
float64 bytes, little-endian, in manifest order: parameters first (model
insertion order), then Adam first moments, then second moments.  JSON
keys are sorted, so the same state always produces byte-identical
files.  Earlier formats are rejected, naming their number: format 1
stored attention weights one array per head or group, and format 2 kept
its header right after the length, with a CRC-32 of the payload alone.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autograd import Tensor
from .errors import IntegrityError
from .model import CaptionModel, ModelConfig, build_model
from .textdec import Vocabulary
from .train import AdamState

MAGIC = b"TFN1"
FORMAT = 3
_PREFIX = 12  # magic, header length, CRC-32
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
        "format": FORMAT,
        "step": state.step if state is not None else 0,
        "config": config,
        "arrays": manifest,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(b"".join(chunks), zlib.crc32(blob))
    data = b"".join([MAGIC, struct.pack("<II", len(blob), crc), blob, *chunks])
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
    """Read a checkpoint back; any damage found raises IntegrityError.

    The manifest must tile the payload exactly, and header and payload
    must match the CRC-32, which is checked after the manifest walk so
    that structural damage is named as such.  The arrays are read-only
    views of the file's bytes.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as e:
        raise IntegrityError(f"cannot read checkpoint {path}: {e}") from e
    if len(data) < _PREFIX or data[:4] != MAGIC:
        raise IntegrityError(f"{path}: not a checkpoint (bad magic)")
    header_len, crc = struct.unpack("<II", data[4:_PREFIX])
    if _PREFIX + header_len > len(data):
        raise IntegrityError(f"{path}: header length {header_len} exceeds file size")
    try:
        header = json.loads(data[_PREFIX:_PREFIX + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise IntegrityError(f"{path}: {_earlier_format(data) or f'corrupt header: {e}'}") from e
    if not isinstance(header, dict):
        raise IntegrityError(f"{path}: corrupt header: not a JSON object")
    if header.get("format") != FORMAT:
        raise IntegrityError(f"{path}: unsupported format {header.get('format')!r}")
    for key in ("step", "config", "arrays"):
        if key not in header:
            raise IntegrityError(f"{path}: header missing {key!r}")
    payload = memoryview(data)[_PREFIX + header_len:]
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
        stores[kind][name] = arr.reshape(shape)
        expected_offset = offset + nbytes
    if expected_offset != len(payload):
        raise IntegrityError(f"{path}: {len(payload) - expected_offset} trailing payload bytes")
    actual = zlib.crc32(memoryview(data)[_PREFIX:])
    if actual != crc:
        raise IntegrityError(f"{path}: CRC-32 {actual} of header and payload does not match the stored {crc}")
    return ckpt


def _earlier_format(data: bytes) -> str | None:
    """Name the format of a file laid out as formats 1 and 2 were; None for any other file.

    Those formats put the JSON header right after its length, with no
    CRC-32 between; only their format number is read, to name it.
    """
    (header_len,) = struct.unpack("<I", data[4:8])
    try:
        header = json.loads(data[8:8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if isinstance(header, dict) and "format" in header:
        return f"unsupported format {header['format']!r}"
    return None


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
        tensor.data = arr.astype(np.float64)


def adam_state(ckpt: Checkpoint) -> AdamState:
    return AdamState(
        step=ckpt.step,
        m={name: arr.astype(np.float64) for name, arr in ckpt.adam_m.items()},
        v={name: arr.astype(np.float64) for name, arr in ckpt.adam_v.items()},
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
