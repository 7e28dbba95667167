"""Binary checkpoints: every parameter and optimizer moment, bitwise.

Layout:

    magic "TFN1" | u32 header length | u32 CRC-32 | JSON header | payload

Both integers are little-endian; the CRC-32 covers the header and the
payload.  The header carries the format number (3), the step count, an
arbitrary JSON config snapshot and a manifest of arrays (name, kind,
shape, byte offset into the payload).  The payload is float64 bytes,
little-endian, in manifest order: parameters (model insertion order),
then Adam first and second moments in trainable-parameter order, zero
for a parameter no loss reaches.  JSON keys are sorted, so the same
state always produces byte-identical files.  Earlier formats are
rejected by number: format 1 kept attention weights per head or group,
format 2 its header right after the length and a payload-only CRC-32.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autograd import Tensor
from .errors import ContractError, IntegrityError
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
    """Write params (and Adam moments, laid out like the trainable params) to one file.

    The file is replaced in one rename, so a reader sees the old file or
    the new one, never a partial write.
    """
    sections = [("param", [(name, t.shape)], t.data) for name, t in params.items()]
    if state is not None and state.m is not None:
        trainable = [(name, t.shape) for name, t in params.items() if t.requires_grad]
        if not state.m.shape == state.v.shape == (sum(math.prod(shape) for _, shape in trainable),):
            raise ContractError(f"moments of shapes {state.m.shape}, {state.v.shape} do not fit the trainable params")
        sections += [("adam_m", trainable, state.m), ("adam_v", trainable, state.v)]
    manifest, chunks, offset = [], [], 0
    for kind, entries, arr in sections:  # one payload chunk per section
        for name, shape in entries:
            manifest.append({"name": name, "kind": kind, "shape": list(shape), "offset": offset})
            offset += math.prod(shape) * 8
        chunks.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
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
    that structural damage is named as such.  Every header value must
    have its type: the step and each entry's offset an int, each name a
    str and each shape a list of non-negative ints.  The arrays are
    read-only views of the file's bytes.
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
    if not _is_int(header["step"]):
        raise IntegrityError(f"{path}: step {header['step']!r} is not an integer")
    if not isinstance(header["config"], dict) or not isinstance(header["arrays"], list):
        raise IntegrityError(f"{path}: corrupt header: config must be an object and arrays a list")
    payload = memoryview(data)[_PREFIX + header_len:]
    ckpt = Checkpoint(config=header["config"], step=header["step"])
    stores = {"param": ckpt.params, "adam_m": ckpt.adam_m, "adam_v": ckpt.adam_v}
    expected_offset = 0
    for entry in header["arrays"]:
        try:
            name, kind, shape, offset = entry["name"], entry["kind"], entry["shape"], entry["offset"]
        except (KeyError, TypeError) as e:
            raise IntegrityError(f"{path}: malformed manifest entry: {entry!r}") from e
        if not (isinstance(name, str) and isinstance(shape, list) and all(map(_is_int, shape)) and _is_int(offset)):
            raise IntegrityError(f"{path}: malformed manifest entry: {entry!r}")
        if kind not in _KINDS:
            raise IntegrityError(f"{path}: unknown array kind {kind!r}")
        if offset != expected_offset:
            raise IntegrityError(f"{path}: array {name!r} offset {offset}, expected {expected_offset}")
        shape = tuple(shape)
        if any(s < 0 for s in shape):
            raise IntegrityError(f"{path}: array {name!r} has negative shape {shape}")
        nbytes = math.prod(shape) * 8
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
    """Copy checkpoint parameters into a built model in place, names must match."""
    have, want = set(ckpt.params), set(model.params)
    if have != want:
        missing, extra = sorted(want - have), sorted(have - want)
        raise IntegrityError(f"checkpoint parameter mismatch: missing {missing}, unexpected {extra}")
    for name, tensor in model.params.items():
        arr = ckpt.params[name]
        if arr.shape != tensor.data.shape:
            raise IntegrityError(f"parameter {name!r}: checkpoint shape {arr.shape} != model shape {tensor.data.shape}")
        tensor.data[...] = arr


def adam_state(ckpt: Checkpoint, model: CaptionModel) -> AdamState:
    """The checkpoint's step and moments, laid out like model.flat; moments not stored are zero."""
    m, v = np.zeros_like(model.flat), np.zeros_like(model.flat)
    for kind, stored, views in (("adam_m", ckpt.adam_m, model.views(m)), ("adam_v", ckpt.adam_v, model.views(v))):
        for name, arr in stored.items():
            if name not in views or arr.shape != views[name].shape:
                raise IntegrityError(f"{kind} array {name!r} of shape {arr.shape} fits no trainable parameter")
            views[name][...] = arr
    return AdamState(ckpt.step, m, v)


def save_model(path, model: CaptionModel, state: AdamState | None = None, extra: dict | None = None) -> None:
    """Checkpoint a CaptionModel; config records the model shape."""
    save_checkpoint(path, model.params, {"model": model.cfg.to_dict(), **(extra or {})}, state)


def model_from_checkpoint(ckpt: Checkpoint, vocab: Vocabulary) -> CaptionModel:
    """Build a CaptionModel carrying exactly the checkpoint's parameters."""
    if "model" not in ckpt.config:
        raise IntegrityError("checkpoint config has no model entry")
    model = build_model(ModelConfig.from_dict(ckpt.config["model"]), vocab, seed=0)
    load_into(model, ckpt)
    return model


def load_model(path, vocab: Vocabulary) -> tuple[CaptionModel, AdamState, Checkpoint]:
    """Rebuild a CaptionModel (plus optimizer state) from a checkpoint."""
    ckpt = load_checkpoint(path)
    model = model_from_checkpoint(ckpt, vocab)
    return model, adam_state(ckpt, model), ckpt
