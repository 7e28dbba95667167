"""Binary checkpoints: every parameter and optimizer moment, bitwise.

Layout:

    magic "TFN1" | u32 header length | u32 CRC-32 | JSON header | payload

Both integers are little-endian; the CRC-32 covers the header and the
payload.  The header carries the format number (4), the step count, an
arbitrary JSON config snapshot, a manifest of (name, shape) entries, one
per parameter in model insertion order, and ``moments``: 0 or the size
of each Adam moment buffer.  The payload is little-endian float64: the
parameters in manifest order, then the first and the second moment as
runs of ``moments`` values laid out like ``CaptionModel.flat``.  JSON
keys are sorted, so the same state always produces byte-identical files.
A save joins the whole file in memory, one extra copy of it, and writes
it in one call, not one call per array, to a temporary file that it
then renames into place.
A load checks the manifest against the stored config's parameter table
before it allocates anything, so it never allocates more than the file holds.
Earlier formats are rejected by number: format 1 kept attention weights
per head or group, format 2 its header right after the length and a
payload-only CRC-32, format 3 a kind and an offset per array.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field
from itertools import islice, zip_longest
from pathlib import Path

import numpy as np

from .autograd import Tensor
from .errors import ContractError, IntegrityError, read_file
from .model import CaptionModel, ModelConfig, check_vocabulary, param_table
from .textdec import Vocabulary
from .train import AdamState

MAGIC = b"TFN1"
FORMAT = 4
_PREFIX = 12  # magic, header length, CRC-32


@dataclass
class Checkpoint:
    config: dict
    step: int
    params: dict[str, np.ndarray] = field(default_factory=dict)
    m: np.ndarray | None = None  # Adam moments, laid out like CaptionModel.flat; None when not stored
    v: np.ndarray | None = None


def save_checkpoint(path, params: dict[str, Tensor], config: dict, state: AdamState | None = None) -> None:
    """Write params (and Adam moments, laid out like the trainable params) to one file.

    The file is replaced in one rename, so a reader sees the old file or
    the new one, never a partial write.
    """
    arrays = [np.ascontiguousarray(t.data, dtype="<f8") for t in params.values()]
    moments = 0
    if state is not None and state.m is not None:
        moments = sum(t.size for t in params.values() if t.requires_grad)
        if not state.m.shape == state.v.shape == (moments,):
            raise ContractError(f"moments of shapes {state.m.shape}, {state.v.shape} do not fit the trainable params")
        arrays += [np.ascontiguousarray(state.m, dtype="<f8"), np.ascontiguousarray(state.v, dtype="<f8")]
    header = {
        "format": FORMAT,
        "step": state.step if state is not None else 0,
        "config": config,
        "arrays": [{"name": name, "shape": list(t.shape)} for name, t in params.items()],
        "moments": moments,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(blob)
    for arr in arrays:
        crc = zlib.crc32(arr, crc)
    data = b"".join((MAGIC, struct.pack("<II", len(blob), crc), blob, *arrays))
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

    The manifest and the moment count must tile the payload exactly, and
    header and payload must match the CRC-32, which is checked after the
    manifest walk so that structural damage is named as such.  The step
    and the moment count must be non-negative ints, each name a str and
    each shape a list of non-negative ints.  The arrays are read-only
    views of the file's bytes.
    """
    path = Path(path)
    data = read_file(path, IntegrityError, "checkpoint")
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
    for key in ("step", "config", "arrays", "moments"):
        if key not in header:
            raise IntegrityError(f"{path}: header missing {key!r}")
    for key in ("step", "moments"):
        if type(header[key]) is not int or header[key] < 0:  # JSON gives int or bool; bool is not a count
            raise IntegrityError(f"{path}: {key} {header[key]!r} is not an integer >= 0")
    if not isinstance(header["config"], dict) or not isinstance(header["arrays"], list):
        raise IntegrityError(f"{path}: corrupt header: config must be an object and arrays a list")
    payload_bytes = len(data) - _PREFIX - header_len
    values = np.frombuffer(data, dtype="<f8", count=payload_bytes // 8, offset=_PREFIX + header_len)
    ckpt = Checkpoint(config=header["config"], step=header["step"])
    start = 0  # in values
    for entry in header["arrays"]:
        name, shape = (entry.get("name"), entry.get("shape")) if type(entry) is dict else (None, None)
        if not (type(name) is str and type(shape) is list and all(type(s) is int and s >= 0 for s in shape)):
            raise IntegrityError(f"{path}: malformed manifest entry: {entry!r}")
        end = start + math.prod(shape)
        if end > values.size:
            raise IntegrityError(f"{path}: array {name!r} runs past end of payload")
        if name in ckpt.params:
            raise IntegrityError(f"{path}: duplicate array {name!r}")
        ckpt.params[name] = values[start:end].reshape(shape)
        start = end
    moments = header["moments"]
    if start + 2 * moments > values.size:
        raise IntegrityError(f"{path}: moments of {moments} values each run past end of payload")
    if moments:
        ckpt.m, ckpt.v = values[start:start + 2 * moments].reshape(2, moments)
        start += 2 * moments
    if start * 8 != payload_bytes:
        raise IntegrityError(f"{path}: {payload_bytes - start * 8} trailing payload bytes")
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


def save_model(path, model: CaptionModel, state: AdamState | None = None, extra: dict | None = None) -> None:
    """Checkpoint a CaptionModel; config records the model shape."""
    save_checkpoint(path, model.params, {"model": model.cfg.to_dict(), **(extra or {})}, state)


def model_from_checkpoint(ckpt: Checkpoint, vocab: Vocabulary) -> tuple[CaptionModel, AdamState]:
    """The checkpoint's model, copies of its arrays (nothing is drawn at random), with its Adam state.

    The stored (name, shape) list must be the config's parameter table,
    in order, and the moments, when stored, must be as long as
    ``model.flat``; moments not stored are zero.
    """
    if "model" not in ckpt.config:
        raise IntegrityError("checkpoint config has no model entry")
    cfg = ModelConfig.from_dict(ckpt.config["model"])
    check_vocabulary(cfg, vocab)
    table = param_table(cfg)
    stored = [(name, arr.shape) for name, arr in ckpt.params.items()]
    rows = list(islice(table, len(stored) + 1))  # one row past the file's refutes a larger config
    expected = [(row.name, row.shape) for row in rows]
    if stored != expected:
        missing = sorted(dict(expected).keys() - ckpt.params.keys())
        if missing:
            more = " and more" if next(table, None) is not None else ""
            raise IntegrityError(f"checkpoint parameter mismatch: missing {missing}{more}")
        (name, shape), want = next((s, e) for s, e in zip_longest(stored, expected) if s != e)
        raise IntegrityError(f"param array {name!r} of shape {shape} fits no parameter of the model"
                             + (f" (expected {want[0]!r} of shape {want[1]})" if want else ""))
    model = CaptionModel(cfg, vocab, {row.name: Tensor(ckpt.params[row.name], row.trainable) for row in rows})
    if ckpt.m is not None and ckpt.m.size != model.flat.size:
        raise IntegrityError(f"moments of {ckpt.m.size} values each do not fit the model's {model.flat.size} trainable values")
    if ckpt.m is None:
        return model, AdamState(ckpt.step, np.zeros_like(model.flat), np.zeros_like(model.flat))
    return model, AdamState(ckpt.step, ckpt.m.astype(np.float64), ckpt.v.astype(np.float64))


def load_model(path, vocab: Vocabulary) -> tuple[CaptionModel, AdamState, Checkpoint]:
    """Rebuild a CaptionModel (plus optimizer state) from a checkpoint."""
    ckpt = load_checkpoint(path)
    return (*model_from_checkpoint(ckpt, vocab), ckpt)
