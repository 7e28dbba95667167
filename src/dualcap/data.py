"""Image and caption data: netpbm codecs, TSV captions, synthetic shapes.

Images travel as binary netpbm (grayscale PGM "P5" and color PPM "P6",
maxval up to 255).  Caption files are UTF-8 TSV with one
``filename<TAB>caption`` pair per line; several lines may share a
filename to give an image multiple references.  Splits are a pure
function of the filenames: names are ordered by their md5 digest and
dealt out in exact largest-remainder counts, so every run of every
process agrees on the partition.

The synthetic set renders one colored shape (4 colors x 4 shapes x 4
quadrant positions = 64 combinations) per image with caption
"a <color> <shape> at <position>"; rendering is deterministic, and
parsing a caption and re-rendering reproduces the image bit for bit.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DataError
from .textdec import tokenize

SPLIT_NAMES = ("train", "val", "test")

COLORS = {
    "red": (1.0, 0.0, 0.0),
    "green": (0.0, 1.0, 0.0),
    "blue": (0.0, 0.0, 1.0),
    "yellow": (1.0, 1.0, 0.0),
}
SHAPES = ("square", "circle", "triangle", "cross")
POSITIONS = ("top left", "top right", "bottom left", "bottom right")


# ---------------------------------------------------------------------------
# netpbm


def parse_netpbm(data: bytes, source: str = "<bytes>") -> tuple[np.ndarray, int]:
    """Decode binary PGM (P5) or PPM (P6) bytes.

    Returns (pixels, maxval) where pixels is uint8 with shape H x W x 1
    or H x W x 3.  Header comments ('#' to end of line) are allowed
    anywhere whitespace is.
    """
    if data[:2] == b"P5":
        channels = 1
    elif data[:2] == b"P6":
        channels = 3
    else:
        raise DataError(f"{source}: not a binary PGM/PPM file (magic {data[:2]!r})")
    pos = 2
    values = []
    while len(values) < 3:
        if pos >= len(data):
            raise DataError(f"{source}: truncated header")
        byte = data[pos:pos + 1]
        if byte == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end < 0 else end + 1
        elif byte.isspace():
            pos += 1
        elif byte.isdigit():
            start = pos
            while pos < len(data) and data[pos:pos + 1].isdigit():
                pos += 1
            try:
                values.append(int(data[start:pos]))
            except ValueError as e:  # more digits than int() converts
                raise DataError(f"{source}: header value of {pos - start} digits") from e
        else:
            raise DataError(f"{source}: unexpected byte {byte!r} in header")
    width, height, maxval = values
    if width <= 0 or height <= 0:
        raise DataError(f"{source}: invalid dimensions {width} x {height}")
    if not 0 < maxval <= 255:
        raise DataError(f"{source}: maxval {maxval} out of range (need 1..255)")
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise DataError(f"{source}: missing whitespace before raster")
    pos += 1
    expected = width * height * channels
    raster = data[pos:]
    if len(raster) != expected:
        raise DataError(f"{source}: raster has {len(raster)} bytes, expected {expected}")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width, channels).copy()
    if pixels.max(initial=0) > maxval:
        raise DataError(f"{source}: pixel value exceeds maxval {maxval}")
    return pixels, maxval


def read_netpbm(path) -> tuple[np.ndarray, int]:
    """Read a PGM/PPM file; returns (uint8 pixels H x W x ch, maxval)."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as e:
        raise DataError(f"cannot read image {path}: {e}") from e
    return parse_netpbm(data, source=str(path))


def netpbm_bytes(pixels: np.ndarray, maxval: int = 255) -> bytes:
    """Encode uint8 pixels (H x W, H x W x 1, or H x W x 3) as P5/P6."""
    arr = np.asarray(pixels)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3 or arr.shape[2] not in (1, 3):
        raise DataError(f"netpbm_bytes: expected H x W x (1|3), got {arr.shape}")
    if arr.dtype != np.uint8:
        raise DataError(f"netpbm_bytes: expected uint8 pixels, got {arr.dtype}")
    if not 0 < maxval <= 255:
        raise DataError(f"netpbm_bytes: maxval {maxval} out of range (need 1..255)")
    if arr.max(initial=0) > maxval:
        raise DataError(f"netpbm_bytes: pixel value exceeds maxval {maxval}")
    magic = b"P5" if arr.shape[2] == 1 else b"P6"
    header = magic + f"\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n".encode()
    return header + arr.tobytes()


def write_netpbm(path, pixels: np.ndarray, maxval: int = 255) -> None:
    Path(path).write_bytes(netpbm_bytes(pixels, maxval))


# ---------------------------------------------------------------------------
# datasets


@dataclass
class Record:
    """One image with its reference captions; pixels are floats in [0, 1]."""

    name: str
    image: np.ndarray
    captions: list[str]


@dataclass
class CaptionDataset:
    records: list[Record]
    splits: dict[str, list[int]]
    mean: np.ndarray = field(default=None)
    std: np.ndarray = field(default=None)

    @property
    def image_channels(self) -> int:
        return self.records[0].image.shape[2]

    def split_records(self, split: str) -> list[Record]:
        if split not in self.splits:
            raise ContractError(f"unknown split {split!r}, have {sorted(self.splits)}")
        return [self.records[i] for i in self.splits[split]]

    def caption_pairs(self, split: str) -> list[tuple[Record, str]]:
        """Every (record, caption) combination in the split, in order."""
        return [(r, c) for r in self.split_records(split) for c in r.captions]


def compute_stats(images: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel population mean and std over a list of images.

    A zero-variance channel is degenerate for normalization; its std is
    clamped to 1 and a warning raised.
    """
    if not images:
        raise ContractError("compute_stats: no images")
    stacked = np.concatenate([img.reshape(-1, img.shape[2]) for img in images], axis=0)
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)  # population (ddof=0)
    zero = std == 0.0
    if zero.any():
        warnings.warn(
            f"compute_stats: channel(s) {np.nonzero(zero)[0].tolist()} have zero variance; std clamped to 1",
            stacklevel=2,
        )
        std = np.where(zero, 1.0, std)
    return mean, std


def split_by_hash(names: list[str], ratios: tuple[float, float, float]) -> dict[str, list[str]]:
    """Deterministic partition: order names by md5 digest, deal exact counts.

    Counts come from largest-remainder rounding of the ratios, so the
    split sizes are an exact function of len(names) alone.
    """
    if len(ratios) != len(SPLIT_NAMES):
        raise ContractError(f"need {len(SPLIT_NAMES)} ratios, got {len(ratios)}")
    total = sum(ratios)
    if any(r < 0 for r in ratios) or not 0 < total < math.inf:
        raise ContractError(f"ratios must be non-negative with a positive finite sum, got {ratios}")
    n = len(names)
    exact = [n * r / total for r in ratios]
    if math.inf in exact:
        raise ContractError(f"ratios must be small enough to scale by {n} names, got {ratios}")
    counts = [math.floor(x) for x in exact]
    remainders = sorted(range(len(ratios)), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in range(n - sum(counts)):
        counts[remainders[i]] += 1
    ordered = sorted(names, key=lambda s: hashlib.md5(s.encode("utf-8")).hexdigest())
    out = {}
    start = 0
    for split, count in zip(SPLIT_NAMES, counts):
        out[split] = ordered[start:start + count]
        start += count
    return out


def parse_caption_file(path) -> list[tuple[str, str]]:
    """Read filename<TAB>caption lines; errors name the 1-based line."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise DataError(f"cannot read captions {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text (byte {e.start})") from e
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if "\t" not in line:
            raise DataError(f"{path}:{lineno}: missing tab separator")
        name, caption = line.split("\t", 1)
        name = name.strip()
        caption = caption.strip()
        if not name:
            raise DataError(f"{path}:{lineno}: empty filename")
        if not tokenize(caption):
            raise DataError(f"{path}:{lineno}: caption has no tokens")
        pairs.append((name, caption))
    if not pairs:
        raise DataError(f"{path}: no caption lines")
    return pairs


def load_dataset(image_dir, captions_path, ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)) -> CaptionDataset:
    """Load images named by a caption TSV and split deterministically.

    Pixels are scaled to [0, 1] by each file's maxval.  Channel stats
    come from the train split only.
    """
    image_dir = Path(image_dir)
    pairs = parse_caption_file(captions_path)
    grouped: dict[str, list[str]] = {}
    for name, caption in pairs:
        grouped.setdefault(name, []).append(caption)
    records = []
    for name, captions in grouped.items():
        pixels, maxval = read_netpbm(image_dir / name)
        records.append(Record(name=name, image=pixels.astype(np.float64) / maxval, captions=captions))
    channels = {r.image.shape[2] for r in records}
    if len(channels) > 1:
        raise DataError(f"mixed channel counts in dataset: {sorted(channels)}")
    sizes = {r.image.shape[:2] for r in records}
    if len(sizes) > 1:
        raise DataError(f"mixed image sizes in dataset: {sorted(sizes)}")
    name_split = split_by_hash([r.name for r in records], ratios)
    index_of = {r.name: i for i, r in enumerate(records)}
    splits = {split: sorted(index_of[n] for n in names) for split, names in name_split.items()}
    ds = CaptionDataset(records=records, splits=splits)
    _attach_stats(ds)
    return ds


def _attach_stats(ds: CaptionDataset) -> None:
    train = ds.split_records("train")
    if train:
        ds.mean, ds.std = compute_stats([r.image for r in train])
    else:
        warnings.warn("empty train split: using identity channel stats", stacklevel=3)
        ch = ds.image_channels
        ds.mean, ds.std = np.zeros(ch), np.ones(ch)


# ---------------------------------------------------------------------------
# synthetic shapes


def shape_mask(shape: str, side: int) -> np.ndarray:
    """Boolean side x side stencil for one shape, from integer geometry."""
    r = np.arange(side)[:, None]
    c = np.arange(side)[None, :]
    if shape == "square":
        return (r >= 1) & (r <= side - 2) & (c >= 1) & (c <= side - 2)
    if shape == "circle":
        center = (side - 1) / 2.0
        radius = side / 2.0 - 1.0
        return (r - center) ** 2 + (c - center) ** 2 <= radius * radius
    if shape == "triangle":
        return (r >= 1) & (r <= side - 2) & (c >= 1) & (c <= r)
    if shape == "cross":
        return (c == r) | (c == side - 1 - r)
    raise ContractError(f"unknown shape {shape!r}")


def render_combo(color: str, shape: str, position: str, grid: int) -> np.ndarray:
    """Deterministic grid x grid x 3 float image of one colored shape."""
    if grid < 4 or grid % 2 != 0:
        raise ContractError(f"grid must be even and >= 4, got {grid}")
    if color not in COLORS:
        raise ContractError(f"unknown color {color!r}")
    if position not in POSITIONS:
        raise ContractError(f"unknown position {position!r}")
    side = grid // 2
    offsets = {
        "top left": (0, 0),
        "top right": (0, side),
        "bottom left": (side, 0),
        "bottom right": (side, side),
    }
    image = np.zeros((grid, grid, 3))
    r0, c0 = offsets[position]
    mask = shape_mask(shape, side)
    for ch, value in enumerate(COLORS[color]):
        image[r0:r0 + side, c0:c0 + side, ch] = np.where(mask, value, 0.0)
    return image


def combo_caption(color: str, shape: str, position: str) -> str:
    return f"a {color} {shape} at {position}"


def parse_caption(caption: str) -> tuple[str, str, str]:
    """Invert combo_caption; raises DataError on anything else."""
    tokens = tokenize(caption)
    if len(tokens) != 6 or tokens[0] != "a" or tokens[3] != "at":
        raise DataError(f"caption {caption!r} is not 'a <color> <shape> at <position>'")
    color, shape = tokens[1], tokens[2]
    position = f"{tokens[4]} {tokens[5]}"
    if color not in COLORS or shape not in SHAPES or position not in POSITIONS:
        raise DataError(f"caption {caption!r} names an unknown color, shape, or position")
    return color, shape, position


def render_caption(caption: str, grid: int) -> np.ndarray:
    return render_combo(*parse_caption(caption), grid)


def make_synthetic(n: int, grid: int = 16, seed: int = 0) -> CaptionDataset:
    """n shape images with captions, all in the train split.

    Combinations are drawn without replacement in a seed-determined
    order (cycling when n exceeds the 64 available combinations), so
    captions are distinct whenever n <= 64.
    """
    if n < 2:
        raise ContractError(f"make_synthetic: need n >= 2, got {n}")
    combos = [
        (color, shape, position)
        for color in COLORS
        for shape in SHAPES
        for position in POSITIONS
    ]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(combos))
    try:  # every image at once, so that too many fail before any is drawn
        pixels = np.zeros((n, grid, grid, 3))
    except (MemoryError, ValueError) as e:  # numpy refuses a size past int64 with a ValueError
        raise ConfigError(f"make_synthetic: {n} images of side {grid} cannot be allocated: {e}") from e
    records = []
    for i, image in enumerate(pixels):
        color, shape, position = combos[order[i % len(combos)]]
        image[...] = render_combo(color, shape, position, grid)
        records.append(Record(
            name=f"synthetic_{i:04d}.ppm",
            image=image,
            captions=[combo_caption(color, shape, position)],
        ))
    ds = CaptionDataset(records=records, splits={"train": list(range(n)), "val": [], "test": []})
    with warnings.catch_warnings():
        # tiny color palettes often zero out a channel; that is expected here
        warnings.simplefilter("ignore")
        _attach_stats(ds)
    return ds


def write_dataset(ds: CaptionDataset, directory) -> Path:
    """Materialize a dataset as netpbm files plus captions.tsv."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for record in ds.records:
        pixels = np.rint(record.image * 255.0).astype(np.uint8)
        write_netpbm(directory / record.name, pixels)
        for caption in record.captions:
            lines.append(f"{record.name}\t{caption}")
    captions = directory / "captions.tsv"
    captions.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return captions
