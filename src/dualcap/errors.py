"""Exception types shared across the package.

Every failure mode maps to one of these so callers (and the CLI) can
translate errors into exit codes without string matching, and every
file the package reads goes through ``read_file``.
"""

from pathlib import Path


class DualcapError(Exception):
    """Base class for all package errors."""


class ShapeError(DualcapError, ValueError):
    """An operation received tensors with incompatible shapes."""


class ConfigError(DualcapError, ValueError):
    """A configuration value is missing, unknown, or inconsistent."""


class ContractError(DualcapError, ValueError):
    """A documented precondition of an operation was violated."""


class VocabError(DualcapError, ValueError):
    """A token id or vocabulary file is invalid."""


class DataError(DualcapError, ValueError):
    """An image or caption file is missing or malformed."""


class IntegrityError(DualcapError, ValueError):
    """A checkpoint file is corrupt or inconsistent with its manifest."""


class NonFiniteError(DualcapError, ArithmeticError):
    """Training produced a non-finite loss, gradient or parameter update, or generation a non-finite score."""


def read_file(path, error: type[DualcapError], what: str, text: bool = False) -> bytes | str:
    """A file's bytes, or its UTF-8 text less any byte-order mark if ``text``; a failure to read is ``error`` naming the file."""
    try:
        data = Path(path).read_bytes()
        return data.decode("utf-8").removeprefix("\ufeff") if text else data  # "utf-8-sig" would shift byte offsets
    except OSError as e:
        raise error(f"cannot read {what} {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text (byte {e.start})") from e
