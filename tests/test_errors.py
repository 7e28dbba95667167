"""Every file the package reads goes through errors.read_file, and every text file it writes is UTF-8."""

import ast
from pathlib import Path

import dualcap

SRC = Path(dualcap.__file__).parent


def _open_mode(node: ast.Call) -> str | None:
    """The mode of an ``open(...)`` or ``<path>.open(...)`` call; None for any other call.

    ``os.open`` takes flags, not a mode, and is not counted.  A mode that
    is not a literal reads as "?", which counts as a read.
    """
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        positional = node.args[1:2]
    elif isinstance(func, ast.Attribute) and func.attr == "open" and getattr(func.value, "id", None) != "os":
        positional = node.args[:1]
    else:
        return None
    mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), positional[0] if positional else None)
    if mode is None:
        return "r"
    return mode.value if isinstance(mode, ast.Constant) else "?"


def test_only_read_file_reads_and_every_text_write_is_utf8():
    reads, writes, reader = [], [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.stem == "errors":
            reader = {id(node) for f in tree.body if getattr(f, "name", None) == "read_file" for node in ast.walk(f)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in reader:
                continue
            where = f"{path.stem}:{node.lineno}"
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            mode = _open_mode(node)
            utf8 = any(kw.arg == "encoding" and getattr(kw.value, "value", None) == "utf-8" for kw in node.keywords)
            if name in ("read_bytes", "read_text") or mode is not None and any(c in mode for c in "r+?"):
                reads.append(where)
            elif (name == "write_text" or mode is not None and "b" not in mode) and not utf8:
                writes.append(where)
    assert reader, "errors.read_file not found"
    assert (reads, writes) == ([], [])
