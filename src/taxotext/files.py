"""How this package writes a file (to a temp file beside it, then an atomic rename) and
streams the lines of one it reads."""

from __future__ import annotations

import os
import uuid
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ParseError


def write_file(path: str | Path, chunks: Iterable, *, binary: bool = False) -> Path:
    """Write text chunks (as UTF-8, LF line endings) or byte chunks to path, making its parents.

    A crash, or chunks that raise, leave an earlier file at path as it was and no temp file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def read_lines(path: str | Path, *, newline: str | None = None) -> Iterator[str]:
    """The lines of a UTF-8 text file, read lazily; ParseError naming the file if not UTF-8."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield from fh
        except UnicodeDecodeError:
            raise ParseError(f"not UTF-8 text: {path}") from None
