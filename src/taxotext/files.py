"""How this package writes files (each to a temp file beside it, then an atomic rename),
streams the lines of one it reads, and reads the data files it ships."""

from __future__ import annotations

import os
import uuid
from importlib import resources
from pathlib import Path
from typing import IO, Iterable, Iterator

from .errors import ParseError


class StagedFiles:
    """Files written to temp files beside their paths, then renamed into place together.

    ``create`` starts one; ``commit`` closes them all and renames each into place,
    in the order they were created. Leaving the ``with`` block before that (an
    error, say) removes every temp file not yet renamed, so the files at the
    paths stay as they were.
    """

    def __init__(self):
        self._pending: list[tuple[Path, Path, IO]] = []  # temp path, path, open file

    def __enter__(self) -> StagedFiles:
        return self

    def __exit__(self, *exc_info) -> None:
        for tmp, _, fh in self._pending:
            fh.close()
            tmp.unlink(missing_ok=True)
        self._pending.clear()

    def create(self, path: str | Path, *, binary: bool = False) -> IO:
        """A new temp file open for text (UTF-8, LF line endings) or bytes, that
        ``commit`` makes the file at path; path's parents are made."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
        fh = open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="\n")
        self._pending.append((tmp, path, fh))
        return fh

    def commit(self) -> None:
        for _, _, fh in self._pending:
            fh.close()
        while self._pending:
            tmp, path, _ = self._pending[0]
            os.replace(tmp, path)
            del self._pending[0]


def write_file(path: str | Path, chunks: Iterable, *, binary: bool = False) -> Path:
    """Write text chunks (as UTF-8, LF line endings) or byte chunks to path, making its parents.

    A crash, or chunks that raise, leave an earlier file at path as it was and no temp file.
    """
    with StagedFiles() as staged:
        staged.create(path, binary=binary).writelines(chunks)
        staged.commit()
    return Path(path)


def read_lines(path: str | Path, *, newline: str | None = None) -> Iterator[str]:
    """The lines of a UTF-8 text file, read lazily; ParseError naming the file if not UTF-8."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield from fh
        except UnicodeDecodeError:
            raise ParseError(f"not UTF-8 text: {path}") from None


def package_text(name: str) -> str:
    """The text of a data file shipped in the package's ``data`` directory."""
    return (resources.files("taxotext") / "data" / name).read_text(encoding="utf-8")
