"""The file writer: atomic replacement, streamed chunks, and its sole use in the package."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from taxotext.corpus import ClassificationInstance, emit_tabular
from taxotext.files import write_file
from taxotext.metrics import ThresholdPoint, write_sweep_csv
from taxotext.softmax import SoftmaxModel, save_model
from taxotext.taxonomy import load_sic_scheme

SRC = Path(__file__).resolve().parents[1] / "src" / "taxotext"


def _leftovers(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))


def test_text_is_utf8_with_lf_and_parents_are_made(tmp_path):
    path = write_file(tmp_path / "a" / "b" / "out.txt", iter(["café\n", "two\r\n"]))
    assert path == tmp_path / "a" / "b" / "out.txt"
    assert path.read_bytes() == "café\ntwo\r\n".encode("utf-8")
    assert _leftovers(path.parent) == []


def test_binary_chunks_are_written_as_they_are(tmp_path):
    path = write_file(tmp_path / "out.bin", iter([b"\x00\r\n", b"\xff"]), binary=True)
    assert path.read_bytes() == b"\x00\r\n\xff"


def test_chunks_are_consumed_while_the_temp_file_is_open(tmp_path):
    target = tmp_path / "out.txt"
    seen = []

    def chunks():
        for i in range(3):
            seen.append(sorted(p.name for p in tmp_path.iterdir()))
            yield f"{i}\n"

    write_file(target, chunks())
    # the temp file exists from the first chunk on; the target appears only at the end
    assert all(len(names) == 1 and names[0].startswith(".out.txt.") for names in seen)
    assert target.read_text() == "0\n1\n2\n"


def _raise_after(items, n):
    for i, item in enumerate(items):
        if i == n:
            raise RuntimeError("input failed partway")
        yield item


def _points(n):
    return [ThresholdPoint(0.5 + i / 100, 0.5, 0.25, 0.75, 10 + i) for i in range(n)]


def _instances(n):
    scheme = load_sic_scheme()
    return [
        ClassificationInstance(f"e{i}", f"Entity {i}\ntext {i}", scheme.by_id["58"], "gsnip3")
        for i in range(n)
    ]


class _FailingArray(np.ndarray):
    def astype(self, *args, **kwargs):
        raise RuntimeError("input failed partway")


def _model(failing: bool = False):
    scheme = load_sic_scheme()
    n = len(scheme.categories)
    block = np.arange(2 * n, dtype=np.float64).reshape(n, 2) + 1.0
    b = np.linspace(-1.0, 1.0, n)
    return SoftmaxModel(scheme, cols=[3, 70], block=block, b=b.view(_FailingArray) if failing else b)


@pytest.mark.parametrize(
    "write,good,bad",
    [
        (write_sweep_csv, lambda: _points(3), lambda: _raise_after(_points(3), 2)),
        (emit_tabular, lambda: _instances(3), lambda: _raise_after(_instances(3), 2)),
        (save_model, lambda: _model(), lambda: _model(failing=True)),
    ],
    ids=["write_sweep_csv", "emit_tabular", "save_model"],
)
def test_a_writer_failing_partway_keeps_the_earlier_file(tmp_path, write, good, bad):
    path = write(good(), tmp_path / "out")
    before = path.read_bytes()
    assert before
    with pytest.raises(RuntimeError, match="partway"):
        write(bad(), path)
    assert path.read_bytes() == before
    assert _leftovers(tmp_path) == []


def test_a_failed_write_leaves_no_temp_file(tmp_path):
    with pytest.raises(TypeError):
        write_file(tmp_path / "out.txt", ["text", b"bytes"])
    assert list(tmp_path.iterdir()) == []


def _write_modes(tree: ast.AST):
    """(line, what) for each file write outside the writer: open in a write
    mode (or a mode not given as a constant), write_text and write_bytes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("write_text", "write_bytes"):
            yield node.lineno, node.attr
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != "open":
            continue
        # builtin open(file, mode) takes the mode second; Path.open(mode) first
        modes = node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
        modes += [kw.value for kw in node.keywords if kw.arg == "mode"]
        for mode in modes:
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
                yield node.lineno, "open with a computed mode"
            elif set(mode.value) & set("wax+"):
                yield node.lineno, f"open(..., {mode.value!r})"


def test_only_the_writer_module_writes_files():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "files.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}: {what}" for line, what in _write_modes(tree)]
    assert found == []


def test_the_scan_sees_every_kind_of_write():
    source = (
        "open(p, 'w')\nopen(p, mode='ab')\nopen(p, m)\nPath(p).open('r+')\n"
        "p.write_text('x')\np.write_bytes(b'x')\nopen(p)\nopen(p, 'rb')\n"
    )
    assert sorted(line for line, _ in _write_modes(ast.parse(source))) == [1, 2, 3, 4, 5, 6]
