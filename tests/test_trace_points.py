"""The benchmark's tracer patches names by module path; each one must exist.

``perfbench/spans.py`` wraps public names such as ``taxotext.cli.train`` in
place. A refactor that stops importing one of them into the named module
would break the traced benchmark run, so it fails here first. A name that
a module binds only for the tracer, in its ``_TRACED_NOT_CALLED`` tuple,
must be one the tracer patches there and the module calls nowhere.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_resolves(monkeypatch):
    patches = _load_spans(monkeypatch).PATCHES
    assert patches
    missing = []
    for module_name, path, _, _ in patches:
        owner = importlib.import_module(module_name)
        try:
            for part in path.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            missing.append(f"{module_name}.{path}")
            continue
        if not callable(owner):
            missing.append(f"{module_name}.{path} (not callable)")
    if missing:
        pytest.fail("trace points that no longer resolve: " + ", ".join(missing))


def _traced_not_called(tree: ast.Module) -> set[str]:
    """The names in a module's ``_TRACED_NOT_CALLED`` tuple."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_TRACED_NOT_CALLED" for t in stmt.targets
        ):
            return {elt.id for elt in stmt.value.elts}
    return set()


@pytest.mark.parametrize("module_name", ["taxotext.cli", "taxotext.ablation"])
def test_traced_not_called_holds_only_what_the_tracer_needs(monkeypatch, module_name):
    """A name kept bound only for the tracer must be one it patches on that
    module, and one the module no longer calls; otherwise the tuple shrinks."""
    patched = {path for name, path, _, _ in _load_spans(monkeypatch).PATCHES if name == module_name}
    path = importlib.util.find_spec(module_name).origin
    tree = ast.parse(Path(path).read_text(encoding="utf-8"), filename=path)
    called = {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    kept = _traced_not_called(tree)
    assert not kept - patched, f"{module_name} keeps names the tracer does not patch: {kept - patched}"
    assert not kept & called, f"{module_name} calls names it keeps only for the tracer: {kept & called}"
