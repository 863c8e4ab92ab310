"""The benchmark's tracer patches names by module path; each one must exist.

``perfbench/spans.py`` wraps public names such as ``taxotext.cli.train`` in
place. A refactor that stops importing one of them into the named module
would break the traced benchmark run, so it fails here first.
"""

from __future__ import annotations

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
