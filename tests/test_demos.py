"""Every demo script runs to completion against the bundled mock servers."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # The demos pass their own key to the mock servers, so none is needed here.
    for name in ("SEARCH_API_KEY", "LLM_API_KEY"):
        env.pop(name, None)
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_acquire_snippets_prints_the_cached_texts():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "acquire_snippets.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == (
        "e001 (gsnip3): Gold Hills Mining Ltd is a mineral exploration company. The company op...\n"
        "e002 (gsnip3): Harbor Grill is a waterfront seafood restaurant. The menu changes with...\n"
        "requests so far: 2\n"
        "after repeat acquisition: 2 (hits=2)\n"
    )


@pytest.mark.parametrize("demo", ["acquire_snippets", "summaries_and_refusals"])
def test_network_demos_ignore_keys_in_the_environment(demo):
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        SEARCH_API_KEY="someone-elses-key",
        LLM_API_KEY="someone-elses-key",
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
