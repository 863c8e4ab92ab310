"""The package's public names."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import taxotext


def test_every_exported_name_exists():
    missing = [name for name in taxotext.__all__ if not hasattr(taxotext, name)]
    assert missing == []


def test_hosted_fine_tune_names_are_gone():
    for name in ("FineTuneClient", "remote_infer"):
        assert name not in taxotext.__all__
        assert not hasattr(taxotext, name)
        assert not hasattr(taxotext.remote, name)


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_import_limits_openblas_to_one_thread_unless_set(preset, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = Path(taxotext.__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = "import os, taxotext; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == expected
