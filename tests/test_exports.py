"""The package's public names."""

from __future__ import annotations

import taxotext


def test_every_exported_name_exists():
    missing = [name for name in taxotext.__all__ if not hasattr(taxotext, name)]
    assert missing == []


def test_hosted_fine_tune_names_are_gone():
    for name in ("FineTuneClient", "remote_infer"):
        assert name not in taxotext.__all__
        assert not hasattr(taxotext, name)
        assert not hasattr(taxotext.remote, name)
