"""A small run of scripts/scale_probe.py: every command exits 0 and the JSON has its fields."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from conftest import cache_rows

from taxotext.features import featurize

PROBE = Path(__file__).resolve().parent.parent / "scripts" / "scale_probe.py"


def test_scale_probe_runs_the_chain_at_300_entities(tmp_path):
    out = subprocess.run(
        [sys.executable, str(PROBE), "--entities", "300", "--workdir", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert (result["entities"], result["task"]) == (300, "sic")
    assert list(result["commands"]) == ["acquire", "build", "train", "predict", "eval", "ablate"]
    for name, command in result["commands"].items():
        assert command["code"] == 0, name
        assert command["wall_s"] > 0 and command["cpu_s"] > 0
        assert command["peak_rss_mb"] > 10
    assert all(result["bytes"][name] > 0 for name in ("cache", "corpus", "finetune", "model"))
    # the split's rows and the train corpus's stored features, as the corpus holds them
    corpus = tmp_path / "runs" / "probe" / "corpus" / "gsnip10"
    lines = {split: (corpus / f"{split}.jsonl").read_text().splitlines() for split in result["rows"]}
    assert sorted(lines) == ["dev", "test", "train"]
    assert result["rows"] == {split: len(rows) for split, rows in lines.items()}
    assert sum(result["rows"].values()) == 300
    nonzeros = sum(featurize(json.loads(line)["input_text"]).nnz for line in lines["train"])
    assert result["train_features"] == nonzeros > 10 * result["rows"]["train"]
    # acquire stored one search and one summary per entity
    assert len(cache_rows(tmp_path / "runs" / "probe" / "cache")) == 2 * 300
    manifest = json.loads((tmp_path / "runs" / "probe" / "manifest.json").read_text())
    assert [c["command"] for c in manifest["commands"]] == list(result["commands"])
    again = subprocess.run(
        [sys.executable, str(PROBE), "--entities", "300", "--workdir", str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert again.returncode == 2 and "already holds a run" in again.stderr
