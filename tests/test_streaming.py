"""build and predict stream: their memory does not grow with the rows, and a bad
row anywhere leaves neither a manifest entry nor an output."""

from __future__ import annotations

import csv
import json
import tracemalloc

import pytest

from taxotext import cli
from taxotext.acquire import parse_source_signature
from taxotext.cache import TextCache
from taxotext.cli import main
from taxotext.manifest import load_manifest
from taxotext.search import SearchResult, aggregate_snippets
from taxotext.taxonomy import TaskId
from taxotext.texts import AcquiredText

CIDS = ("20", "58", "73")
SPLITS = ("train", "train", "train", "dev", "test")
# a handler may hold a few index lists and one row at a time, not its rows
MARGIN = 256 * 1024


def _description(i: int, cid: str, rank: int) -> str:
    """About 300 characters: a class marker and words that no other row uses."""
    return f"classmarker{cid} " + " ".join(f"w{i}r{rank}n{j}" for j in range(30))


def _workspace(tmp_path, n: int):
    """n entities split 3:1:1 with a cached depth-3 search of about 1 KB each, and a config."""
    spec = parse_source_signature("gsnip3", TaskId.SIC, top_k=3)
    rows = []
    with TextCache(tmp_path / "cache") as cache:
        for i in range(n):
            cid, entity_id = CIDS[i % len(CIDS)], f"e{i:05d}"
            rows.append([entity_id, f"Entity {i:05d}", cid + "10", SPLITS[i % len(SPLITS)]])
            results = [
                SearchResult(rank, f"t{rank}", f"u{rank}", _description(i, cid, rank))
                for rank in (1, 2, 3)
            ]
            entry = AcquiredText(
                entity_id, spec.source, spec.params, aggregate_snippets(results, 3),
                "2024-01-01T00:00:00Z", provenance=[vars(r) for r in results],
            )
            cache.store(TextCache.key(TaskId.SIC, entity_id, spec.source, spec.params), entry, TaskId.SIC)
    entities = tmp_path / "entities.csv"
    with open(entities, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entity_id", "name", "raw_code", "split"])
        writer.writerows(rows)
    config = tmp_path / "c.ini"
    config.write_text(
        f"[task]\nname = sic\ndataset = {entities}\n[acquisition]\ntop_k = 3\n"
        f"cache_dir = {tmp_path / 'cache'}\n[training]\nepochs = 1\nwarmup_steps = 0\n"
    )
    return config


def _run(argv, tmp_path, config, run_id="r1"):
    return main(["--runs-dir", str(tmp_path / "runs"), "--run-id", run_id, "--config", str(config), *argv])


def _handler_peak(monkeypatch, command, run):
    """The traced peak of one command's handler, above what was allocated when it started."""
    handler, help_text, flags = cli._COMMANDS[command]
    peaks = []

    def traced(ctx, args):
        tracemalloc.start()
        try:
            return handler(ctx, args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setitem(cli._COMMANDS, command, (traced, help_text, flags))
    assert run() == 0
    monkeypatch.setitem(cli._COMMANDS, command, (handler, help_text, flags))  # unwrapped for the next call
    return peaks[0]


def test_build_peak_does_not_grow_with_the_entities(tmp_path, monkeypatch):
    peaks = {}
    for n in (200, 2000):
        config = _workspace(tmp_path / str(n), n)
        argv = ["build", "--sources", "gsnip3"]
        peaks[n] = _handler_peak(monkeypatch, "build", lambda: _run(argv, tmp_path / str(n), config))
    corpus = tmp_path / "2000" / "runs" / "r1" / "corpus" / "gsnip3"
    rows = [(corpus / f"{split}.jsonl").read_text().splitlines() for split in ("train", "dev", "test")]
    assert [len(r) for r in rows] == [1200, 400, 400]
    # holding a split's texts and instances would add over 2 MB
    assert peaks[2000] - peaks[200] <= MARGIN, peaks


def _corpus(path, n, *, last=None):
    """A tabular corpus of n test rows, each about 1 KB, with `last` as a raw last line."""
    lines = [
        json.dumps({
            "entity_id": f"e{i:05d}",
            "input_text": f"Entity {i:05d}\n" + " ".join(_description(i, "20", r) for r in (1, 2, 3)),
            "source_signature": "gsnip3",
        }) + "\n"
        for i in range(n)
    ]
    path.write_text("".join(lines) + (last or ""), encoding="utf-8")
    return path


@pytest.fixture()
def model(tmp_path):
    config = _workspace(tmp_path / "w", 30)
    assert _run(["build", "--sources", "gsnip3"], tmp_path / "w", config) == 0
    assert _run(["train", "--sources", "gsnip3"], tmp_path / "w", config) == 0
    return config, tmp_path / "w" / "runs" / "r1" / "model" / "gsnip3.model"


def test_predict_peak_does_not_grow_with_the_rows(tmp_path, monkeypatch, model):
    config, model_path = model
    peaks = {}
    for n in (200, 2000):
        corpus = _corpus(tmp_path / f"c{n}.jsonl", n)
        argv = ["predict", "--sources", "gsnip3", "--corpus", str(corpus), "--model", str(model_path)]
        peaks[n] = _handler_peak(monkeypatch, "predict", lambda: _run(argv, tmp_path, config, f"p{n}"))
        out = tmp_path / "runs" / f"p{n}" / "predictions" / "gsnip3-test.jsonl"
        assert len(out.read_text().splitlines()) == n
    # holding the rows and their predictions would add over 2 MB
    assert peaks[2000] - peaks[200] <= MARGIN, peaks


def test_predict_with_a_malformed_last_row_exits_4_and_leaves_nothing(tmp_path, capsys, model):
    config, model_path = model
    corpus = _corpus(tmp_path / "c.jsonl", 50, last="{not json\n")
    argv = ["predict", "--sources", "gsnip3", "--corpus", str(corpus), "--model", str(model_path)]
    assert _run(argv, tmp_path, config, "bad") == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err and "row 51" in err
    run_dir = tmp_path / "runs" / "bad"
    assert load_manifest(run_dir) is None
    assert [p for p in run_dir.rglob("*") if p.is_file()] == []
