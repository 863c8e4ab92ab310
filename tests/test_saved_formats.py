"""The saved records, pinned byte for byte: a cache entry, a run manifest and an eval report.

Each record is written from fixed values through the function the pipeline uses, and its
sha256 is compared with the one the format has always had. A change to a record's fields,
its JSON mapping or its encoding shows here first.
"""

from __future__ import annotations

import hashlib

from taxotext import manifest as manifest_module
from taxotext.cache import TextCache
from taxotext.manifest import RunManifest, manifest_path, save_manifest
from taxotext.metrics import confusion, macro_report, write_report
from taxotext.remote import INVALID, INVALID_LABEL
from taxotext.taxonomy import CategoryLabel, TaskId, TaxonomyScheme
from taxotext.texts import AcquiredText, Source

from conftest import cache_rows

CACHE_ENTRY_SHA256 = "80bd8d85c7f238609c168cf7fc980c5ce71548f6c963e9d00a54da6ae6515d60"
MANIFEST_SHA256 = "764e1ee49ca11d380d8945f7ac68e20c9483874142b59df6b72cd73f04704e32"
REPORT_SHA256 = "4302203411987a9c99eb3a9dda6ada5590b1620e03416dd233c58a510c502c53"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_cache_entry_bytes(tmp_path):
    text = AcquiredText(
        entity_id="e042",
        source=Source.GSNIP,
        params={"query": "Café Nord AB", "k": 2},
        text="Café Nord roasts coffee\n\nwholesale beans — Malmö",
        retrieved_at="2026-01-02T03:04:05+00:00",
        provenance=[
            {"rank": 1, "url": "https://example.com/a", "title": "Café Nord"},
            {"rank": 2, "url": "https://example.com/b", "title": "Beans"},
        ],
    )
    cache = TextCache(tmp_path / "cache")
    key = TextCache.key(TaskId.SIC, text.entity_id, text.source, text.params)
    cache.store(key, text, TaskId.SIC)
    assert hashlib.sha256(cache_rows(cache.root)[key]).hexdigest() == CACHE_ENTRY_SHA256
    assert cache.load(key) == text


def test_manifest_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(manifest_module, "_utcnow", lambda: "2026-01-02T03:04:05+00:00")
    manifest = RunManifest.new("run-golden", {"task": {"name": "sic"}, "note": "Malmö", "lr": 0.05})
    manifest.dataset_fingerprint = "0123abcd"
    manifest.note_signature("gsnip10+gptsum")
    manifest.record_command("eval", {"sources": "gsnip10+gptsum", "split": "test"})
    save_manifest(manifest, tmp_path)
    assert _sha256(manifest_path(tmp_path)) == MANIFEST_SHA256


def test_report_bytes(tmp_path):
    cats = (CategoryLabel("10", "Mining"), CategoryLabel("20", "Food"), CategoryLabel("30", "Café"))
    scheme = TaxonomyScheme(task_id=TaskId.SIC, categories=cats, code_map={})
    by_id = scheme.by_id
    by_id[INVALID] = INVALID_LABEL  # an unparseable reply: the extra confusion column
    golds = [by_id[i] for i in ("10", "10", "20", "20", "20", "30", "30", "30")]
    preds = [by_id[i] for i in ("10", "20", "20", "20", "30", "30", "10", INVALID)]
    report = macro_report(
        confusion(golds, preds, scheme), config_fingerprint="feedface", run_id="run-golden"
    )
    path = write_report(report, tmp_path / "reports" / "golden-eval.json")
    assert _sha256(path) == REPORT_SHA256
