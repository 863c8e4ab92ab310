from __future__ import annotations

import json
import sys
import threading

import pytest

from taxotext.cache import TextCache
from taxotext.errors import CacheCorrupt, MixedEntities
from taxotext.taxonomy import TaskId
from taxotext.texts import AcquiredText, Source, combine_texts


def _text(entity="e1", source=Source.GSNIP, text="hello", refusal=False, at="2026-01-01T00:00:00+00:00", params=None):
    return AcquiredText(
        entity_id=entity,
        source=source,
        params=params or {"k": 10},
        text=text,
        retrieved_at=at,
        refusal=refusal,
    )


# --- AcquiredText -----------------------------------------------------------


def test_refusal_requires_empty_text():
    with pytest.raises(ValueError):
        _text(text="something", refusal=True)
    assert _text(text="", refusal=True).refusal


def test_acquired_text_json_roundtrip():
    original = _text()
    assert AcquiredText.from_json(json.loads(json.dumps(original.to_json()))) == original


def test_combine_orders_snippets_first():
    summary = _text(source=Source.GPTSUM, text="summary text", params={"template_id": "GPT_SIC"})
    snippets = _text(source=Source.GSNIP, text="snippet text")
    combined = combine_texts([summary, snippets])
    assert combined.text == "snippet text\n\nsummary text"
    assert combined.source is Source.COMBINED
    assert [c["source"] for c in combined.params["components"]] == ["GSNIP", "GPTSUM"]


def test_combine_skips_refused_parts_without_dangling_separator():
    refused = _text(source=Source.GPTSUM, text="", refusal=True, params={"template_id": "GPT_SIC"})
    snippets = _text(source=Source.GSNIP, text="snippet text")
    combined = combine_texts([refused, snippets])
    assert combined.text == "snippet text"
    assert not combined.refusal


def test_combine_all_refused_is_refusal():
    a = _text(source=Source.GPTSUM, text="", refusal=True, params={"template_id": "GPT_SIC"})
    b = _text(source=Source.LLAMASUM, text="", refusal=True, params={"template_id": "LLAMA_SIC"})
    combined = combine_texts([a, b])
    assert combined.refusal
    assert combined.text == ""


def test_combine_rejects_mixed_entities_and_single_part():
    a = _text(entity="e1")
    b = _text(entity="e2", source=Source.GPTSUM, params={"template_id": "GPT_SIC"})
    with pytest.raises(MixedEntities):
        combine_texts([a, b])
    with pytest.raises(ValueError):
        combine_texts([a])


def test_combine_retrieved_at_is_latest_component():
    early = _text(source=Source.GSNIP, at="2026-01-01T00:00:00+00:00")
    late = _text(source=Source.GPTSUM, at="2026-02-02T00:00:00+00:00", params={"template_id": "GPT_SIC"})
    assert combine_texts([late, early]).retrieved_at == "2026-02-02T00:00:00+00:00"


# --- TextCache ---------------------------------------------------------------


def test_cache_miss_then_hit(tmp_path):
    cache = TextCache(tmp_path / "cache")
    key = TextCache.key(TaskId.SIC, "e1", Source.GSNIP, {"k": 10})
    assert cache.load(key) is None
    assert not cache.contains(key)
    cache.store(key, _text(), TaskId.SIC)
    assert cache.contains(key)
    assert cache.load(key) == _text()


def test_cache_key_depends_on_all_parts():
    base = TextCache.key(TaskId.SIC, "e1", Source.GSNIP, {"k": 10})
    assert TextCache.key(TaskId.SIC, "e1", Source.GSNIP, {"k": 5}) != base
    assert TextCache.key(TaskId.SIC, "e2", Source.GSNIP, {"k": 10}) != base
    assert TextCache.key(TaskId.HEALTHCARE, "e1", Source.GSNIP, {"k": 10}) != base
    assert TextCache.key(TaskId.SIC, "e1", Source.GPTSUM, {"k": 10}) != base
    # param insertion order must not matter
    assert TextCache.key(TaskId.SIC, "e1", Source.GSNIP, {"a": 1, "b": 2}) == TextCache.key(
        TaskId.SIC, "e1", Source.GSNIP, {"b": 2, "a": 1}
    )


def test_cache_index_lists_entries(tmp_path):
    cache = TextCache(tmp_path / "cache")
    key = TextCache.key(TaskId.SIC, "e1", Source.GSNIP, {"k": 10})
    cache.store(key, _text(), TaskId.SIC)
    index = json.loads((tmp_path / "cache" / "index.json").read_text())
    assert key in index
    assert index[key]["entity_id"] == "e1"


def test_cache_corrupt_entry_names_file(tmp_path):
    cache = TextCache(tmp_path / "cache")
    key = TextCache.key(TaskId.SIC, "e1", Source.GSNIP, {"k": 10})
    cache.store(key, _text(), TaskId.SIC)
    path = cache.path_for(key)
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(CacheCorrupt) as err:
        cache.load(key)
    assert str(path) in str(err.value)


def test_cache_leaves_no_temp_files(tmp_path):
    cache = TextCache(tmp_path / "cache")
    for i in range(5):
        key = TextCache.key(TaskId.SIC, f"e{i}", Source.GSNIP, {"k": 10})
        cache.store(key, _text(entity=f"e{i}"), TaskId.SIC)
    leftovers = [p for p in (tmp_path / "cache").iterdir() if p.name.endswith(".tmp")]
    assert leftovers == []


def test_cache_store_outside_a_batch_writes_the_index_at_once(tmp_path):
    cache = TextCache(tmp_path / "cache")
    index_path = tmp_path / "cache" / "index.json"
    for i in range(3):
        key = TextCache.key(TaskId.SIC, f"e{i}", Source.GSNIP, {"k": 10})
        cache.store(key, _text(entity=f"e{i}"), TaskId.SIC)
        index = json.loads(index_path.read_text())
        assert len(index) == i + 1
        assert index[key]["entity_id"] == f"e{i}"


def test_concurrent_batches_leave_a_complete_index(tmp_path):
    # more threads than cores, switching often: a lost update of the batch
    # depth or the dirty flag would leave keys out of the final index
    cache = TextCache(tmp_path / "cache")
    keys = []

    def worker(t):
        for round_ in range(5):
            with cache.batch():
                for i in range(4):
                    entity = f"e{t}-{round_}-{i}"
                    key = TextCache.key(TaskId.SIC, entity, Source.GSNIP, {"k": 10})
                    cache.store(key, _text(entity=entity), TaskId.SIC)
                    keys.append(key)
            entity = f"bare{t}-{round_}"
            key = TextCache.key(TaskId.SIC, entity, Source.GSNIP, {"k": 10})
            cache.store(key, _text(entity=entity), TaskId.SIC)
            keys.append(key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(keys) == 8 * 5 * 5
    index = json.loads((tmp_path / "cache" / "index.json").read_text())
    assert set(index) == set(keys)
