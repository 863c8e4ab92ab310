from __future__ import annotations

import contextlib
import json
import os
import signal
import sqlite3
import subprocess
import sys
import threading

import pytest

from taxotext import cache as cache_module
from taxotext.cache import TextCache
from taxotext.errors import CacheCorrupt, CacheUnavailable
from taxotext.hashing import canonical_json
from taxotext.taxonomy import TaskId
from taxotext.texts import AcquiredText, Source

from conftest import cache_rows, put_cache_body, wait_until


def _text(entity="e1", text="hello", refusal=False):
    return AcquiredText(
        entity_id=entity,
        source=Source.GSNIP,
        params={"k": 10},
        text=text,
        retrieved_at="2026-01-01T00:00:00+00:00",
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


# --- TextCache ---------------------------------------------------------------


def test_cache_miss_then_hit(tmp_path):
    cache = TextCache(tmp_path / "cache")
    key = TextCache.key(TaskId.SIC, "e1", Source.GSNIP, {"k": 10})
    assert cache.load(key) is None
    cache.store(key, _text(), TaskId.SIC)
    assert cache.load(key) == _text()
    assert list(cache_rows(cache.root)) == [key]


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


def test_leaf_cache_key_is_pinned():
    # a changed key would orphan every existing cache entry
    key = TextCache.key(TaskId.SIC, "e1", Source.GSNIP, {"k": 10})
    assert key == "774acd2aea0dd2c84ced3e3739154345507d3e7a55bacc263dca670ee4280006"


_JSON_SAMPLES = [
    {"b": [1, 2.5, -0.0, 1e300, 3.141592653589793], "a": {"z": None, "y": True}},
    {"name": "Café Zürich — 東京", "emoji": "\U0001f600", "ctrl": "tab\tnew\nline\"q\""},
    [[{"k": 0.1 + 0.2}], [], {}, "", 1 / 3, 10**20],
    "plain string",
    2.0,
]


@pytest.mark.parametrize("sample", _JSON_SAMPLES)
def test_prebuilt_encoders_write_what_json_dumps_writes(sample):
    assert canonical_json(sample) == json.dumps(
        sample, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )
    assert cache_module._BODY_JSON.encode(sample) == json.dumps(sample, ensure_ascii=False, sort_keys=True)


def test_cache_loads_an_entry_without_a_task_field(tmp_path):
    # entries written before the task was recorded in them must still load
    cache = TextCache(tmp_path / "cache")
    key = TextCache.key(TaskId.SIC, "e1", Source.GSNIP, {"k": 10})
    put_cache_body(cache.root, key, json.dumps(_text().to_json()))
    assert cache.load(key) == _text()


def test_cache_directory_is_made_by_the_first_store(tmp_path):
    cache = TextCache(tmp_path / "cache")
    key = TextCache.key(TaskId.SIC, "e1", Source.GSNIP, {"k": 10})
    assert not cache.root.exists()
    assert cache.load(key) is None
    assert not cache.root.exists()
    cache.store(key, _text(), TaskId.SIC)
    assert cache.load(key) == _text()


@pytest.mark.parametrize(
    "missing", ["entity_id", "source", "params", "text", "retrieved_at", "provenance", "refusal"]
)
def test_cache_entry_without_a_field_is_corrupt(tmp_path, missing):
    cache = TextCache(tmp_path / "cache")
    key = TextCache.key(TaskId.SIC, "e1", Source.GSNIP, {"k": 10})
    cache.store(key, _text(), TaskId.SIC)
    payload = json.loads(cache_rows(cache.root)[key])
    del payload[missing]
    put_cache_body(cache.root, key, json.dumps(payload))
    with pytest.raises(CacheCorrupt):
        cache.load(key)


def test_cache_corrupt_entry_names_file(tmp_path):
    cache = TextCache(tmp_path / "cache")
    key = TextCache.key(TaskId.SIC, "e1", Source.GSNIP, {"k": 10})
    cache.store(key, _text(), TaskId.SIC)
    put_cache_body(cache.root, key, "{not json")
    with pytest.raises(CacheCorrupt) as err:
        cache.load(key)
    assert str(cache.root / "cache.sqlite3") in str(err.value)
    assert key in str(err.value)


@pytest.mark.parametrize("case", ["not-a-database", "not-utf8", "not-json"])
def test_unreadable_cache_raises_cache_corrupt_naming_database_and_key(tmp_path, case):
    root = tmp_path / "cache"
    key = TextCache.key(TaskId.SIC, "e1", Source.GSNIP, {"k": 10})
    if case == "not-a-database":
        root.mkdir()
        (root / "cache.sqlite3").write_bytes(b"{not a database}" * 300)
    else:
        with TextCache(root) as cache:
            cache.store(key, _text(text="café"), TaskId.SIC)
        body = cache_rows(root)[key]
        bad = body.replace("é".encode(), "é".encode("latin-1")) if case == "not-utf8" else b"{not json"
        put_cache_body(root, key, bad)
    with TextCache(root) as cache, pytest.raises(CacheCorrupt) as err:
        cache.load(key)
    assert str(root / "cache.sqlite3") in str(err.value)
    assert key in str(err.value)
    if case == "not-a-database":
        with TextCache(root) as cache, pytest.raises(CacheCorrupt):
            cache.store(key, _text(), TaskId.SIC)


def test_legacy_entry_files_are_imported_once_and_left_in_place(tmp_path):
    root = tmp_path / "cache"
    root.mkdir()
    good, bad, late = (
        TextCache.key(TaskId.SIC, e, Source.GSNIP, {"k": 10}) for e in ("e1", "e2", "e3")
    )
    (root / f"{good}.json").write_text(json.dumps(_text().to_json()), encoding="utf-8")  # no task
    (root / f"{bad}.json").write_text("{not json", encoding="utf-8")
    (root / "index.json").write_text('{"stale": {}}', encoding="utf-8")
    before = {p.name: p.read_bytes() for p in root.iterdir()}
    with TextCache(root) as cache:
        assert cache.load(good) == _text()
        with pytest.raises(CacheCorrupt) as err:
            cache.load(bad)
        assert bad in str(err.value)
    assert sorted(cache_rows(root)) == sorted([good, bad])
    assert {p.name: p.read_bytes() for p in root.iterdir() if p.suffix == ".json"} == before
    # only the open that makes the database imports; a file written after it is not read
    (root / f"{late}.json").write_text(json.dumps(_text(entity="e3").to_json()), encoding="utf-8")
    with TextCache(root) as cache:
        assert cache.load(late) is None


def test_a_cache_database_that_cannot_be_opened_raises_cache_unavailable(tmp_path):
    root = tmp_path / "cache"
    (root / "cache.sqlite3").mkdir(parents=True)  # a directory where the file belongs
    key = TextCache.key(TaskId.SIC, "e1", Source.GSNIP, {"k": 10})
    with TextCache(root) as cache:
        with pytest.raises(CacheUnavailable) as err:
            cache.load(key)
        assert str(root / "cache.sqlite3") in str(err.value)
        with pytest.raises(CacheUnavailable):
            cache.store(key, _text(), TaskId.SIC)


def test_a_store_locked_out_past_the_busy_timeout_raises_cache_unavailable(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_module, "BUSY_TIMEOUT_S", 0.05)
    root = tmp_path / "cache"
    key = TextCache.key(TaskId.SIC, "e1", Source.GSNIP, {"k": 10})
    with TextCache(root) as cache:
        cache.store(key, _text(), TaskId.SIC)
    with TextCache(root) as cache:
        with contextlib.closing(sqlite3.connect(cache.path, isolation_level=None)) as holder:
            holder.execute("BEGIN EXCLUSIVE")
            with pytest.raises(CacheUnavailable, match="locked") as err:
                cache.store(key, _text(text="later"), TaskId.SIC)
            assert str(cache.path) in str(err.value)
            holder.execute("ROLLBACK")
        # the failed open kept no connection: the next store opens one and lands
        cache.store(key, _text(text="later"), TaskId.SIC)
        assert cache.load(key) == _text(text="later")


def test_opening_waits_for_a_connection_that_writes_before_the_switch_to_wal(tmp_path):
    # SQLite fails the switch at once here rather than after its busy timeout
    root = tmp_path / "cache"
    root.mkdir()
    key = TextCache.key(TaskId.SIC, "e1", Source.GSNIP, {"k": 10})
    holder = sqlite3.connect(root / "cache.sqlite3", isolation_level=None, check_same_thread=False)
    with contextlib.closing(holder):
        holder.execute("BEGIN IMMEDIATE")  # a new database, still in rollback-journal mode
        release = threading.Timer(0.2, holder.execute, ("ROLLBACK",))
        release.start()
        try:
            with TextCache(root) as cache:
                cache.store(key, _text(), TaskId.SIC)
                assert cache.load(key) == _text()
        finally:
            release.join()


def test_cache_leaves_no_temp_files(tmp_path):
    cache = TextCache(tmp_path / "cache")
    for i in range(5):
        key = TextCache.key(TaskId.SIC, f"e{i}", Source.GSNIP, {"k": 10})
        cache.store(key, _text(entity=f"e{i}"), TaskId.SIC)
    leftovers = [p for p in (tmp_path / "cache").iterdir() if p.name.endswith(".tmp")]
    assert leftovers == []


def _store_from_threads(caches, n_threads=8, per_thread=25):
    """Store from many threads, switching often, spread over the given caches; key -> entity."""
    keys = {}

    def worker(t):
        for i in range(per_thread):
            entity = f"e{t}-{i}"
            key = TextCache.key(TaskId.SIC, entity, Source.GSNIP, {"k": 10})
            caches[t % len(caches)].store(key, _text(entity=entity), TaskId.SIC)
            keys[key] = entity

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(keys) == n_threads * per_thread
    return keys


def test_concurrent_stores_all_load_and_leave_no_temp_files(tmp_path):
    # more threads than cores, switching often: every store must land whole
    cache = TextCache(tmp_path / "cache")
    keys = _store_from_threads([cache])
    for key, entity in keys.items():
        assert cache.load(key) == _text(entity=entity)
    assert sorted(cache_rows(tmp_path / "cache")) == sorted(keys)
    assert not [p for p in (tmp_path / "cache").iterdir() if p.name.endswith(".tmp")]


def test_two_caches_on_one_directory_lose_no_store(tmp_path):
    # two connections to one database: a store that finds it busy waits, and none is lost
    with TextCache(tmp_path / "cache") as a, TextCache(tmp_path / "cache") as b:
        keys = _store_from_threads([a, b])
    with TextCache(tmp_path / "cache") as fresh:
        for key, entity in keys.items():
            assert fresh.load(key) == _text(entity=entity)
    assert sorted(cache_rows(tmp_path / "cache")) == sorted(keys)


_STORE_FOREVER = """
import sys
from taxotext.cache import TextCache
from taxotext.taxonomy import TaskId
from taxotext.texts import AcquiredText, Source

cache = TextCache(sys.argv[1])
i = 0
while True:
    entity = f"e{i}"
    text = AcquiredText(entity, Source.GSNIP, {"k": 10}, "x" * 3000, "2026-01-01T00:00:00+00:00")
    cache.store(TextCache.key(TaskId.SIC, entity, Source.GSNIP, {"k": 10}), text, TaskId.SIC)
    i += 1
"""


def _rows_so_far(root) -> int:
    """Rows another process has committed; 0 until its database file and table exist."""
    if not (root / "cache.sqlite3").exists():
        return 0
    try:
        return len(cache_rows(root))
    except sqlite3.OperationalError:  # the file is made before its table is committed
        return 0


def test_a_store_loop_killed_with_sigkill_leaves_only_whole_entries(tmp_path):
    root = tmp_path / "cache"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    with subprocess.Popen([sys.executable, "-c", _STORE_FOREVER, str(root)], env=env) as proc:
        try:
            wait_until(lambda: _rows_so_far(root) >= 50, timeout=30)
        finally:
            proc.send_signal(signal.SIGKILL)
    assert proc.returncode == -signal.SIGKILL
    rows = cache_rows(root)
    assert len(rows) >= 50
    with TextCache(root) as cache:
        for key in rows:
            assert cache.load(key).text == "x" * 3000
