"""Acquisition orchestration: signatures, caching, concurrency, failures."""

from __future__ import annotations

import json

import pytest

from taxotext.acquire import TextAcquirer, parse_source_signature
from taxotext.cache import INDEX_NAME, TextCache
from taxotext.errors import AuthError, InsufficientSnippets
from taxotext.mockserver import MockLlmServer, MockSearchServer
from taxotext.search import SearchClient
from taxotext.summarize import LlmClient
from taxotext.taxonomy import EntityRecord, TaskId, load_sic_scheme
from taxotext.texts import AcquiredText, Source

from conftest import make_records


def _records(n=6, cat="20"):
    scheme = load_sic_scheme()
    return make_records(scheme, [(cat, n)])


def _snippet_table(records, per=10):
    return {
        r.name: [f"text {i} about {r.name}" for i in range(per)]
        for r in records
    }


# --- signature parsing --------------------------------------------------------


@pytest.mark.parametrize(
    "raw,canonical,source",
    [
        ("gsnip", "gsnip10", Source.GSNIP),
        ("gsnip5", "gsnip5", Source.GSNIP),
        ("gptsum", "gptsum", Source.GPTSUM),
        ("llamasum", "llamasum", Source.LLAMASUM),
    ],
)
def test_parse_simple_signatures(raw, canonical, source):
    spec = parse_source_signature(raw, TaskId.SIC)
    assert spec.signature == canonical
    assert spec.source is source


def test_parse_combined_signature():
    spec = parse_source_signature("gptsum+gsnip5", TaskId.SIC)
    assert spec.source is Source.COMBINED
    assert spec.signature == "gsnip5+gptsum"  # canonical order: snippets first
    assert [c.source for c in spec.components] == [Source.GSNIP, Source.GPTSUM]


def test_parse_signature_templates_follow_task():
    sic = parse_source_signature("gptsum", TaskId.SIC)
    hc = parse_source_signature("gptsum", TaskId.HEALTHCARE)
    assert sic.params["template_id"] == "GPT_SIC"
    assert hc.params["template_id"] == "GPT_HC"


@pytest.mark.parametrize("raw", ["", "+", "nonsense", "gsnip0", "gsnipx"])
def test_parse_rejects_bad_signatures(raw):
    with pytest.raises(ValueError):
        parse_source_signature(raw, TaskId.SIC)


# --- snippet acquisition ---------------------------------------------------------


def test_acquire_fetches_then_hits_cache(tmp_path):
    records = _records(4)
    with MockSearchServer(_snippet_table(records), api_key="k") as server:
        client = SearchClient(server.base_url, api_key="k")
        cache = TextCache(tmp_path / "cache")
        acquirer = TextAcquirer(TaskId.SIC, cache, search_client=client)
        spec = parse_source_signature("gsnip10", TaskId.SIC)

        results, errors = acquirer.acquire_all(records, spec)
        assert not errors
        assert len(results) == 4
        assert server.request_count == 4
        assert acquirer.stats["fetched"] == 4

        results2, errors2 = acquirer.acquire_all(records, spec)
        assert not errors2
        assert server.request_count == 4  # cache absorbed every repeat
        assert acquirer.stats["hits"] == 4
        assert results2 == results


def test_acquire_refresh_refetches(tmp_path):
    records = _records(2)
    with MockSearchServer(_snippet_table(records), api_key="k") as server:
        client = SearchClient(server.base_url, api_key="k")
        acquirer = TextAcquirer(TaskId.SIC, TextCache(tmp_path / "c"), search_client=client)
        spec = parse_source_signature("gsnip10", TaskId.SIC)
        acquirer.acquire_all(records, spec)
        acquirer.acquire_all(records, spec, refresh=True)
        assert server.request_count == 4


def test_acquire_snippet_text_and_provenance(tmp_path):
    records = _records(1)
    with MockSearchServer(_snippet_table(records, per=3), api_key="k") as server:
        client = SearchClient(server.base_url, api_key="k")
        acquirer = TextAcquirer(TaskId.SIC, TextCache(tmp_path / "c"), search_client=client)
        spec = parse_source_signature("gsnip3", TaskId.SIC)
        text = acquirer.acquire(records[0], spec)
    name = records[0].name
    assert text.text == f"text 0 about {name} text 1 about {name} text 2 about {name}"
    assert [p["rank"] for p in text.provenance] == [1, 2, 3]
    assert all("snippet" in p for p in text.provenance)


def test_acquire_bounds_parallelism(tmp_path):
    records = _records(12)
    with MockSearchServer(_snippet_table(records), api_key="k", latency=0.05) as server:
        client = SearchClient(server.base_url, api_key="k")
        acquirer = TextAcquirer(
            TaskId.SIC, TextCache(tmp_path / "c"), search_client=client, max_parallel=3
        )
        spec = parse_source_signature("gsnip10", TaskId.SIC)
        _, errors = acquirer.acquire_all(records, spec)
    assert not errors
    assert server.peak_in_flight <= 3


def test_acquire_retries_transient_failures(tmp_path):
    records = _records(1)
    with MockSearchServer(_snippet_table(records), api_key="k") as server:
        server.fail_next(2)
        client = SearchClient(server.base_url, api_key="k")
        acquirer = TextAcquirer(TaskId.SIC, TextCache(tmp_path / "c"), search_client=client)
        spec = parse_source_signature("gsnip10", TaskId.SIC)
        text = acquirer.acquire(records[0], spec)
    assert text.text
    assert server.request_count == 3


def test_acquire_collects_auth_errors(tmp_path):
    records = _records(3)
    with MockSearchServer(_snippet_table(records), api_key="k") as server:
        client = SearchClient(server.base_url, api_key="wrong")
        acquirer = TextAcquirer(TaskId.SIC, TextCache(tmp_path / "c"), search_client=client)
        spec = parse_source_signature("gsnip10", TaskId.SIC)
        results, errors = acquirer.acquire_all(records, spec)
    assert not results
    assert len(errors) == 3
    assert all(isinstance(e, AuthError) for e in errors.values())
    assert acquirer.stats["failures"] == 3


# --- summaries and combination ----------------------------------------------------


def test_acquire_summary_counts_refusals(tmp_path):
    records = _records(2)
    refuser = records[0].name

    def reply(messages, model):
        if refuser in messages[-1]["content"]:
            return "I don't have any information about that organization."
        return "Makes industrial glue. Sells to factories."

    with MockLlmServer(reply, api_key="sk") as server:
        client = LlmClient(server.base_url, api_key="sk")
        acquirer = TextAcquirer(TaskId.SIC, TextCache(tmp_path / "c"), llm_client=client)
        spec = parse_source_signature("gptsum", TaskId.SIC)
        results, errors = acquirer.acquire_all(records, spec)
    assert not errors
    assert acquirer.stats["refusals"] == 1
    assert results[records[0].entity_id].refusal
    assert results[records[0].entity_id].text == ""
    assert results[records[1].entity_id].text.startswith("Makes industrial glue.")


def test_acquire_combined_fetches_components_and_caches(tmp_path):
    records = _records(2)
    snippets = _snippet_table(records)

    with MockSearchServer(snippets, api_key="k") as search_srv, MockLlmServer(
        lambda m, mo: "A summary sentence.", api_key="sk"
    ) as llm_srv:
        search = SearchClient(search_srv.base_url, api_key="k")
        llm = LlmClient(llm_srv.base_url, api_key="sk")
        cache = TextCache(tmp_path / "c")
        acquirer = TextAcquirer(TaskId.SIC, cache, search_client=search, llm_client=llm)
        spec = parse_source_signature("gsnip10+gptsum", TaskId.SIC)
        results, errors = acquirer.acquire_all(records, spec)

        assert not errors
        combined = results[records[0].entity_id]
        assert combined.source is Source.COMBINED
        assert "\n\n" in combined.text
        assert combined.text.index("text 0") < combined.text.index("A summary sentence.")

        # components were cached too: rebuilding from cache needs no client
        offline = TextAcquirer(TaskId.SIC, cache)
        for sig in ("gsnip10", "gptsum", "gsnip10+gptsum"):
            sub = parse_source_signature(sig, TaskId.SIC)
            assert offline.acquire_cached(records[0], sub) is not None


def test_acquire_cached_returns_none_when_absent(tmp_path):
    acquirer = TextAcquirer(TaskId.SIC, TextCache(tmp_path / "c"))
    spec = parse_source_signature("gsnip10", TaskId.SIC)
    assert acquirer.acquire_cached(_records(1)[0], spec) is None


# --- cache index writes -------------------------------------------------------------


def _count_index_writes(monkeypatch):
    writes = []
    real = TextCache._atomic_write

    def counting(self, path, payload):
        if path.name == INDEX_NAME:
            writes.append(path)
        real(self, path, payload)

    monkeypatch.setattr(TextCache, "_atomic_write", counting)
    return writes


def _entry_keys(cache_dir):
    return {p.stem for p in cache_dir.glob("*.json") if p.name != INDEX_NAME}


def test_acquire_all_writes_the_index_once(tmp_path, monkeypatch):
    records = _records(50)
    writes = _count_index_writes(monkeypatch)
    with MockSearchServer(_snippet_table(records), api_key="k") as server:
        client = SearchClient(server.base_url, api_key="k")
        cache = TextCache(tmp_path / "c")
        acquirer = TextAcquirer(TaskId.SIC, cache, search_client=client, max_parallel=4)
        spec = parse_source_signature("gsnip10", TaskId.SIC)
        results, errors = acquirer.acquire_all(records, spec)
    assert not errors and len(results) == 50
    assert len(writes) == 1

    index = json.loads((tmp_path / "c" / INDEX_NAME).read_text(encoding="utf-8"))
    expected = {
        TextCache.key(TaskId.SIC, r.entity_id, Source.GSNIP, {"k": 10}): r.entity_id
        for r in records
    }
    assert {key: entry["entity_id"] for key, entry in index.items()} == expected
    assert set(index) == _entry_keys(tmp_path / "c")


def test_batched_index_matches_one_store_at_a_time(tmp_path):
    records = _records(8)
    with MockSearchServer(_snippet_table(records), api_key="k") as server:
        client = SearchClient(server.base_url, api_key="k")
        acquirer = TextAcquirer(TaskId.SIC, TextCache(tmp_path / "a"), search_client=client)
        spec = parse_source_signature("gsnip10", TaskId.SIC)
        results, _ = acquirer.acquire_all(records, spec)
    unbatched = TextCache(tmp_path / "b")
    for record in reversed(records):
        key = TextCache.key(TaskId.SIC, record.entity_id, Source.GSNIP, {"k": 10})
        unbatched.store(key, results[record.entity_id], TaskId.SIC)
    assert (tmp_path / "a" / INDEX_NAME).read_bytes() == (tmp_path / "b" / INDEX_NAME).read_bytes()


def test_index_keeps_entries_stored_before_acquire_all_raises(tmp_path, monkeypatch):
    # no LLM client: each worker stores the snippet component, then raises
    records = _records(6)
    writes = _count_index_writes(monkeypatch)
    with MockSearchServer(_snippet_table(records), api_key="k") as server:
        client = SearchClient(server.base_url, api_key="k")
        acquirer = TextAcquirer(TaskId.SIC, TextCache(tmp_path / "c"), search_client=client)
        spec = parse_source_signature("gsnip10+gptsum", TaskId.SIC)
        with pytest.raises(ValueError):
            acquirer.acquire_all(records, spec)
    stored = _entry_keys(tmp_path / "c")
    assert stored
    index = json.loads((tmp_path / "c" / INDEX_NAME).read_text(encoding="utf-8"))
    assert set(index) == stored
    assert all(entry["source"] == "GSNIP" for entry in index.values())
    assert len(writes) == 1


def test_nested_batches_write_the_index_when_the_outermost_ends(tmp_path):
    cache = TextCache(tmp_path / "c")
    text = AcquiredText(
        entity_id="e1", source=Source.GSNIP, params={"k": 10}, text="x",
        retrieved_at="2026-01-01T00:00:00+00:00",
    )
    key = TextCache.key(TaskId.SIC, "e1", Source.GSNIP, {"k": 10})
    index_path = tmp_path / "c" / INDEX_NAME
    with cache.batch():
        with cache.batch():
            cache.store(key, text, TaskId.SIC)
        assert not index_path.exists()
    assert key in json.loads(index_path.read_text(encoding="utf-8"))


# --- HTTP connections -------------------------------------------------------------


def test_wide_pool_logs_no_connection_pool_warnings(tmp_path, caplog):
    # urllib3 keeps 10 connections per host in a pool; 16 workers sharing one
    # pool would discard connections with a "Connection pool is full" warning
    records = _records(64)
    with MockSearchServer(_snippet_table(records), api_key="k", latency=0.1) as server:
        client = SearchClient(server.base_url, api_key="k")
        acquirer = TextAcquirer(
            TaskId.SIC, TextCache(tmp_path / "c"), search_client=client, max_parallel=16
        )
        spec = parse_source_signature("gsnip10", TaskId.SIC)
        with caplog.at_level("WARNING", logger="urllib3"):
            _, errors = acquirer.acquire_all(records, spec)
    assert not errors
    assert server.peak_in_flight > 10
    assert not [r for r in caplog.records if r.name.startswith("urllib3")]
