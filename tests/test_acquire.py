"""Acquisition orchestration: signatures, caching, concurrency, failures."""

from __future__ import annotations

import inspect
import json
import re
import threading
from dataclasses import asdict

import pytest

from taxotext.acquire import TextAcquirer, parse_source_signature
from taxotext.cache import TextCache
from taxotext.config import PipelineConfig
from taxotext.errors import AuthError, InsufficientSnippets
from taxotext.mockserver import MockLlmServer, MockSearchServer
from taxotext.search import SearchClient
from taxotext.summarize import LlmClient
from taxotext.taxonomy import EntityRecord, TaskId, load_sic_scheme
from taxotext.texts import Source

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


@pytest.mark.parametrize(
    "task,template", [(TaskId.SIC, "LLAMA_SIC"), (TaskId.HEALTHCARE, "LLAMA_HC")]
)
def test_parse_llamasum_uses_the_llama_templates_and_model(task, template):
    spec = parse_source_signature("llamasum", task, llama_model="llama-x")
    assert spec.source is Source.LLAMASUM
    assert spec.params == {"template_id": template, "model_id": "llama-x", "max_tokens": 400}


def test_parse_signature_defaults_are_the_config_defaults():
    params = inspect.signature(parse_source_signature).parameters.values()
    defaults = {p.name: p.default for p in params if p.kind is p.KEYWORD_ONLY}
    assert defaults == {name: getattr(PipelineConfig(), name) for name in defaults}
    assert len(defaults) == 4


@pytest.mark.parametrize("raw", ["", "+", "nonsense", "gsnip0", "gsnipx"])
def test_parse_rejects_bad_signatures(raw):
    with pytest.raises(ValueError):
        parse_source_signature(raw, TaskId.SIC)


# --- snippet acquisition ---------------------------------------------------------


def test_acquire_fetches_then_hits_cache(tmp_path):
    records = _records(4)
    with (
        MockSearchServer(_snippet_table(records), api_key="k") as server,
        SearchClient(server.base_url, api_key="k") as client,
    ):
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
    with (
        MockSearchServer(_snippet_table(records), api_key="k") as server,
        SearchClient(server.base_url, api_key="k") as client,
    ):
        acquirer = TextAcquirer(TaskId.SIC, TextCache(tmp_path / "c"), search_client=client)
        spec = parse_source_signature("gsnip10", TaskId.SIC)
        acquirer.acquire_all(records, spec)
        acquirer.acquire_all(records, spec, refresh=True)
        assert server.request_count == 4


def test_acquire_snippet_text_and_provenance(tmp_path):
    records = _records(1)
    with (
        MockSearchServer(_snippet_table(records, per=3), api_key="k") as server,
        SearchClient(server.base_url, api_key="k") as client,
    ):
        acquirer = TextAcquirer(TaskId.SIC, TextCache(tmp_path / "c"), search_client=client)
        spec = parse_source_signature("gsnip3", TaskId.SIC)
        text = acquirer.acquire(records[0], spec)
        # the provenance holds each result's fields, as dataclasses.asdict gives them
        assert text.provenance == [asdict(r) for r in client.search_entity(records[0].name, 3)]
    name = records[0].name
    assert text.text == f"text 0 about {name} text 1 about {name} text 2 about {name}"
    assert [p["rank"] for p in text.provenance] == [1, 2, 3]
    assert all("snippet" in p for p in text.provenance)


def test_acquire_bounds_parallelism(tmp_path):
    records = _records(12)
    with (
        MockSearchServer(_snippet_table(records), api_key="k", latency=0.05) as server,
        SearchClient(server.base_url, api_key="k") as client,
    ):
        acquirer = TextAcquirer(
            TaskId.SIC, TextCache(tmp_path / "c"), search_client=client, max_parallel=3
        )
        spec = parse_source_signature("gsnip10", TaskId.SIC)
        _, errors = acquirer.acquire_all(records, spec)
    assert not errors
    assert server.peak_in_flight <= 3


def test_acquire_retries_transient_failures(tmp_path):
    records = _records(1)
    with (
        MockSearchServer(_snippet_table(records), api_key="k") as server,
        SearchClient(server.base_url, api_key="k") as client,
    ):
        server.fail_next(2)
        acquirer = TextAcquirer(TaskId.SIC, TextCache(tmp_path / "c"), search_client=client)
        spec = parse_source_signature("gsnip10", TaskId.SIC)
        text = acquirer.acquire(records[0], spec)
    assert text.text
    assert server.request_count == 3


def test_acquire_collects_auth_errors(tmp_path):
    records = _records(3)
    with (
        MockSearchServer(_snippet_table(records), api_key="k") as server,
        SearchClient(server.base_url, api_key="wrong") as client,
    ):
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

    with (
        MockLlmServer(reply, api_key="sk") as server,
        LlmClient(server.base_url, api_key="sk") as client,
    ):
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

    with (
        MockSearchServer(snippets, api_key="k") as search_srv,
        MockLlmServer(lambda m, mo: "A summary sentence.", api_key="sk") as llm_srv,
        SearchClient(search_srv.base_url, api_key="k") as search,
        LlmClient(llm_srv.base_url, api_key="sk") as llm,
    ):
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
            assert set(offline.cached_texts(records, sub)) == {r.entity_id for r in records}


def _acquire_combined(tmp_path, records, llm_key):
    with (
        MockSearchServer(_snippet_table(records), api_key="k") as search_srv,
        MockLlmServer(lambda m, mo: "A summary sentence.", api_key="sk") as llm_srv,
        SearchClient(search_srv.base_url, api_key="k") as search,
        LlmClient(llm_srv.base_url, api_key=llm_key) as llm,
    ):
        acquirer = TextAcquirer(
            TaskId.SIC, TextCache(tmp_path / "c"), search_client=search, llm_client=llm
        )
        spec = parse_source_signature("gsnip10+gptsum", TaskId.SIC)
        results, errors = acquirer.acquire_all(records, spec)
        requests = search_srv.request_count + llm_srv.request_count
    return acquirer.stats, results, errors, requests


def test_acquire_combined_counts_one_fetch_per_provider_reply(tmp_path):
    stats, results, errors, requests = _acquire_combined(tmp_path, _records(2), "sk")
    assert len(results) == 2 and not errors
    assert requests == 4
    assert stats["fetched"] == 4


def test_acquire_combined_counts_one_failure_per_failed_entity(tmp_path):
    stats, results, errors, _ = _acquire_combined(tmp_path, _records(2), "wrong")
    assert not results
    assert len(errors) == 2
    assert stats["failures"] == len(errors)
    assert stats["fetched"] == 2  # the snippet components succeeded


def test_combined_acquire_caches_only_provider_replies(tmp_path):
    records = _records(3)
    stats, results, errors, _ = _acquire_combined(tmp_path, records, "sk")
    assert len(results) == 3 and not errors
    entries = [json.loads(p.read_text(encoding="utf-8")) for p in (tmp_path / "c").iterdir()]
    assert len(entries) == 2 * len(records)
    assert sorted(e["source"] for e in entries) == ["GPTSUM"] * 3 + ["GSNIP"] * 3

    # a warm rerun serves each component entry from the cache, no client needed
    offline = TextAcquirer(TaskId.SIC, TextCache(tmp_path / "c"))
    spec = parse_source_signature("gsnip10+gptsum", TaskId.SIC)
    rerun, errors = offline.acquire_all(records, spec)
    assert rerun == results and not errors
    assert offline.stats == {"fetched": 0, "hits": 6, "refusals": 0, "failures": 0}


def test_combined_text_is_none_when_a_component_is_missing(tmp_path):
    records = _records(2)
    with (
        MockSearchServer(_snippet_table(records), api_key="k") as server,
        SearchClient(server.base_url, api_key="k") as client,
    ):
        acquirer = TextAcquirer(TaskId.SIC, TextCache(tmp_path / "c"), search_client=client)
        acquirer.acquire_all(records, parse_source_signature("gsnip10", TaskId.SIC))
    spec = parse_source_signature("gsnip10+gptsum", TaskId.SIC)
    assert acquirer.acquire_cached(records[0], spec) is None
    assert acquirer.cached_texts(records, spec) == {}


def test_acquire_cached_returns_none_when_absent(tmp_path):
    acquirer = TextAcquirer(TaskId.SIC, TextCache(tmp_path / "c"))
    spec = parse_source_signature("gsnip10", TaskId.SIC)
    assert acquirer.acquire_cached(_records(1)[0], spec) is None
    assert acquirer.cached_texts(_records(1), spec) == {}


# --- provider lanes ------------------------------------------------------------------


class _GatedSearchServer(MockSearchServer):
    """Holds every search reply until ``gate`` is set (or 10 s have passed)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()

    def respond(self, method, path, query, body):
        self.gate.wait(timeout=10)
        return super().respond(method, path, query, body)


@pytest.mark.parametrize("signatures", [("gsnip3", "gptsum"), ("gsnip3+gptsum",)])
def test_search_and_llm_requests_are_in_flight_at_once(tmp_path, signatures):
    records = _records(4)
    searches_seen = []  # searches that had reached the search server, per LLM request

    def reply(messages, model):
        searches_seen.append(search_srv.request_count)
        if len(searches_seen) == len(records):
            search_srv.gate.set()  # let the searches answer once every summary is asked for
        return "A summary sentence."

    with (
        _GatedSearchServer(_snippet_table(records), api_key="k", latency=0.05) as search_srv,
        MockLlmServer(reply, api_key="sk") as llm_srv,
        SearchClient(search_srv.base_url, api_key="k") as search,
        LlmClient(llm_srv.base_url, api_key="sk") as llm,
    ):
        acquirer = TextAcquirer(
            TaskId.SIC, TextCache(tmp_path / "c"), search_client=search, llm_client=llm,
            max_parallel=2,
        )
        specs = [parse_source_signature(s, TaskId.SIC) for s in signatures]
        results, errors = acquirer.acquire_all(records, *specs)
    assert not errors
    assert len(results) == len(records) * len(specs)
    # the LLM lane does not wait for the searches: every summary is asked for
    # while the first two searches are held, before any other is sent
    assert len(searches_seen) == len(records)
    assert searches_seen[0] < len(records)
    assert max(searches_seen) <= 2
    assert search_srv.peak_in_flight <= 2 and llm_srv.peak_in_flight <= 2
    assert acquirer.stats == {"fetched": 8, "hits": 0, "refusals": 0, "failures": 0}


def test_several_specs_fetch_each_shared_source_once(tmp_path):
    records = _records(3)
    with (
        MockSearchServer(_snippet_table(records), api_key="k") as search_srv,
        MockLlmServer(lambda m, mo: "A summary sentence.", api_key="sk") as llm_srv,
        SearchClient(search_srv.base_url, api_key="k") as search,
        LlmClient(llm_srv.base_url, api_key="sk") as llm,
    ):
        acquirer = TextAcquirer(
            TaskId.SIC, TextCache(tmp_path / "c"), search_client=search, llm_client=llm
        )
        gsnip = parse_source_signature("gsnip10", TaskId.SIC)
        combined = parse_source_signature("gsnip10+gptsum", TaskId.SIC)
        results, errors = acquirer.acquire_all(records, gsnip, combined)
        assert search_srv.request_count == llm_srv.request_count == len(records)
    assert not errors
    assert set(results) == {
        (r.entity_id, sig) for r in records for sig in ("gsnip10", "gsnip10+gptsum")
    }
    alone, _ = TextAcquirer(TaskId.SIC, TextCache(tmp_path / "c")).acquire_all(records, combined)
    assert {eid: results[eid, "gsnip10+gptsum"] for eid in alone} == alone
    assert acquirer.stats == {"fetched": 6, "hits": 0, "refusals": 0, "failures": 0}


def test_combined_spec_caches_its_summary_when_its_search_fails(tmp_path):
    records = _records(3)
    with (
        MockSearchServer(_snippet_table(records), api_key="k") as search_srv,
        MockLlmServer(lambda m, mo: "A summary sentence.", api_key="sk") as llm_srv,
        SearchClient(search_srv.base_url, api_key="wrong") as search,
        LlmClient(llm_srv.base_url, api_key="sk") as llm,
    ):
        acquirer = TextAcquirer(
            TaskId.SIC, TextCache(tmp_path / "c"), search_client=search, llm_client=llm
        )
        spec = parse_source_signature("gsnip10+gptsum", TaskId.SIC)
        results, errors = acquirer.acquire_all(records, spec)
        assert llm_srv.request_count == len(records)
    assert not results
    assert set(errors) == {r.entity_id for r in records}
    assert all(isinstance(e, AuthError) for e in errors.values())
    assert acquirer.stats == {"fetched": 3, "hits": 0, "refusals": 0, "failures": 3}
    offline = TextAcquirer(TaskId.SIC, TextCache(tmp_path / "c"))
    gptsum = parse_source_signature("gptsum", TaskId.SIC)
    assert set(offline.cached_texts(records, gptsum)) == {r.entity_id for r in records}


def test_acquire_of_a_combined_spec_caches_its_summary_when_its_search_fails(tmp_path):
    records = _records(1)
    with (
        MockSearchServer(_snippet_table(records), api_key="k") as search_srv,
        MockLlmServer(lambda m, mo: "A summary sentence.", api_key="sk") as llm_srv,
        SearchClient(search_srv.base_url, api_key="wrong") as search,
        LlmClient(llm_srv.base_url, api_key="sk") as llm,
    ):
        acquirer = TextAcquirer(
            TaskId.SIC, TextCache(tmp_path / "c"), search_client=search, llm_client=llm
        )
        with pytest.raises(AuthError):
            acquirer.acquire(records[0], parse_source_signature("gsnip10+gptsum", TaskId.SIC))
        assert llm_srv.request_count == 1
    assert acquirer.stats == {"fetched": 1, "hits": 0, "refusals": 0, "failures": 1}
    gptsum = parse_source_signature("gptsum", TaskId.SIC)
    assert acquirer.acquire_cached(records[0], gptsum).text == "A summary sentence."


# --- cache entry files -------------------------------------------------------------


def test_cold_acquire_all_leaves_one_entry_file_per_provider_reply(tmp_path):
    records = _records(4)
    stats, results, errors, requests = _acquire_combined(tmp_path, records, "sk")
    assert len(results) == 4 and not errors
    files = sorted((tmp_path / "c").iterdir())
    assert len(files) == requests == stats["fetched"] == 2 * len(records)
    assert all(re.fullmatch(r"[0-9a-f]{64}\.json", p.name) for p in files)

    gsnip = parse_source_signature("gsnip10", TaskId.SIC)
    gptsum = parse_source_signature("gptsum", TaskId.SIC)
    expected = {
        TextCache.key(TaskId.SIC, r.entity_id, spec.source, spec.params):
            ("SIC", r.entity_id, spec.source.value, spec.params)
        for r in records
        for spec in (gsnip, gptsum)
    }
    found = {}
    for p in files:
        entry = json.loads(p.read_text(encoding="utf-8"))
        found[p.stem] = (entry["task"], entry["entity_id"], entry["source"], entry["params"])
    assert found == expected


def test_an_old_index_json_is_ignored_and_left_in_place(tmp_path):
    records = _records(3)
    with (
        MockSearchServer(_snippet_table(records), api_key="k") as server,
        SearchClient(server.base_url, api_key="k") as client,
    ):
        acquirer = TextAcquirer(TaskId.SIC, TextCache(tmp_path / "c"), search_client=client)
        spec = parse_source_signature("gsnip10", TaskId.SIC)
        results, _ = acquirer.acquire_all(records, spec)
    # an index as older versions wrote it, here out of step with the entries
    index_path = tmp_path / "c" / "index.json"
    index_path.write_bytes(b'{\n  "stale": {"entity_id": "gone"}\n}')
    before = index_path.read_bytes()

    offline = TextAcquirer(TaskId.SIC, TextCache(tmp_path / "c"))
    rerun, errors = offline.acquire_all(records, spec)
    assert rerun == results and not errors
    assert offline.stats["hits"] == 3
    assert index_path.read_bytes() == before


# --- HTTP connections -------------------------------------------------------------


def test_parallel_requests_reuse_at_most_one_connection_per_worker(tmp_path):
    records = _records(50)
    with MockSearchServer(_snippet_table(records), api_key="k", latency=0.005) as server:
        with SearchClient(server.base_url, api_key="k") as client:
            acquirer = TextAcquirer(
                TaskId.SIC, TextCache(tmp_path / "c"), search_client=client, max_parallel=4
            )
            _, errors = acquirer.acquire_all(records, parse_source_signature("gsnip10", TaskId.SIC))
    assert not errors
    assert server.request_count == 50
    assert 1 <= server.connection_count <= 4


def test_wide_pool_stays_within_one_connection_per_worker(tmp_path):
    # 16 workers share the client's one pool: every request in flight has a
    # connection of its own, and no worker opens a second one
    records = _records(64)
    with MockSearchServer(_snippet_table(records), api_key="k", latency=0.1) as server:
        with SearchClient(server.base_url, api_key="k") as client:
            acquirer = TextAcquirer(
                TaskId.SIC, TextCache(tmp_path / "c"), search_client=client, max_parallel=16
            )
            spec = parse_source_signature("gsnip10", TaskId.SIC)
            _, errors = acquirer.acquire_all(records, spec)
    assert not errors
    assert server.peak_in_flight > 10
    assert server.connection_count <= 16
