"""Acquisition orchestration: signatures, caching, concurrency, failures."""

from __future__ import annotations

import collections
import contextlib
import inspect
import itertools
import json
import re
import sqlite3
import threading
import time
import tracemalloc
from dataclasses import asdict

import pytest

from taxotext.acquire import TextAcquirer, parse_source_signature
from taxotext import cache as cache_module
from taxotext import cli
from taxotext.cache import TextCache
from taxotext.config import PipelineConfig
from taxotext.errors import AuthError, CacheUnavailable, InsufficientSnippets
from taxotext.mockserver import MockLlmServer, MockSearchServer
from taxotext.search import SearchClient, SearchResult
from taxotext.summarize import LlmClient
from taxotext.taxonomy import EntityRecord, TaskId, load_sic_scheme
from taxotext.texts import Source

from conftest import cache_rows, make_records, write_entities_csv


def _records(n=6, cat="20"):
    scheme = load_sic_scheme()
    return make_records(scheme, [(cat, n)])


def _snippet_table(records, per=10):
    return {
        r.name: [f"text {i} about {r.name}" for i in range(per)]
        for r in records
    }


def _resolved(acquirer, records, spec):
    """The descriptions resolve yields for one spec, by entity id; misses are left out."""
    return {r.entity_id: text for r, (text,) in acquirer.resolve(records, spec) if text is not None}


def _read_back(acquirer, records, *specs):
    """What acquire_all stored, by (entity_id, signature): a provider source's
    entry through acquire_cached, a combined spec's description through
    resolve; a spec with an uncached component is left out."""
    texts = {}
    for spec in specs:
        if spec.components:
            for entity_id, text in _resolved(acquirer, records, spec).items():
                texts[entity_id, spec.signature] = text
            continue
        for record in records:
            hit = acquirer.acquire_cached(record, spec)
            if hit is not None:
                texts[record.entity_id, spec.signature] = hit
    return texts


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


@pytest.mark.parametrize("raw", ["", "+", "nonsense", "gsnip0", "gsnipx", "gsnip11"])
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

        errors = acquirer.acquire_all(records, spec)
        results = _read_back(acquirer, records, spec)
        assert not errors
        assert len(results) == 4
        assert server.request_count == 4
        assert acquirer.stats["fetched"] == 4

        errors2 = acquirer.acquire_all(records, spec)
        results2 = _read_back(acquirer, records, spec)
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
        errors = acquirer.acquire_all(records, spec)
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
        errors = acquirer.acquire_all(records, spec)
    assert not _read_back(acquirer, records, spec)
    assert len(errors) == 3
    assert all(isinstance(e, AuthError) for e in errors.values())
    assert acquirer.stats["failures"] == 3


def test_a_cache_that_cannot_store_stops_acquire_all(tmp_path, monkeypatch):
    # not one failed entity: every later store would wait out the busy timeout and fail too
    monkeypatch.setattr(cache_module, "BUSY_TIMEOUT_S", 0.05)
    records = _records(3)
    (tmp_path / "c").mkdir()
    with TextCache(tmp_path / "c") as cache:
        cache.load("0" * 64)  # in an existing directory, makes the database
    with (
        MockSearchServer(_snippet_table(records), api_key="k") as server,
        SearchClient(server.base_url, api_key="k") as client,
        TextCache(tmp_path / "c") as cache,
        contextlib.closing(sqlite3.connect(cache.path, isolation_level=None)) as holder,
    ):
        holder.execute("BEGIN EXCLUSIVE")
        acquirer = TextAcquirer(TaskId.SIC, cache, search_client=client, max_parallel=1)
        spec = parse_source_signature("gsnip10", TaskId.SIC)
        with pytest.raises(CacheUnavailable, match="locked"):
            acquirer.acquire_all(records, spec, refresh=True)
        holder.execute("ROLLBACK")
    assert cache_rows(tmp_path / "c") == {}


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
        errors = acquirer.acquire_all(records, spec)
    results = _read_back(acquirer, records, spec)
    assert not errors
    assert acquirer.stats["refusals"] == 1
    assert results[records[0].entity_id, "gptsum"].refusal
    assert results[records[0].entity_id, "gptsum"].text == ""
    assert results[records[1].entity_id, "gptsum"].text.startswith("Makes industrial glue.")


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
        errors = acquirer.acquire_all(records, spec)
        results = _read_back(acquirer, records, spec)

        assert not errors
        combined = results[records[0].entity_id, "gsnip10+gptsum"]
        assert "\n\n" in combined
        assert combined.index("text 0") < combined.index("A summary sentence.")

        # components were cached too: rebuilding from cache needs no client
        offline = TextAcquirer(TaskId.SIC, cache)
        for sig in ("gsnip10", "gptsum", "gsnip10+gptsum"):
            sub = parse_source_signature(sig, TaskId.SIC)
            if not sub.components:
                assert offline.acquire_cached(records[0], sub) is not None
            assert set(_resolved(offline, records, sub)) == {r.entity_id for r in records}


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
        errors = acquirer.acquire_all(records, spec)
        results = _read_back(acquirer, records, spec)
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
    entries = [json.loads(body) for body in cache_rows(tmp_path / "c").values()]
    assert len(entries) == 2 * len(records)
    assert sorted(e["source"] for e in entries) == ["GPTSUM"] * 3 + ["GSNIP"] * 3

    # a warm rerun serves each component entry from the cache, no client needed
    offline = TextAcquirer(TaskId.SIC, TextCache(tmp_path / "c"))
    spec = parse_source_signature("gsnip10+gptsum", TaskId.SIC)
    errors = offline.acquire_all(records, spec)
    rerun = _read_back(offline, records, spec)
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
    assert _resolved(acquirer, records, spec) == {}


def test_acquire_cached_returns_none_when_absent(tmp_path):
    acquirer = TextAcquirer(TaskId.SIC, TextCache(tmp_path / "c"))
    spec = parse_source_signature("gsnip10", TaskId.SIC)
    assert acquirer.acquire_cached(_records(1)[0], spec) is None
    assert _resolved(acquirer, _records(1), spec) == {}


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
        errors = acquirer.acquire_all(records, *specs)
        results = _read_back(acquirer, records, *specs)
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
        errors = acquirer.acquire_all(records, gsnip, combined)
        results = _read_back(acquirer, records, gsnip, combined)
        assert search_srv.request_count == llm_srv.request_count == len(records)
    assert not errors
    assert set(results) == {
        (r.entity_id, sig) for r in records for sig in ("gsnip10", "gsnip10+gptsum")
    }
    alone_acquirer = TextAcquirer(TaskId.SIC, TextCache(tmp_path / "c"))
    alone_acquirer.acquire_all(records, combined)
    alone = _read_back(alone_acquirer, records, combined)
    assert {key: results[key] for key in alone} == alone
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
        errors = acquirer.acquire_all(records, spec)
        assert llm_srv.request_count == len(records)
    assert not _read_back(acquirer, records, spec)
    # keyed by the provider reply that failed, the search, not by the combination
    assert set(errors) == {(r.entity_id, "gsnip10") for r in records}
    assert all(isinstance(e, AuthError) for e in errors.values())
    assert acquirer.stats == {"fetched": 3, "hits": 0, "refusals": 0, "failures": 3}
    offline = TextAcquirer(TaskId.SIC, TextCache(tmp_path / "c"))
    gptsum = parse_source_signature("gptsum", TaskId.SIC)
    assert set(_resolved(offline, records, gptsum)) == {r.entity_id for r in records}


@pytest.mark.parametrize(
    "signatures,failing",
    [
        (["gsnip10+gptsum"], ["gsnip10"]),
        (["gsnip10+gptsum"], ["gptsum"]),
        (["gsnip10+gptsum"], ["gsnip10", "gptsum"]),
        (["gsnip1", "gsnip3"], ["gsnip10"]),
    ],
    ids=["search", "llm", "both", "two-depths"],
)
def test_failures_are_keyed_by_the_provider_reply_that_failed(tmp_path, signatures, failing):
    records = _records(3)
    with (
        MockSearchServer(_snippet_table(records), api_key="k") as search_srv,
        MockLlmServer(lambda m, mo: "A summary sentence.", api_key="sk") as llm_srv,
        SearchClient(search_srv.base_url, api_key="wrong" if "gsnip10" in failing else "k") as search,
        LlmClient(llm_srv.base_url, api_key="wrong" if "gptsum" in failing else "sk") as llm,
    ):
        acquirer = TextAcquirer(
            TaskId.SIC, TextCache(tmp_path / "c"), search_client=search, llm_client=llm
        )
        specs = [parse_source_signature(sig, TaskId.SIC) for sig in signatures]
        errors = acquirer.acquire_all(records, *specs)
    assert set(errors) == {(r.entity_id, sig) for r in records for sig in failing}
    assert all(isinstance(e, AuthError) for e in errors.values())
    assert len(errors) == acquirer.stats["failures"]


def test_acquire_refuses_a_combined_spec(tmp_path):
    acquirer = TextAcquirer(TaskId.SIC, TextCache(tmp_path / "c"))
    spec = parse_source_signature("gsnip10+gptsum", TaskId.SIC)
    with pytest.raises(ValueError, match="acquire_all"):
        acquirer.acquire(_records(1)[0], spec)
    with pytest.raises(ValueError, match="resolve"):
        acquirer.acquire_cached(_records(1)[0], spec)
    assert acquirer.stats == {"fetched": 0, "hits": 0, "refusals": 0, "failures": 0}
    assert not (tmp_path / "c").exists()


# --- bounded acquisition ------------------------------------------------------------


class _CountingClient:
    """A fake provider client, no HTTP: counts its calls and the most in flight
    at once, and logs the thread that starts each call in ``started``."""

    def __init__(self, started=None, latency=0.0):
        self.calls = self.in_flight = self.peak = 0
        self.started = [] if started is None else started
        self.latency = latency
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def _call(self):
        self.started.append(threading.current_thread().name)
        with self._lock:
            self.calls += 1
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            if self.latency:
                time.sleep(self.latency)
            yield
        finally:
            with self._lock:
                self.in_flight -= 1


class _FakeSearch(_CountingClient):
    def search_entity(self, name, k):
        with self._call():
            return [SearchResult(i + 1, f"t{i}", f"u{i}", f"snippet {i} of {name}.") for i in range(k)]


_SUMMARIES = {"gpt": "Makes industrial glue.", "llama": "Glue maker."}


class _FakeLlm(_CountingClient):
    refuse = {}  # model family ("gpt" or "llama") -> entity names whose summary it declines

    def complete(self, prompt, *, model, max_tokens):
        with self._call():
            family = "llama" if model.startswith("llama") else "gpt"
            if any(name in prompt for name in self.refuse.get(family, ())):
                return "I don't have any information about that organization."
            return _SUMMARIES[family]


class _ForgetfulCache(TextCache):
    """Misses every load and drops every store, so that what tracemalloc sees
    is what acquire_all itself holds."""

    def load(self, key):
        return None

    def store(self, key, text, task_id):
        pass


def test_acquire_all_holds_nothing_per_record(tmp_path):
    # 10^4 records through both lanes: four calls at most in flight per lane,
    # and no reply outlives its store (all the replies would take over 80 MB)
    records = [
        EntityRecord(f"e{i:05d}", f"Entity {i}", "2010", load_sic_scheme().by_id["20"])
        for i in range(10_000)
    ]
    search, llm = _FakeSearch(), _FakeLlm()
    specs = [parse_source_signature(s, TaskId.SIC) for s in ("gsnip10", "gptsum")]
    acquirer = TextAcquirer(
        TaskId.SIC, _ForgetfulCache(tmp_path / "c"), search_client=search, llm_client=llm,
        max_parallel=4,
    )
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        errors = acquirer.acquire_all(records, *specs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert errors == {}
    assert search.calls == llm.calls == len(records)
    assert 1 <= search.peak <= 4 and 1 <= llm.peak <= 4
    assert acquirer.stats == {"fetched": 20_000, "hits": 0, "refusals": 0, "failures": 0}
    assert peak < 2 * 2**20, f"acquire_all peaked at {peak / 2**20:.1f} MiB above its start"


def test_a_one_record_acquire_starts_one_worker_per_lane(tmp_path):
    lanes_seen = []  # the acquire threads alive at each provider call

    class Search(_FakeSearch):
        def search_entity(self, name, k):
            lanes_seen.append(sorted(t.name for t in threading.enumerate() if "acquire-search" in t.name))
            return super().search_entity(name, k)

    class Llm(_FakeLlm):
        def complete(self, prompt, **kwargs):
            lanes_seen.append(sorted(t.name for t in threading.enumerate() if "acquire-llm" in t.name))
            return super().complete(prompt, **kwargs)

    acquirer = TextAcquirer(
        TaskId.SIC, TextCache(tmp_path / "c"), search_client=Search(), llm_client=Llm(),
        max_parallel=4,
    )
    spec = parse_source_signature("gsnip10+gptsum", TaskId.SIC)
    assert acquirer.acquire_all(_records(1), spec) == {}
    assert sorted(lanes_seen) == [["acquire-llm_0"], ["acquire-search_0"]]


def test_a_cache_failure_stops_both_lanes_and_acquire_exits_4(tmp_path, monkeypatch):
    # The fifth summary cannot be stored while the slow searches are far
    # behind. Every worker of both lanes stops after its call in flight: none
    # starts more than one provider call after the failure.
    monkeypatch.setenv("SEARCH_API_KEY", "k")
    monkeypatch.setenv("LLM_API_KEY", "k")
    started = []  # thread names at each provider call, and None at the failure
    search, llm = _FakeSearch(started, latency=0.02), _FakeLlm(started)
    monkeypatch.setattr(SearchClient, "search_entity", lambda _, *a: search.search_entity(*a))
    monkeypatch.setattr(LlmClient, "complete", lambda _, *a, **kw: llm.complete(*a, **kw))
    store, summaries = TextCache.store, itertools.count(1)

    def store_or_fail(cache, key, text, task_id):
        if text.source is Source.GPTSUM and next(summaries) == 5:
            started.append(None)
            raise CacheUnavailable("cache database is locked")
        store(cache, key, text, task_id)

    monkeypatch.setattr(TextCache, "store", store_or_fail)
    records = _records(40)
    config = tmp_path / "c.ini"
    config.write_text(
        f"[task]\nname = sic\ndataset = {write_entities_csv(tmp_path / 'e.csv', records)}\n"
        "[acquisition]\ntop_k = 3\nmax_parallel = 2\n"
        "search_base_url = http://127.0.0.1:9\nllm_base_url = http://127.0.0.1:9\n"
    )
    argv = ["--config", str(config), "--runs-dir", str(tmp_path / "runs"), "--run-id", "r1"]
    assert cli.main([*argv, "acquire", "--sources", "gsnip3,gptsum"]) == 4
    after = started[started.index(None) + 1:]
    assert max(collections.Counter(after).values(), default=0) <= 1, after
    assert llm.calls < len(records) and search.calls < len(records)


@pytest.mark.parametrize(
    "signature,expected",
    [
        ("gsnip2", ["{s}", "{s}", "{s}", "{s}"]),
        ("gptsum", ["", "{g}", "", "{g}"]),
        ("llamasum", ["{l}", "{l}", "", None]),
        ("gsnip2+gptsum", ["{s}", "{s}\n\n{g}", "{s}", "{s}\n\n{g}"]),
        ("gptsum+gsnip2", ["{s}", "{s}\n\n{g}", "{s}", "{s}\n\n{g}"]),
        ("gsnip2+gptsum+llamasum", ["{s}\n\n{l}", "{s}\n\n{g}\n\n{l}", "{s}", None]),
        ("llamasum+gptsum", ["{l}", "{g}\n\n{l}", "", None]),
    ],
    ids=["cut", "refused", "missing", "combined", "out-of-order", "three", "all-refused"],
)
def test_resolve_gives_descriptions_only(tmp_path, signature, expected):
    # The first record's gptsum is refused, the third's two summaries are, and
    # the fourth has no llamasum. A refused summary is "", a combined spec joins
    # its components' non-empty texts snippets first, and a missing one is None.
    records = _records(4)
    llm = _FakeLlm()
    llm.refuse = {"gpt": (records[0].name, records[2].name), "llama": (records[2].name,)}
    acquirer = TextAcquirer(
        TaskId.SIC, TextCache(tmp_path / "c"), search_client=_FakeSearch(), llm_client=llm
    )
    gsnip, gptsum, llamasum = (
        parse_source_signature(s, TaskId.SIC) for s in ("gsnip2", "gptsum", "llamasum")
    )
    assert acquirer.acquire_all(records[:3], gsnip, gptsum, llamasum) == {}
    assert acquirer.acquire_all(records[3:], gsnip, gptsum) == {}
    spec = parse_source_signature(signature, TaskId.SIC)
    resolved = {record.entity_id: text for record, (text,) in acquirer.resolve(records, spec)}
    assert resolved == {
        r.entity_id: None if e is None else e.format(
            s=f"snippet 0 of {r.name}. snippet 1 of {r.name}.",
            g=_SUMMARIES["gpt"],
            l=_SUMMARIES["llama"],
        )
        for r, e in zip(records, expected)
    }


# --- cache entries ---------------------------------------------------------------------


def test_cold_acquire_all_leaves_one_entry_row_per_provider_reply(tmp_path):
    records = _records(4)
    stats, results, errors, requests = _acquire_combined(tmp_path, records, "sk")
    assert len(results) == 4 and not errors
    rows = cache_rows(tmp_path / "c")
    assert len(rows) == requests == stats["fetched"] == 2 * len(records)
    assert all(re.fullmatch(r"[0-9a-f]{64}", key) for key in rows)

    gsnip = parse_source_signature("gsnip10", TaskId.SIC)
    gptsum = parse_source_signature("gptsum", TaskId.SIC)
    expected = {
        TextCache.key(TaskId.SIC, r.entity_id, spec.source, spec.params):
            ("SIC", r.entity_id, spec.source.value, spec.params)
        for r in records
        for spec in (gsnip, gptsum)
    }
    found = {}
    for key, body in rows.items():
        entry = json.loads(body.decode("utf-8"))
        found[key] = (entry["task"], entry["entity_id"], entry["source"], entry["params"])
    assert found == expected


def test_an_old_index_json_is_ignored_and_left_in_place(tmp_path):
    records = _records(3)
    with (
        MockSearchServer(_snippet_table(records), api_key="k") as server,
        SearchClient(server.base_url, api_key="k") as client,
    ):
        acquirer = TextAcquirer(TaskId.SIC, TextCache(tmp_path / "c"), search_client=client)
        spec = parse_source_signature("gsnip10", TaskId.SIC)
        acquirer.acquire_all(records, spec)
        results = _read_back(acquirer, records, spec)
    # an index as older versions wrote it, here out of step with the entries
    index_path = tmp_path / "c" / "index.json"
    index_path.write_bytes(b'{\n  "stale": {"entity_id": "gone"}\n}')
    before = index_path.read_bytes()

    offline = TextAcquirer(TaskId.SIC, TextCache(tmp_path / "c"))
    errors = offline.acquire_all(records, spec)
    rerun = _read_back(offline, records, spec)
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
            errors = acquirer.acquire_all(records, parse_source_signature("gsnip10", TaskId.SIC))
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
            errors = acquirer.acquire_all(records, spec)
    assert not errors
    assert server.peak_in_flight > 10
    assert server.connection_count <= 16
