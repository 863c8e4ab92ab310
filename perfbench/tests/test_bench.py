"""Tests for the benchmark's own code: generator, span arithmetic, checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import threading
from dataclasses import replace

import checks
import gen
import run
import spans
from spans import Span

SMALL = gen.WorkloadSpec("unit", "SIC", 40, 3, True, (20, 5, 15))


def test_generator_is_deterministic_per_seed():
    a, b = gen.generate(SMALL, 7), gen.generate(SMALL, 7)
    assert a == b
    assert gen.generate(SMALL, 8).rows != a.rows


def test_generator_honours_counts_and_splits(tmp_path):
    inputs = gen.generate(SMALL, 1)
    assert len(inputs.rows) == 40
    assert sorted(r[3] for r in inputs.rows).count("train") == 20
    assert inputs.refusals == round(gen.REFUSAL_SHARE * 40)
    refused = [t for t in inputs.summaries.values() if t.startswith("I'm sorry")]
    assert len(refused) == inputs.refusals
    assert all(len(s) == 3 for s in inputs.snippets.values())
    assert len(inputs.snippets) == 40  # names are unique

    unsplit = gen.generate(replace(SMALL, splits=None, summaries=False), 1)
    assert {r[3] for r in unsplit.rows} == {""}
    assert unsplit.summaries == {} and unsplit.refusals == 0

    gen.write_inputs(inputs, tmp_path)
    first = (tmp_path / "entities.csv").read_bytes()
    gen.write_inputs(gen.generate(SMALL, 1), tmp_path)
    assert (tmp_path / "entities.csv").read_bytes() == first


def _span(id, name, start, end, parent=None, thread=1, nested=False):
    return Span(id, name, start, end, parent, thread, nested)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(0, "acquire.acquire_all", 0.0, 10.0),
        _span(1, "acquire.acquire", 1.0, 4.0, parent=0, thread=2),
        _span(2, "acquire.acquire", 3.0, 6.0, parent=0, thread=3),  # overlaps span 1
        _span(3, "cache.store", 2.0, 3.0, parent=1, thread=2),
        _span(4, "http.request_json", 9.5, 11.0, parent=0),  # clipped to the parent
        _span(5, "acquire.acquire", 1.5, 2.0, parent=1, thread=2, nested=True),
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == 10.0 - (6.0 - 1.0) - (10.0 - 9.5)
    assert selfs[1] == 3.0 - 1.0 - 0.5
    assert selfs[2] == 3.0
    assert selfs[3] == 1.0

    table = spans.layer_table(tree)
    assert table["acquire.acquire"]["calls"] == 3
    assert table["acquire.acquire"]["busy_s"] == 6.0  # the nested call is not counted twice
    assert table["acquire.acquire"]["self_s"] == 1.5 + 3.0 + 0.5


def test_worker_thread_spans_hang_under_the_enclosing_span():
    tracer = spans.Tracer()
    outer = tracer.begin("acquire.acquire_all")
    worker = threading.Thread(target=lambda: tracer.end(tracer.begin("acquire.acquire")))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.end(outer)
    assert tracer.spans[1].parent == outer.id
    assert tracer.spans[1].thread != outer.thread


def test_a_single_flipped_byte_fails_the_check(tmp_path):
    model = tmp_path / "model" / "x.model"
    model.parent.mkdir()
    model.write_bytes(bytes(range(256)) * 4)
    before = checks.digests(tmp_path, ("model/*.model",))
    data = bytearray(model.read_bytes())
    data[517] ^= 0x01
    model.write_bytes(bytes(data))
    after = checks.digests(tmp_path, ("model/*.model",))
    assert checks.compare(before, after) == ["model/x.model"]
    assert checks.compare(before, before) == []
    assert checks.compare(before, {}) == ["model/x.model"]


def test_eval_report_ignores_only_volatile_keys(tmp_path):
    path = tmp_path / "reports" / "a-test-eval.json"
    path.parent.mkdir()
    report = {"run_id": "r1", "config_fingerprint": "f1", "macro_f1": 0.5}
    path.write_text(json.dumps(report))
    base = checks.digests(tmp_path, ("reports/*-eval.json",))
    path.write_text(json.dumps(dict(report, run_id="r2", config_fingerprint="f2")))
    assert checks.digests(tmp_path, ("reports/*-eval.json",)) == base
    path.write_text(json.dumps(dict(report, macro_f1=0.51)))
    assert checks.digests(tmp_path, ("reports/*-eval.json",)) != base


def test_printed_counts_parse():
    assert checks.parse_acquired("acquired: fetched=8 cache_hits=0 refusals=1 failures=0\n") == {
        "fetched": 8, "hits": 0, "refusals": 1, "failures": 0,
    }
    built = "built train: 5 instances (1 empty) -> a\nbuilt test: 3 instances (0 empty) -> b\n"
    assert checks.parse_built(built) == (8, 1)
    assert checks.parse_built("") is None


def test_benchmark_json_matches_the_metrics_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    produced = spans.layer_metrics(
        [], {}, command_walls={}, server={}, acquired={}, chain_s=1.0, untraced_chain_s=1.0
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.per_layer_unit(name) for name in produced
    }
