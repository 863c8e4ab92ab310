from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from taxotext.acquire import TextAcquirer, parse_source_signature, snippet_text
from taxotext.cache import TextCache
from taxotext import cli, files
from taxotext.cli import main
from taxotext.config import PipelineConfig
from taxotext.errors import CacheCorrupt, HttpError
from taxotext.manifest import load_manifest
from taxotext.mockserver import MockLlmServer, MockSearchServer
from taxotext.taxonomy import TaskId, load_dataset, load_sic_scheme
from taxotext.texts import AcquiredText, Source

from conftest import cache_rows, put_cache_body, wait_until

CIDS = ("20", "58", "73")


def _write_entities(path, n_train=3, n_dev=1, n_test=2):
    scheme = load_sic_scheme()
    rows = []
    n = 0
    for cid in CIDS:
        per_split = [("train", n_train), ("dev", n_dev), ("test", n_test)]
        for split, count in per_split:
            for _ in range(count):
                n += 1
                rows.append([f"e{n:03d}", f"Entity {n:03d}", cid + "10", split])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entity_id", "name", "raw_code", "split"])
        writer.writerows(rows)
    # snippet fixtures keyed by entity name; rank 1 generic, deeper ranks
    # carry the class marker so snippet depth matters
    snippets = {}
    n = 0
    for cid in CIDS:
        for _ in range(n_train + n_dev + n_test):
            n += 1
            marker = f"classmarker{cid}"
            snippets[f"Entity {n:03d}"] = [
                "a company with offices",
                f"{marker} {marker} provider",
                f"{marker} services in region",
            ]
    assert len(snippets) == len(rows), "entity names must be unique"
    return snippets


def _write_config(path, *, dataset, search_url=None, llm_url=None, cache_dir=None, backoff=None):
    lines = [
        "[task]",
        "name = sic",
        f"dataset = {dataset}",
        "",
        "[acquisition]",
        "top_k = 3",
    ]
    if backoff is not None:
        lines.append(f"base_backoff = {backoff}")
    if search_url:
        lines.append(f"search_base_url = {search_url}")
    if llm_url:
        lines.append(f"llm_base_url = {llm_url}")
    if cache_dir:
        lines.append(f"cache_dir = {cache_dir}")
    lines += [
        "",
        "[training]",
        "epochs = 6",
        "batch_size = 4",
        "warmup_steps = 0",
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture()
def env_keys(monkeypatch):
    monkeypatch.setenv("SEARCH_API_KEY", "test-key")
    monkeypatch.setenv("LLM_API_KEY", "test-key")


@pytest.fixture()
def workspace(tmp_path, env_keys):
    entities = tmp_path / "entities.csv"
    snippets = _write_entities(entities)
    return tmp_path, entities, snippets


def _run(args, runs_dir, config=None, run_id="r1"):
    argv = ["--runs-dir", str(runs_dir), "--run-id", run_id]
    if config is not None:
        argv += ["--config", str(config)]
    return main(argv + args)


def test_missing_config_file_exits_2(tmp_path):
    assert _run(["build"], tmp_path / "runs", config=tmp_path / "nope.ini") == 2


def test_acquire_without_dataset_exits_2(tmp_path, env_keys):
    config = _write_config(tmp_path / "c.ini", dataset="", search_url="http://x")
    assert _run(["acquire"], tmp_path / "runs", config=config) == 2


def test_acquire_without_search_url_exits_2(workspace):
    tmp_path, entities, _ = workspace
    config = _write_config(tmp_path / "c.ini", dataset=entities)
    assert _run(["acquire", "--sources", "gsnip3"], tmp_path / "runs", config=config) == 2


def test_train_before_build_exits_2(workspace):
    tmp_path, entities, _ = workspace
    config = _write_config(tmp_path / "c.ini", dataset=entities)
    assert _run(["train"], tmp_path / "runs", config=config) == 2


def test_bad_signature_exits_2(workspace):
    tmp_path, entities, _ = workspace
    config = _write_config(tmp_path / "c.ini", dataset=entities, search_url="http://x")
    assert _run(["acquire", "--sources", "gsnip0"], tmp_path / "runs", config=config) == 2


@pytest.mark.parametrize(
    "search_url,llm_key",
    [
        ("http://127.0.0.1:8x/search", "test-key"),
        ("http://127.0.0.1:9/search results", "test-key"),
        ("http://127.0.0.1:9/search\tresults", "test-key"),
        (None, "test-key\n"),
    ],
    ids=["port-does-not-parse", "space-in-url", "tab-in-url", "line-break-in-key"],
)
def test_bad_provider_setting_exits_2_before_the_manifest(workspace, monkeypatch, search_url, llm_key):
    # a setting no retry can mend: refused before any request and before the manifest
    tmp_path, entities, _ = workspace
    monkeypatch.setenv("LLM_API_KEY", llm_key)
    config = _write_config(
        tmp_path / "c.ini", dataset=entities, search_url=search_url or "http://127.0.0.1:9",
        llm_url="http://127.0.0.1:9", backoff=0.001,
    )
    runs = tmp_path / "runs"
    sources = "gsnip3" if search_url else "gptsum"
    assert _run(["acquire", "--sources", sources], runs, config=config) == 2
    assert load_manifest(runs / "r1") is None


def test_malformed_dataset_exits_4(tmp_path, env_keys):
    entities = tmp_path / "entities.csv"
    entities.write_text(
        "entity_id,name,raw_code,split\n"
        "e1,Acme,2010,train\n"
        "e1,Acme Again,5810,test\n"  # duplicate id
    )
    config = _write_config(tmp_path / "c.ini", dataset=entities, search_url="http://x")
    assert _run(["acquire"], tmp_path / "runs", config=config) == 4


def test_auth_failure_during_acquire_exits_3(workspace):
    tmp_path, entities, snippets = workspace
    with MockSearchServer(snippets, api_key="other-key") as server:
        config = _write_config(tmp_path / "c.ini", dataset=entities, search_url=server.base_url)
        code = _run(["acquire", "--sources", "gsnip3"], tmp_path / "runs", config=config)
    assert code == 3


def test_server_errors_exhaust_retries_exit_3(workspace):
    tmp_path, entities, snippets = workspace
    with MockSearchServer(snippets, api_key="test-key") as server:
        server.fail_next(1000)
        config = _write_config(
            tmp_path / "c.ini", dataset=entities, search_url=server.base_url, backoff=0.001
        )
        code = _run(["acquire", "--sources", "gsnip3"], tmp_path / "runs", config=config)
    assert code == 3


def test_acquire_and_baseline_close_their_connections(workspace, monkeypatch):
    tmp_path, entities, snippets = workspace
    # hold every client the commands make, so only their close() can end a connection
    clients = []
    make_client = cli._client

    def kept_client(*args):
        clients.append(make_client(*args))
        return clients[-1]

    monkeypatch.setattr(cli, "_client", kept_client)
    runs = tmp_path / "runs"
    with MockSearchServer(snippets, api_key="test-key") as search, MockLlmServer(
        lambda m, _: "58", api_key="test-key"
    ) as llm:
        config = _write_config(
            tmp_path / "c.ini", dataset=entities, search_url=search.base_url,
            llm_url=llm.base_url,
        )
        assert _run(["acquire", "--sources", "gsnip3,gptsum"], runs, config=config) == 0
        wait_until(lambda: search.open_connections == llm.open_connections == 0)
        assert search.request_count == llm.request_count == len(snippets)
        # one pool per client: at most one connection per worker
        assert 1 <= search.connection_count <= PipelineConfig().max_parallel
        assert 1 <= llm.connection_count <= PipelineConfig().max_parallel
        after_acquire = llm.connection_count
        assert _run(["baseline", "--split", "test"], runs, config=config) == 0
        wait_until(lambda: llm.open_connections == 0)
    assert llm.connection_count == after_acquire + 1  # the baseline asks one prompt at a time
    assert len(clients) == 3


_BLOCK_REQUESTS = """
import sys

class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("requests", "urllib3"):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, Blocker())
from taxotext import cli
from taxotext.cli import main
from taxotext.config import PipelineConfig
sys.exit(main(sys.argv[1:]))
"""


def test_acquire_runs_without_requests_or_urllib3(workspace):
    tmp_path, entities, snippets = workspace
    src = Path(__file__).resolve().parents[1] / "src"
    with MockSearchServer(snippets, api_key="test-key") as search, MockLlmServer(
        lambda m, _: "A summary.", api_key="test-key"
    ) as llm:
        config = _write_config(
            tmp_path / "c.ini", dataset=entities, search_url=search.base_url,
            llm_url=llm.base_url,
        )
        argv = ["--runs-dir", str(tmp_path / "runs"), "--run-id", "r1", "--config", str(config),
                "acquire", "--sources", "gsnip3,gptsum"]
        proc = subprocess.run(
            [sys.executable, "-c", _BLOCK_REQUESTS, *argv],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert f"fetched={2 * len(snippets)}" in proc.stdout


def _run_steps(config, runs_dir, run_id="r1"):
    steps = [
        ["--seed", "0", "acquire", "--sources", "gsnip3"],
        ["--seed", "0", "build", "--sources", "gsnip3"],
        ["--seed", "0", "train", "--sources", "gsnip3"],
        ["--seed", "0", "predict", "--sources", "gsnip3"],
        ["--seed", "0", "eval", "--sources", "gsnip3"],
        ["--seed", "0", "sweep", "--sources", "gsnip3", "--thresholds", "0.3,0.6"],
    ]
    for step in steps:
        code = _run(step, runs_dir, config=config, run_id=run_id)
        assert code == 0, f"step {step} failed with {code}"
    return runs_dir / run_id


def _pipeline(tmp_path, entities, snippets, runs_dir, run_id="r1", cache_dir=None):
    with MockSearchServer(snippets, api_key="test-key") as server:
        config = _write_config(
            tmp_path / f"{runs_dir.name}.ini",
            dataset=entities,
            search_url=server.base_url,
            cache_dir=cache_dir,
        )
        return _run_steps(config, runs_dir, run_id)


def test_full_pipeline_produces_run_artifacts(workspace):
    tmp_path, entities, snippets = workspace
    run_dir = _pipeline(tmp_path, entities, snippets, tmp_path / "runs")

    assert (run_dir / "corpus/gsnip3/train.jsonl").exists()
    assert (run_dir / "corpus/gsnip3/test.jsonl").exists()
    assert (run_dir / "finetune/gsnip3/train.jsonl").exists()
    assert (run_dir / "model/gsnip3.model").exists()
    assert (run_dir / "predictions/gsnip3-test.jsonl").exists()
    report_path = run_dir / "reports/gsnip3-test-eval.json"
    assert report_path.exists()
    assert (run_dir / "reports/gsnip3-test-class_scores.csv").exists()
    assert (run_dir / "reports/gsnip3-test-sweep.csv").exists()

    report = json.loads(report_path.read_text())
    assert report["run_id"] == "r1"
    assert report["task"] == "SIC"
    # markers make the three populated classes separable; 24 empty classes
    # still enter the macro average
    assert report["macro_f1"] == pytest.approx(3 / 27)

    manifest = load_manifest(run_dir)
    assert manifest is not None
    assert [c["command"] for c in manifest.commands] == [
        "acquire",
        "build",
        "train",
        "predict",
        "eval",
        "sweep",
    ]
    assert manifest.source_signatures == ["gsnip3"]
    assert manifest.dataset_fingerprint


def test_rerun_with_shared_cache_is_byte_identical(workspace):
    # identical config, seed, run id, and cache: every derived artifact
    # must come out byte-for-byte the same
    tmp_path, entities, snippets = workspace
    with MockSearchServer(snippets, api_key="test-key") as server:
        config = _write_config(
            tmp_path / "c.ini",
            dataset=entities,
            search_url=server.base_url,
            cache_dir=tmp_path / "shared-cache",
        )
        run_a = _run_steps(config, tmp_path / "runs_a")
        run_b = _run_steps(config, tmp_path / "runs_b")

    for rel in (
        "corpus/gsnip3/train.jsonl",
        "corpus/gsnip3/test.jsonl",
        "finetune/gsnip3/train.jsonl",
        "model/gsnip3.model",
        "predictions/gsnip3-test.jsonl",
        "reports/gsnip3-test-eval.json",
        "reports/gsnip3-test-sweep.csv",
        "reports/gsnip3-test-class_scores.csv",
    ):
        assert (run_a / rel).read_bytes() == (run_b / rel).read_bytes(), rel


def test_manifest_written_before_outputs(workspace, capsys):
    tmp_path, entities, _ = workspace
    runs = tmp_path / "runs"
    # an empty training corpus reads cleanly before the manifest write; train
    # then fails after it (EmptyTrainingSet), before any model lands
    corpus = tmp_path / "train.jsonl"
    corpus.write_text("")
    config = _write_config(tmp_path / "c.ini", dataset=entities)
    assert _run(["train", "--corpus", str(corpus)], runs, config=config) == 4
    assert "no training instances" in capsys.readouterr().err
    manifest = load_manifest(runs / "r1")
    assert manifest is not None
    assert [c["command"] for c in manifest.commands] == ["train"]
    assert not (runs / "r1" / "model").exists()


def test_train_on_an_unlabeled_corpus_exits_4_without_manifest_entry(workspace, capsys):
    tmp_path, entities, snippets = workspace
    runs = tmp_path / "runs"
    run_dir = _pipeline(tmp_path, entities, snippets, runs)
    code = _run(
        ["train", "--corpus", str(run_dir / "corpus/gsnip3/test.jsonl")],
        runs,
        config=_write_config(tmp_path / "c2.ini", dataset=entities),
        run_id="r2",
    )
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "no gold label" in err
    assert load_manifest(runs / "r2") is None
    assert not (runs / "r2" / "model").exists()


# each command's argv on a finished _run_steps run; acquire refreshes so it stores entries
_COMMAND_ARGV = {
    "acquire": ["acquire", "--sources", "gsnip3", "--refresh"],
    "build": ["build", "--sources", "gsnip3"],
    "train": ["train", "--sources", "gsnip3"],
    "predict": ["predict", "--sources", "gsnip3"],
    "eval": ["eval", "--sources", "gsnip3"],
    "sweep": ["sweep", "--sources", "gsnip3"],
    "ablate": ["ablate", "--ks", "1,3"],
    "baseline": ["baseline", "--split", "test"],
}
_DATASET_COMMANDS = {"acquire", "build", "eval", "sweep", "ablate", "baseline"}
_SIGNATURE_COMMANDS = {"build", "train", "predict", "eval", "sweep"}


@pytest.mark.parametrize("command", list(_COMMAND_ARGV))
def test_every_command_renames_its_manifest_into_place_first(workspace, monkeypatch, command):
    # the command runs in a copy of a finished run without its manifest, so the
    # manifest afterwards holds only what this command recorded
    tmp_path, entities, snippets = workspace
    runs = tmp_path / "runs"
    replaced = []  # each file renamed into place, and each cache store, in order
    real_replace, real_store = files.os.replace, TextCache.store

    def recording_replace(src, dst):
        replaced.append(Path(dst))
        real_replace(src, dst)

    def recording_store(self, *args):
        replaced.append("cache entry")
        return real_store(self, *args)

    with MockSearchServer(snippets, api_key="test-key") as search, MockLlmServer(
        lambda m, _: "58", api_key="test-key"
    ) as llm:
        config = _write_config(
            tmp_path / "c.ini", dataset=entities, search_url=search.base_url,
            llm_url=llm.base_url,
        )
        shutil.copytree(_run_steps(config, runs), runs / "r2")
        (runs / "r2" / "manifest.json").unlink()
        monkeypatch.setattr(files.os, "replace", recording_replace)
        monkeypatch.setattr(TextCache, "store", recording_store)
        assert _run(_COMMAND_ARGV[command], runs, config=config, run_id="r2") == 0
    assert replaced[0] == runs / "r2" / "manifest.json"
    assert len(replaced) > 1, "the command wrote no output"
    manifest = load_manifest(runs / "r2")
    assert [c["command"] for c in manifest.commands] == [command]
    assert (manifest.dataset_fingerprint is not None) == (command in _DATASET_COMMANDS)
    assert manifest.source_signatures == (["gsnip3"] if command in _SIGNATURE_COMMANDS else [])


def test_manifest_options_name_every_input_the_command_reads(workspace):
    tmp_path, entities, snippets = workspace
    runs = tmp_path / "runs"
    with MockSearchServer(snippets, api_key="test-key") as search, MockLlmServer(
        lambda m, _: "58", api_key="test-key"
    ) as llm:
        config = _write_config(
            tmp_path / "c.ini", dataset=entities, search_url=search.base_url,
            llm_url=llm.base_url,
        )
        run_dir = _run_steps(config, runs)
        report = run_dir / "reports/gsnip3-test-eval.json"
        argv = ["eval", "--sources", "gsnip3", "--compare", str(report)]
        assert _run(argv, runs, config=config) == 0
        argv = ["baseline", "--context-sources", "gsnip3", "--strict"]
        assert _run(argv, runs, config=config) == 0
    predict, eval_, sweep, compare, baseline = load_manifest(run_dir).commands[3:]
    assert predict["options"]["corpus"] == str(run_dir / "corpus/gsnip3/test.jsonl")
    assert sweep["options"]["predictions"] == str(run_dir / "predictions/gsnip3-test.jsonl")
    assert eval_["options"]["compare"] is None
    assert compare["options"]["compare"] == str(report)
    assert baseline["options"]["strict"] is True


@pytest.mark.parametrize(
    "argv,line,bad_line",
    [
        (["train"], "batch_size = 4", "batch_size = 0"),
        (["build"], "[task]", "[task]\nratios = -1, 1.5, 0.5"),
        (["train"], "batch_size = 4", "batch_size = 4\nseed = -3"),
        (["build"], "top_k = 3", "top_k = 3\nbase_backoff = -1"),
        (["build"], "top_k = 3", "top_k = 3\nsummary_max_tokens = 0"),
        (["train"], "batch_size = 4", "batch_size = 4\nlearning_rate = nan"),
        (["build"], "top_k = 3", "top_k = 3\nmax_parallel = 0"),
    ],
    ids=[
        "zero-batch-size", "negative-ratio", "negative-training-seed", "negative-backoff",
        "zero-summary-max-tokens", "nan-learning-rate", "zero-max-parallel",
    ],
)
def test_bad_config_value_exits_2_and_leaves_manifest_unchanged(workspace, argv, line, bad_line):
    tmp_path, entities, _ = workspace
    runs = tmp_path / "runs"
    good = _write_config(tmp_path / "good.ini", dataset=entities)
    assert _run(["build"], runs, config=good) == 0
    before = (runs / "r1" / "manifest.json").read_bytes()
    bad = tmp_path / "bad.ini"
    bad.write_text(good.read_text().replace(line, bad_line))
    assert _run(argv, runs, config=bad) == 2
    assert (runs / "r1" / "manifest.json").read_bytes() == before
    assert _run(argv, runs, config=bad, run_id="r2") == 2
    assert load_manifest(runs / "r2") is None


def test_eval_compare_emits_per_category_csv(workspace):
    tmp_path, entities, snippets = workspace
    run_dir = _pipeline(tmp_path, entities, snippets, tmp_path / "runs")
    config = _write_config(tmp_path / "c3.ini", dataset=entities)
    code = _run(
        [
            "eval",
            "--sources",
            "gsnip3",
            "--compare",
            str(run_dir / "reports/gsnip3-test-eval.json"),
        ],
        tmp_path / "runs",
        config=config,
    )
    assert code == 0
    cmp_path = run_dir / "reports/gsnip3-test-compare.csv"
    lines = cmp_path.read_text().splitlines()
    assert lines[0] == "category_id,f1_a,f1_b,delta"
    assert len(lines) == 28  # one row per category
    # same predictions on both sides: every delta is zero
    assert all(line.endswith(",0.0") for line in lines[1:])


@pytest.mark.parametrize(
    "content",
    ["{not json", json.dumps({"task": "SIC"}), json.dumps({"task": "HC"}), "[]"],
    ids=["not-json", "no-confusion", "other-task", "not-an-object"],
)
def test_eval_compare_with_a_file_that_is_not_a_report_exits_4(workspace, capsys, content):
    tmp_path, entities, _ = workspace
    predictions = _test_split_predictions(tmp_path / "preds.jsonl")
    earlier = tmp_path / "earlier.json"
    earlier.write_text(content)
    config = _write_config(tmp_path / "c.ini", dataset=entities)
    argv = ["eval", "--predictions", str(predictions), "--compare", str(earlier)]
    runs = tmp_path / "runs"
    assert _run(argv, runs, config=config) == 4
    assert "Traceback" not in capsys.readouterr().err
    assert load_manifest(runs / "r1") is None
    assert not (runs / "r1" / "reports").exists()


def test_ablate_command_writes_csv(workspace):
    tmp_path, entities, snippets = workspace
    runs = tmp_path / "runs"
    with MockSearchServer(snippets, api_key="test-key") as server:
        config = _write_config(
            tmp_path / "c.ini", dataset=entities, search_url=server.base_url
        )
        assert _run(["acquire", "--sources", "gsnip3"], runs, config=config) == 0
        assert _run(["ablate", "--ks", "1,3"], runs, config=config) == 0
    lines = (runs / "r1/reports/ablation.csv").read_text().splitlines()
    assert lines[0] == "k,macro_p,macro_r,macro_f1"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "3"]


def test_ablate_cached_depth_equal_to_top_k_changes_nothing(workspace):
    # the form the benchmark uses: --cached-depth repeats [acquisition] top_k
    tmp_path, entities, snippets = workspace
    runs = tmp_path / "runs"
    with MockSearchServer(snippets, api_key="test-key") as server:
        config = _write_config(
            tmp_path / "c.ini", dataset=entities, search_url=server.base_url
        )
        assert _run(["acquire", "--sources", "gsnip3"], runs, config=config) == 0
        assert _run(["ablate", "--ks", "1,3"], runs, config=config) == 0
        without = (runs / "r1/reports/ablation.csv").read_bytes()
        argv = ["ablate", "--cached-depth", "3", "--ks", "3,1,3"]
        assert _run(argv, runs, config=config) == 0
    assert (runs / "r1/reports/ablation.csv").read_bytes() == without
    ablate = load_manifest(runs / "r1").commands[-1]
    assert ablate["options"] == {"ks": [1, 3]}  # normalized; top_k is in the config


def test_ablate_without_ks_runs_the_default_depths_the_cache_holds(workspace):
    tmp_path, entities, snippets = workspace
    runs = tmp_path / "runs"
    with MockSearchServer(snippets, api_key="test-key") as server:
        config = _write_config(
            tmp_path / "c.ini", dataset=entities, search_url=server.base_url
        )
        assert _run(["acquire", "--sources", "gsnip3"], runs, config=config) == 0
        assert _run(["ablate"], runs, config=config) == 0
    # the cache was filled at top_k = 3, which covers only k=1 of DEFAULT_KS
    lines = (runs / "r1/reports/ablation.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["1"]
    ablate = load_manifest(runs / "r1").commands[-1]
    assert ablate["command"] == "ablate"
    assert ablate["options"]["ks"] == [1]


def test_build_cuts_a_shallower_gsnip_from_the_top_k_search(workspace, capsys):
    # acquire fills the cache at top_k = 3; gsnip2 is the first two results of those entries
    tmp_path, entities, snippets = workspace
    runs = tmp_path / "runs"
    with MockSearchServer(snippets, api_key="test-key") as server:
        config = _write_config(tmp_path / "c.ini", dataset=entities, search_url=server.base_url)
        assert _run(["acquire", "--sources", "gsnip"], runs, config=config) == 0
        assert _run(["build", "--sources", "gsnip2", "--strict"], runs, config=config) == 0
        assert server.request_count == len(snippets)
    assert capsys.readouterr().out.count("(0 empty)") == 3  # train, dev and test
    deep = parse_source_signature("gsnip3", TaskId.SIC, top_k=3)
    names = {r.entity_id: r.name for r in load_dataset(entities, load_sic_scheme()).records}
    rows = [
        json.loads(line)
        for split in ("train", "dev", "test")
        for line in (runs / f"r1/corpus/gsnip2/{split}.jsonl").read_text().splitlines()
    ]
    assert len(rows) == len(names)
    with TextCache(runs / "r1/cache") as cache:
        for row in rows:
            key = TextCache.key(TaskId.SIC, row["entity_id"], deep.source, deep.params)
            entry = cache.load(key)
            cut = snippet_text(entry.entity_id, entry.provenance, 2, entry.retrieved_at).text
            assert cut and cut != entry.text
            assert row["input_text"] == f"{names[row['entity_id']]}\n{cut}"


def test_acquire_every_depth_sends_one_search_per_entity(workspace, capsys):
    tmp_path, entities, snippets = workspace
    runs = tmp_path / "runs"
    with MockSearchServer(snippets, api_key="test-key") as server:
        config = _write_config(tmp_path / "c.ini", dataset=entities, search_url=server.base_url)
        assert _run(["acquire", "--sources", "gsnip1,gsnip2,gsnip3"], runs, config=config) == 0
        assert server.request_count == len(snippets) == 18
    assert "acquired: fetched=18 cache_hits=0 refusals=0 failures=0" in capsys.readouterr().out
    assert len(cache_rows(runs / "r1/cache")) == 18


def test_ablate_beyond_cached_depth_exits_4(workspace):
    tmp_path, entities, snippets = workspace
    runs = tmp_path / "runs"
    with MockSearchServer(snippets, api_key="test-key") as server:
        config = _write_config(
            tmp_path / "c.ini", dataset=entities, search_url=server.base_url
        )
        assert _run(["acquire", "--sources", "gsnip3"], runs, config=config) == 0
        assert _run(["ablate", "--ks", "1,5"], runs, config=config) == 4
    assert [c["command"] for c in load_manifest(runs / "r1").commands] == ["acquire"]


def test_baseline_command(workspace):
    tmp_path, entities, snippets = workspace
    runs = tmp_path / "runs"
    with MockLlmServer(reply=lambda m, _: "58", api_key="test-key") as server:
        config = _write_config(tmp_path / "c.ini", dataset=entities, llm_url=server.base_url)
        assert _run(["baseline", "--split", "test"], runs, config=config) == 0
    pred_path = runs / "r1/predictions/baseline-test.jsonl"
    rows = [json.loads(line) for line in pred_path.read_text().splitlines()]
    assert len(rows) == 6  # test split size
    assert all(r["label"] == "58" for r in rows)
    assert all(r["confidence"] is None for r in rows)


def test_baseline_without_llm_url_exits_2(workspace):
    tmp_path, entities, _ = workspace
    config = _write_config(tmp_path / "c.ini", dataset=entities)
    assert _run(["baseline"], tmp_path / "runs", config=config) == 2


def test_baseline_context_reads_only_the_split_cache_entries(workspace):
    # a corrupt cache entry of a train entity does not concern a test-split baseline
    tmp_path, entities, snippets = workspace
    runs = tmp_path / "runs"
    cache = TextCache(tmp_path / "cache")
    with MockSearchServer(snippets, api_key="test-key") as search, MockLlmServer(
        reply=lambda m, _: "58", api_key="test-key"
    ) as llm:
        config = _write_config(
            tmp_path / "c.ini",
            dataset=entities,
            search_url=search.base_url,
            llm_url=llm.base_url,
            cache_dir=cache.root,
        )
        assert _run(["acquire", "--sources", "gsnip3"], runs, config=config) == 0
        spec = parse_source_signature("gsnip3", TaskId.SIC, top_k=3)
        train_key = TextCache.key(TaskId.SIC, "e001", spec.source, spec.params)
        put_cache_body(cache.root, train_key, "{not json")
        argv = ["baseline", "--split", "test", "--context-sources", "gsnip3"]
        assert _run(argv, runs, config=config) == 0
        prompts = [req["messages"][-1]["content"] for req in llm.chat_requests]
    assert len(prompts) == 6  # test split size
    assert all("classmarker" in p for p in prompts)


def test_baseline_records_its_context_signature_in_canonical_form(workspace):
    tmp_path, entities, _ = workspace
    runs = tmp_path / "runs"
    with MockLlmServer(reply=lambda m, _: "58", api_key="test-key") as server:
        config = _write_config(tmp_path / "c.ini", dataset=entities, llm_url=server.base_url)
        argv = ["baseline", "--context-sources", "gptsum+gsnip3"]
        assert _run(argv, runs, config=config) == 0
        assert _run(["baseline"], runs, config=config) == 0
    with_context, without = load_manifest(runs / "r1").commands
    assert with_context["options"]["context_sources"] == "gsnip3+gptsum"
    assert without["options"]["context_sources"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ["--strict", "build"],
        ["--refresh", "acquire"],
        ["train", "--strict"],
        ["train", "--refresh"],
        ["build", "--refresh"],
        ["acquire", "--strict"],
    ],
)
def test_strict_and_refresh_are_rejected_off_the_commands_that_read_them(argv):
    with pytest.raises(SystemExit) as exc_info:
        cli.build_parser().parse_args(argv)
    assert exc_info.value.code == 2


@pytest.mark.parametrize(
    "argv,dest",
    [(["build", "--strict"], "strict"), (["baseline", "--strict"], "strict"),
     (["acquire", "--refresh"], "refresh")],
)
def test_strict_and_refresh_follow_the_commands_that_read_them(argv, dest):
    assert getattr(cli.build_parser().parse_args(argv), dest) is True
    assert getattr(cli.build_parser().parse_args(argv[:1]), dest) is False


@pytest.mark.parametrize("http_id,data_id", [("e001", "e002"), ("e002", "e001")])
def test_acquire_mixed_failures_exit_4_whichever_id_sorts_first(
    workspace, monkeypatch, http_id, data_id
):
    # a data error needs a fix that a rerun will not bring, so it decides
    # the exit code whatever the entity ids are
    tmp_path, entities, _ = workspace
    errors = {
        (http_id, "gsnip3"): HttpError("server error", status=503),
        (data_id, "gsnip3"): CacheCorrupt("bad file"),
    }
    monkeypatch.setattr(TextAcquirer, "acquire_all", lambda *a, **kw: dict(errors))
    config = _write_config(tmp_path / "c.ini", dataset=entities, search_url="http://x")
    assert _run(["acquire", "--sources", "gsnip3"], tmp_path / "runs", config=config) == 4


@pytest.mark.parametrize("sources", ["gsnip3,gptsum", "gptsum,gsnip3"])
def test_acquire_data_error_decides_exit_whichever_source_fails_later(workspace, capsys, sources):
    # e001's search entry is corrupt and its summary request fails: a data
    # error and a network error for one entity, and each counts as a failure
    tmp_path, entities, snippets = workspace
    runs = tmp_path / "runs"
    key = TextCache.key(TaskId.SIC, "e001", Source.GSNIP, {"k": 3})
    put_cache_body(runs / "r1" / "cache", key, "{not json")
    with MockSearchServer(snippets, api_key="test-key") as search, MockLlmServer(
        lambda m, _: "A summary.", api_key="test-key"
    ) as llm:
        config = _write_config(
            tmp_path / "c.ini", dataset=entities, search_url=search.base_url,
            llm_url=llm.base_url,
        )
        config.write_text(
            config.read_text().replace("top_k = 3", "top_k = 3\nmax_parallel = 1\nmax_attempts = 1")
        )
        llm.fail_next(1)
        assert _run(["acquire", "--sources", sources], runs, config=config) == 4
        assert search.request_count == llm.request_count - 1 == len(snippets) - 1
    out, err = capsys.readouterr()
    fetched = 2 * len(snippets) - 2
    assert f"acquired: fetched={fetched} cache_hits=0 refusals=0 failures=2" in out
    assert "error: e001 (gptsum): " in err and "error: e001 (gsnip3): unreadable cache entry" in err


def _test_split_predictions(path):
    # test-split ids of _write_entities: the last two of each class's six
    ids = [f"e{6 * c + i:03d}" for c in range(len(CIDS)) for i in (5, 6)]
    path.write_text(
        "".join(json.dumps({"entity_id": i, "label": "20", "confidence": 0.9}) + "\n" for i in ids)
    )
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "--corpus", "{entities}"],
        ["eval"],
        ["sweep"],
        ["eval", "--split", "bogus"],
        ["sweep", "--predictions", "{predictions}", "--thresholds", "0.5,x"],
        ["ablate", "--ks", "1,x"],
        ["ablate", "--ks", "0"],
        ["ablate", "--ks", ","],
        ["ablate", "--cached-depth", "0"],
        ["acquire", "--sources", "gptsum"],
        ["baseline"],
        ["build", "--dataset", "{missing}"],
        ["eval", "--predictions", "{predictions}", "--compare", "{missing}"],
        ["eval", "--predictions", "{directory}"],
        ["train", "--corpus", "{directory}"],
        ["predict", "--corpus", "{entities}", "--model", "{directory}"],
        ["eval", "--predictions", "{predictions}", "--compare", "{directory}"],
        ["--seed", "-1", "build"],
        ["sweep", "--predictions", "{predictions}", "--thresholds", "nan"],
        ["ablate", "--cached-depth", "4"],
        ["sweep", "--predictions", "{predictions}", "--thresholds", ","],
        ["sweep", "--predictions", "{predictions}", "--thresholds", ""],
        ["ablate", "--ks", ""],
        ["build", "--sources", "gsnip4"],
    ],
    ids=[
        "predict-no-model",
        "eval-no-predictions",
        "sweep-no-predictions",
        "bad-split",
        "bad-thresholds",
        "bad-ks",
        "zero-ks",
        "empty-ks",
        "zero-cached-depth",
        "acquire-gptsum-no-llm-url",
        "baseline-no-llm-key",
        "missing-dataset",
        "eval-compare-missing",
        "predictions-directory",
        "corpus-directory",
        "model-directory",
        "compare-directory",
        "negative-seed",
        "nan-threshold",
        "cached-depth-not-top-k",
        "empty-thresholds",
        "blank-thresholds",
        "blank-ks",
        "gsnip-beyond-top-k",
    ],
)
def test_config_rejection_exits_2_without_manifest_entry(workspace, monkeypatch, argv):
    tmp_path, entities, _ = workspace
    predictions = _test_split_predictions(tmp_path / "preds.jsonl")
    missing = tmp_path / "nope.csv"
    directory = tmp_path / "a-directory"
    directory.mkdir()
    argv = [
        a.format(entities=entities, predictions=predictions, missing=missing, directory=directory)
        for a in argv
    ]
    llm_url = None
    if argv[0] == "baseline":
        llm_url = "http://x"
        monkeypatch.delenv("LLM_API_KEY")
    config = _write_config(
        tmp_path / "c.ini", dataset=entities, search_url="http://x", llm_url=llm_url
    )
    runs = tmp_path / "runs"
    assert _run(argv, runs, config=config) == 2
    assert load_manifest(runs / "r1") is None
    assert not (runs / "r1" / "cache").exists()


def _latin1(path, text):
    """Write text as Latin-1: a file valid in all but its encoding."""
    path.write_bytes(text.encode("latin-1"))
    return path


@pytest.mark.parametrize(
    "case,code",
    [("dataset", 4), ("corpus", 4), ("predictions", 4), ("cache-entry", 4), ("config", 2)],
)
def test_input_that_is_not_utf8_exits_with_its_code(workspace, capsys, case, code):
    tmp_path, entities, _ = workspace
    runs = tmp_path / "runs"
    config = _write_config(tmp_path / "c.ini", dataset=entities)
    argv = ["build", "--sources", "gsnip3"]
    if case == "dataset":
        bad = _latin1(tmp_path / "e.csv", entities.read_text().replace("Entity 001", "Entité 001"))
        argv += ["--dataset", str(bad)]
    elif case == "corpus":
        row = {"entity_id": "e001", "input_text": "café", "source_signature": "gsnip3"}
        bad = _latin1(tmp_path / "train.jsonl", json.dumps(row, ensure_ascii=False) + "\n")
        argv = ["train", "--corpus", str(bad)]
    elif case == "predictions":
        rows = _test_split_predictions(tmp_path / "preds.jsonl").read_text()
        rows = rows.replace('"confidence"', '"note": "café", "confidence"', 1)
        bad = _latin1(tmp_path / "p.jsonl", rows)
        argv = ["eval", "--predictions", str(bad)]
    elif case == "cache-entry":
        spec = parse_source_signature("gsnip3", TaskId.SIC, top_k=3)
        key = TextCache.key(TaskId.SIC, "e001", spec.source, spec.params)
        text = AcquiredText("e001", spec.source, spec.params, "café", "2026-01-01T00:00:00+00:00")
        with TextCache(runs / "r1" / "cache") as cache:
            cache.store(key, text, TaskId.SIC)
        body = cache_rows(cache.root)[key].decode("utf-8")
        put_cache_body(cache.root, key, body.encode("latin-1"))
        bad = cache.path
    else:
        config = bad = _latin1(tmp_path / "l.ini", config.read_text() + "# café\n")
    assert _run(argv, runs, config=config) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(bad) in err
    assert load_manifest(runs / "r1") is None


@pytest.mark.parametrize("case", ["not-a-database", "legacy-entry-not-json", "cannot-be-opened"])
def test_unreadable_cache_exits_4_naming_the_database(workspace, capsys, case):
    tmp_path, entities, _ = workspace
    runs = tmp_path / "runs"
    root = runs / "r1" / "cache"
    root.mkdir(parents=True)
    key = TextCache.key(TaskId.SIC, "e001", Source.GSNIP, {"k": 3})
    if case == "not-a-database":
        (root / "cache.sqlite3").write_bytes(b"{not a database}" * 300)
    elif case == "cannot-be-opened":
        (root / "cache.sqlite3").mkdir()  # a directory where the file belongs
    else:  # an entry file as older versions wrote it, imported when the database is made
        (root / f"{key}.json").write_text("{not json", encoding="utf-8")
    config = _write_config(tmp_path / "c.ini", dataset=entities)
    assert _run(["build", "--sources", "gsnip3"], runs, config=config) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(root / "cache.sqlite3") in err
    if case == "legacy-entry-not-json":
        assert key in err


@pytest.mark.parametrize(
    "content", ["{trunc", '{"run_id": "r1"}'], ids=["truncated", "no-created_at"]
)
def test_malformed_manifest_exits_4_and_is_left_as_it_was(workspace, capsys, content):
    tmp_path, entities, _ = workspace
    runs = tmp_path / "runs"
    manifest = runs / "r1" / "manifest.json"
    manifest.parent.mkdir(parents=True)
    manifest.write_text(content)
    config = _write_config(tmp_path / "c.ini", dataset=entities)
    predictions = _test_split_predictions(tmp_path / "preds.jsonl")
    assert _run(["eval", "--predictions", str(predictions)], runs, config=config) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(manifest) in err
    assert manifest.read_text() == content
    assert sorted(p.name for p in manifest.parent.iterdir()) == ["manifest.json"]



@pytest.mark.parametrize("command", ["eval", "sweep"])
@pytest.mark.parametrize("label", ["99", ["20"]], ids=["unknown-id", "not-a-string"])
def test_prediction_label_outside_the_scheme_exits_4(workspace, capsys, command, label):
    tmp_path, entities, _ = workspace
    predictions = _test_split_predictions(tmp_path / "preds.jsonl")
    rows = predictions.read_text().splitlines()
    rows[1] = json.dumps({"entity_id": "e006", "label": label, "confidence": 0.9})
    predictions.write_text("\n".join(rows) + "\n")
    config = _write_config(tmp_path / "c.ini", dataset=entities)
    argv = [command, "--predictions", str(predictions)]
    assert _run(argv, tmp_path / "runs", config=config) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "row 2" in err and repr(label) in err and str(predictions) in err


@pytest.mark.parametrize("command", ["eval", "sweep"])
@pytest.mark.parametrize(
    "confidence",
    ["high", True, [0.9], float("nan"), float("inf"), float("-inf")],
    ids=["string", "bool", "list", "nan", "inf", "-inf"],
)
def test_prediction_confidence_not_a_number_exits_4(workspace, capsys, command, confidence):
    tmp_path, entities, _ = workspace
    predictions = _test_split_predictions(tmp_path / "preds.jsonl")
    rows = predictions.read_text().splitlines()
    rows[1] = json.dumps({"entity_id": "e006", "label": "20", "confidence": confidence})
    predictions.write_text("\n".join(rows) + "\n")
    config = _write_config(tmp_path / "c.ini", dataset=entities)
    argv = [command, "--predictions", str(predictions)]
    assert _run(argv, tmp_path / "runs", config=config) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "row 2" in err and repr(confidence) in err and str(predictions) in err


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_sweep_on_an_empty_split_exits_4_without_manifest_entry(tmp_path, capsys, env_keys, command):
    entities = tmp_path / "entities.csv"
    _write_entities(entities, n_train=1, n_dev=0, n_test=0)
    predictions = tmp_path / "preds.jsonl"
    predictions.write_text("")
    config = _write_config(tmp_path / "c.ini", dataset=entities)
    argv = [command, "--split", "dev", "--predictions", str(predictions)]
    assert _run(argv, tmp_path / "runs", config=config) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("data error:") and "split dev" in err
    assert load_manifest(tmp_path / "runs" / "r1") is None


def test_reserved_invalid_prediction_label_is_scored(workspace):
    tmp_path, entities, _ = workspace
    predictions = _test_split_predictions(tmp_path / "preds.jsonl")
    rows = predictions.read_text().splitlines()
    rows[1] = json.dumps({"entity_id": "e006", "label": "__invalid__", "confidence": 0.9})
    predictions.write_text("\n".join(rows) + "\n")
    config = _write_config(tmp_path / "c.ini", dataset=entities)
    argv = ["eval", "--predictions", str(predictions)]
    assert _run(argv, tmp_path / "runs", config=config) == 0
    report = json.loads((tmp_path / "runs/r1/reports/gsnip3-test-eval.json").read_text())
    assert sum(row[-1] for row in report["confusion"]["counts"]) == 1


def test_refreshed_component_reaches_the_combined_text(workspace):
    tmp_path, entities, snippets = workspace
    runs = tmp_path / "runs"
    with MockSearchServer(snippets, api_key="test-key") as search, MockLlmServer(
        lambda m, _: "A summary.", api_key="test-key"
    ) as llm:
        config = _write_config(
            tmp_path / "c.ini", dataset=entities, search_url=search.base_url,
            llm_url=llm.base_url,
        )
        assert _run(["acquire", "--sources", "gsnip3+gptsum"], runs, config=config) == 0
        for name in snippets:
            snippets[name] = ["new snippet."]
        assert _run(["acquire", "--sources", "gsnip3", "--refresh"], runs, config=config) == 0
    records = load_dataset(entities, load_sic_scheme()).records
    spec = parse_source_signature("gsnip3+gptsum", TaskId.SIC, top_k=3)
    resolved = TextAcquirer(TaskId.SIC, TextCache(runs / "r1/cache")).resolve(records, spec)
    texts = {record.entity_id: text for record, (text,) in resolved if text is not None}
    assert len(texts) == len(records)
    assert set(texts.values()) == {"new snippet.\n\nA summary."}


@pytest.mark.parametrize(
    "content,field",
    [
        ("{}\n", "'entity_id'"),
        ('{"entity_id": "e1", "input_text": "x"}\n', "'source_signature'"),
        ("[1, 2]\n", "not a JSON object"),
        ("{not json\n", "not valid JSON"),
    ],
    ids=["empty-object", "missing-field", "not-object", "not-json"],
)
def test_malformed_corpus_exits_4_without_traceback(workspace, capsys, content, field):
    tmp_path, entities, _ = workspace
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(content)
    config = _write_config(tmp_path / "c.ini", dataset=entities)
    assert _run(["train", "--corpus", str(corpus)], tmp_path / "runs", config=config) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(corpus) in err and field in err and "row 1" in err


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("gold", ["20"], "unknown gold label ['20']"),
        ("gold", 20, "unknown gold label 20"),
        ("entity_id", 7, "field 'entity_id' is not a string"),
        ("input_text", 5, "field 'input_text' is not a string"),
        ("source_signature", None, "field 'source_signature' is not a string"),
    ],
    ids=["gold-list", "gold-int", "entity-id-int", "input-text-int", "signature-null"],
)
def test_corpus_field_of_the_wrong_type_exits_4(workspace, capsys, field, value, message):
    tmp_path, entities, _ = workspace
    good = {"entity_id": "e1", "input_text": "x\ny", "gold": "20", "source_signature": "gsnip3"}
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
    config = _write_config(tmp_path / "c.ini", dataset=entities)
    assert _run(["train", "--corpus", str(corpus)], tmp_path / "runs", config=config) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(corpus) in err and message in err and "row 2" in err


@pytest.mark.parametrize("command", ["eval", "sweep"])
@pytest.mark.parametrize(
    "row,field",
    [
        ({"entity_id": "e005"}, "label"),
        ({"entity_id": ["e005"], "label": "20"}, "entity_id"),
        ({"entity_id": 5, "label": "20"}, "entity_id"),
    ],
    ids=["no-label", "entity-id-list", "entity-id-number"],
)
def test_malformed_predictions_exit_4(workspace, capsys, command, row, field):
    tmp_path, entities, _ = workspace
    predictions = _test_split_predictions(tmp_path / "preds.jsonl")
    rows = predictions.read_text().splitlines()
    rows[2] = json.dumps(row)
    predictions.write_text("\n".join(rows) + "\n")
    config = _write_config(tmp_path / "c.ini", dataset=entities)
    argv = [command, "--predictions", str(predictions)]
    assert _run(argv, tmp_path / "runs", config=config) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "row 3" in err and repr(field) in err and str(predictions) in err
    assert load_manifest(tmp_path / "runs" / "r1") is None


@pytest.mark.parametrize("command", ["train", "predict"])
def test_dataset_flag_rejected_where_unused(workspace, command):
    tmp_path, entities, _ = workspace
    with pytest.raises(SystemExit) as exit_:
        _run([command, "--dataset", str(entities)], tmp_path / "runs")
    assert exit_.value.code == 2


def test_truncated_model_exits_4_without_traceback(workspace, capsys):
    tmp_path, entities, snippets = workspace
    run_dir = _pipeline(tmp_path, entities, snippets, tmp_path / "runs")
    model = run_dir / "model/gsnip3.model"
    model.write_bytes(model.read_bytes()[:-5])
    config = _write_config(tmp_path / "c.ini", dataset=entities)
    assert _run(["predict", "--sources", "gsnip3"], tmp_path / "runs", config=config) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err and str(model) in err
