from __future__ import annotations

import csv
import json

import pytest

from taxotext.acquire import TextAcquirer
from taxotext.cli import main
from taxotext.errors import CacheCorrupt, HttpError
from taxotext.manifest import load_manifest
from taxotext.mockserver import MockLlmServer, MockSearchServer
from taxotext.taxonomy import load_sic_scheme

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


def test_manifest_written_before_outputs(workspace):
    tmp_path, entities, snippets = workspace
    runs = tmp_path / "runs"
    run_dir = _pipeline(tmp_path, entities, snippets, runs)
    # train on the unlabeled test corpus: fails after the manifest write,
    # before any model lands
    code = _run(
        ["train", "--corpus", str(run_dir / "corpus/gsnip3/test.jsonl")],
        runs,
        config=_write_config(tmp_path / "c2.ini", dataset=entities),
        run_id="r2",
    )
    assert code == 4
    manifest = load_manifest(runs / "r2")
    assert manifest is not None
    assert [c["command"] for c in manifest.commands] == ["train"]
    assert not (runs / "r2" / "model").exists()


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


def test_ablate_beyond_cached_depth_exits_4(workspace):
    tmp_path, entities, snippets = workspace
    runs = tmp_path / "runs"
    with MockSearchServer(snippets, api_key="test-key") as server:
        config = _write_config(
            tmp_path / "c.ini", dataset=entities, search_url=server.base_url
        )
        assert _run(["acquire", "--sources", "gsnip3"], runs, config=config) == 0
        assert _run(["ablate", "--ks", "1,5"], runs, config=config) == 4


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


@pytest.mark.parametrize("http_id,data_id", [("e001", "e002"), ("e002", "e001")])
def test_acquire_mixed_failures_exit_4_whichever_id_sorts_first(
    workspace, monkeypatch, http_id, data_id
):
    # a data error needs a fix that a rerun will not bring, so it decides
    # the exit code whatever the entity ids are
    tmp_path, entities, _ = workspace
    errors = {http_id: HttpError("server error", status=503), data_id: CacheCorrupt("bad file")}
    monkeypatch.setattr(TextAcquirer, "acquire_all", lambda *a, **kw: ({}, dict(errors)))
    config = _write_config(tmp_path / "c.ini", dataset=entities, search_url="http://x")
    assert _run(["acquire", "--sources", "gsnip3"], tmp_path / "runs", config=config) == 4


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
        ["acquire", "--sources", "gptsum"],
        ["baseline"],
    ],
    ids=[
        "predict-no-model",
        "eval-no-predictions",
        "sweep-no-predictions",
        "bad-split",
        "bad-thresholds",
        "bad-ks",
        "acquire-gptsum-no-llm-url",
        "baseline-no-llm-key",
    ],
)
def test_config_rejection_exits_2_without_manifest_entry(workspace, monkeypatch, argv):
    tmp_path, entities, _ = workspace
    predictions = _test_split_predictions(tmp_path / "preds.jsonl")
    argv = [a.format(entities=entities, predictions=predictions) for a in argv]
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


def test_malformed_predictions_exit_4(workspace, capsys):
    tmp_path, entities, _ = workspace
    predictions = _test_split_predictions(tmp_path / "preds.jsonl")
    rows = predictions.read_text().splitlines()
    rows[2] = json.dumps({"entity_id": "e005"})
    predictions.write_text("\n".join(rows) + "\n")
    config = _write_config(tmp_path / "c.ini", dataset=entities)
    argv = ["eval", "--predictions", str(predictions)]
    assert _run(argv, tmp_path / "runs", config=config) == 4
    err = capsys.readouterr().err
    assert "row 3" in err and "'label'" in err


@pytest.mark.parametrize("command", ["train", "predict"])
def test_dataset_flag_rejected_where_unused(workspace, command):
    tmp_path, entities, _ = workspace
    with pytest.raises(SystemExit) as exit_:
        _run([command, "--dataset", str(entities)], tmp_path / "runs")
    assert exit_.value.code == 2
