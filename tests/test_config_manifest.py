from __future__ import annotations

import configparser
import json
from pathlib import Path

import pytest

from taxotext.config import KEYS, PipelineConfig, load_config, snapshot
from taxotext.errors import ConfigError, ParseError
from taxotext.hashing import fingerprint
from taxotext.manifest import (
    MANIFEST_NAME,
    RunManifest,
    load_manifest,
    manifest_path,
    save_manifest,
)
from taxotext.metrics import DEFAULT_THRESHOLDS
from taxotext.taxonomy import DEFAULT_RATIOS, TaskId

FULL_INI = """
[task]
name = healthcare
dataset = data/entities.csv
split_seed = 7
ratios = 0.6, 0.2, 0.2

[acquisition]
top_k = 5
max_parallel = 2
max_attempts = 4
base_backoff = 0.5
rate_per_second = 3.0
cache_dir = /tmp/cache
summary_max_tokens = 256
search_base_url = http://search.test
llm_base_url = http://llm.test
gpt_model = gpt-x
llama_model = llama-y

[training]
epochs = 7
batch_size = 4
learning_rate = 0.01
warmup_steps = 100
weight_decay = 0.0
seed = 3

[eval]
thresholds = 0.5, 0.75
inclusive = true
"""


def test_no_path_gives_defaults():
    config = load_config(None)
    assert config == PipelineConfig()
    assert config.task is TaskId.SIC
    assert config.ratios == DEFAULT_RATIOS
    assert config.thresholds == DEFAULT_THRESHOLDS
    assert config.training.epochs == 3


def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("")
    assert load_config(path) == PipelineConfig()


def test_full_file_round_trip(tmp_path):
    path = tmp_path / "full.ini"
    path.write_text(FULL_INI)
    config = load_config(path)
    assert config.task is TaskId.HEALTHCARE
    assert config.dataset == "data/entities.csv"
    assert config.split_seed == 7
    assert config.ratios == (0.6, 0.2, 0.2)
    assert config.top_k == 5
    assert config.max_parallel == 2
    assert config.max_attempts == 4
    assert config.base_backoff == 0.5
    assert config.rate_per_second == 3.0
    assert config.cache_dir == "/tmp/cache"
    assert config.summary_max_tokens == 256
    assert config.search_base_url == "http://search.test"
    assert config.llm_base_url == "http://llm.test"
    assert config.gpt_model == "gpt-x"
    assert config.llama_model == "llama-y"
    assert config.training.epochs == 7
    assert config.training.batch_size == 4
    assert config.training.learning_rate == 0.01
    assert config.training.warmup_steps == 100
    assert config.training.weight_decay == 0.0
    assert config.training.seed == 3
    assert config.thresholds == (0.5, 0.75)
    assert config.inclusive_thresholds is True


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.ini")


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("[nonsense]\nx = 1\n", "unknown section"),
        ("[task]\ncolour = red\n", "unknown key"),
        ("[training]\neval_batch_size = 16\n", "unknown key"),
        ("[task]\nname = zodiac\n", "unknown task"),
        ("[task]\nratios = 0.5, 0.5\n", "three values"),
        ("[task]\nratios = a, b, c\n", "bad float"),
        ("[training]\nepochs = many\n", "invalid literal"),
        ("[acquisition]\ngpt_model =\n", "must not be empty"),
        ("[training]\nbatch_size = 0\n", "batch_size must be >= 1"),
        ("[training]\nepochs = 0\n", "epochs must be >= 1"),
        ("[acquisition]\ntop_k = 0\n", "top_k must be >= 1"),
        ("[acquisition]\nmax_attempts = 0\n", "max_attempts must be >= 1"),
        ("[task]\nratios = -1, 1.5, 0.5\n", "non-negative numbers summing to 1"),
        ("[task]\nratios = 0.5, 0.5, 0.5\n", "non-negative numbers summing to 1"),
        ("[task]\nratios = nan, 0.5, 0.5\n", "non-negative numbers summing to 1"),
        ("[training]\nseed = -3\n", "seed must be >= 0"),
        ("[acquisition]\nbase_backoff = -1\n", "base_backoff must be >= 0"),
        ("[acquisition]\nbase_backoff = nan\n", "base_backoff must be >= 0"),
        ("[acquisition]\nsummary_max_tokens = 0\n", "summary_max_tokens must be >= 1"),
        ("[acquisition]\nbase_backoff = inf\n", "base_backoff must be >= 0"),
        ("[acquisition]\nmax_parallel = 0\n", "max_parallel must be >= 1"),
        ("[acquisition]\nmax_parallel = -3\n", "max_parallel must be >= 1"),
        ("[acquisition]\nrate_per_second = -1\n", "rate_per_second must be >= 0"),
        ("[acquisition]\nrate_per_second = nan\n", "rate_per_second must be >= 0"),
        ("[training]\nlearning_rate = nan\n", "learning_rate must be > 0"),
        ("[training]\nlearning_rate = 0\n", "learning_rate must be > 0"),
        ("[training]\nweight_decay = nan\n", "weight_decay must be >= 0 and < 1"),
        ("[training]\nweight_decay = 2\n", "weight_decay must be >= 0 and < 1"),
        ("[training]\nwarmup_steps = -5\n", "warmup_steps must be >= 0"),
        ("[eval]\nthresholds = nan, 0.5\n", "bad float list"),
        ("[eval]\nthresholds = 0.5, inf\n", "bad float list"),
        ("[eval]\nthresholds =\n", "bad float list"),
        ("[eval]\nthresholds = ,\n", "bad float list"),
    ],
)
def test_bad_files_raise_config_error(tmp_path, body, fragment):
    path = tmp_path / "bad.ini"
    path.write_text(body)
    with pytest.raises(ConfigError) as exc_info:
        load_config(path)
    assert fragment in str(exc_info.value)


def test_blank_optional_strings_stay_none(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[acquisition]\ncache_dir =\nsearch_base_url =\n")
    config = load_config(path)
    assert config.cache_dir is None
    assert config.search_base_url is None


def test_percent_in_a_value_is_read_verbatim(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[acquisition]\nsearch_base_url = http://x/a%20b\ngpt_model = m%%1\n")
    config = load_config(path)
    assert config.search_base_url == "http://x/a%20b"
    assert config.gpt_model == "m%%1"


def test_readme_lists_every_config_key_with_its_default(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Configuration", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    parser = configparser.ConfigParser()
    parser.read_string(block)
    documented = {section: set(parser[section]) for section in parser.sections()}
    assert documented == {section: set(rows) for section, rows in KEYS.items()}
    path = tmp_path / "readme.ini"
    path.write_text(block)
    assert load_config(path) == PipelineConfig()


def test_snapshot_is_json_stable():
    config = PipelineConfig()
    snap_a = snapshot(config)
    snap_b = snapshot(PipelineConfig())
    assert snap_a == snap_b
    assert fingerprint(snap_a) == fingerprint(snap_b)
    json.dumps(snap_a)  # must be serializable as-is
    assert snap_a["task"] == "SIC"
    assert snap_a["training"]["epochs"] == 3


def test_snapshot_reflects_overrides(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[training]\nepochs = 9\n")
    snap = snapshot(load_config(path))
    assert snap["training"]["epochs"] == 9
    assert fingerprint(snap) != fingerprint(snapshot(PipelineConfig()))


# --- manifest -------------------------------------------------------------------


def test_manifest_new_fingerprints_config():
    snap = snapshot(PipelineConfig())
    manifest = RunManifest.new("run-1", snap)
    assert manifest.run_id == "run-1"
    assert manifest.config_fingerprint == fingerprint(snap)
    assert manifest.created_at  # timestamp set


def test_manifest_roundtrip(tmp_path):
    manifest = RunManifest.new("run-2", {"a": 1})
    manifest.dataset_fingerprint = "deadbeef"
    manifest.note_signature("gsnip10")
    manifest.record_command("train", {"signature": "gsnip10"})
    save_manifest(manifest, tmp_path)

    again = load_manifest(tmp_path)
    assert again is not None
    assert again.run_id == "run-2"
    assert again.dataset_fingerprint == "deadbeef"
    assert again.source_signatures == ["gsnip10"]
    assert len(again.commands) == 1
    assert again.commands[0]["command"] == "train"
    assert again.commands[0]["options"] == {"signature": "gsnip10"}
    assert "at" in again.commands[0]


def test_manifest_signatures_dedup():
    manifest = RunManifest.new("run-3", {})
    manifest.note_signature("gsnip10")
    manifest.note_signature("gptsum")
    manifest.note_signature("gsnip10")
    assert manifest.source_signatures == ["gsnip10", "gptsum"]


def test_load_manifest_absent_returns_none(tmp_path):
    assert load_manifest(tmp_path) is None


def test_save_manifest_atomic_no_leftovers(tmp_path):
    save_manifest(RunManifest.new("run-4", {}), tmp_path)
    save_manifest(RunManifest.new("run-4b", {}), tmp_path)  # overwrite in place
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [MANIFEST_NAME]
    assert load_manifest(tmp_path).run_id == "run-4b"
    assert manifest_path(tmp_path).read_text().endswith("\n")


def test_manifest_json_has_expected_top_level_keys(tmp_path):
    save_manifest(RunManifest.new("run-5", {"x": 1}), tmp_path)
    payload = json.loads(manifest_path(tmp_path).read_text())
    assert set(payload) == {
        "run_id",
        "created_at",
        "tool_version",
        "config",
        "config_fingerprint",
        "dataset_fingerprint",
        "source_signatures",
        "commands",
    }


def test_manifest_with_old_deviations_key_still_loads(tmp_path):
    payload = RunManifest.new("run-6", {"x": 1}).to_json()
    payload["deviations"] = []
    manifest_path(tmp_path).write_text(json.dumps(payload))
    manifest = load_manifest(tmp_path)
    assert manifest.run_id == "run-6"
    assert "deviations" not in manifest.to_json()


def test_manifest_without_its_defaulted_fields_loads(tmp_path):
    manifest_path(tmp_path).write_text(json.dumps({"run_id": "run-7", "created_at": "t"}))
    manifest = load_manifest(tmp_path)
    assert manifest.to_json() == RunManifest(run_id="run-7", created_at="t").to_json()


@pytest.mark.parametrize(
    "content",
    [
        b"{trunc",
        b'{"run_id": "run-8"}',
        b"[]",
        b'"run_id"',
        b"null",
        b'{"run_id": "\xff"}',
        b'{"run_id": "run-8", "created_at": "t", "commands": {}}',
        b'{"run_id": "run-8", "created_at": "t", "config": []}',
    ],
    ids=[
        "truncated", "no-created_at", "list", "string", "null", "not-utf8",
        "commands-not-a-list", "config-not-a-dict",
    ],
)
def test_malformed_manifest_is_a_parse_error_naming_the_file(tmp_path, content):
    manifest_path(tmp_path).write_bytes(content)
    with pytest.raises(ParseError) as err:
        load_manifest(tmp_path)
    assert str(manifest_path(tmp_path)) in str(err.value)


@pytest.mark.parametrize(
    "content", [None, b"[task]\nname = sic \xff\n"], ids=["directory", "not-utf8"]
)
def test_config_that_is_not_a_utf8_file_is_a_config_error(tmp_path, content):
    path = tmp_path / "c.ini"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(path) in str(err.value)
