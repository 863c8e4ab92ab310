from __future__ import annotations

import json

import pytest

from taxotext.corpus import (
    build_instances,
    chat_messages,
    emit_chat_finetune,
    emit_tabular,
    load_chat_finetune,
    load_tabular,
    system_instruction,
    system_instruction_meta,
)
from taxotext.errors import MissingGold, MissingText, ParseError, UnknownLabel
from taxotext.taxonomy import Split

from conftest import make_records, with_splits


def _texts_for(records, body="describes the business"):
    return {r.entity_id: f"{body} of {r.name}" for r in records}


@pytest.fixture()
def split_records(sic_scheme):
    return with_splits(make_records(sic_scheme, [("20", 2), ("73", 2)]), n_train=2, n_dev=1)


def test_build_orders_by_entity_id(sic_scheme, split_records):
    shuffled = list(reversed(split_records))
    result = build_instances(shuffled, _texts_for(split_records), "gsnip10")
    assert [i.entity_id for i in result.instances] == sorted(r.entity_id for r in split_records)


def test_build_prepends_name_line(sic_scheme, split_records):
    result = build_instances(split_records, _texts_for(split_records), "gsnip10")
    record = split_records[0]
    inst = next(i for i in result.instances if i.entity_id == record.entity_id)
    assert inst.input_text == f"{record.name}\ndescribes the business of {record.name}"
    assert inst.source_signature == "gsnip10"


def test_build_gold_only_for_train_and_dev(sic_scheme, split_records):
    result = build_instances(split_records, _texts_for(split_records), "gsnip10")
    by_id = {i.entity_id: i for i in result.instances}
    for r in split_records:
        gold = by_id[r.entity_id].gold
        if r.split in (Split.TRAIN, Split.DEV):
            assert gold == r.label
        else:
            assert gold is None


def test_build_missing_text_lenient_vs_strict(sic_scheme, split_records):
    texts = _texts_for(split_records)
    dropped = split_records[1].entity_id
    del texts[dropped]
    result = build_instances(split_records, texts, "gsnip10")
    by_id = {i.entity_id: i for i in result.instances}
    assert by_id[dropped].input_text == f"{split_records[1].name}\n"
    assert result.empty_count == 1
    with pytest.raises(MissingText):
        build_instances(split_records, texts, "gsnip10", strict=True)


def test_build_refusals_count_as_empty(sic_scheme, split_records):
    texts = _texts_for(split_records)
    rid = split_records[0].entity_id
    texts[rid] = ""  # a refused summary, as cached_texts gives it
    result = build_instances(split_records, texts, "gptsum")
    assert result.empty_count == 1
    # strict mode accepts refusals; only absent entries are an error
    strict = build_instances(split_records, texts, "gptsum", strict=True)
    assert strict.empty_count == 1


def test_system_instruction_lists_every_category(sic_scheme, hc_scheme):
    for scheme in (sic_scheme, hc_scheme):
        text = system_instruction(scheme)
        assert "{code_list}" not in text
        for cid in scheme.ids:
            assert cid in text
    meta = system_instruction_meta(sic_scheme)
    assert set(meta) == {"version", "sha256"}


def test_chat_messages_train_vs_inference(sic_scheme, split_records):
    result = build_instances(split_records, _texts_for(split_records), "gsnip10")
    labeled = next(i for i in result.instances if i.gold is not None)
    unlabeled = next(i for i in result.instances if i.gold is None)

    train_msgs = chat_messages(labeled, sic_scheme, with_labels=True)
    assert [m["role"] for m in train_msgs] == ["system", "user", "assistant"]
    assert train_msgs[1]["content"] == labeled.input_text
    assert train_msgs[2]["content"] == labeled.gold.id

    infer_msgs = chat_messages(unlabeled, sic_scheme, with_labels=False)
    assert [m["role"] for m in infer_msgs] == ["system", "user"]

    with pytest.raises(MissingGold):
        chat_messages(unlabeled, sic_scheme, with_labels=True)


def test_chat_jsonl_role_precedes_content(tmp_path, sic_scheme, split_records):
    result = build_instances(split_records, _texts_for(split_records), "gsnip10")
    train = [i for i in result.instances if i.gold is not None]
    path = emit_chat_finetune(train, sic_scheme, tmp_path / "train.jsonl", with_labels=True)
    for line in path.read_text(encoding="utf-8").splitlines():
        for message in json.loads(line)["messages"]:
            assert list(message) == ["role", "content"]
        assert line.index('"role"') < line.index('"content"')


def test_chat_jsonl_roundtrip(tmp_path, sic_scheme, split_records):
    result = build_instances(split_records, _texts_for(split_records), "gsnip10")
    train = [i for i in result.instances if i.gold is not None]
    path = emit_chat_finetune(train, sic_scheme, tmp_path / "t.jsonl", with_labels=True)
    rows = load_chat_finetune(path)
    assert len(rows) == len(train)
    assert all(len(r["messages"]) == 3 for r in rows)


@pytest.mark.parametrize(
    "second_line,row",
    [
        (b"\xff\xfe not utf-8\n", None),
        (b"{not json\n", 2),
        (b'{"prompt": "no messages"}\n', 2),
    ],
    ids=["not-utf8", "not-json", "missing-messages"],
)
def test_chat_jsonl_malformed_file_is_a_parse_error(tmp_path, second_line, row):
    path = tmp_path / "t.jsonl"
    path.write_bytes(b'{"messages": []}\n' + second_line)
    with pytest.raises(ParseError) as err:
        load_chat_finetune(path)
    assert str(path) in str(err.value)
    assert err.value.row == row


def test_tabular_roundtrip(tmp_path, sic_scheme, split_records):
    result = build_instances(split_records, _texts_for(split_records), "gsnip10")
    path = emit_tabular(result.instances, tmp_path / "c.jsonl")
    again = load_tabular(path, sic_scheme)
    assert list(again) == list(result.instances)
    # key order in the file is fixed
    first = path.read_text(encoding="utf-8").splitlines()[0]
    keys = list(json.loads(first))
    assert keys[0] == "entity_id"
    assert keys[1] == "input_text"
    assert keys[-1] == "source_signature"


def test_tabular_rejects_unknown_gold(tmp_path, sic_scheme):
    path = tmp_path / "c.jsonl"
    path.write_text(
        json.dumps(
            {
                "entity_id": "e1",
                "input_text": "x\ny",
                "gold": "99",
                "source_signature": "gsnip10",
            }
        )
        + "\n"
    )
    with pytest.raises(UnknownLabel):
        load_tabular(path, sic_scheme)
