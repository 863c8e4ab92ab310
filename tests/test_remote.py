from __future__ import annotations

import random
import string

import pytest

from taxotext.http import RetryPolicy
from taxotext.mockserver import MockLlmServer
from taxotext.remote import (
    INVALID,
    INVALID_LABEL,
    build_classify_prompt,
    parse_code_response,
    prompt_baseline,
)
from taxotext.summarize import LlmClient
from taxotext.taxonomy import EntityRecord, load_healthcare_scheme, load_sic_scheme

NO_SLEEP = lambda _: None
POLICY = RetryPolicy(max_attempts=1)


def _client(server):
    return LlmClient(server.base_url, api_key="k", policy=POLICY, sleep=NO_SLEEP)


# --- response parsing -----------------------------------------------------------


@pytest.mark.parametrize(
    "raw,expected",
    [
        (" 07\n", "07"),
        ("SIC 20 (Real Estate)", "20"),
        ("2024 revenue grew", INVALID),
    ],
)
def test_parse_code_response_contract_cases(raw, expected):
    valid = {"07", "20", "58"}
    assert parse_code_response(raw, valid) == expected


def test_parse_code_exact_match_beats_scanning():
    assert parse_code_response("20", {"20", "2024"}) == "20"
    # whitespace-trimmed whole response wins even when other valid tokens appear
    assert parse_code_response("  58  ", {"20", "58"}) == "58"


def test_parse_code_scans_first_valid_token():
    valid = {"20", "58"}
    assert parse_code_response("Either 58 or 20 fits", valid) == "58"
    assert parse_code_response("code: 20.", valid) == "20"


def test_parse_code_rejects_substring_hits():
    # 20 must not be lifted out of 2024
    assert parse_code_response("grew in 2024", {"20"}) == INVALID


def test_parse_code_healthcare_codes_map_to_category():
    scheme = load_healthcare_scheme()
    cat = scheme.label_for_code("207RC0000X").id
    assert parse_code_response("207RC0000X", set(scheme.ids), scheme=scheme) == cat
    assert parse_code_response("the code is 207K00000X", set(scheme.ids), scheme=scheme) == cat


def test_parse_code_healthcare_unknown_code_is_invalid():
    scheme = load_healthcare_scheme()
    assert parse_code_response("9999999999", set(scheme.ids), scheme=scheme) == INVALID


def test_parse_code_hyphenated_ids():
    valid = {"allopathic-osteopathic-physicians"}
    out = parse_code_response("likely allopathic-osteopathic-physicians.", valid)
    assert out == "allopathic-osteopathic-physicians"
    # matching is case-sensitive: ids are exact strings, not spellings
    assert parse_code_response("Allopathic-Osteopathic-Physicians", valid) == INVALID


def test_parse_code_fuzz_closed_output_set():
    valid = {"07", "20", "58", "behavioral-health"}
    alphabet = string.ascii_letters + string.digits + " .,()-\n"
    rng = random.Random(0)
    for _ in range(500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
        out = parse_code_response(text, valid)
        assert out in valid or out == INVALID


# --- prompting ------------------------------------------------------------------


def test_build_classify_prompt_mentions_codes_and_name():
    scheme = load_sic_scheme()
    prompt = build_classify_prompt(scheme, "Acme Corp")
    assert "Acme Corp" in prompt
    for cid in scheme.ids[:3]:
        assert cid in prompt


def test_build_classify_prompt_includes_context():
    scheme = load_sic_scheme()
    prompt = build_classify_prompt(scheme, "Acme Corp", context="makes anvils")
    assert "makes anvils" in prompt
    assert prompt.index("Acme Corp") < prompt.index("makes anvils")


# --- zero-shot baseline ---------------------------------------------------------


def _records(scheme, n=3):
    label = scheme.categories[0]
    return [
        EntityRecord(entity_id=f"e{i}", name=f"Entity {i}", raw_code="0110", label=label)
        for i in range(n)
    ]


def test_prompt_baseline_parses_replies():
    scheme = load_sic_scheme()
    with MockLlmServer(reply=lambda m, _: "58", api_key="k") as server, _client(server) as client:
        preds = prompt_baseline(_records(scheme, 3), scheme, client, model_id="m")
    assert [p.entity_id for p in preds] == ["e0", "e1", "e2"]
    assert all(p.label.id == "58" for p in preds)
    assert all(p.confidence is None for p in preds)
    assert server.request_count == 3


def test_prompt_baseline_invalid_reply_maps_to_invalid_label():
    scheme = load_sic_scheme()
    with MockLlmServer(reply=lambda m, _: "no idea, sorry") as server, _client(server) as client:
        preds = prompt_baseline(_records(scheme, 1), scheme, client, model_id="m")
    assert preds[0].label is INVALID_LABEL


def test_prompt_baseline_passes_context():
    scheme = load_sic_scheme()
    seen = []

    def reply(messages, model):
        seen.append(messages[-1]["content"])
        return "20"

    with MockLlmServer(reply=reply) as server, _client(server) as client:
        prompt_baseline(
            _records(scheme, 1),
            scheme,
            client,
            model_id="m",
            contexts={"e0": "sells groceries"},
        )
    assert "sells groceries" in seen[0]

