from __future__ import annotations

import pytest

from taxotext.errors import AuthError, ConfigError, EmptyCompletion
from taxotext.mockserver import MockLlmServer
from taxotext.summarize import (
    PROMPT_TEMPLATES,
    LlmClient,
    detect_refusal,
    generate_summary,
    truncate_at_sentence,
)
from taxotext.texts import Source


# --- refusal detection ------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "I don't have any information about that entity.",
        "I do not have enough context to answer.",
        "I'm sorry, but I can't help with that.",
        "As an AI, I cannot browse the web.",
        "I don’t have access to information about this provider.",  # curly quote
        "Well... I'M SORRY to say I cannot.",
    ],
)
def test_detect_refusal_hits(text):
    assert detect_refusal(text)


@pytest.mark.parametrize(
    "text",
    [
        "Acme Corp manufactures industrial fasteners.",
        "",
        # marker buried past the 200-character window
        "The clinic provides primary care to local families. " * 5 + "They don't have long waits.",
    ],
)
def test_detect_refusal_misses(text):
    assert not detect_refusal(text)


def test_detect_refusal_window_boundary():
    pad = "z" * 195
    assert not detect_refusal(pad + " " * 10 + "i'm sorry")
    assert detect_refusal("z" * 180 + " i'm sorry")


# --- sentence truncation ------------------------------------------------------


@pytest.mark.parametrize(
    "raw,expect",
    [
        ("One. Two. Three.", "One. Two. Three."),
        ("One. Two. Thr", "One. Two."),
        ("No boundary at all", "No boundary at all"),
        ("Quote ends here.” And then trail", "Quote ends here.”"),
        ("  padded. tail", "padded."),
        ("Done!", "Done!"),
        ("Really? Yes", "Really?"),
        ("", ""),
    ],
)
def test_truncate_at_sentence(raw, expect):
    assert truncate_at_sentence(raw) == expect


# --- templates ----------------------------------------------------------------


def test_templates_fill_placeholder():
    t = PROMPT_TEMPLATES["GPT_SIC"]
    assert "Acme Corp" in t.fill("Acme Corp")
    assert "[ORG_NAME]" not in t.fill("Acme Corp")
    with pytest.raises(ValueError):
        t.fill("")


def test_template_ids_cover_both_tasks():
    assert set(PROMPT_TEMPLATES) == {"GPT_SIC", "GPT_HC", "LLAMA_SIC", "LLAMA_HC"}
    assert PROMPT_TEMPLATES["LLAMA_HC"].placeholder == "[PROVIDER_NAME]"
    assert PROMPT_TEMPLATES["GPT_HC"].placeholder == "[Provider_NAME]"


def test_prompt_hash_is_stable():
    t = PROMPT_TEMPLATES["LLAMA_SIC"]
    assert t.prompt_hash("Acme") == t.prompt_hash("Acme")
    assert t.prompt_hash("Acme") != t.prompt_hash("Bcme")


# --- client + generation --------------------------------------------------------


def test_generate_summary_roundtrip():
    reply = lambda messages, model: "Acme Corp makes fasteners. It sells to builders."
    with (
        MockLlmServer(reply, api_key="sk-test") as server,
        LlmClient(server.base_url, api_key="sk-test") as client,
    ):
        text = generate_summary(
            "e1", "Acme Corp", PROMPT_TEMPLATES["GPT_SIC"], client, model_id="m1"
        )
    assert text.source is Source.GPTSUM
    assert text.entity_id == "e1"
    assert not text.refusal
    assert text.text.startswith("Acme Corp makes fasteners.")
    assert text.provenance["prompt_sha256"] == PROMPT_TEMPLATES["GPT_SIC"].prompt_hash("Acme Corp")


def test_generate_summary_trims_dangling_sentence():
    reply = lambda messages, model: "First sentence. Second half got cut of"
    with (
        MockLlmServer(reply, api_key="sk-test") as server,
        LlmClient(server.base_url, api_key="sk-test") as client,
    ):
        text = generate_summary(
            "e1", "Acme", PROMPT_TEMPLATES["LLAMA_SIC"], client, model_id="m1"
        )
    assert text.text == "First sentence."
    assert text.source is Source.LLAMASUM


def test_generate_summary_refusal_yields_empty_text():
    reply = lambda messages, model: "I don’t have access to information about this entity."
    with (
        MockLlmServer(reply, api_key="sk-test") as server,
        LlmClient(server.base_url, api_key="sk-test") as client,
    ):
        text = generate_summary(
            "e9", "Mystery LLC", PROMPT_TEMPLATES["GPT_SIC"], client, model_id="m1"
        )
    assert text.refusal
    assert text.text == ""


def test_generate_summary_empty_completion_raises():
    with (
        MockLlmServer(lambda m, mo: "", api_key="sk-test") as server,
        LlmClient(server.base_url, api_key="sk-test") as client,
    ):
        with pytest.raises(EmptyCompletion):
            generate_summary("e1", "Acme", PROMPT_TEMPLATES["GPT_SIC"], client, model_id="m1")


def test_client_auth_and_key_sources(monkeypatch):
    with MockLlmServer(lambda m, mo: "ok.", api_key="sk-test") as server:
        monkeypatch.delenv("LLM_API_KEY", raising=False)
        with pytest.raises(ConfigError):
            LlmClient(server.base_url)
        hi = [{"role": "user", "content": "hi"}]
        with LlmClient(server.base_url, api_key="wrong") as client, pytest.raises(AuthError):
            client.chat(hi, model="m", max_tokens=5)
        monkeypatch.setenv("LLM_API_KEY", "sk-test")
        with LlmClient(server.base_url) as client:
            assert client.chat(hi, model="m", max_tokens=5) == "ok."


def test_chat_sends_model_and_messages():
    seen = {}

    def reply(messages, model):
        seen["messages"] = messages
        seen["model"] = model
        return "fine."

    with (
        MockLlmServer(reply, api_key="sk-test") as server,
        LlmClient(server.base_url, api_key="sk-test") as client,
    ):
        client.complete("what is this", model="special-model", max_tokens=7)
    assert seen["model"] == "special-model"
    assert seen["messages"] == [{"role": "user", "content": "what is this"}]
