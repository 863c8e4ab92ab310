"""Model-written entity summaries: prompt templates, refusal detection, client."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptyCompletion, MalformedResponse
from .hashing import sha256_hex
from .http import ProviderClient, request_json
from .texts import AcquiredText, Source, utcnow


@dataclass(frozen=True)
class PromptTemplate:
    """A fixed prompt body with a single bracketed name placeholder."""

    id: str
    placeholder: str
    body: str

    def fill(self, name: str) -> str:
        if not name:
            raise ValueError("entity name must be non-empty")
        return self.body.replace(self.placeholder, name)

    def prompt_hash(self, name: str) -> str:
        return sha256_hex(self.fill(name))


PROMPT_TEMPLATES: dict[str, PromptTemplate] = {
    t.id: t
    for t in (
        PromptTemplate(
            id="GPT_SIC",
            placeholder="[ORG_NAME]",
            body=(
                "Summarize the main business activities, services, vision, and "
                "mission of [ORG_NAME]."
            ),
        ),
        PromptTemplate(
            id="GPT_HC",
            placeholder="[Provider_NAME]",
            body=(
                "Summarize the healthcare specialization, scope of practice, and "
                "typical services provided by [Provider_NAME]. The summary should "
                "describe the clinician’s professional type and main field of "
                "practice, following standard U.S. healthcare taxonomy conventions."
            ),
        ),
        PromptTemplate(
            id="LLAMA_SIC",
            placeholder="[ORG_NAME]",
            body=(
                "You are an assistant writing a factual summary about an "
                "organization based on its name. Given the [ORG_NAME], your goal "
                "is to identify and describe the organization's main business "
                "activities, core functions, and the industry it operates in. Use "
                "only publicly verifiable information. The description should be "
                "informative, objective, and around 250–300 words. Do not add "
                "any assumptions or speculative content."
            ),
        ),
        PromptTemplate(
            id="LLAMA_HC",
            placeholder="[PROVIDER_NAME]",
            body=(
                "You are a research assistant writing a factual summary about a "
                "healthcare provider’s specialty. Given the [PROVIDER_NAME], "
                "your goal is to identify and describe their medical specialty, "
                "professional focus, qualifications, and the healthcare sector "
                "they operate in. Use only publicly verifiable information. The "
                "description should be informative, objective, and around "
                "250–300 words. Do not add any assumptions or speculative "
                "content."
            ),
        ),
    )
}

# Refusal markers, matched case-insensitively against the head of a
# completion. Unicode apostrophe variants are normalized first so curly
# quotes match too.
DEFAULT_REFUSAL_PATTERNS = ("i don't have", "i do not have", "i'm sorry", "as an ai")

_REFUSAL_WINDOW = 200
_APOSTROPHES = str.maketrans({"‘": "'", "’": "'", "ʼ": "'", "´": "'"})


def detect_refusal(text: str) -> bool:
    """True when the head of a completion matches a refusal marker."""
    head = text[:_REFUSAL_WINDOW].lower().translate(_APOSTROPHES)
    return any(p in head for p in DEFAULT_REFUSAL_PATTERNS)


_CLOSERS = "\"'”’)]}"


def truncate_at_sentence(text: str) -> str:
    """Trim a trailing incomplete sentence left by a hard token cap.

    Text already ending at a sentence boundary is returned unchanged
    (aside from outer whitespace); text with no boundary at all is kept.
    """
    t = text.strip()
    if not t:
        return t
    i = len(t) - 1
    while i >= 0 and t[i] in _CLOSERS:
        i -= 1
    if i >= 0 and t[i] in ".!?":
        return t
    last = max(t.rfind("."), t.rfind("!"), t.rfind("?"))
    if last == -1:
        return t
    end = last + 1
    while end < len(t) and t[end] in _CLOSERS:
        end += 1
    return t[:end]


class LlmClient(ProviderClient):
    """Client for a chat-completions JSON endpoint."""

    key_env = "LLM_API_KEY"
    strip_slash = True

    def _headers(self) -> dict:
        return {"Authorization": f"Bearer {self._key}"}

    def chat(self, messages: list[dict], *, model: str, max_tokens: int) -> str:
        payload = self._request(
            request_json,
            "POST",
            f"{self.base_url}/chat/completions",
            json={"model": model, "messages": messages, "max_tokens": max_tokens},
            headers=self._headers(),
        )
        try:
            content = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedResponse(
                f"{self.base_url}: completion missing choices[0].message.content"
            ) from exc
        if not isinstance(content, str):
            raise MalformedResponse(f"{self.base_url}: completion content is not a string")
        return content

    def complete(self, prompt: str, *, model: str, max_tokens: int) -> str:
        return self.chat([{"role": "user", "content": prompt}], model=model, max_tokens=max_tokens)


def generate_summary(
    entity_id: str,
    name: str,
    template: PromptTemplate,
    client: LlmClient,
    *,
    model_id: str,
    max_tokens: int = 400,
    now=utcnow,
) -> AcquiredText:
    """Ask a model for an entity summary; refusals come back with empty text.

    The raw entity name fills the template placeholder. The completion is
    trimmed back to its last sentence boundary when the token cap cut it
    mid-sentence.
    """
    prompt = template.fill(name)
    content = client.complete(prompt, model=model_id, max_tokens=max_tokens)
    if content == "":
        raise EmptyCompletion(f"model returned an empty completion for {entity_id!r}")
    refusal = detect_refusal(content)
    source = Source.GPTSUM if template.id.startswith("GPT") else Source.LLAMASUM
    return AcquiredText(
        entity_id=entity_id,
        source=source,
        params={"template_id": template.id, "model_id": model_id, "max_tokens": max_tokens},
        text="" if refusal else truncate_at_sentence(content),
        retrieved_at=now(),
        provenance={"prompt_sha256": sha256_hex(prompt)},
        refusal=refusal,
    )
