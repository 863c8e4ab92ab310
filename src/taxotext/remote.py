"""Provider-hosted backends: zero/with-context prompting and chat fine-tunes."""

from __future__ import annotations

import logging
import re
from pathlib import Path
from typing import Sequence

from .corpus import ClassificationInstance, chat_messages
from .errors import JobFailed, MalformedResponse
from .http import request_json
from .metrics import INVALID_COLUMN as INVALID
from .softmax import Prediction
from .summarize import LlmClient
from .taxonomy import CategoryLabel, EntityRecord, TaskId, TaxonomyScheme

logger = logging.getLogger(__name__)

INVALID_LABEL = CategoryLabel(id=INVALID, display_name="unparseable response")

# Tokens are alphanumeric runs, optionally hyphen-joined; a hyphen never
# starts or ends a token, so "20-" still yields "20" but "2024" stays whole.
_TOKEN_RE = re.compile(r"[A-Za-z0-9]+(?:-[A-Za-z0-9]+)*")

_CLASSIFY_TEMPLATE = (
    "You are a classification assistant for [TASK_NAME]. Given the "
    "[ENTITY_NAME] below, predict the [CODE_TYPE] that best represents its "
    "[CATEGORY_DESCRIPTION]. Choose ONLY one code from the provided options: "
    "[CODE_LIST]. Return ONLY the code. Do not include explanations or extra "
    "text."
)

_TASK_FILLS = {
    TaskId.SIC: {
        "[TASK_NAME]": "SIC code classification",
        "[ENTITY_NAME]": "organization name",
        "[CODE_TYPE]": "two-digit SIC code",
        "[CATEGORY_DESCRIPTION]": "primary business activities",
    },
    TaskId.HEALTHCARE: {
        "[TASK_NAME]": "healthcare provider taxonomy code classification",
        "[ENTITY_NAME]": "provider name",
        "[CODE_TYPE]": "healthcare provider taxonomy category",
        "[CATEGORY_DESCRIPTION]": "medical specialty and area of practice",
    },
}


def parse_code_response(
    text: str, valid_ids: Sequence[str], scheme: TaxonomyScheme | None = None
) -> str:
    """Extract a category id from a completion, or INVALID.

    Tries an exact trimmed match, then scans left to right for the first
    maximal token that is a valid id. For healthcare, a ten-character raw
    taxonomy code also counts when the scheme maps it to a valid category.
    Never returns anything outside valid_ids plus INVALID.
    """
    valid = set(valid_ids)
    trimmed = text.strip()
    if trimmed in valid:
        return trimmed
    map_codes = scheme is not None and scheme.task_id is TaskId.HEALTHCARE
    for token in _TOKEN_RE.findall(text):
        if token in valid:
            return token
        if map_codes and len(token) == 10 and token.isalnum():
            label = scheme.code_map.get(token)
            if label is not None and label.id in valid:
                return label.id
    return INVALID


def build_classify_prompt(scheme: TaxonomyScheme, name: str, context: str | None = None) -> str:
    """Assemble the single-shot classification prompt for one entity."""
    prompt = _CLASSIFY_TEMPLATE
    for placeholder, value in _TASK_FILLS[scheme.task_id].items():
        prompt = prompt.replace(placeholder, value)
    prompt = prompt.replace("[CODE_LIST]", ", ".join(scheme.ids))
    body = f"{prompt}\n\n{name}"
    if context:
        body += f"\n\n{context}"
    return body


def _classify_remote(queries, scheme: TaxonomyScheme, ask) -> list[Prediction]:
    """Send each ``(entity_id, query)`` pair through `ask` and parse the completion.

    Unparseable completions predict INVALID_LABEL; none carries a confidence.
    """
    by_id = scheme.by_id
    predictions = []
    for entity_id, query in queries:
        parsed = parse_code_response(ask(query), scheme.ids, scheme)
        predictions.append(
            Prediction(entity_id=entity_id, label=by_id.get(parsed, INVALID_LABEL), confidence=None)
        )
    return predictions


def prompt_baseline(
    records: Sequence[EntityRecord],
    scheme: TaxonomyScheme,
    client: LlmClient,
    *,
    model_id: str,
    contexts: dict[str, str] | None = None,
    max_tokens: int = 16,
) -> list[Prediction]:
    """Classify records by prompting a hosted model directly.

    Unparseable completions predict the reserved invalid label, which
    evaluation always counts as wrong. Remote predictions carry no
    confidence, so threshold sweeps reject them.
    """
    contexts = contexts or {}
    queries = [
        (r.entity_id, build_classify_prompt(scheme, r.name, contexts.get(r.entity_id)))
        for r in sorted(records, key=lambda r: r.entity_id)
    ]
    return _classify_remote(
        queries, scheme, lambda prompt: client.complete(prompt, model=model_id, max_tokens=max_tokens)
    )


class FineTuneClient(LlmClient):
    """Adapter for a provider's file-upload and fine-tune job endpoints."""

    def _create(self, path: str, **kwargs) -> str:
        """POST to a creation endpoint and return the new object's id."""
        payload = self._request(
            request_json, "POST", f"{self.base_url}{path}", headers=self._headers(), **kwargs
        )
        new_id = payload.get("id")
        if not isinstance(new_id, str):
            raise MalformedResponse(f"{self.base_url}{path}: response missing id")
        return new_id

    def upload_file(self, path: str | Path) -> str:
        with open(path, "rb") as fh:
            return self._create(
                "/files", data={"purpose": "fine-tune"}, files={"file": (Path(path).name, fh)}
            )

    def submit(
        self,
        train_path: str | Path,
        *,
        model_id: str,
        dev_path: str | Path | None = None,
    ) -> str:
        """Upload corpus files and create a fine-tune job; returns the job id."""
        body: dict = {"model": model_id, "training_file": self.upload_file(train_path)}
        if dev_path is not None:
            body["validation_file"] = self.upload_file(dev_path)
        return self._create("/fine_tuning/jobs", json=body)

    def status(self, job_id: str) -> dict:
        return self._request(
            request_json, "GET", f"{self.base_url}/fine_tuning/jobs/{job_id}", headers=self._headers()
        )

    def wait(self, job_id: str, *, poll_seconds: float = 5.0, max_polls: int = 720) -> str:
        """Poll until the job succeeds; returns the fine-tuned model id."""
        for _ in range(max_polls):
            payload = self.status(job_id)
            state = payload.get("status")
            if state == "succeeded":
                model = payload.get("fine_tuned_model")
                if not isinstance(model, str):
                    raise MalformedResponse("job succeeded without a fine_tuned_model")
                return model
            if state in ("failed", "cancelled"):
                raise JobFailed(f"fine-tune job {job_id} ended as {state}", provider_status=state)
            self._sleep(poll_seconds)
        raise JobFailed(f"fine-tune job {job_id} did not finish", provider_status="timeout")


def remote_infer(
    instances: Sequence[ClassificationInstance],
    scheme: TaxonomyScheme,
    client: LlmClient,
    *,
    model_id: str,
    max_tokens: int = 16,
) -> list[Prediction]:
    """Run inference-form chat requests against a fine-tuned model."""
    queries = [(inst.entity_id, chat_messages(inst, scheme, with_labels=False)) for inst in instances]
    return _classify_remote(
        queries, scheme, lambda messages: client.chat(messages, model=model_id, max_tokens=max_tokens)
    )
