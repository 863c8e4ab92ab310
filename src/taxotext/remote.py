"""Classify entities by prompting a hosted chat model, zero-shot or with acquired text."""

from __future__ import annotations

import re
from typing import Sequence

from .metrics import INVALID_COLUMN as INVALID
from .softmax import Prediction
from .summarize import LlmClient
from .taxonomy import CategoryLabel, EntityRecord, TaskId, TaxonomyScheme

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
    by_id = scheme.by_id
    predictions = []
    for record in sorted(records, key=lambda r: r.entity_id):
        prompt = build_classify_prompt(scheme, record.name, contexts.get(record.entity_id))
        reply = client.complete(prompt, model=model_id, max_tokens=max_tokens)
        parsed = parse_code_response(reply, scheme.ids, scheme)
        predictions.append(
            Prediction(entity_id=record.entity_id, label=by_id.get(parsed, INVALID_LABEL), confidence=None)
        )
    return predictions
