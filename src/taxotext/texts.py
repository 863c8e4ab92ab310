"""Acquired-text records and their combination."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from enum import Enum

from .errors import MixedEntities


class Source(Enum):
    GSNIP = "GSNIP"
    GPTSUM = "GPTSUM"
    LLAMASUM = "LLAMASUM"
    COMBINED = "COMBINED"


# Order in which sources appear when texts are combined: snippets first,
# then model summaries.
_COMBINE_ORDER = {Source.GSNIP: 0, Source.GPTSUM: 1, Source.LLAMASUM: 2}

COMBINE_SEPARATOR = "\n\n"


def utcnow() -> str:
    """The current UTC time to the second, as stamped on acquired texts and manifest entries."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass(frozen=True)
class AcquiredText:
    """One acquired description of an entity, with provenance.

    `refusal` marks summaries the model declined to write; refusals carry
    empty text.
    """

    entity_id: str
    source: Source
    params: dict
    text: str
    retrieved_at: str
    provenance: list | dict = field(default_factory=list)
    refusal: bool = False

    def __post_init__(self):
        if self.refusal and self.text != "":
            raise ValueError("refusal texts must be empty")

    def to_json(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["source"] = self.source.value
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "AcquiredText":
        """Every field is required; other keys (a cache entry's task) are ignored."""
        values = {f.name: payload[f.name] for f in fields(cls)}
        values["source"] = Source(values["source"])
        return cls(**values)


def combine_texts(parts: list[AcquiredText]) -> AcquiredText:
    """Join several acquired texts for one entity into a single block.

    Parts are ordered snippets-first, joined with a blank line; refusal
    parts contribute nothing and never leave a dangling separator.
    """
    if len(parts) < 2:
        raise ValueError("combine_texts needs at least two parts")
    entity_ids = {p.entity_id for p in parts}
    if len(entity_ids) != 1:
        raise MixedEntities(f"cannot combine texts for entities {sorted(entity_ids)}")

    ordered = sorted(parts, key=lambda p: _COMBINE_ORDER[p.source])
    body = COMBINE_SEPARATOR.join(p.text for p in ordered if p.text and not p.refusal)
    all_refused = all(p.refusal for p in ordered)
    return AcquiredText(
        entity_id=parts[0].entity_id,
        source=Source.COMBINED,
        params={
            "components": [{"source": p.source.value, "params": p.params} for p in ordered]
        },
        text="" if all_refused else body,
        # deterministic: latest component fetch time, not the wall clock
        retrieved_at=max(p.retrieved_at for p in ordered),
        provenance=[{"source": p.source.value, "refusal": p.refusal} for p in ordered],
        refusal=all_refused,
    )
