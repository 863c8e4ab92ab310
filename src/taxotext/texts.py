"""The provider sources and the acquired-text record that each provider reply is
cached as; ``acquire.resolve`` turns cache entries into descriptions."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from enum import Enum


class Source(Enum):
    GSNIP = "GSNIP"
    GPTSUM = "GPTSUM"
    LLAMASUM = "LLAMASUM"
    COMBINED = "COMBINED"


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
