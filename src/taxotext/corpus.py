"""Classification instances and corpus file emission.

Two on-disk forms: a tabular JSONL for the native backend, and a chat JSONL
(system / user / assistant messages) for provider fine-tuning. Both are
UTF-8 with LF line endings and deterministic field order.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .errors import MissingGold, MissingText, ParseError, UnknownLabel
from .hashing import sha256_hex
from .taxonomy import CategoryLabel, EntityRecord, Split, TaxonomyScheme, _data_text
from .texts import AcquiredText

logger = logging.getLogger(__name__)

_GOLD_SPLITS = (Split.TRAIN, Split.DEV)


@dataclass(frozen=True)
class ClassificationInstance:
    """One classifiable example: entity name plus its acquired description."""

    entity_id: str
    input_text: str
    gold: CategoryLabel | None
    source_signature: str


@dataclass(frozen=True)
class BuildResult:
    instances: tuple[ClassificationInstance, ...]
    empty_count: int  # refusal-only or missing descriptions


def build_instances(
    records: Sequence[EntityRecord],
    texts: Mapping[str, AcquiredText],
    signature: str,
    *,
    strict: bool = False,
) -> BuildResult:
    """Pair records with their acquired texts, ordered by entity id.

    input_text is the name, a newline, then the description. Gold labels
    are attached only for train/dev records; test instances are unlabeled.
    Entities with no cache entry raise MissingText in strict mode and are
    emitted with an empty description otherwise, like refusal-only texts.
    """
    instances: list[ClassificationInstance] = []
    empty = 0
    for record in sorted(records, key=lambda r: r.entity_id):
        acquired = texts.get(record.entity_id)
        if acquired is None and strict:
            raise MissingText(f"no acquired text for entity {record.entity_id!r}")
        body = acquired.text if acquired is not None else ""
        if body == "":
            empty += 1
        instances.append(
            ClassificationInstance(
                entity_id=record.entity_id,
                input_text=f"{record.name}\n{body}",
                gold=record.label if record.split in _GOLD_SPLITS else None,
                source_signature=signature,
            )
        )
    if empty:
        logger.warning("%d of %d instances have empty descriptions", empty, len(instances))
    return BuildResult(tuple(instances), empty)


def _instruction_table() -> dict:
    return json.loads(_data_text("system_instructions.json"))


def system_instruction(scheme: TaxonomyScheme) -> str:
    """The fixed per-task system message, with the scheme's ids filled in."""
    template = _instruction_table()[scheme.task_id.value]
    return template.replace("{code_list}", ", ".join(scheme.ids))


def system_instruction_meta(scheme: TaxonomyScheme) -> dict:
    """Version and hash of the instruction actually used, for run metadata."""
    rendered = system_instruction(scheme)
    return {
        "version": _instruction_table()["version"],
        "sha256": sha256_hex(rendered),
    }


def chat_messages(
    instance: ClassificationInstance, scheme: TaxonomyScheme, *, with_labels: bool
) -> list[dict]:
    """The chat-format encoding of one instance.

    Three messages when labeled (assistant carries the bare category id),
    two for inference.
    """
    messages = [
        {"role": "system", "content": system_instruction(scheme)},
        {"role": "user", "content": instance.input_text},
    ]
    if with_labels:
        if instance.gold is None:
            raise MissingGold(f"instance {instance.entity_id!r} has no gold label")
        messages.append({"role": "assistant", "content": instance.gold.id})
    return messages


def emit_chat_finetune(
    instances: Sequence[ClassificationInstance],
    scheme: TaxonomyScheme,
    out_path: str | Path,
    *,
    with_labels: bool,
) -> Path:
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        for inst in instances:
            record = {"messages": chat_messages(inst, scheme, with_labels=with_labels)}
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    return out_path


def load_chat_finetune(path: str | Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def emit_tabular(instances: Sequence[ClassificationInstance], out_path: str | Path) -> Path:
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        for inst in instances:
            row: dict = {"entity_id": inst.entity_id, "input_text": inst.input_text}
            if inst.gold is not None:
                row["gold"] = inst.gold.id
            row["source_signature"] = inst.source_signature
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")
    return out_path


def read_json_rows(path: str | Path, fields: Sequence[str]) -> Iterator[dict]:
    """The JSON objects of a JSONL file, skipping blank lines.

    A line that is not JSON, not an object, or lacks one of `fields` raises
    ParseError naming the line number, the field and the file.
    """
    with open(path, encoding="utf-8") as fh:
        for rownum, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except ValueError:
                raise ParseError(f"not valid JSON in {path}", row=rownum) from None
            if not isinstance(row, dict):
                raise ParseError(f"not a JSON object in {path}", row=rownum)
            for name in fields:
                if name not in row:
                    raise ParseError(f"missing field {name!r} in {path}", row=rownum)
            yield row


def load_tabular(path: str | Path, scheme: TaxonomyScheme) -> list[ClassificationInstance]:
    """Inverse of emit_tabular; round-trips instances losslessly."""
    by_id = scheme.by_id
    out: list[ClassificationInstance] = []
    for row in read_json_rows(path, ("entity_id", "input_text", "source_signature")):
        gold = None
        if "gold" in row:
            if row["gold"] not in by_id:
                raise UnknownLabel(f"gold label {row['gold']!r} not in scheme")
            gold = by_id[row["gold"]]
        out.append(
            ClassificationInstance(
                entity_id=row["entity_id"],
                input_text=row["input_text"],
                gold=gold,
                source_signature=row["source_signature"],
            )
        )
    return out
