"""Classification instances and corpus file emission.

Two on-disk forms: a tabular JSONL for the native backend, and a chat JSONL
(system / user / assistant messages) for provider fine-tuning. Both are
UTF-8 with LF line endings and deterministic field order.
"""

from __future__ import annotations

import functools
import json
import logging
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

from .errors import MissingGold, MissingText, ParseError, UnknownLabel
from .files import package_text, read_lines, write_file
from .hashing import sha256_hex
from .taxonomy import CategoryLabel, EntityRecord, TaxonomyScheme

logger = logging.getLogger(__name__)


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


def instance_text(name: str, description: str) -> str:
    """An instance's input text: the entity's name, a newline, then its description."""
    return f"{name}\n{description}"


def _make_instance(
    record: EntityRecord, description: str | None, signature: str, *, strict: bool = False
) -> ClassificationInstance:
    """Pair one record with its description, as ``TextAcquirer.resolve`` yields it.

    A refused summary is ``""``; a missing one (None) raises MissingText in
    strict mode and is emitted as an empty description otherwise. Gold
    labels are attached only for train/dev records; test instances are
    unlabeled.
    """
    if description is None:
        if strict:
            raise MissingText(f"no acquired text for entity {record.entity_id!r}")
        description = ""
    return ClassificationInstance(
        entity_id=record.entity_id,
        input_text=instance_text(record.name, description),
        gold=record.gold,
        source_signature=signature,
    )


def warn_empty(empty: int, total: int) -> None:
    if empty:
        logger.warning("%d of %d instances have empty descriptions", empty, total)


def build_instances(
    records: Sequence[EntityRecord],
    texts: Mapping[str, str],
    signature: str,
    *,
    strict: bool = False,
) -> BuildResult:
    """Pair records with their descriptions, ordered by entity id.

    texts maps an entity id to its description; an entity absent from it has
    a missing one, which raises MissingText in strict mode and is emitted as
    an empty description otherwise. The instances are those ``emit_split``
    writes.
    """
    instances: list[ClassificationInstance] = []
    empty = 0
    for record in sorted(records, key=lambda r: r.entity_id):
        description = texts.get(record.entity_id)
        instances.append(_make_instance(record, description, signature, strict=strict))
        empty += not description
    warn_empty(empty, len(instances))
    return BuildResult(tuple(instances), empty)


@functools.cache  # read once per process; callers only read the dict
def _instruction_table() -> dict:
    return json.loads(package_text("system_instructions.json"))


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


def _chat_line(instance: ClassificationInstance, scheme: TaxonomyScheme, *, with_labels: bool) -> str:
    """One instance's line of a chat JSONL file."""
    messages = chat_messages(instance, scheme, with_labels=with_labels)
    return json.dumps({"messages": messages}, ensure_ascii=False) + "\n"


def emit_chat_finetune(
    instances: Sequence[ClassificationInstance],
    scheme: TaxonomyScheme,
    out_path: str | Path,
    *,
    with_labels: bool,
) -> Path:
    lines = (_chat_line(inst, scheme, with_labels=with_labels) for inst in instances)
    return write_file(out_path, lines)


def load_chat_finetune(path: str | Path) -> list[dict]:
    """Inverse of emit_chat_finetune; a malformed file raises ParseError, as in read_json_rows."""
    return [row for _, row in read_json_rows(path, ("messages",))]


def _tabular_line(instance: ClassificationInstance) -> str:
    """One instance's line of a tabular JSONL file."""
    row: dict = {"entity_id": instance.entity_id, "input_text": instance.input_text}
    if instance.gold is not None:
        row["gold"] = instance.gold.id
    row["source_signature"] = instance.source_signature
    return json.dumps(row, ensure_ascii=False) + "\n"


def emit_tabular(instances: Sequence[ClassificationInstance], out_path: str | Path) -> Path:
    return write_file(out_path, map(_tabular_line, instances))


def emit_split(
    resolved: Iterable[tuple[EntityRecord, tuple[str | None]]],
    signature: str,
    scheme: TaxonomyScheme,
    tabular: TextIO,
    chat: TextIO,
    *,
    with_labels: bool,
    strict: bool = False,
) -> tuple[int, int]:
    """Write one split's instances to its open tabular and chat files, one line to each.

    ``resolved`` yields each record with its one description, as
    ``TextAcquirer.resolve`` does. Each instance is written and dropped before
    the next is read, so the lines are those of ``build_instances`` and the
    two emitters with no split held. Returns the instance and empty counts.
    """
    total = empty = 0
    for record, (description,) in resolved:
        instance = _make_instance(record, description, signature, strict=strict)
        tabular.write(_tabular_line(instance))
        chat.write(_chat_line(instance, scheme, with_labels=with_labels))
        total += 1
        empty += not description
    warn_empty(empty, total)
    return total, empty


def read_json_rows(path: str | Path, fields: Sequence[str]) -> Iterator[tuple[int, dict]]:
    """The JSON objects of a JSONL file with their line numbers, skipping blank lines.

    A line that is not JSON, not an object, or lacks one of `fields` raises
    ParseError naming the line number, the field and the file; so does a file
    that is not UTF-8, naming the file.
    """
    with closing(read_lines(path)) as lines:
        for rownum, line in enumerate(lines, 1):
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
            yield rownum, row


def iter_tabular(path: str | Path, scheme: TaxonomyScheme) -> Iterator[ClassificationInstance]:
    """The instances of an emit_tabular file, read one line at a time."""
    by_id = scheme.by_id
    fields = ("entity_id", "input_text", "source_signature")
    for rownum, row in read_json_rows(path, fields):
        for name in fields:
            if not isinstance(row[name], str):
                raise ParseError(f"field {name!r} is not a string in {path}", row=rownum)
        gold = None
        if "gold" in row:
            if not isinstance(row["gold"], str) or row["gold"] not in by_id:
                raise UnknownLabel(f"row {rownum}: unknown gold label {row['gold']!r} in {path}")
            gold = by_id[row["gold"]]
        yield ClassificationInstance(
            entity_id=row["entity_id"],
            input_text=row["input_text"],
            gold=gold,
            source_signature=row["source_signature"],
        )


def load_tabular(path: str | Path, scheme: TaxonomyScheme) -> list[ClassificationInstance]:
    """Inverse of emit_tabular; round-trips instances losslessly."""
    return list(iter_tabular(path, scheme))
