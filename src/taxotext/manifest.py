"""Run manifests: the provenance record tying outputs back to inputs.

A manifest is written into the run directory before any artifact it
describes, so a crashed run still leaves an accurate account of what was
attempted; ``files.write_file`` replaces it whole, so a crash never leaves
it half-written. Timestamps live only here; report and corpus files stay
byte-stable across reruns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ParseError
from .files import write_file
from .hashing import fingerprint
from .texts import utcnow as _utcnow  # the name tests pin the clock by

MANIFEST_NAME = "manifest.json"
TOOL_VERSION = "0.1.0"


@dataclass
class RunManifest:
    run_id: str
    created_at: str
    tool_version: str = TOOL_VERSION
    config: dict = field(default_factory=dict)
    config_fingerprint: str = ""
    dataset_fingerprint: str | None = None
    source_signatures: list[str] = field(default_factory=list)
    commands: list[dict] = field(default_factory=list)

    @classmethod
    def new(cls, run_id: str, config: dict) -> "RunManifest":
        return cls(
            run_id=run_id,
            created_at=_utcnow(),
            config=config,
            config_fingerprint=fingerprint(config),
        )

    def record_command(self, name: str, options: dict):
        self.commands.append({"command": name, "at": _utcnow(), "options": options})

    def note_signature(self, signature: str):
        if signature not in self.source_signatures:
            self.source_signatures.append(signature)

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, payload: dict) -> "RunManifest":
        """Fields with defaults may be absent (older manifests); other keys are ignored.

        A list or dict field that holds another JSON type is a TypeError.
        """
        manifest = cls(**{f.name: payload[f.name] for f in fields(cls) if f.name in payload})
        for f in fields(cls):
            # the factories here are the container types themselves
            if f.default_factory in (list, dict) and not isinstance(
                getattr(manifest, f.name), f.default_factory
            ):
                raise TypeError(f"{f.name!r} is not a {f.default_factory.__name__}")
        return manifest


def manifest_path(run_dir: Path) -> Path:
    return Path(run_dir) / MANIFEST_NAME


def load_manifest(run_dir: Path) -> RunManifest | None:
    path = manifest_path(run_dir)
    if not path.exists():
        return None
    try:
        return RunManifest.from_json(json.loads(path.read_text(encoding="utf-8")))
    except (ValueError, TypeError) as exc:
        raise ParseError(f"not a manifest: {path} ({type(exc).__name__}: {exc})") from None


def save_manifest(manifest: RunManifest, run_dir: Path):
    write_file(
        manifest_path(run_dir), [json.dumps(manifest.to_json(), indent=2, sort_keys=True), "\n"]
    )
