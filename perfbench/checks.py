"""Output checks: digests of a run directory's artifacts and count checks.

Every benchmark run checks the program's outputs byte for byte, so a
speed-up that changes a model, a prediction or a report fails the run.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

# Report fields that depend on temp paths and mock ports, not on the model.
_VOLATILE_REPORT_KEYS = ("config_fingerprint", "run_id")

_ACQUIRED = re.compile(r"acquired: fetched=(\d+) cache_hits=(\d+) refusals=(\d+) failures=(\d+)")
_BUILT = re.compile(r"built \w+: (\d+) instances \((\d+) empty\)")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(run_dir: Path, patterns: tuple[str, ...]) -> dict[str, str]:
    """sha256 of every file under run_dir matching one of the glob patterns.

    Eval reports (``*-eval.json``) are hashed without their volatile keys.
    """
    out = {}
    for pattern in patterns:
        for path in sorted(run_dir.glob(pattern)):
            rel = path.relative_to(run_dir).as_posix()
            data = path.read_bytes()
            if rel.endswith("-eval.json"):
                report = json.loads(data)
                for key in _VOLATILE_REPORT_KEYS:
                    report.pop(key, None)
                data = json.dumps(report, sort_keys=True).encode("utf-8")
            out[rel] = _sha256(data)
    return out


def compare(expected: dict[str, str], got: dict[str, str]) -> list[str]:
    """One check per expected or produced file; returns the files that fail."""
    return sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))


def parse_acquired(stdout: str) -> dict[str, int] | None:
    m = _ACQUIRED.search(stdout)
    if m is None:
        return None
    return dict(zip(("fetched", "hits", "refusals", "failures"), map(int, m.groups())))


def parse_built(stdout: str) -> tuple[int, int] | None:
    """(instances, empty) summed over the splits a ``build`` printed."""
    rows = _BUILT.findall(stdout)
    if not rows:
        return None
    return sum(int(n) for n, _ in rows), sum(int(e) for _, e in rows)
