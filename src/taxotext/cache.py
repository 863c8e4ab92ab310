"""Content-addressed on-disk cache for acquired texts.

One JSON file per acquisition, named by the hex key hash, plus a human-
readable index. Writes go through a temp file and an atomic rename, so a
crash never leaves a half-written entry. Distinct keys may be written
concurrently from worker threads.

A bare ``store`` rewrites the index at once. Inside ``batch()`` (which
``TextAcquirer.acquire_all`` uses) the index is rewritten once, when the
outermost batch ends, so an acquisition run costs linear, not quadratic,
index work. The entry files are the source of truth: a killed acquire can
leave the index behind them.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import uuid
from contextlib import contextmanager
from pathlib import Path

from .errors import CacheCorrupt
from .hashing import fingerprint
from .taxonomy import TaskId
from .texts import AcquiredText, Source

logger = logging.getLogger(__name__)

INDEX_NAME = "index.json"


class TextCache:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._index: dict[str, dict] | None = None
        self._batch_depth = 0
        self._index_dirty = False

    @staticmethod
    def key(task_id: TaskId, entity_id: str, source: Source, params: dict) -> str:
        return fingerprint(
            {
                "task": task_id.value,
                "entity_id": entity_id,
                "source": source.value,
                "params": params,
            }
        )

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def contains(self, key: str) -> bool:
        return self.path_for(key).exists()

    def load(self, key: str) -> AcquiredText | None:
        path = self.path_for(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        try:
            return AcquiredText.from_json(json.loads(raw))
        except (ValueError, KeyError, TypeError) as exc:
            raise CacheCorrupt(f"unreadable cache entry: {path}") from exc

    def store(self, key: str, text: AcquiredText, task_id: TaskId) -> Path:
        path = self.path_for(key)
        payload = json.dumps(text.to_json(), ensure_ascii=False, sort_keys=True)
        self._atomic_write(path, payload)
        with self._lock:
            index = self._load_index()
            index[key] = {
                "task": task_id.value,
                "entity_id": text.entity_id,
                "source": text.source.value,
                "params": text.params,
            }
            if self._batch_depth:
                self._index_dirty = True
            else:
                self._write_index()
        return path

    @contextmanager
    def batch(self):
        """Defer index rewrites from ``store`` to the end of the outermost batch."""
        with self._lock:
            self._batch_depth += 1
        try:
            yield
        finally:
            with self._lock:
                self._batch_depth -= 1
                if not self._batch_depth and self._index_dirty:
                    self._write_index()

    def _write_index(self) -> None:
        # caller holds the lock
        self._atomic_write(
            self.root / INDEX_NAME,
            json.dumps(self._index, ensure_ascii=False, sort_keys=True, indent=2),
        )
        self._index_dirty = False

    def _load_index(self) -> dict[str, dict]:
        # caller holds the lock
        if self._index is None:
            index_path = self.root / INDEX_NAME
            try:
                self._index = json.loads(index_path.read_text(encoding="utf-8"))
            except FileNotFoundError:
                self._index = {}
            except ValueError as exc:
                raise CacheCorrupt(f"unreadable cache index: {index_path}") from exc
        return self._index

    def _atomic_write(self, path: Path, payload: str) -> None:
        tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
        tmp.write_text(payload, encoding="utf-8")
        os.replace(tmp, path)
