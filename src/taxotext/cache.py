"""Content-addressed on-disk cache for acquired texts.

One JSON file per provider reply, named by the hex key hash; combined texts
are derived from these, never stored. Each entry records the task, entity,
source and params that key it. Entries are written by ``files.write_file``,
so a crash never leaves a half-written entry. Worker threads may store
distinct keys at once, but the file writes take turns: files created in one
directory at the same moment contend for that directory's lock in the
kernel, where the waiters spin, and that spinning made the CPU time of a
cold acquire swing from run to run. The directory is made by the first
store; until then every load is a miss. The entry files are the whole cache:
an ``index.json`` left by an older version is neither read nor written.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

from .errors import CacheCorrupt
from .files import write_file
from .hashing import fingerprint
from .taxonomy import TaskId
from .texts import AcquiredText, Source


class TextCache:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._write_lock = threading.Lock()

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
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            return AcquiredText.from_json(json.loads(raw.decode("utf-8")))
        except (ValueError, KeyError, TypeError) as exc:
            raise CacheCorrupt(f"unreadable cache entry: {path}") from exc

    def store(self, key: str, text: AcquiredText, task_id: TaskId) -> Path:
        payload = {**text.to_json(), "task": task_id.value}
        chunks = [json.dumps(payload, ensure_ascii=False, sort_keys=True)]
        with self._write_lock:
            return write_file(self.path_for(key), chunks)
