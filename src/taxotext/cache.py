"""Content-addressed cache for acquired texts, in one SQLite database.

Each provider reply is one row of ``entries`` in ``<root>/cache.sqlite3``:
its hex key hash, and as ``body`` the reply's JSON, which also records the
task, entity, source and params that key it. Combined texts are derived from
these rows, never stored. Each store commits on its own, so a killed acquire
keeps every reply stored before it and no partial one. The database runs in
WAL mode, which needs a local filesystem (not NFS) and a writable directory
even to read; processes and threads may read and store at once, and a writer
that finds the database busy waits. A database that cannot be opened or
written (a read-only directory, locked past the busy timeout, a full disk)
raises ``CacheUnavailable``; one that is damaged raises ``CacheCorrupt``.

The database is made by the first store, or by the first load in an existing
directory; until then every load is a miss. When it is made, the
``<key>.json`` entry files of older versions in the directory are imported in
one transaction and left in place. Later files are not read.
"""

from __future__ import annotations

import json
import re
import sqlite3
import threading
import time
import weakref
from pathlib import Path

from .errors import CacheCorrupt, CacheUnavailable
from .hashing import fingerprint
from .taxonomy import TaskId
from .texts import AcquiredText, Source

DB_NAME = "cache.sqlite3"
BUSY_TIMEOUT_S = 60.0
PAGE_CACHE_KIB = 256  # SQLite's 2 MB default shows in the peak RSS of short commands
_LEGACY_ENTRY = re.compile(r"[0-9a-f]{64}\.json")
_BODY_JSON = json.JSONEncoder(ensure_ascii=False, sort_keys=True)  # built once, not per store


class TextCache:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.path = self.root / DB_NAME
        self._lock = threading.Lock()
        self._conn: sqlite3.Connection | None = None
        self._finalizer: weakref.finalize | None = None

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

    def load(self, key: str) -> AcquiredText | None:
        if self._conn is None and not self.root.is_dir():
            return None
        row = self._run(key, "SELECT body FROM entries WHERE key = ?", (key,))
        if row is None:
            return None
        try:
            return AcquiredText.from_json(json.loads(row[0].decode("utf-8")))
        except (ValueError, KeyError, TypeError) as exc:
            raise self._corrupt(key, exc) from exc

    def store(self, key: str, text: AcquiredText, task_id: TaskId) -> None:
        payload = {**text.to_json(), "task": task_id.value}
        body = _BODY_JSON.encode(payload)
        self._run(key, "INSERT OR REPLACE INTO entries VALUES (?, ?)", (key, body))

    def close(self) -> None:
        """Close the connection; the next load or store opens a new one."""
        with self._lock:
            if self._finalizer is not None:
                self._finalizer()  # closes the connection, once
            self._conn = self._finalizer = None

    def __enter__(self) -> TextCache:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _corrupt(self, key: str, exc: Exception) -> CacheCorrupt:
        return CacheCorrupt(f"unreadable cache entry {key} in {self.path}: {exc}")

    def _run(self, key: str, sql: str, params: tuple) -> tuple | None:
        with self._lock:  # one statement at a time on the shared connection
            try:
                return self._db().execute(sql, params).fetchone()
            except sqlite3.OperationalError as exc:  # not the data: the file, its lock or the disk
                raise CacheUnavailable(f"cannot use the cache database {self.path}: {exc}") from exc
            except sqlite3.DatabaseError as exc:  # not a database, or a damaged one
                raise self._corrupt(key, exc) from exc

    def _db(self) -> sqlite3.Connection:
        # the caller holds self._lock
        if self._conn is not None:
            return self._conn
        self.root.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(
            self.path, timeout=BUSY_TIMEOUT_S, isolation_level=None, check_same_thread=False
        )
        # a cache dropped without close() closes its connection when collected or at exit
        finalizer = weakref.finalize(self, conn.close)
        try:
            conn.text_factory = bytes  # the body's UTF-8 is checked on load, like a file's
            _switch_to_wal(conn)
            conn.execute("PRAGMA synchronous = NORMAL")
            conn.execute(f"PRAGMA cache_size = -{PAGE_CACHE_KIB}")
            conn.execute("BEGIN IMMEDIATE")
            if conn.execute("PRAGMA user_version").fetchone()[0] == 0:
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS entries (key TEXT PRIMARY KEY, body TEXT NOT NULL)"
                )
                legacy = (p for p in self.root.iterdir() if _LEGACY_ENTRY.fullmatch(p.name))
                conn.executemany(
                    "INSERT OR REPLACE INTO entries VALUES (?, CAST(? AS TEXT))",
                    ((p.stem, p.read_bytes()) for p in legacy),
                )
                conn.execute("PRAGMA user_version = 1")
            conn.execute("COMMIT")
        except BaseException:
            finalizer()
            raise
        self._conn, self._finalizer = conn, finalizer
        return conn


def _switch_to_wal(conn: sqlite3.Connection) -> None:
    # Switching a database that is not yet WAL while another connection writes to it
    # fails at once, not after the busy timeout (SQLite's deadlock guard): two caches
    # that make one database together meet this, so the switch is tried again here.
    deadline = time.monotonic() + BUSY_TIMEOUT_S
    while True:
        try:
            conn.execute("PRAGMA journal_mode = WAL")
            return
        except sqlite3.OperationalError as exc:
            if str(exc) != "database is locked" or time.monotonic() >= deadline:
                raise
            time.sleep(0.001)
