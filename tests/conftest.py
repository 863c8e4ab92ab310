from __future__ import annotations

import contextlib
import csv
import sqlite3
import time
from pathlib import Path

import pytest

from taxotext.cache import TextCache
from taxotext.taxonomy import (
    Dataset,
    EntityRecord,
    Split,
    load_healthcare_scheme,
    load_sic_scheme,
)


@pytest.fixture(scope="session")
def sic_scheme():
    return load_sic_scheme()


@pytest.fixture(scope="session")
def hc_scheme():
    return load_healthcare_scheme()


def make_records(scheme, spec):
    """Build records from (category_id, count) pairs; ids are e001, e002, ...

    raw_code synthesis matches load: SIC gets a 4-digit code with the
    category as its prefix, healthcare picks any real code in the category.
    """
    by_cat = {}
    for code, label in getattr(scheme, "code_map", {}).items():
        by_cat.setdefault(label.id, code)
    records = []
    n = 0
    for cid, count in spec:
        for _ in range(count):
            n += 1
            if scheme.task_id.value == "SIC":
                raw = cid + "10"
            else:
                raw = by_cat[cid]
            records.append(
                EntityRecord(
                    entity_id=f"e{n:04d}",
                    name=f"{scheme.by_id[cid].display_name} member {n}",
                    raw_code=raw,
                    label=scheme.by_id[cid],
                )
            )
    return records


def write_entities_csv(path, records, with_split=False):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entity_id", "name", "raw_code", "split"])
        for r in records:
            writer.writerow(
                [r.entity_id, r.name, r.raw_code, r.split.value if with_split and r.split else ""]
            )
    return path


def with_splits(records, n_train, n_dev):
    """Assign splits positionally: first n_train train, next n_dev dev, rest test."""
    out = []
    for i, r in enumerate(records):
        split = Split.TRAIN if i < n_train else Split.DEV if i < n_train + n_dev else Split.TEST
        out.append(
            EntityRecord(
                entity_id=r.entity_id,
                name=r.name,
                raw_code=r.raw_code,
                label=r.label,
                split=split,
            )
        )
    return out


def make_dataset(scheme, spec, n_train, n_dev):
    return Dataset(scheme=scheme, records=tuple(with_splits(make_records(scheme, spec), n_train, n_dev)))


def wait_until(condition, timeout=5.0):
    """Poll until a server-side effect of a client action shows; a handler
    thread notices a closed connection a moment after the client closes it."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not met in time"
        time.sleep(0.01)


def cache_rows(root) -> dict[str, bytes]:
    """Every entry in a cache directory's database: key -> the stored body, as bytes."""
    with contextlib.closing(sqlite3.connect(Path(root) / "cache.sqlite3")) as db:
        db.text_factory = bytes
        return {key.decode(): body for key, body in db.execute("SELECT key, body FROM entries")}


def put_cache_body(root, key, body):
    """Store a raw entry body through sqlite3, making the database as TextCache does.

    A str body is stored as UTF-8; bytes are stored as they are, valid UTF-8 or not.
    """
    Path(root).mkdir(parents=True, exist_ok=True)
    with TextCache(root) as cache:
        cache.load(key)  # opens, and so makes, the database
    raw = body.encode("utf-8") if isinstance(body, str) else body
    with contextlib.closing(sqlite3.connect(Path(root) / "cache.sqlite3", isolation_level=None)) as db:
        db.execute("INSERT OR REPLACE INTO entries VALUES (?, CAST(? AS TEXT))", (key, raw))
