"""Deterministic hashing helpers used for cache keys, fingerprints, and features."""

from __future__ import annotations

import hashlib
import json


# json.dumps with any non-default setting builds an encoder on every call;
# one prebuilt encoder gives the same text for less, and every cache key pays it.
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_json(obj) -> str:
    """Serialize to a canonical JSON string (sorted keys, no whitespace)."""
    return _CANONICAL_JSON.encode(obj)


def sha256_hex(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def fingerprint(obj) -> str:
    """Stable hex fingerprint of any JSON-serializable object."""
    return sha256_hex(canonical_json(obj))


# The one blake2b-64 definition behind token_hash64 and the feature buckets.
# Only ever copied, never updated, so threads may share it.
_BLAKE2B_64 = hashlib.blake2b(digest_size=8)


def digests64(tokens) -> bytes:
    """The 8-byte blake2b digests of each token's UTF-8 bytes, concatenated in order.

    Copying one prebuilt hasher per token is cheaper than constructing one,
    which parses its keyword arguments each time.
    """
    copy = _BLAKE2B_64.copy
    parts = []
    for token in tokens:
        h = copy()
        h.update(token.encode("utf-8"))
        parts.append(h.digest())
    return b"".join(parts)


def token_hash64(token: str) -> int:
    """Stable 64-bit hash of a token; identical across runs and platforms."""
    return int.from_bytes(digests64([token]), "little")
