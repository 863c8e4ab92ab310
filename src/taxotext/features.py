"""Hashed bag-of-ngrams featurization of instance text."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .hashing import digests64, fingerprint

N_BUCKETS = 1 << 18

# Unicode alphanumeric runs; underscore separates tokens.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

FEATURIZER_CONFIG = {
    "buckets": N_BUCKETS,
    "ngrams": [1, 2],
    "hash": "blake2b-64",
    "lowercase": True,
    "norm": "l2",
}
FEATURIZER_HASH = fingerprint(FEATURIZER_CONFIG)


@dataclass(eq=False)
class FeatureVector:
    """Sparse unit-norm vector: strictly increasing indices, positive values."""

    indices: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.indices.size)


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def featurize(text: str) -> FeatureVector:
    """Hash unigrams and adjacent bigrams into 2^18 buckets, L2-normalized.

    Colliding ngrams accumulate into the same bucket. Empty or
    punctuation-only text yields an empty vector.
    """
    tokens = tokenize(text)
    if not tokens:
        return FeatureVector(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
    ngrams = tokens + [f"{left} {right}" for left, right in zip(tokens, tokens[1:])]
    buckets = np.frombuffer(digests64(ngrams), dtype="<u8") % N_BUCKETS
    indices, counts = np.unique(buckets, return_counts=True)
    values = counts.astype(np.float64)
    values /= np.linalg.norm(values)
    return FeatureVector(indices.astype(np.int64), values)
