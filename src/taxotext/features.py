"""Hashed bag-of-ngrams featurization of instance text."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .hashing import digests64, fingerprint

N_BUCKETS = 1 << 18

# Unicode alphanumeric runs; underscore separates tokens.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# The same runs as a capture group: split() returns them between the separators.
_SPLIT_RE = re.compile(f"({_TOKEN_RE.pattern})", re.UNICODE)

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


def _ngram_buckets(tokens: list[str]) -> np.ndarray:
    """The buckets of the T tokens, then of their T - 1 adjacent bigrams, in text order."""
    ngrams = tokens + [f"{left} {right}" for left, right in zip(tokens, tokens[1:])]
    # Buckets are below 2^18, so 32 bits hold them in half the memory.
    return (np.frombuffer(digests64(ngrams), dtype="<u8") % N_BUCKETS).astype(np.int32)


def _prefix_vector(buckets: np.ndarray, n_tokens: int, n: int) -> FeatureVector:
    """The vector of the first n of the n_tokens tokens that ``buckets`` holds.

    Their n-grams are the first n unigrams and the first n - 1 bigrams.
    Colliding n-grams accumulate into the same bucket; no tokens give an
    empty vector.
    """
    ngrams = np.concatenate((buckets[:n], buckets[n_tokens : n_tokens + max(n - 1, 0)]))
    if not ngrams.size:
        return FeatureVector(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
    indices, counts = np.unique(ngrams, return_counts=True)
    values = counts.astype(np.float64)
    values /= np.linalg.norm(values)
    return FeatureVector(indices.astype(np.int64), values)


def featurize(text: str) -> FeatureVector:
    """Hash unigrams and adjacent bigrams into 2^18 buckets, L2-normalized.

    Colliding ngrams accumulate into the same bucket. Empty or
    punctuation-only text yields an empty vector.
    """
    tokens = tokenize(text)
    return _prefix_vector(_ngram_buckets(tokens), len(tokens), len(tokens))


class PrefixFeaturizer:
    """One text hashed once, featurizing each prefix of it that whitespace ends or follows.

    Such a prefix tokenizes to the text's first n tokens: a token cannot run
    on across whitespace, and whitespace ends the one context-dependent
    lowercase mapping (word-final sigma). So the prefix's n-grams are the
    first n unigrams and n - 1 bigrams of the text's, and ``vector(prefix)``
    equals ``featurize(prefix)`` bit for bit without hashing again. The
    whole text is itself such a prefix.
    """

    __slots__ = ("_buckets", "_ends")

    def __init__(self, text: str):
        # Tokens alternate with the separators around them, so their end
        # offsets in the lowercased text are running sums of the pieces' lengths.
        pieces = _SPLIT_RE.split(text.lower())
        ends = np.cumsum(np.fromiter(map(len, pieces), dtype=np.int64, count=len(pieces)))
        self._ends = ends[1::2]
        self._buckets = _ngram_buckets(pieces[1::2])

    def vector(self, prefix: str) -> FeatureVector:
        """The ``featurize`` vector of ``prefix``: a prefix of the text that ends
        with whitespace, before whitespace, or where the text ends."""
        return self.vector_at(len(prefix.lower()))

    def vector_at(self, end: int) -> FeatureVector:
        """``vector`` of the prefix whose lowercased form is ``end`` characters long."""
        n = int(np.searchsorted(self._ends, end, side="right"))
        return _prefix_vector(self._buckets, self._ends.size, n)
