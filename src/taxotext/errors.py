"""Exception types shared across the package."""

from __future__ import annotations


class TaxotextError(Exception):
    """Base class for all errors raised by this package."""


# --- taxonomy / dataset ---------------------------------------------------

class MalformedCode(TaxotextError):
    """Raw code does not have the shape the task requires."""


class UnknownCategory(TaxotextError):
    """Code prefix is well-formed but not a category of the scheme."""


class UnknownCode(TaxotextError):
    """Code is well-formed but absent from the code table."""


class ParseError(TaxotextError):
    """Input file is malformed; carries the offending row number."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


class LabelMismatch(TaxotextError):
    """Explicit label column disagrees with the code-derived label."""


class DuplicateEntity(TaxotextError):
    """The same entity_id appears more than once."""


class BadRatios(TaxotextError):
    """Split ratios are negative or do not sum to 1."""


# --- acquisition ----------------------------------------------------------

class HttpError(TaxotextError):
    """Request failed after exhausting retries."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class AuthError(TaxotextError):
    """Provider rejected the credential (401/403); never retried."""


class MalformedResponse(TaxotextError):
    """Provider response is not the documented JSON shape."""


class EmptyCompletion(TaxotextError):
    """Model returned an empty completion."""


class CacheCorrupt(TaxotextError):
    """A cache entry, or the cache database, cannot be read; names the database and the key."""


class CacheUnavailable(TaxotextError):
    """The cache database cannot be opened or written: a read-only directory,
    a lock held past the busy timeout, a full disk. Names the database."""


# --- corpus ---------------------------------------------------------------

class MissingText(TaxotextError):
    """Strict mode: an entity has no acquired text."""


class MissingGold(TaxotextError):
    """Labeled emission requested but an instance has no gold label."""


# --- classification -------------------------------------------------------

class EmptyTrainingSet(TaxotextError):
    """Training was asked to run on zero instances."""


class UnknownLabel(TaxotextError):
    """A gold label is not part of the scheme being trained."""


class FingerprintMismatch(TaxotextError):
    """Model file was produced under a different scheme or featurizer."""


# --- evaluation -----------------------------------------------------------

class LengthMismatch(TaxotextError):
    """Predictions and golds differ in length."""


class UnknownGold(TaxotextError):
    """A gold label is not part of the scheme being evaluated."""


class MissingConfidence(TaxotextError):
    """A confidence-based operation received predictions without scores."""


class InsufficientSnippets(TaxotextError):
    """Cache does not hold snippets at the requested depth."""


class SchemeMismatch(TaxotextError):
    """Two artifacts built under different schemes were compared."""


# --- cli ------------------------------------------------------------------

class ConfigError(TaxotextError):
    """Configuration file, flag, or credential problem."""
