"""Search-engine snippet acquisition and aggregation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import MalformedResponse
from .http import ProviderClient, request_json


@dataclass(frozen=True)
class SearchResult:
    rank: int
    title: str
    url: str
    snippet: str


class SearchClient(ProviderClient):
    """Client for a JSON search endpoint returning ``organic_results``."""

    key_env = "SEARCH_API_KEY"

    def search_entity(self, name: str, k: int) -> list[SearchResult]:
        """Fetch the top-k organic results for an entity name."""
        if not name:
            raise ValueError("entity name must be non-empty")
        if k < 1:
            raise ValueError("k must be >= 1")
        payload = self._request(
            request_json, "GET", self.base_url, params={"q": name, "num": k, "api_key": self._key}
        )
        organic = payload.get("organic_results")
        if not isinstance(organic, list):
            raise MalformedResponse(f"{self.base_url}: missing organic_results array")
        results = []
        for i, item in enumerate(organic[:k]):
            if not isinstance(item, dict):
                raise MalformedResponse(f"{self.base_url}: organic_results[{i}] is not an object")
            results.append(
                SearchResult(
                    rank=i + 1,
                    title=str(item.get("title", "")),
                    url=str(item.get("link", "")),
                    snippet=str(item.get("snippet", "")),
                )
            )
        return results


def join_snippets(snippets: Iterable[str]) -> str:
    """Join snippets into one text block, in order, with single spaces.

    Each snippet is trimmed, and blank ones are dropped so the output never
    carries doubled spaces.
    """
    return " ".join(s for s in map(str.strip, snippets) if s)


def aggregate_snippets(results: Sequence[SearchResult], k: int) -> str:
    """Join the snippets of the first k results into one text block, by
    ``join_snippets``. Deterministic in the result order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return join_snippets(r.snippet for r in results[:k])
