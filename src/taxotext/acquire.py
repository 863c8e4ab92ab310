"""Cache-fronted acquisition of entity descriptions from all sources."""

from __future__ import annotations

import logging
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .cache import TextCache
from .errors import TaxotextError
from .search import SearchClient, aggregate_snippets
from .summarize import PROMPT_TEMPLATES, LlmClient, _utcnow, generate_summary
from .taxonomy import EntityRecord, TaskId
from .texts import _COMBINE_ORDER, AcquiredText, Source, combine_texts

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SourceSpec:
    """What to acquire: a source plus the parameters that key its cache slot."""

    source: Source
    params: dict = field(default_factory=dict)
    components: tuple["SourceSpec", ...] = ()

    def key_params(self) -> dict:
        if self.source is Source.COMBINED:
            return {
                "components": [
                    {"source": c.source.value, "params": c.key_params()}
                    for c in self.components
                ]
            }
        return dict(self.params)

    @property
    def signature(self) -> str:
        """Short human-readable tag, e.g. ``gsnip10`` or ``gsnip10+gptsum``."""
        if self.source is Source.COMBINED:
            return "+".join(c.signature for c in self.components)
        if self.source is Source.GSNIP:
            return f"gsnip{self.params['k']}"
        return {Source.GPTSUM: "gptsum", Source.LLAMASUM: "llamasum"}[self.source]


_GSNIP_SIG = re.compile(r"gsnip(\d*)$")


def parse_source_signature(
    signature: str,
    task_id: TaskId,
    *,
    top_k: int = 10,
    gpt_model: str = "gpt-4o-mini-2024-07-18",
    llama_model: str = "llama-3.1-8b-instruct",
    summary_max_tokens: int = 400,
) -> SourceSpec:
    """Parse a signature like ``gsnip10``, ``gptsum``, or ``gsnip10+llamasum``."""
    parts = [p.strip() for p in signature.split("+") if p.strip()]
    if not parts:
        raise ValueError(f"empty source signature: {signature!r}")
    task_suffix = "SIC" if task_id is TaskId.SIC else "HC"
    specs = []
    for part in parts:
        m = _GSNIP_SIG.match(part)
        if m:
            k = int(m.group(1)) if m.group(1) else top_k
            if k < 1:
                raise ValueError(f"snippet count must be >= 1 in {part!r}")
            specs.append(SourceSpec(Source.GSNIP, {"k": k}))
        elif part == "gptsum":
            specs.append(
                SourceSpec(
                    Source.GPTSUM,
                    {
                        "template_id": f"GPT_{task_suffix}",
                        "model_id": gpt_model,
                        "max_tokens": summary_max_tokens,
                    },
                )
            )
        elif part == "llamasum":
            specs.append(
                SourceSpec(
                    Source.LLAMASUM,
                    {
                        "template_id": f"LLAMA_{task_suffix}",
                        "model_id": llama_model,
                        "max_tokens": summary_max_tokens,
                    },
                )
            )
        else:
            raise ValueError(f"unknown source {part!r} in signature {signature!r}")
    if len(specs) == 1:
        return specs[0]
    sources = [s.source for s in specs]
    if len(set(sources)) != len(sources):
        raise ValueError(f"signature {signature!r} repeats a source")
    # canonical component order (snippets first) so the same combination
    # always maps to one cache key and one signature, however it was written
    specs.sort(key=lambda s: _COMBINE_ORDER[s.source])
    return SourceSpec(Source.COMBINED, components=tuple(specs))


class TextAcquirer:
    """Fetches entity texts through the cache, hitting providers on misses."""

    def __init__(
        self,
        task_id: TaskId,
        cache: TextCache,
        *,
        search_client: SearchClient | None = None,
        llm_client: LlmClient | None = None,
        max_parallel: int = 4,
    ):
        self.task_id = task_id
        self.cache = cache
        self.search_client = search_client
        self.llm_client = llm_client
        self.max_parallel = max(1, max_parallel)
        self.stats = {"fetched": 0, "hits": 0, "refusals": 0, "failures": 0}
        self._stats_lock = threading.Lock()

    def _count(self, name: str, n: int = 1) -> None:
        with self._stats_lock:
            self.stats[name] += n

    def acquire(self, record: EntityRecord, spec: SourceSpec, *, refresh: bool = False) -> AcquiredText:
        """Return the text for one record, fetching and caching on a miss.

        Cached entries are immutable; pass refresh=True to re-fetch and
        overwrite.
        """
        key = TextCache.key(self.task_id, record.entity_id, spec.source, spec.key_params())
        if not refresh:
            hit = self.cache.load(key)
            if hit is not None:
                self._count("hits")
                return hit
        try:
            text = self._fetch(record, spec, refresh)
        except TaxotextError:
            self._count("failures")
            raise
        self.cache.store(key, text, self.task_id)
        self._count("fetched")
        if text.refusal:
            self._count("refusals")
        return text

    def acquire_cached(self, record: EntityRecord, spec: SourceSpec) -> AcquiredText | None:
        """Resolve a record's text from the cache only; None when absent.

        Combined sources fall back to combining cached components when the
        combined entry itself was never stored.
        """
        key = TextCache.key(self.task_id, record.entity_id, spec.source, spec.key_params())
        hit = self.cache.load(key)
        if hit is not None:
            return hit
        if spec.source is Source.COMBINED:
            parts = [self.acquire_cached(record, c) for c in spec.components]
            if all(p is not None for p in parts):
                return combine_texts([p for p in parts if p is not None])
        return None

    def acquire_all(
        self, records: list[EntityRecord], spec: SourceSpec, *, refresh: bool = False
    ) -> tuple[dict[str, AcquiredText], dict[str, Exception]]:
        """Acquire texts for many records with a bounded worker pool.

        The cache index is written once, when the pool has finished.
        """
        results: dict[str, AcquiredText] = {}
        errors: dict[str, Exception] = {}
        with self.cache.batch(), ThreadPoolExecutor(max_workers=self.max_parallel) as pool:
            futures = {
                pool.submit(self.acquire, record, spec, refresh=refresh): record
                for record in records
            }
            for future, record in futures.items():
                try:
                    results[record.entity_id] = future.result()
                except TaxotextError as exc:
                    logger.warning("acquisition failed for %s: %s", record.entity_id, exc)
                    errors[record.entity_id] = exc
        return results, errors

    def _fetch(self, record: EntityRecord, spec: SourceSpec, refresh: bool) -> AcquiredText:
        if spec.source is Source.GSNIP:
            if self.search_client is None:
                raise ValueError("no search client configured for GSNIP acquisition")
            k = spec.params["k"]
            results = self.search_client.search_entity(record.name, k)
            return AcquiredText(
                entity_id=record.entity_id,
                source=Source.GSNIP,
                params={"k": k},
                text=aggregate_snippets(results, k),
                retrieved_at=_utcnow(),
                provenance=[
                    {"rank": r.rank, "title": r.title, "url": r.url, "snippet": r.snippet}
                    for r in results
                ],
            )
        if spec.source in (Source.GPTSUM, Source.LLAMASUM):
            if self.llm_client is None:
                raise ValueError("no LLM client configured for summary acquisition")
            template = PROMPT_TEMPLATES[spec.params["template_id"]]
            return generate_summary(
                record.entity_id,
                record.name,
                template,
                self.llm_client,
                model_id=spec.params["model_id"],
                max_tokens=spec.params["max_tokens"],
            )
        if spec.source is Source.COMBINED:
            parts = [self.acquire(record, c, refresh=refresh) for c in spec.components]
            return combine_texts(parts)
        raise ValueError(f"unsupported source {spec.source!r}")
