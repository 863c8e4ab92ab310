"""Cache-fronted acquisition of entity descriptions from all sources."""

from __future__ import annotations

import logging
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .cache import TextCache
from .config import PipelineConfig
from .errors import TaxotextError
from .search import SearchClient, SearchResult, aggregate_snippets
from .summarize import PROMPT_TEMPLATES, LlmClient, generate_summary
from .taxonomy import EntityRecord, TaskId
from .texts import _COMBINE_ORDER, AcquiredText, Source, combine_texts, utcnow

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SourceSpec:
    """What to acquire: a provider source plus the parameters that key its
    cache slot, or a combination of such sources, which is never cached."""

    source: Source
    params: dict = field(default_factory=dict)
    components: tuple["SourceSpec", ...] = ()

    @property
    def signature(self) -> str:
        """Short human-readable tag, e.g. ``gsnip10`` or ``gsnip10+gptsum``."""
        if self.source is Source.COMBINED:
            return "+".join(c.signature for c in self.components)
        if self.source is Source.GSNIP:
            return f"gsnip{self.params['k']}"
        return self.source.value.lower()

    @property
    def leaves(self) -> tuple["SourceSpec", ...]:
        """The provider sources this spec reads: its components, or itself."""
        return self.components or (self,)


# The worker pool ("lane") that fetches each provider source: one per provider client.
_LANES = {Source.GSNIP: "search", Source.GPTSUM: "llm", Source.LLAMASUM: "llm"}
_GSNIP_SIG = re.compile(r"gsnip(\d*)$")
_DEFAULTS = PipelineConfig()


def parse_source_signature(
    signature: str,
    task_id: TaskId,
    *,
    top_k: int = _DEFAULTS.top_k,
    gpt_model: str = _DEFAULTS.gpt_model,
    llama_model: str = _DEFAULTS.llama_model,
    summary_max_tokens: int = _DEFAULTS.summary_max_tokens,
) -> SourceSpec:
    """Parse a signature like ``gsnip10``, ``gptsum``, or ``gsnip10+llamasum``."""
    parts = [p.strip() for p in signature.split("+") if p.strip()]
    if not parts:
        raise ValueError(f"empty source signature: {signature!r}")
    task_suffix = "SIC" if task_id is TaskId.SIC else "HC"
    # summary signature (the source's lower-cased name) -> (source, template family, model)
    summaries = {
        "gptsum": (Source.GPTSUM, "GPT", gpt_model),
        "llamasum": (Source.LLAMASUM, "LLAMA", llama_model),
    }
    specs = []
    for part in parts:
        m = _GSNIP_SIG.match(part)
        if m:
            k = int(m.group(1)) if m.group(1) else top_k
            if k < 1:
                raise ValueError(f"snippet count must be >= 1 in {part!r}")
            specs.append(SourceSpec(Source.GSNIP, {"k": k}))
        elif part in summaries:
            source, family, model = summaries[part]
            params = {
                "template_id": f"{family}_{task_suffix}",
                "model_id": model,
                "max_tokens": summary_max_tokens,
            }
            specs.append(SourceSpec(source, params))
        else:
            raise ValueError(f"unknown source {part!r} in signature {signature!r}")
    if len(specs) == 1:
        return specs[0]
    sources = [s.source for s in specs]
    if len(set(sources)) != len(sources):
        raise ValueError(f"signature {signature!r} repeats a source")
    # canonical component order (snippets first) so the same combination
    # always has one signature, however it was written
    specs.sort(key=lambda s: _COMBINE_ORDER[s.source])
    return SourceSpec(Source.COMBINED, components=tuple(specs))


def snippet_text(entity_id: str, provenance: list[dict], k: int, retrieved_at: str) -> AcquiredText:
    """The ``gsnip<k>`` text from the first k of an entity's search results, each
    given as a dict of a ``SearchResult``'s fields, as cache entries hold them."""
    kept = provenance[:k]
    return AcquiredText(
        entity_id=entity_id,
        source=Source.GSNIP,
        params={"k": k},
        text=aggregate_snippets([SearchResult(**p) for p in kept], k),
        retrieved_at=retrieved_at,
        provenance=kept,
    )


class TextAcquirer:
    """Fetches entity texts through the cache, hitting providers on misses.

    ``max_parallel`` bounds the requests in flight to each provider, so a
    call that reads both search snippets and model summaries may have twice
    that many in flight in all.
    """

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
        overwrite. Only provider replies are cached: a combined text is
        rebuilt from its components' acquisitions on every call, made as
        ``acquire_all`` makes them, so every component is fetched even when
        another fails. A failed fetch and an unreadable cache entry each
        count as one failure.
        """
        if spec.components:
            results, errors = self.acquire_all([record], spec, refresh=refresh)
            if record.entity_id in errors:
                raise errors[record.entity_id]
            return results[record.entity_id]
        key = TextCache.key(self.task_id, record.entity_id, spec.source, spec.params)
        try:
            hit = None if refresh else self.cache.load(key)
            if hit is None:
                text = self._fetch(record, spec)
        except TaxotextError:
            self._count("failures")
            raise
        if hit is not None:
            self._count("hits")
            return hit
        self._count("fetched")
        if text.refusal:
            self._count("refusals")
        self.cache.store(key, text, self.task_id)
        return text

    def acquire_cached(self, record: EntityRecord, spec: SourceSpec) -> AcquiredText | None:
        """Resolve a record's text from the cache only; None when absent.

        A combined source is None unless every component is cached.
        """
        if spec.components:
            parts = [self.acquire_cached(record, c) for c in spec.components]
            return None if any(p is None for p in parts) else combine_texts(parts)
        return self.cache.load(
            TextCache.key(self.task_id, record.entity_id, spec.source, spec.params)
        )

    def cached_texts(
        self, records: list[EntityRecord], spec: SourceSpec
    ) -> dict[str, AcquiredText]:
        """Texts resolved from the cache only, by entity id; misses are left out."""
        texts = {}
        for record in records:
            hit = self.acquire_cached(record, spec)
            if hit is not None:
                texts[record.entity_id] = hit
        return texts

    def acquire_all(
        self,
        records: list[EntityRecord],
        spec: SourceSpec,
        *more_specs: SourceSpec,
        refresh: bool = False,
    ) -> tuple[dict, dict[object, Exception]]:
        """Acquire the texts of many records for one or more specs.

        Each (record, provider source) pair that the specs read is fetched
        once, by the lane of its provider: a pool of ``max_parallel``
        workers, one pool for search and one for the LLM, so both providers
        work at the same time. Each provider reply is stored as its own cache
        entry the moment it arrives, and a combined text is joined once all
        of its components have landed. A failure (a ``TaxotextError``) is
        logged and returned in the error map; the other components of a
        combined spec are still fetched and cached, and the entity's error is
        that of its first failed component, in combination order.

        With one spec, both maps are keyed by entity id; with several, by
        ``(entity_id, signature)``.
        """
        specs = (spec, *more_specs)
        leaves: list[SourceSpec] = []
        for s in specs:
            leaves += [leaf for leaf in s.leaves if leaf not in leaves]
        lanes = {
            lane: ThreadPoolExecutor(self.max_parallel, thread_name_prefix=f"acquire-{lane}")
            for lane in {_LANES[leaf.source] for leaf in leaves}
        }
        results: dict = {}
        errors: dict[object, Exception] = {}
        try:
            fetches = [
                [
                    lanes[_LANES[leaf.source]].submit(self.acquire, record, leaf, refresh=refresh)
                    for leaf in leaves
                ]
                for record in records
            ]
            for record, fetched in zip(records, fetches):
                for s in specs:
                    key = record.entity_id if not more_specs else (record.entity_id, s.signature)
                    try:
                        parts = [fetched[leaves.index(leaf)].result() for leaf in s.leaves]
                    except TaxotextError as exc:
                        logger.warning(
                            "acquisition of %s failed for %s: %s",
                            s.signature, record.entity_id, exc,
                        )
                        errors[key] = exc
                    else:
                        results[key] = combine_texts(parts) if s.components else parts[0]
        finally:
            for lane in lanes.values():
                lane.shutdown(cancel_futures=True)
        return results, errors

    def _fetch(self, record: EntityRecord, spec: SourceSpec) -> AcquiredText:
        if spec.source is Source.GSNIP:
            if self.search_client is None:
                raise ValueError("no search client configured for GSNIP acquisition")
            k = spec.params["k"]
            results = self.search_client.search_entity(record.name, k)
            provenance = [
                {"rank": r.rank, "title": r.title, "url": r.url, "snippet": r.snippet}
                for r in results
            ]
            return snippet_text(record.entity_id, provenance, k, utcnow())
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
        raise ValueError(f"unsupported source {spec.source!r}")
