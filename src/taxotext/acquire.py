"""Cache-fronted acquisition of entity descriptions from all sources."""

from __future__ import annotations

import itertools
import logging
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterator

from .cache import TextCache
from .config import PipelineConfig
from .errors import CacheUnavailable, TaxotextError
from .search import SearchClient, join_snippets
from .summarize import PROMPT_TEMPLATES, LlmClient, generate_summary
from .taxonomy import EntityRecord, TaskId
from .texts import AcquiredText, Source, utcnow

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SourceSpec:
    """What to acquire: a provider source plus the parameters that key its
    cache slot, or a combination of such sources, which is never cached.
    A ``gsnip`` with a ``depth`` reads the first ``depth`` results of its entry."""

    source: Source
    params: dict = field(default_factory=dict)
    components: tuple["SourceSpec", ...] = ()
    depth: int | None = None

    @property
    def signature(self) -> str:
        """Short human-readable tag, e.g. ``gsnip10`` or ``gsnip10+gptsum``."""
        if self.source is Source.COMBINED:
            return "+".join(c.signature for c in self.components)
        if self.source is Source.GSNIP:
            return f"gsnip{self.params['k'] if self.depth is None else self.depth}"
        return self.source.value.lower()

    @property
    def leaves(self) -> tuple["SourceSpec", ...]:
        """The provider sources this spec reads: its components, or itself."""
        return self.components or (self,)

    @property
    def stored(self) -> "SourceSpec":
        """The provider reply this leaf reads, whole: the leaf without its depth."""
        return replace(self, depth=None)


# The provider that serves each provider source: it names the client that
# fetches the source and the worker pool ("lane") that the fetch runs in.
LANES = {Source.GSNIP: "search", Source.GPTSUM: "llm", Source.LLAMASUM: "llm"}
_GSNIP_SIG = re.compile(r"gsnip(\d*)$")
# The order of a combined spec's components, and so of the texts its
# description joins with a blank line: snippets first, then model summaries.
_COMBINE_ORDER = {Source.GSNIP: 0, Source.GPTSUM: 1, Source.LLAMASUM: 2}
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
    """Parse a signature like ``gsnip10``, ``gptsum``, or ``gsnip10+llamasum``.

    Every ``gsnip<k>`` is keyed at top_k, the one search per entity, and cut
    to its first k results; a k beyond top_k is a ValueError.
    """
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
            if not 1 <= k <= top_k:
                raise ValueError(f"snippet count must be from 1 to top_k ({top_k}) in {part!r}")
            specs.append(SourceSpec(Source.GSNIP, {"k": top_k}, depth=k if k < top_k else None))
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
        text=join_snippets(p["snippet"] for p in kept),
        retrieved_at=retrieved_at,
        provenance=kept,
    )


def _provider_sources(specs) -> list[SourceSpec]:
    """The distinct provider replies that specs read, one per cache key, in reading order."""
    stored: list[SourceSpec] = []
    for spec in specs:
        stored += [leaf.stored for leaf in spec.leaves if leaf.stored not in stored]
    return stored


def _description(spec: SourceSpec, entries: list[AcquiredText | None]) -> str | None:
    """A spec's description from its leaves' cache entries, in leaf order; None
    when one is missing. A leaf with a depth joins its entry's first ``depth``
    snippets; a combined spec joins its leaves' non-empty texts with a blank
    line, so a refused summary (``""``) leaves no separator behind."""
    if None in entries:
        return None
    texts = (
        entry.text if leaf.depth is None
        else join_snippets(p["snippet"] for p in entry.provenance[:leaf.depth])
        for leaf, entry in zip(spec.leaves, entries)
    )
    return "\n\n".join(text for text in texts if text)


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
        """Return one record's provider reply for a provider source, fetching
        and caching on a miss; ``resolve`` gives every spec's description.

        Cached entries are immutable; pass refresh=True to re-fetch and
        overwrite. A failed fetch and an unreadable cache entry each count
        as one failure.
        """
        if spec.components:
            raise ValueError(
                f"acquire fetches one provider source; pass {spec.signature!r} to acquire_all"
            )
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
        """Return one record's provider reply for a provider source from the
        cache only, None when absent; a ``gsnip<k>`` with a depth reads its
        whole entry, as ``acquire`` does. ``resolve`` gives descriptions."""
        if spec.components:
            raise ValueError(
                f"acquire_cached reads one provider source; pass {spec.signature!r} to resolve"
            )
        key = TextCache.key(self.task_id, record.entity_id, spec.source, spec.params)
        return self.cache.load(key)

    def resolve(
        self, records: list[EntityRecord], *specs: SourceSpec
    ) -> Iterator[tuple[EntityRecord, tuple[str | None, ...]]]:
        """Yield ``(record, texts)`` in entity-id order, from the cache only,
        with one description per spec: None when an entry it reads is missing,
        and ``""`` for a refused summary.

        Each distinct cache entry is loaded once per record, however many
        specs read it (every ``gsnip<k>`` reads the one search), and no
        provenance outlives its record.
        """
        stored = _provider_sources(specs)
        picks = [[stored.index(leaf.stored) for leaf in spec.leaves] for spec in specs]
        for record in sorted(records, key=lambda r: r.entity_id):
            entries = [self.acquire_cached(record, leaf) for leaf in stored]
            texts = (_description(spec, [entries[i] for i in pick]) for spec, pick in zip(specs, picks))
            yield record, tuple(texts)

    def acquire_all(
        self,
        records: list[EntityRecord],
        *specs: SourceSpec,
        refresh: bool = False,
    ) -> dict[tuple[str, str], TaxotextError]:
        """Fetch into the cache what the specs read for many records, and
        return the failures, keyed by ``(entity_id, provider source)``: the
        signature of the provider reply that failed, ``gsnip10`` for the
        search of a ``gsnip3`` or ``gsnip10+gptsum`` at top_k 10.

        Each (record, provider source) pair that the specs read is fetched
        once, by the lane of its provider: one lane for search and one for
        the LLM, so both providers work at the same time. Each lane's
        workers, ``max_parallel`` of them or one per job if there are fewer
        jobs, pull jobs from one shared sequence in record order. Each
        provider reply is stored as its own cache entry the moment it
        arrives and is then dropped, so memory does not grow with the number
        of records; the texts are read back with ``resolve``. Specs that
        read one cache entry (``gsnip1`` and ``gsnip3`` both read the
        ``top_k`` search) fetch it once.

        A failure (a ``TaxotextError``) is logged by the worker that caught it
        and returned; the other components of a combined spec are still
        fetched and cached. ``CacheUnavailable`` is raised instead, since
        every later load and store would wait and fail too: like any other
        exception in a worker, or an interrupt, it stops every worker after
        its fetch in flight.
        """
        leaves = _provider_sources(specs)
        failed: dict[tuple[str, str], TaxotextError] = {}
        stop = threading.Event()

        def work(jobs, lock):
            try:
                while not stop.is_set():
                    with lock:
                        job = next(jobs, None)
                    if job is None:
                        return
                    record, leaf = job
                    try:
                        self.acquire(record, leaf, refresh=refresh)
                    except CacheUnavailable:
                        raise
                    except TaxotextError as exc:
                        logger.warning(
                            "acquisition of %s failed for %s: %s", leaf.signature, record.entity_id, exc
                        )
                        failed[record.entity_id, leaf.signature] = exc
            except BaseException:
                stop.set()
                raise

        pools, workers = [], []
        try:
            for lane in dict.fromkeys(LANES[leaf.source] for leaf in leaves):
                lane_leaves = [leaf for leaf in leaves if LANES[leaf.source] == lane]
                n_workers = min(self.max_parallel, len(records) * len(lane_leaves))
                if not n_workers:
                    continue
                pool = ThreadPoolExecutor(n_workers, thread_name_prefix=f"acquire-{lane}")
                pools.append(pool)
                # product binds this lane's leaves now and yields lazily
                jobs, lock = itertools.product(records, lane_leaves), threading.Lock()
                workers += [pool.submit(work, jobs, lock) for _ in range(n_workers)]
            for worker in workers:
                worker.result()
        finally:
            stop.set()
            for pool in pools:
                pool.shutdown()

        return failed

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
