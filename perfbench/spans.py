"""Span tracing from outside the program, and the per-layer arithmetic.

Wrappers are patched onto the names callers actually look up (for example
``taxotext.ablation.train`` as well as ``taxotext.cli.train``), so nothing
inside ``src/`` changes. Spans are kept in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
from dataclasses import dataclass

LAYERS = (
    "cli", "http", "search", "summarize", "cache", "acquire", "corpus",
    "features", "softmax", "metrics", "ablation", "manifest", "taxonomy",
)
COMMANDS = ("acquire", "build", "train", "predict", "eval", "sweep", "ablate")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    nested: bool  # inside another span of the same name on this thread

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans with per-thread parent stacks.

    A span opened on a thread with no open span takes the innermost open
    span of the thread that created the tracer as its parent, so work in
    acquisition worker threads hangs under the enclosing ``acquire_all``.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: list[Span] = self._stack()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            span = Span(
                id=len(self.spans), name=name, start=time.perf_counter(), end=float("nan"),
                parent=parent.id if parent else None, thread=threading.get_ident(),
                nested=any(s.name == name for s in stack),
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, hook=None):
        """fn wrapped in a span; hook(tracer, args, result) runs after it closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced


# --- hooks: counts taken at the layer boundary ------------------------------


def _count_refusal(tracer, args, result):
    tracer.count("summarize.refusals", int(result.refusal))


def _count_hit(tracer, args, result):
    tracer.count("cache.load_hits", int(result is not None))


def _count_build(tracer, args, result):
    tracer.count("corpus.instances", len(result.instances))
    tracer.count("corpus.empty", result.empty_count)


def _count_train(tracer, args, result):
    import numpy as np

    from taxotext.softmax import TrainConfig

    instances = args[0]
    config = (args[2] if len(args) > 2 else None) or TrainConfig()
    tracer.count("softmax.steps", config.epochs * -(-len(instances) // config.batch_size))
    tracer.count("softmax.model_cols", int(np.count_nonzero(np.any(result.W != 0.0, axis=0))))


def _count_predicted(tracer, args, result):
    tracer.count("softmax.predicted", len(result))


# (module, attribute path, span name, hook): one entry per name a caller
# looks up, so a function imported into two modules is patched in both.
PATCHES = (
    ("taxotext.search", "request_json", "http.request_json", None),
    ("taxotext.summarize", "request_json", "http.request_json", None),
    ("taxotext.search", "SearchClient.search_entity", "search.search_entity", None),
    ("taxotext.acquire", "generate_summary", "summarize.generate_summary", _count_refusal),
    ("taxotext.cache", "TextCache.store", "cache.store", None),
    ("taxotext.cache", "TextCache.load", "cache.load", _count_hit),
    ("taxotext.acquire", "TextAcquirer.acquire_all", "acquire.acquire_all", None),
    ("taxotext.acquire", "TextAcquirer.acquire", "acquire.acquire", None),
    ("taxotext.acquire", "TextAcquirer.acquire_cached", "acquire.acquire_cached", None),
    ("taxotext.cli", "build_instances", "corpus.build_instances", _count_build),
    ("taxotext.ablation", "build_instances", "corpus.build_instances", _count_build),
    ("taxotext.cli", "emit_tabular", "corpus.emit_tabular", None),
    ("taxotext.cli", "emit_chat_finetune", "corpus.emit_chat_finetune", None),
    ("taxotext.cli", "load_tabular", "corpus.load_tabular", None),
    ("taxotext.softmax", "featurize", "features.featurize", None),
    ("taxotext.cli", "train", "softmax.train", _count_train),
    ("taxotext.ablation", "train", "softmax.train", _count_train),
    ("taxotext.cli", "predict_instances", "softmax.predict_instances", _count_predicted),
    ("taxotext.ablation", "predict_instances", "softmax.predict_instances", _count_predicted),
    ("taxotext.cli", "save_model", "softmax.save_model", None),
    ("taxotext.cli", "load_model", "softmax.load_model", None),
    ("taxotext.cli", "confusion", "metrics.confusion", None),
    ("taxotext.cli", "macro_report", "metrics.macro_report", None),
    ("taxotext.cli", "threshold_sweep", "metrics.threshold_sweep", None),
    ("taxotext.cli", "write_report", "metrics.write_report", None),
    ("taxotext.cli", "write_class_scores_csv", "metrics.write_class_scores_csv", None),
    ("taxotext.cli", "write_sweep_csv", "metrics.write_sweep_csv", None),
    ("taxotext.ablation", "confusion", "metrics.confusion", None),
    ("taxotext.ablation", "macro_report", "metrics.macro_report", None),
    ("taxotext.cli", "ablate_snippets", "ablation.ablate_snippets", None),
    ("taxotext.cli", "write_ablation_csv", "ablation.write_ablation_csv", None),
    ("taxotext.cli", "save_manifest", "manifest.save_manifest", None),
    ("taxotext.cli", "load_manifest", "manifest.load_manifest", None),
    ("taxotext.cli", "load_scheme", "taxonomy.load_scheme", None),
    ("taxotext.cli", "load_dataset", "taxonomy.load_dataset", None),
    ("taxotext.cli", "split_dataset", "taxonomy.split_dataset", None),
)


def install(tracer: Tracer) -> None:
    """Patch every entry of PATCHES; the program is left traced for the process."""
    for module_name, path, span_name, hook in PATCHES:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        setattr(owner, attr, tracer.wrap(span_name, getattr(owner, attr), hook))


# --- arithmetic --------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap (worker threads), so their intervals are merged
    before subtracting, and clipped to the parent's interval.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, cur_start, cur_end = 0.0, None, None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            start, end = max(c.start, s.start), min(c.end, s.end)
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = s.duration - covered
    return out


def _pct_ms(durations: list[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def layer_table(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, busy seconds (outermost calls only), self seconds."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[s.id]
        if not s.nested:
            row["busy_s"] += s.duration
    return table


def layer_metrics(
    spans: list[Span],
    counters: dict[str, float],
    *,
    command_walls: dict[str, float],
    server: dict[str, int],
    acquired: dict[str, int],
    chain_s: float,
    untraced_chain_s: float,
) -> dict[str, float]:
    """The benchmark's per-layer metrics from one traced chain."""
    table = layer_table(spans)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def busy(*names):
        return sum(table.get(n, {}).get("busy_s", 0.0) for n in names)

    def self_s(*names):
        return sum(table.get(n, {}).get("self_s", 0.0) for n in names)

    def durations(name):
        return [s.duration for s in spans if s.name == name]

    def names(layer):
        return sorted(n for n in table if n.split(".", 1)[0] == layer)

    # Busy times leave out the mock servers' fixed latency: that is waiting
    # on the provider, not work of the client's layers (see http.wait_s).
    search_wait, llm_wait = server.get("search_wait_s", 0.0), server.get("llm_wait_s", 0.0)
    store, http = durations("cache.store"), durations("http.request_json")
    n_feat, n_pred = calls("features.featurize"), counters.get("softmax.predicted", 0)
    m = {
        "cache.store_calls": calls("cache.store"),
        "cache.store_busy_s": busy("cache.store"),
        "cache.store_p50_ms": _pct_ms(store, 50),
        "cache.store_p99_ms": _pct_ms(store, 99),
        "cache.load_calls": calls("cache.load"),
        "cache.load_busy_s": busy("cache.load"),
        "cache.hit_ratio": counters.get("cache.load_hits", 0) / max(1, calls("cache.load")),
        "http.calls": calls("http.request_json"),
        "http.busy_s": busy("http.request_json") - search_wait - llm_wait,
        "http.wait_s": search_wait + llm_wait,
        "http.p50_ms": _pct_ms(http, 50),
        "http.p99_ms": _pct_ms(http, 99),
        "http.retries": server.get("requests", 0) - calls("http.request_json"),
        "http.peak_in_flight": server.get("peak_in_flight", 0),
        "search.calls": calls("search.search_entity"),
        "search.busy_s": busy("search.search_entity") - search_wait,
        "summarize.calls": calls("summarize.generate_summary"),
        "summarize.busy_s": busy("summarize.generate_summary") - llm_wait,
        "summarize.refusals": counters.get("summarize.refusals", 0),
        "acquire.fetched": acquired.get("fetched", 0),
        "acquire.hits": acquired.get("hits", 0),
        "acquire.refusals": acquired.get("refusals", 0),
        "acquire.failures": acquired.get("failures", 0),
        "acquire.cached_busy_s": busy("acquire.acquire_cached"),
        "corpus.build_busy_s": busy("corpus.build_instances"),
        "corpus.emit_busy_s": busy("corpus.emit_tabular", "corpus.emit_chat_finetune"),
        "corpus.load_busy_s": busy("corpus.load_tabular"),
        "corpus.instances": counters.get("corpus.instances", 0),
        "corpus.empty": counters.get("corpus.empty", 0),
        "features.calls": n_feat,
        "features.busy_s": busy("features.featurize"),
        "features.us_per_call": busy("features.featurize") / max(1, n_feat) * 1e6,
        "softmax.train_busy_s": busy("softmax.train"),
        "softmax.train_step_s": self_s("softmax.train"),
        "softmax.steps": counters.get("softmax.steps", 0),
        "softmax.model_cols": counters.get("softmax.model_cols", 0),
        "softmax.predict_busy_s": busy("softmax.predict_instances"),
        "softmax.predict_us_per_instance": busy("softmax.predict_instances") / max(1, n_pred) * 1e6,
        "softmax.save_busy_s": busy("softmax.save_model"),
        "softmax.load_busy_s": busy("softmax.load_model"),
        "metrics.busy_s": busy(*names("metrics")),
        "manifest.saves": calls("manifest.save_manifest"),
        "manifest.busy_s": busy(*names("manifest")),
        "taxonomy.load_busy_s": busy(*names("taxonomy")),
        "ablation.busy_s": self_s("ablation.ablate_snippets"),
    }
    for command in COMMANDS:
        m[f"cli.{command}_s"] = command_walls.get(command, 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s(*names(layer))
    m["trace.chain_s"] = chain_s
    m["trace.overhead_s"] = chain_s - untraced_chain_s
    m["trace.spans"] = len(spans)
    return m
