"""Snippet-depth ablation: retrain the native backend at several depths.

Reads each ``gsnip<k>`` through ``TextAcquirer.resolve``, which cuts it from
the one cached search per entity (no re-fetch), then, for each k, trains on
the train split's features at that depth and evaluates on the test split.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .acquire import TextAcquirer, parse_source_signature
from .cache import TextCache
from .corpus import build_instances, instance_text, warn_empty
from .errors import InsufficientSnippets
from .features import PrefixFeaturizer
from .metrics import MacroReport, confusion, macro_report, write_csv
from .softmax import TrainConfig, predict_instances, train
from .taxonomy import Dataset, Split

logger = logging.getLogger(__name__)

# The benchmark's tracer (perfbench/spans.py) wraps this name on this module,
# and tests/test_trace_points.py holds that it resolves here. No depth builds
# instances any more, so only this line reads it.
_TRACED_NOT_CALLED = (build_instances,)

DEFAULT_KS = (1, 5, 10, 15, 20)


@dataclass(frozen=True)
class AblationPoint:
    k: int
    report: MacroReport


def default_ks(cached_depth: int) -> tuple[int, ...]:
    """The DEFAULT_KS entries that a cache filled at cached_depth covers."""
    return tuple(k for k in DEFAULT_KS if k <= cached_depth)


def snippet_depths(ks: Sequence[int] | None, cached_depth: int) -> list[int]:
    """The snippet counts to score, ascending and without repeats.

    ks defaults to ``default_ks(cached_depth)``. An empty or non-positive
    list is a ValueError; a k beyond cached_depth, the depth the cache was
    filled at, is InsufficientSnippets.
    """
    ks = sorted(set(int(k) for k in (default_ks(cached_depth) if ks is None else ks)))
    if not ks or ks[0] < 1:
        raise ValueError(f"ks must be positive snippet counts, got {ks}")
    if ks[-1] > cached_depth:
        raise InsufficientSnippets(
            f"cache holds snippets at depth {cached_depth}, but k={ks[-1]} was requested"
        )
    return ks


def _vectors(prefixes: dict[str, tuple[PrefixFeaturizer, tuple[int, ...]]], records, depth: int):
    """The records' vectors at one depth (an index into each entity's ends), made as they are read."""
    return (
        hashed.vector_at(ends[depth])
        for hashed, ends in (prefixes[r.entity_id] for r in records)
    )


def _score_depth(scheme, train_records, test_records, golds, prefixes, depth, config) -> MacroReport:
    """Train on one depth's vectors and score its test predictions.

    The records stand in for instances: train reads their gold labels and
    predict their ids, and the vectors stand in for their texts. The model
    and predictions live only in this call, so they are freed before the
    next depth trains.
    """
    model = train(train_records, scheme, config, features=_vectors(prefixes, train_records, depth))
    preds = predict_instances(model, test_records, features=_vectors(prefixes, test_records, depth))
    return macro_report(confusion(golds, [p.label for p in preds], scheme))


def ablate_snippets(
    dataset: Dataset,
    cache: TextCache,
    ks: Sequence[int] | None = None,
    *,
    cached_depth: int,
    train_config: TrainConfig | None = None,
) -> list[AblationPoint]:
    """Evaluate test macro scores while varying the snippet count.

    Every ``gsnip<k>`` is read from the ``gsnip<cached_depth>`` entries, the
    depth the cache was filled at, in one ``TextAcquirer.resolve`` pass that
    loads each entity's entry once; ``snippet_depths`` checks and orders ks
    first, so points come back in ascending k.

    Each entity's instance text at the deepest k is hashed once, in that
    pass: a shallower ``gsnip<k>`` instance text is a prefix of it that ends
    before the space joining the next snippet (or with the name's newline),
    so its features are cut from that one hash pass (``PrefixFeaturizer``).
    Of each depth only the length of its lowercased instance text is kept,
    and no text outlives the pass; a depth's empty descriptions are those
    that end where the name's line does. Memory is one ``PrefixFeaturizer``
    and len(ks) + 1 offsets per entity, and one depth's model at a time.
    """
    ks = snippet_depths(ks, cached_depth)
    scheme = dataset.scheme
    specs = [parse_source_signature(f"gsnip{k}", scheme.task_id, top_k=cached_depth) for k in ks]
    scored = [r for r in dataset.records if r.split in (Split.TRAIN, Split.TEST)]
    # entity id -> its deepest text hashed, and where its name line and each depth's text end
    prefixes: dict[str, tuple[PrefixFeaturizer, tuple[int, ...]]] = {}
    for record, descriptions in TextAcquirer(scheme.task_id, cache).resolve(scored, *specs):
        if descriptions[0] is None:
            raise InsufficientSnippets(
                f"no cached snippets at depth {cached_depth} for entity {record.entity_id!r}"
            )
        hashed = PrefixFeaturizer(instance_text(record.name, descriptions[-1]))
        ends = tuple(len(instance_text(record.name, d).lower()) for d in ("", *descriptions))
        prefixes[record.entity_id] = (hashed, ends)

    train_records, test_records = (
        sorted(dataset.by_split(split), key=lambda r: r.entity_id) for split in (Split.TRAIN, Split.TEST)
    )
    golds = [r.label for r in test_records]
    points = []
    # Deepest first, as its model and step buffers are the largest: the
    # shallower depths then fit in the memory it frees, where in ascending
    # order the allocator's heap grows past each depth in turn.
    for depth, k in reversed(list(enumerate(ks, 1))):
        for records in (train_records, test_records):
            offsets = (prefixes[r.entity_id][1] for r in records)
            warn_empty(sum(o[depth] == o[0] for o in offsets), len(records))
        report = _score_depth(scheme, train_records, test_records, golds, prefixes, depth, train_config)
        points.append(AblationPoint(k=k, report=report))
        logger.info("ablation k=%d: macro F1 %.3f", k, report.macro_f1)
    return points[::-1]


def write_ablation_csv(points: Sequence[AblationPoint], path: str | Path) -> Path:
    rows = ((p.k, p.report.macro_p, p.report.macro_r, p.report.macro_f1) for p in points)
    return write_csv(path, "k,macro_p,macro_r,macro_f1", rows)
