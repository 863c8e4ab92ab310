"""Snippet-depth ablation: retrain the native backend at several depths.

Re-aggregates snippet text from cached search provenance (no re-fetch),
rebuilds the corpus, trains, and evaluates on the test split for each k.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .acquire import SourceSpec, TextAcquirer, snippet_text
from .cache import TextCache
from .corpus import build_instances
from .errors import InsufficientSnippets
from .features import FeatureVector, PrefixFeaturizer
from .metrics import MacroReport, confusion, macro_report, write_csv
from .softmax import TrainConfig, predict_instances, train
from .taxonomy import Dataset, Split
from .texts import Source

logger = logging.getLogger(__name__)

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


def _prefix_features(hashed: dict[str, PrefixFeaturizer], instances) -> list[FeatureVector]:
    return [hashed[inst.entity_id].vector(inst.input_text) for inst in instances]


def ablate_snippets(
    dataset: Dataset,
    cache: TextCache,
    ks: Sequence[int] | None = None,
    *,
    cached_depth: int,
    train_config: TrainConfig | None = None,
) -> list[AblationPoint]:
    """Evaluate test macro scores while varying the snippet count.

    Every k is cut from the ``gsnip<cached_depth>`` entries, the depth the
    cache was filled at; ``snippet_depths`` checks and orders ks first, so
    points come back in ascending k.

    Each entity's text is hashed once, at the deepest k: a shallower
    ``gsnip<k>`` instance text is a prefix of it that ends before the space
    joining the next snippet (or with the name's newline), so its features
    are cut from that one hash pass (``PrefixFeaturizer``).
    """
    ks = snippet_depths(ks, cached_depth)
    scored = [r for r in dataset.records if r.split in (Split.TRAIN, Split.TEST)]
    spec = SourceSpec(Source.GSNIP, {"k": cached_depth})
    full = TextAcquirer(dataset.scheme.task_id, cache).cached_texts(scored, spec)
    missing = [r.entity_id for r in scored if r.entity_id not in full]
    if missing:
        raise InsufficientSnippets(
            f"no cached snippets at depth {cached_depth} for entity {missing[0]!r}"
        )

    train_records = dataset.by_split(Split.TRAIN)
    test_records = sorted(dataset.by_split(Split.TEST), key=lambda r: r.entity_id)
    hashed: dict[str, PrefixFeaturizer] = {}
    points = []
    for k in reversed(ks):  # deepest first: its texts are the ones hashed
        texts = {
            entity_id: snippet_text(entity_id, entry.provenance, k, entry.retrieved_at)
            for entity_id, entry in full.items()
        }
        signature = f"gsnip{k}"
        train_build = build_instances(train_records, texts, signature)
        test_build = build_instances(test_records, texts, signature)
        if k == ks[-1]:
            hashed = {
                inst.entity_id: PrefixFeaturizer(inst.input_text)
                for inst in (*train_build.instances, *test_build.instances)
            }
        # A k's vectors are cut only while it is scored.
        model = train(
            train_build.instances, dataset.scheme, train_config,
            features=_prefix_features(hashed, train_build.instances),
        )
        preds = predict_instances(
            model, test_build.instances, features=_prefix_features(hashed, test_build.instances)
        )
        matrix = confusion([r.label for r in test_records], [p.label for p in preds], dataset.scheme)
        points.append(AblationPoint(k=k, report=macro_report(matrix)))
        logger.info("ablation k=%d: macro F1 %.3f", k, points[-1].report.macro_f1)
    return points[::-1]


def write_ablation_csv(points: Sequence[AblationPoint], path: str | Path) -> Path:
    rows = ((p.k, p.report.macro_p, p.report.macro_r, p.report.macro_f1) for p in points)
    return write_csv(path, "k,macro_p,macro_r,macro_f1", rows)
