from __future__ import annotations

import tracemalloc
import weakref

import pytest

from taxotext import ablation
from taxotext.ablation import AblationPoint, ablate_snippets, default_ks, write_ablation_csv
from taxotext.acquire import snippet_text
from taxotext.cache import TextCache
from taxotext.corpus import build_instances
from taxotext.errors import InsufficientSnippets
from taxotext.metrics import MacroReport, confusion, macro_report
from taxotext.search import SearchResult, aggregate_snippets
from taxotext.softmax import TrainConfig, predict_instances, train
from taxotext.taxonomy import Dataset, EntityRecord, Split
from taxotext.texts import AcquiredText, Source

CIDS = ("20", "58", "73")
DEPTH = 5
CONFIG = TrainConfig(epochs=10, batch_size=8, warmup_steps=0, seed=0)


def _dataset(scheme, n_train_per=8, n_test_per=4, with_dev=False):
    # names deliberately carry no class signal; only snippets do
    records = []
    n = 0
    for cid in CIDS:
        label = scheme.by_id[cid]
        for split, count in ((Split.TRAIN, n_train_per), (Split.TEST, n_test_per)):
            for _ in range(count):
                n += 1
                records.append(
                    EntityRecord(f"e{n:04d}", f"Entity {n:04d}", cid + "10", label, split)
                )
    if with_dev:
        n += 1
        records.append(
            EntityRecord(f"e{n:04d}", f"Entity {n:04d}", "2010", scheme.by_id["20"], Split.DEV)
        )
    return Dataset(scheme=scheme, records=tuple(records))


def _seed_cache(cache, dataset, skip=()):
    """Store depth-5 snippet sets where rank 1 is generic filler and the
    class marker only appears from rank 2 down."""
    for r in dataset.records:
        if r.entity_id in skip or r.split is Split.DEV:
            continue
        provenance = [
            {"rank": 1, "title": "t1", "url": "u1", "snippet": "generic company overview"}
        ]
        marker = f"classmarker{r.label.id}"
        for rank in range(2, DEPTH + 1):
            provenance.append(
                {
                    "rank": rank,
                    "title": f"t{rank}",
                    "url": f"u{rank}",
                    "snippet": f"{marker} {marker} services",
                }
            )
        results = [SearchResult(p["rank"], p["title"], p["url"], p["snippet"]) for p in provenance]
        entry = AcquiredText(
            entity_id=r.entity_id,
            source=Source.GSNIP,
            params={"k": DEPTH},
            text=aggregate_snippets(results, DEPTH),
            retrieved_at="2024-01-01T00:00:00Z",
            provenance=provenance,
        )
        key = TextCache.key(dataset.scheme.task_id, r.entity_id, Source.GSNIP, {"k": DEPTH})
        cache.store(key, entry, dataset.scheme.task_id)


def test_deeper_snippets_recover_the_signal(tmp_path, sic_scheme):
    dataset = _dataset(sic_scheme)
    cache = TextCache(tmp_path)
    _seed_cache(cache, dataset)
    points = ablate_snippets(dataset, cache, ks=(1, 5), cached_depth=DEPTH, train_config=CONFIG)
    f1 = {p.k: p.report.macro_f1 for p in points}
    assert f1[5] >= f1[1]
    # at k=5 the marker tokens make the three classes separable; macro
    # averages over every category in the scheme, present or not
    assert f1[5] == pytest.approx(3 / len(sic_scheme.ids))
    assert f1[1] < f1[5]


def test_reports_equal_a_per_depth_retrain_that_featurizes_each_text(tmp_path, sic_scheme):
    dataset = _dataset(sic_scheme)
    cache = TextCache(tmp_path)
    _seed_cache(cache, dataset)
    ks = (1, 2, 3, 5)
    points = ablate_snippets(dataset, cache, ks=ks, cached_depth=DEPTH, train_config=CONFIG)

    entries = {
        r.entity_id: cache.load(
            TextCache.key(sic_scheme.task_id, r.entity_id, Source.GSNIP, {"k": DEPTH})
        )
        for r in dataset.records
    }
    train_records = dataset.by_split(Split.TRAIN)
    test_records = sorted(dataset.by_split(Split.TEST), key=lambda r: r.entity_id)
    for point, k in zip(points, ks, strict=True):
        texts = {
            eid: snippet_text(eid, entry.provenance, k, entry.retrieved_at).text
            for eid, entry in entries.items()
        }
        signature = f"gsnip{k}"
        model = train(build_instances(train_records, texts, signature).instances, sic_scheme, CONFIG)
        preds = predict_instances(model, build_instances(test_records, texts, signature).instances)
        golds = [r.label for r in test_records]
        expected = macro_report(confusion(golds, [p.label for p in preds], sic_scheme))
        assert point.k == k
        assert _fields(point.report) == _fields(expected)


def test_each_scored_entity_loads_its_cache_entry_once(tmp_path, sic_scheme, monkeypatch):
    dataset = _dataset(sic_scheme, n_train_per=3, n_test_per=1, with_dev=True)
    cache = TextCache(tmp_path)
    _seed_cache(cache, dataset)
    loaded = []
    load = TextCache.load
    monkeypatch.setattr(TextCache, "load", lambda self, key: loaded.append(key) or load(self, key))
    ablate_snippets(dataset, cache, ks=(1, 2, 3, 5), cached_depth=DEPTH, train_config=CONFIG)
    scored = [r for r in dataset.records if r.split is not Split.DEV]
    assert sorted(loaded) == sorted(
        TextCache.key(sic_scheme.task_id, r.entity_id, Source.GSNIP, {"k": DEPTH}) for r in scored
    )


def _fields(report: MacroReport):
    return (
        report.per_class,
        report.macro_p,
        report.macro_r,
        report.macro_f1,
        report.confusion.counts.tolist(),
    )


def test_each_depth_model_is_freed_before_the_next_depth_trains(tmp_path, sic_scheme, monkeypatch):
    dataset = _dataset(sic_scheme)
    cache = TextCache(tmp_path)
    _seed_cache(cache, dataset)
    models: list[weakref.ref] = []
    alive_at_call = []
    real_train = ablation.train

    def tracking_train(*args, **kwargs):
        alive_at_call.append(sum(ref() is not None for ref in models))
        model = real_train(*args, **kwargs)
        models.append(weakref.ref(model))
        return model

    monkeypatch.setattr(ablation, "train", tracking_train)
    points = ablate_snippets(dataset, cache, ks=(1, 3, 5), cached_depth=DEPTH, train_config=CONFIG)
    assert [p.k for p in points] == [1, 3, 5]
    assert alive_at_call == [0, 0, 0]
    assert all(ref() is None for ref in models)


def test_more_depths_add_offsets_and_reports_not_texts(tmp_path, sic_scheme):
    # Each entity's deepest text is hashed once and each depth keeps one offset
    # into it, so scoring every depth up to DEPTH may exceed scoring DEPTH alone
    # by a report per extra depth (about 11 KB for SIC; 16 KiB is allowed, with
    # the depth's transients) and an 8-byte offset slot per entity and depth,
    # doubled. A description map and instances per depth (about 500 B per entity
    # and depth here) exceed it.
    dataset = _dataset(sic_scheme, n_train_per=60, n_test_per=15)
    cache = TextCache(tmp_path)
    _seed_cache(cache, dataset)
    config = TrainConfig(epochs=1, batch_size=8, warmup_steps=0, seed=0)

    def traced_peak(ks):
        tracemalloc.start()
        try:
            ablate_snippets(dataset, cache, ks=ks, cached_depth=DEPTH, train_config=config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ablate_snippets(dataset, cache, ks=(1, DEPTH), cached_depth=DEPTH, train_config=config)
    deepest = traced_peak((DEPTH,))
    every = traced_peak(tuple(range(1, DEPTH + 1)))
    extra_depths = DEPTH - 1
    bound = extra_depths * (16 * 1024 + 16 * len(dataset.records))
    assert every - deepest <= bound, (every - deepest, bound)


def test_points_come_back_sorted_and_deduped(tmp_path, sic_scheme):
    dataset = _dataset(sic_scheme, n_train_per=3, n_test_per=1)
    cache = TextCache(tmp_path)
    _seed_cache(cache, dataset)
    points = ablate_snippets(dataset, cache, ks=(5, 1, 5, 3), cached_depth=DEPTH, train_config=CONFIG)
    assert [p.k for p in points] == [1, 3, 5]
    assert all(isinstance(p, AblationPoint) for p in points)
    assert all(isinstance(p.report, MacroReport) for p in points)


def test_dev_records_do_not_need_cache_entries(tmp_path, sic_scheme):
    dataset = _dataset(sic_scheme, n_train_per=3, n_test_per=1, with_dev=True)
    cache = TextCache(tmp_path)
    _seed_cache(cache, dataset)
    points = ablate_snippets(dataset, cache, ks=(1,), cached_depth=DEPTH, train_config=CONFIG)
    assert len(points) == 1


def test_depth_beyond_cache_is_rejected(tmp_path, sic_scheme):
    dataset = _dataset(sic_scheme, n_train_per=3, n_test_per=1)
    cache = TextCache(tmp_path)
    _seed_cache(cache, dataset)
    with pytest.raises(InsufficientSnippets):
        ablate_snippets(dataset, cache, ks=(1, 10), cached_depth=DEPTH, train_config=CONFIG)


def test_missing_cache_entry_is_rejected(tmp_path, sic_scheme):
    dataset = _dataset(sic_scheme, n_train_per=3, n_test_per=1)
    cache = TextCache(tmp_path)
    _seed_cache(cache, dataset, skip={"e0001", "e0005"})
    with pytest.raises(InsufficientSnippets) as exc_info:
        ablate_snippets(dataset, cache, ks=(1,), cached_depth=DEPTH, train_config=CONFIG)
    # the first missing entity in record order is named
    assert "e0001" in str(exc_info.value)
    assert "e0005" not in str(exc_info.value)


def test_default_ks_are_the_depths_the_cache_covers(tmp_path, sic_scheme):
    assert default_ks(1) == (1,)
    assert default_ks(12) == (1, 5, 10)
    assert default_ks(20) == (1, 5, 10, 15, 20)
    dataset = _dataset(sic_scheme, n_train_per=3, n_test_per=1)
    cache = TextCache(tmp_path)
    _seed_cache(cache, dataset)
    points = ablate_snippets(dataset, cache, cached_depth=DEPTH, train_config=CONFIG)
    assert [p.k for p in points] == [1, 5]


def test_bad_ks_rejected(tmp_path, sic_scheme):
    dataset = _dataset(sic_scheme, n_train_per=3, n_test_per=1)
    cache = TextCache(tmp_path)
    with pytest.raises(ValueError):
        ablate_snippets(dataset, cache, ks=(), cached_depth=DEPTH)
    with pytest.raises(ValueError):
        ablate_snippets(dataset, cache, ks=(0, 1), cached_depth=DEPTH)


def test_write_ablation_csv(tmp_path, sic_scheme):
    golds = [sic_scheme.by_id["20"]]
    report = macro_report(confusion(golds, golds, sic_scheme))
    path = write_ablation_csv([AblationPoint(k=1, report=report)], tmp_path / "ablation.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "k,macro_p,macro_r,macro_f1"
    assert lines[1].startswith("1,")
    assert len(lines) == 2
