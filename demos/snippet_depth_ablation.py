"""How many search snippets are enough
=======================================

Seeds a cache with five-deep search provenance where the first result
is boilerplate and the class signal starts at rank two, then retrains
at several depths. Depth one misses the signal; deeper settings find it.
"""

import tempfile

from taxotext import (
    Dataset,
    EntityRecord,
    Source,
    TaskId,
    TextCache,
    TrainConfig,
    ablate_snippets,
    load_sic_scheme,
)
from taxotext.acquire import snippet_text
from taxotext.taxonomy import Split

scheme = load_sic_scheme()
DEPTH = 5

records = []
n = 0
for cid in ("10", "20", "58"):
    label = scheme.by_id[cid]
    for split, count in ((Split.TRAIN, 10), (Split.TEST, 5)):
        for _ in range(count):
            n += 1
            records.append(
                EntityRecord(f"e{n:04d}", f"Entity {n:04d}", cid + "10", label, split)
            )
dataset = Dataset(scheme=scheme, records=tuple(records))

with tempfile.TemporaryDirectory() as root, TextCache(root) as cache:
    for r in dataset.records:
        provenance = [
            {"rank": 1, "title": "t1", "url": "u1",
             "snippet": "company profile and contact details"}
        ]
        marker = f"sector{r.label.id}"
        for rank in range(2, DEPTH + 1):
            provenance.append(
                {"rank": rank, "title": f"t{rank}", "url": f"u{rank}",
                 "snippet": f"{marker} operations and {marker} services"}
            )
        entry = snippet_text(r.entity_id, provenance, DEPTH, "2024-01-01T00:00:00Z")
        key = TextCache.key(TaskId.SIC, r.entity_id, Source.GSNIP, {"k": DEPTH})
        cache.store(key, entry, TaskId.SIC)

    points = ablate_snippets(
        dataset,
        cache,
        ks=(1, 2, 3, 5),
        cached_depth=DEPTH,
        train_config=TrainConfig(epochs=10, batch_size=8, warmup_steps=0),
    )

print("k   macro_p  macro_r  macro_f1")
for pt in points:
    r = pt.report
    print(f"{pt.k:<3} {r.macro_p:<8.3f} {r.macro_r:<8.3f} {r.macro_f1:.3f}")
