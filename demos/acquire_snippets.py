"""Snippet acquisition against a local fixture server
======================================================

Runs the search client against the bundled mock server, aggregates
top-k snippets per entity, and demonstrates that repeat acquisition is
served from the cache without further requests.
"""

import tempfile

from taxotext import (
    EntityRecord,
    SearchClient,
    Source,
    SourceSpec,
    TaskId,
    TextAcquirer,
    TextCache,
    load_sic_scheme,
)
from taxotext.http import RetryPolicy
from taxotext.mockserver import MockSearchServer

scheme = load_sic_scheme()
records = [
    EntityRecord("e001", "Gold Hills Mining, Ltd.", "1011", scheme.by_id["10"]),
    EntityRecord("e002", "Harbor Grill", "5812", scheme.by_id["58"]),
]

fixtures = {
    "Gold Hills Mining, Ltd.": [
        "Gold Hills Mining Ltd is a mineral exploration company.",
        "The company operates three drill programs.",
        "Quarterly assay results were reported.",
    ],
    "Harbor Grill": [
        "Harbor Grill is a waterfront seafood restaurant.",
        "The menu changes with the daily catch.",
    ],
}

with MockSearchServer(fixtures, api_key="demo-key") as server, \
        tempfile.TemporaryDirectory() as cache_dir, \
        SearchClient(server.base_url, api_key="demo-key", policy=RetryPolicy()) as client, \
        TextCache(cache_dir) as cache:
    acquirer = TextAcquirer(TaskId.SIC, cache, search_client=client)

    spec = SourceSpec(Source.GSNIP, {"k": 3})
    errors = acquirer.acquire_all(records, spec)
    assert not errors
    # the texts are read back from the cache, which acquire_all filled
    for record, (text,) in acquirer.resolve(records, spec):
        print(f"{record.entity_id} ({spec.signature}): {text[:70]}...")
    print(f"requests so far: {server.request_count}")

    # second pass: all cache hits, request count unchanged
    acquirer.acquire_all(records, spec)
    print(f"after repeat acquisition: {server.request_count} "
          f"(hits={acquirer.stats['hits']})")
