from __future__ import annotations

import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxotext.errors import (
    BadRatios,
    DuplicateEntity,
    LabelMismatch,
    MalformedCode,
    ParseError,
    UnknownCategory,
    UnknownCode,
)
from taxotext.hashing import fingerprint
from taxotext.taxonomy import (
    DEFAULT_RATIOS,
    Dataset,
    EntityRecord,
    Split,
    load_dataset,
    lookup_healthcare_category,
    normalize_sic,
    split_dataset,
)

from conftest import make_records, write_entities_csv

SIC_IDS = {
    "01", "10", "13", "20", "27", "28", "34", "35", "36", "37", "38", "49",
    "50", "51", "58", "59", "60", "61", "62", "63", "65", "67", "70", "73",
    "79", "80", "87",
}


def test_sic_scheme_ids(sic_scheme):
    assert set(sic_scheme.ids) == SIC_IDS
    assert len(sic_scheme.categories) == 27
    # ids come back in file order and index_of inverts that order
    for i, cid in enumerate(sic_scheme.ids):
        assert sic_scheme.index_of(cid) == i


def test_healthcare_scheme_shape(hc_scheme):
    assert len(hc_scheme.categories) == 17
    assert len(hc_scheme.code_map) >= 17
    assert {label.id for label in hc_scheme.code_map.values()} == set(hc_scheme.ids)


@pytest.mark.parametrize(
    "raw,expect",
    [("0116", "01"), ("2011", "20"), ("7372", "73"), ("8711", "87"), ("6021", "60")],
)
def test_normalize_sic_prefixes(sic_scheme, raw, expect):
    assert normalize_sic(raw, sic_scheme).id == expect


@pytest.mark.parametrize("raw", ["116", "20111", "20a1", "", "  "])
def test_normalize_sic_rejects_malformed(sic_scheme, raw):
    with pytest.raises(MalformedCode):
        normalize_sic(raw, sic_scheme)


def test_normalize_sic_unknown_prefix(sic_scheme):
    with pytest.raises(UnknownCategory):
        normalize_sic("9911", sic_scheme)


def test_healthcare_lookup(hc_scheme):
    for code in ("207RC0000X", "207K00000X", "2081S0010X"):
        assert lookup_healthcare_category(code, hc_scheme).id == "allopathic-osteopathic-physicians"
    with pytest.raises(UnknownCode):
        lookup_healthcare_category("ZZZZZZZZZZ", hc_scheme)
    with pytest.raises(MalformedCode):
        lookup_healthcare_category("207RC0000", hc_scheme)  # nine chars


def test_load_dataset_roundtrip(tmp_path, sic_scheme):
    records = make_records(sic_scheme, [("20", 2), ("73", 1)])
    path = write_entities_csv(tmp_path / "ents.csv", records)
    ds = load_dataset(path, sic_scheme)
    assert [r.entity_id for r in ds.records] == ["e0001", "e0002", "e0003"]
    assert ds.records[0].label.id == "20"
    assert all(r.split is None for r in ds.records)


def test_load_dataset_explicit_splits(tmp_path, sic_scheme):
    path = tmp_path / "ents.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["entity_id", "name", "raw_code", "split"])
        w.writerow(["a", "Alpha", "2011", "train"])
        w.writerow(["b", "Beta", "2011", "test"])
    ds = load_dataset(path, sic_scheme)
    assert ds.records[0].split is Split.TRAIN
    assert ds.records[1].split is Split.TEST
    # explicit splits survive split_dataset untouched
    assert split_dataset(ds) is ds


@pytest.mark.parametrize(
    "rows,error",
    [
        ([], ParseError),  # header only, then empty file case below
        ([["a", "Alpha", "2011", "nope"]], ParseError),
        ([["a", "Alpha", "2011", ""], ["a", "Alpha2", "2011", ""]], DuplicateEntity),
        ([["", "Alpha", "2011", ""]], ParseError),
        ([["a", "", "2011", ""]], ParseError),
        ([["a", "Alpha", "2011", "train"], ["b", "Beta", "2011", ""]], ParseError),
        ([["a", "Alpha", "20"]], ParseError),  # short row
    ],
)
def test_load_dataset_rejects(tmp_path, sic_scheme, rows, error):
    if not rows:
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_dataset(path, sic_scheme)
        return
    path = tmp_path / "bad.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["entity_id", "name", "raw_code", "split"])
        w.writerows(rows)
    with pytest.raises(error):
        load_dataset(path, sic_scheme)


def test_load_dataset_bad_header(tmp_path, sic_scheme):
    path = tmp_path / "bad.csv"
    path.write_text("entity_id,name,raw_code\na,Alpha,2011\n")
    with pytest.raises(ParseError) as err:
        load_dataset(path, sic_scheme)
    assert err.value.row == 1


def test_load_dataset_label_column(tmp_path, sic_scheme):
    path = tmp_path / "ents.csv"
    path.write_text(
        "entity_id,name,raw_code,split,label\n"
        "a,Alpha,2011,,20\n"
    )
    ds = load_dataset(path, sic_scheme)
    assert ds.records[0].label.id == "20"

    path.write_text(
        "entity_id,name,raw_code,split,label\n"
        "a,Alpha,2011,,73\n"
    )
    with pytest.raises(LabelMismatch):
        load_dataset(path, sic_scheme)


def _sized_dataset(scheme, n):
    records = make_records(scheme, [("20", n)])
    return Dataset(scheme=scheme, records=tuple(records))


def test_split_sizes_published_example(sic_scheme):
    ds = split_dataset(_sized_dataset(sic_scheme, 3400))
    counts = ds.split_counts()
    assert counts["train"] == 1700
    assert counts["dev"] == 567
    assert counts["test"] == 1133


def test_split_sizes_divisible(sic_scheme):
    counts = split_dataset(_sized_dataset(sic_scheme, 5400)).split_counts()
    assert counts["train"] == 2700
    assert counts["dev"] == 900
    assert counts["test"] == 1800


def test_split_deterministic_and_seed_sensitive(sic_scheme):
    ds = _sized_dataset(sic_scheme, 120)
    a = split_dataset(ds, seed=7)
    b = split_dataset(ds, seed=7)
    c = split_dataset(ds, seed=8)
    key = lambda d: [(r.entity_id, r.split) for r in d.records]
    assert key(a) == key(b)
    assert key(a) != key(c)


def test_split_bad_ratios(sic_scheme):
    ds = _sized_dataset(sic_scheme, 10)
    with pytest.raises(BadRatios):
        split_dataset(ds, ratios=(0.5, 0.5, 0.5))
    with pytest.raises(BadRatios):
        split_dataset(ds, ratios=(-0.1, 0.6, 0.5))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=900), seed=st.integers(min_value=0, max_value=2**31))
def test_split_partition_property(sic_scheme, n, seed):
    ds = split_dataset(_sized_dataset(sic_scheme, n), DEFAULT_RATIOS, seed=seed)
    counts = ds.split_counts()
    assert sum(counts.values()) == n
    assert all(r.split is not None for r in ds.records)
    # each bucket is within one of its ideal share
    for split, ratio in zip(("train", "dev", "test"), DEFAULT_RATIOS):
        assert abs(counts.get(split, 0) - n * ratio) < 1.0 + 1e-9


def test_dataset_fingerprint_hashes_the_canonical_record_list(sic_scheme):
    records = (
        EntityRecord("e1", "Café Zürich \u201cGmbH\u201d", "5812", sic_scheme.by_id["58"], Split.TRAIN),
        EntityRecord("e2", 'Quote "and" backslash \\', "2010", sic_scheme.by_id["20"]),
    )
    for dataset in (Dataset(sic_scheme, records), Dataset(sic_scheme, ())):
        rows = [
            [r.entity_id, r.name, r.raw_code, r.label.id, r.split.value if r.split else None]
            for r in dataset.records
        ]
        expected = fingerprint({"task": sic_scheme.task_id.value, "records": rows})
        assert dataset.fingerprint == expected
