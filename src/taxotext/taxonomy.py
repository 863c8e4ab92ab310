"""Taxonomy schemes, entity records, and dataset loading/splitting.

Two classification tasks are supported: two-digit SIC industry categories
and NUCC healthcare provider taxonomy groupings.  Category tables ship as
CSV data files so the code sets can grow without code changes.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from contextlib import closing
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

from .errors import (
    BadRatios,
    DuplicateEntity,
    LabelMismatch,
    MalformedCode,
    ParseError,
    SchemeMismatch,
    UnknownCategory,
    UnknownCode,
)
from .files import package_text, read_lines
from .hashing import canonical_json, fingerprint

DEFAULT_RATIOS = (0.5, 1.0 / 6.0, 1.0 / 3.0)


class TaskId(Enum):
    SIC = "SIC"
    HEALTHCARE = "HEALTHCARE"


class Split(Enum):
    TRAIN = "train"
    DEV = "dev"
    TEST = "test"


@dataclass(frozen=True)
class CategoryLabel:
    """One category of a scheme: a stable id plus a human-readable name."""

    id: str
    display_name: str


@dataclass(frozen=True)
class TaxonomyScheme:
    """An ordered, fixed category set for one task.

    ``code_map`` maps raw codes to categories for table-driven tasks
    (healthcare); SIC labels are derived by prefix instead.
    """

    task_id: TaskId
    categories: tuple[CategoryLabel, ...]
    code_map: dict[str, CategoryLabel]

    def __post_init__(self):
        ids = [c.id for c in self.categories]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate category ids in scheme")
        if self.task_id is TaskId.SIC:
            for cid in ids:
                if not (len(cid) == 2 and cid.isascii() and cid.isdigit()):
                    raise ValueError(f"SIC category id must be two ASCII digits: {cid!r}")

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.categories)

    @property
    def by_id(self) -> dict[str, CategoryLabel]:
        return {c.id: c for c in self.categories}

    def index_of(self, category_id: str) -> int:
        try:
            return self.ids.index(category_id)
        except ValueError:
            raise UnknownCategory(f"category {category_id!r} not in scheme") from None

    @property
    def fingerprint(self) -> str:
        return fingerprint({"task": self.task_id.value, "ids": list(self.ids)})

    def label_for_code(self, raw_code: str) -> CategoryLabel:
        """Map a raw code to its category under this scheme's rules."""
        if self.task_id is TaskId.SIC:
            return normalize_sic(raw_code, self)
        return lookup_healthcare_category(raw_code, self)


def normalize_sic(code: str, scheme: TaxonomyScheme) -> CategoryLabel:
    """Reduce a four-digit SIC code to its two-digit category.

    The first two digits name the major group; the scheme must contain it.
    """
    if scheme.task_id is not TaskId.SIC:
        raise SchemeMismatch("normalize_sic requires a SIC scheme")
    if not (len(code) == 4 and code.isascii() and code.isdigit()):
        raise MalformedCode(f"SIC code must be exactly four ASCII digits: {code!r}")
    label = scheme.by_id.get(code[:2])
    if label is None:
        raise UnknownCategory(f"no category for SIC prefix {code[:2]!r}")
    return label


def lookup_healthcare_category(code: str, scheme: TaxonomyScheme) -> CategoryLabel:
    """Map a ten-character NUCC taxonomy code to its provider grouping."""
    if scheme.task_id is not TaskId.HEALTHCARE:
        raise SchemeMismatch("lookup_healthcare_category requires a healthcare scheme")
    if not (len(code) == 10 and code.isascii() and code.isalnum()):
        raise MalformedCode(
            f"healthcare taxonomy code must be ten alphanumeric characters: {code!r}"
        )
    label = scheme.code_map.get(code)
    if label is None:
        raise UnknownCode(f"taxonomy code {code!r} not in the bundled code table")
    return label


def load_sic_scheme() -> TaxonomyScheme:
    """The 27-category SIC scheme bundled with the package."""
    rows = list(csv.DictReader(package_text("sic_categories.csv").splitlines()))
    cats = tuple(CategoryLabel(r["category_id"], r["display_name"]) for r in rows)
    return TaxonomyScheme(TaskId.SIC, cats, {})


def load_healthcare_scheme() -> TaxonomyScheme:
    """The 17-category healthcare scheme plus its code table."""
    rows = list(csv.DictReader(package_text("healthcare_categories.csv").splitlines()))
    cats = tuple(CategoryLabel(r["category_id"], r["display_name"]) for r in rows)
    by_id = {c.id: c for c in cats}
    code_map: dict[str, CategoryLabel] = {}
    for r in csv.DictReader(package_text("healthcare_codes.csv").splitlines()):
        code_map[r["code"]] = by_id[r["category_id"]]
    return TaxonomyScheme(TaskId.HEALTHCARE, cats, code_map)


def load_scheme(task_id: TaskId) -> TaxonomyScheme:
    if task_id is TaskId.SIC:
        return load_sic_scheme()
    return load_healthcare_scheme()


@dataclass(frozen=True)
class EntityRecord:
    """One entity to classify: id, surface name, raw code, derived label."""

    entity_id: str
    name: str
    raw_code: str
    label: CategoryLabel
    split: Split | None = None

    @property
    def gold(self) -> CategoryLabel | None:
        """The label a model may learn from: train and dev records carry theirs, test records none."""
        return self.label if self.split in (Split.TRAIN, Split.DEV) else None


@dataclass(frozen=True)
class Dataset:
    scheme: TaxonomyScheme
    records: tuple[EntityRecord, ...]

    def by_split(self, split: Split) -> tuple[EntityRecord, ...]:
        return tuple(r for r in self.records if r.split is split)

    def split_counts(self) -> dict[str, int]:
        counts = {s.value: 0 for s in Split}
        for r in self.records:
            if r.split is not None:
                counts[r.split.value] += 1
        return counts

    @property
    def fingerprint(self) -> str:
        """``hashing.fingerprint({"task": ..., "records": rows})``, with one row
        ``[entity_id, name, raw_code, label id, split or None]`` per record.

        The canonical JSON is fed to the hash one row at a time, so no copy
        of the dataset is made; the digest is the same.
        """
        digest = hashlib.sha256(b'{"records":[')
        for i, r in enumerate(self.records):
            row = [r.entity_id, r.name, r.raw_code, r.label.id, r.split.value if r.split else None]
            digest.update(("," * (i > 0) + canonical_json(row)).encode("utf-8"))
        digest.update(f'],"task":{canonical_json(self.scheme.task_id.value)}}}'.encode("utf-8"))
        return digest.hexdigest()


_HEADER = ["entity_id", "name", "raw_code", "split"]
_SPLITS = {s.value: s for s in Split}


def load_dataset(path: str | Path, scheme: TaxonomyScheme) -> Dataset:
    """Read an entity CSV (``entity_id,name,raw_code,split``) into a Dataset.

    The split column is all-or-none: either every row names a split or no
    row does.  An optional trailing ``label`` column is cross-checked
    against the label derived from ``raw_code``.
    """
    with closing(read_lines(path, newline="")) as lines:
        reader = csv.reader(lines)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", row=1) from None
        has_label_col = header == _HEADER + ["label"]
        if not has_label_col and header != _HEADER:
            raise ParseError(f"bad header {header!r}", row=1)

        records: list[EntityRecord] = []
        seen: set[str] = set()
        wants_split: bool | None = None
        for row in reader:
            rownum = reader.line_num
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", row=rownum)
            entity_id, name, raw_code, split_text = row[:4]
            if not entity_id:
                raise ParseError("empty entity_id", row=rownum)
            if not name:
                raise ParseError("empty name", row=rownum)
            if entity_id in seen:
                raise DuplicateEntity(f"duplicate entity_id {entity_id!r} at row {rownum}")
            seen.add(entity_id)

            if split_text and split_text not in _SPLITS:
                raise ParseError(f"bad split value {split_text!r}", row=rownum)
            has_split = bool(split_text)
            if wants_split is None:
                wants_split = has_split
            elif has_split != wants_split:
                raise ParseError(
                    "rows mix explicit and missing split values", row=rownum
                )

            label = scheme.label_for_code(raw_code)
            if has_label_col and row[4] != label.id:
                raise LabelMismatch(
                    f"row {rownum}: label column {row[4]!r} != derived {label.id!r}"
                )
            records.append(
                EntityRecord(
                    entity_id=entity_id,
                    name=name,
                    raw_code=raw_code,
                    label=label,
                    split=_SPLITS[split_text] if has_split else None,
                )
            )
    return Dataset(scheme=scheme, records=tuple(records))


def _apportion(n: int, ratios: tuple[float, float, float]) -> list[int]:
    # Floor each share, then hand leftover slots to the largest fractional
    # remainders; ties favor the earlier split.
    shares = [n * r for r in ratios]
    counts = [math.floor(s) for s in shares]
    leftover = n - sum(counts)
    order = sorted(range(len(ratios)), key=lambda i: (-(shares[i] - counts[i]), i))
    for i in order[:leftover]:
        counts[i] += 1
    return counts


def valid_ratios(ratios) -> bool:
    """Three non-negative train/dev/test fractions that sum to 1 (within 1e-9)."""
    return len(ratios) == 3 and all(r >= 0 for r in ratios) and abs(sum(ratios) - 1.0) <= 1e-9


def split_dataset(
    dataset: Dataset,
    ratios: tuple[float, float, float] = DEFAULT_RATIOS,
    seed: int = 0,
) -> Dataset:
    """Assign train/dev/test splits by a seeded shuffle and fixed ratios.

    Records that already carry splits (from the file) are returned
    unchanged; explicit splits take precedence over ratios.
    """
    if any(r.split is not None for r in dataset.records):
        return dataset
    if not valid_ratios(ratios):
        raise BadRatios(f"ratios must be three non-negative numbers summing to 1: {ratios!r}")

    ordered = sorted(dataset.records, key=lambda r: r.entity_id)
    random.Random(seed).shuffle(ordered)
    n_train, n_dev, _ = _apportion(len(ordered), tuple(ratios))

    out = []
    for i, record in enumerate(ordered):
        if i < n_train:
            split = Split.TRAIN
        elif i < n_train + n_dev:
            split = Split.DEV
        else:
            split = Split.TEST
        out.append(replace(record, split=split))
    return Dataset(scheme=dataset.scheme, records=tuple(out))
