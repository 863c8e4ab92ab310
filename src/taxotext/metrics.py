"""Confusion matrices, macro-averaged scores, and confidence threshold sweeps."""

from __future__ import annotations

import json
from dataclasses import asdict, astuple, dataclass, fields
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import LengthMismatch, MissingConfidence, ParseError, SchemeMismatch, UnknownGold
from .files import write_file
from .softmax import Prediction
from .taxonomy import CategoryLabel, TaxonomyScheme

DEFAULT_THRESHOLDS = (0.60, 0.65, 0.70, 0.75, 0.80, 0.85)

# The id of a prediction outside the scheme (an unparseable response);
# remote exports it as INVALID.
INVALID_COLUMN = "__invalid__"


@dataclass(eq=False)
class ConfusionMatrix:
    """Counts with one row per gold class and one extra prediction column.

    The extra column collects predictions outside the scheme (unparseable
    responses); they count against recall but never inflate a class's
    precision denominator.
    """

    scheme: TaxonomyScheme
    counts: np.ndarray  # shape (C, C + 1), int64


def confusion(
    golds: Sequence[CategoryLabel],
    preds: Sequence[CategoryLabel],
    scheme: TaxonomyScheme,
) -> ConfusionMatrix:
    if len(golds) != len(preds):
        raise LengthMismatch(f"{len(golds)} golds vs {len(preds)} predictions")
    index = {cid: i for i, cid in enumerate(scheme.ids)}
    n = len(scheme.ids)
    counts = np.zeros((n, n + 1), dtype=np.int64)
    for gold, pred in zip(golds, preds):
        row = index.get(gold.id)
        if row is None:
            raise UnknownGold(f"gold label {gold.id!r} not in scheme")
        counts[row, index.get(pred.id, n)] += 1
    return ConfusionMatrix(scheme=scheme, counts=counts)


@dataclass(frozen=True)
class ClassScore:
    category_id: str
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(eq=False)
class MacroReport:
    scheme: TaxonomyScheme
    per_class: tuple[ClassScore, ...]
    macro_p: float
    macro_r: float
    macro_f1: float
    confusion: ConfusionMatrix
    config_fingerprint: str | None = None
    run_id: str | None = None


def _prf(tp: float, fp: float, fn: float) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    return precision, recall, f1


def macro_report(
    matrix: ConfusionMatrix,
    *,
    config_fingerprint: str | None = None,
    run_id: str | None = None,
) -> MacroReport:
    """Per-class precision/recall/F1 and their unweighted means.

    Zero-denominator classes score 0 and still enter the macro averages, so
    every class of the scheme weighs equally regardless of support. The
    macro F1 is the mean of per-class F1 values, not the harmonic mean of
    the macro precision and recall.
    """
    counts = matrix.counts
    n = len(matrix.scheme.ids)
    scores = []
    for i, cid in enumerate(matrix.scheme.ids):
        tp = float(counts[i, i])
        fp = float(counts[:, i].sum() - counts[i, i])
        fn = float(counts[i, :].sum() - counts[i, i])
        precision, recall, f1 = _prf(tp, fp, fn)
        scores.append(ClassScore(cid, precision, recall, f1, support=int(counts[i, :].sum())))
    return MacroReport(
        scheme=matrix.scheme,
        per_class=tuple(scores),
        macro_p=sum(s.precision for s in scores) / n,
        macro_r=sum(s.recall for s in scores) / n,
        macro_f1=sum(s.f1 for s in scores) / n,
        confusion=matrix,
        config_fingerprint=config_fingerprint,
        run_id=run_id,
    )


def report_to_json(report: MacroReport) -> dict:
    return {
        "run_id": report.run_id,
        "config_fingerprint": report.config_fingerprint,
        "task": report.scheme.task_id.value,
        "macro_p": report.macro_p,
        "macro_r": report.macro_r,
        "macro_f1": report.macro_f1,
        "per_class": [asdict(s) for s in report.per_class],
        "confusion": {
            "rows": list(report.scheme.ids),
            "columns": list(report.scheme.ids) + [INVALID_COLUMN],
            "counts": report.confusion.counts.tolist(),
        },
    }


def write_report(report: MacroReport, path: str | Path) -> Path:
    encoder = json.JSONEncoder(indent=2, sort_keys=True, ensure_ascii=False)
    return write_file(path, chain(encoder.iterencode(report_to_json(report)), ["\n"]))


def write_csv(path: str | Path, header: str, rows: Iterable[Sequence]) -> Path:
    """The header line, then a line per row: strings as they are, other values by
    repr, so every float reads back exactly."""
    lines = (",".join(v if isinstance(v, str) else repr(v) for v in row) + "\n" for row in rows)
    return write_file(path, chain([header + "\n"], lines))


def report_from_json(payload: dict, scheme: TaxonomyScheme) -> MacroReport:
    """Rebuild a report written by write_report. Inverse up to the scheme."""
    if payload.get("task") != scheme.task_id.value:
        raise SchemeMismatch(
            f"report is for task {payload.get('task')!r}, scheme is {scheme.task_id.value!r}"
        )
    counts = np.asarray(payload["confusion"]["counts"], dtype=np.int64)
    expected = (len(scheme.categories), len(scheme.categories) + 1)
    if counts.shape != expected:
        raise SchemeMismatch(f"confusion shape {counts.shape} does not match scheme {expected}")
    per_class = tuple(
        ClassScore(**{f.name: row[f.name] for f in fields(ClassScore)})
        for row in payload["per_class"]
    )
    if tuple(s.category_id for s in per_class) != scheme.ids:
        raise SchemeMismatch("per-class rows do not match the scheme's categories")
    return MacroReport(
        scheme=scheme,
        per_class=per_class,
        macro_p=payload["macro_p"],
        macro_r=payload["macro_r"],
        macro_f1=payload["macro_f1"],
        confusion=ConfusionMatrix(scheme=scheme, counts=counts),
        config_fingerprint=payload.get("config_fingerprint"),
        run_id=payload.get("run_id"),
    )


def load_report(path: str | Path, scheme: TaxonomyScheme) -> MacroReport:
    """Read a report file; ParseError if it is not one, SchemeMismatch if under another scheme."""
    with open(path, encoding="utf-8") as fh:
        try:
            return report_from_json(json.load(fh), scheme)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ParseError(f"not a report: {path} ({type(exc).__name__}: {exc})") from None


def write_class_scores_csv(report: MacroReport, path: str | Path) -> Path:
    return write_csv(path, "category_id,precision,recall,f1,support", map(astuple, report.per_class))


@dataclass(frozen=True)
class ThresholdPoint:
    threshold: float
    precision: float
    recall: float
    coverage: float
    n_labeled: int


def threshold_sweep(
    predictions: Sequence[Prediction],
    golds: Sequence[CategoryLabel],
    scheme: TaxonomyScheme,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    *,
    inclusive: bool = False,
) -> list[ThresholdPoint]:
    """Selective-prediction tradeoff over confidence thresholds.

    At each threshold only predictions with confidence strictly above it
    (or >= with inclusive=True) are kept. Precision is the macro precision
    over the kept set; recall keeps the full gold set in its denominator,
    so abstentions count as misses. Points come back sorted ascending.
    """
    if len(predictions) != len(golds):
        raise LengthMismatch(f"{len(golds)} golds vs {len(predictions)} predictions")
    if not predictions:
        raise ValueError("threshold_sweep needs at least one prediction")
    for p in predictions:
        if p.confidence is None:
            raise MissingConfidence(
                f"prediction for {p.entity_id!r} has no confidence; "
                "remote backends cannot be swept"
            )
    n = len(scheme.ids)
    full_support = confusion(golds, golds, scheme).counts.diagonal()

    points = []
    total = len(predictions)
    for threshold in sorted(thresholds):
        kept = [
            (gold, pred.label)
            for pred, gold in zip(predictions, golds)
            if (pred.confidence >= threshold if inclusive else pred.confidence > threshold)
        ]
        counts = confusion([g for g, _ in kept], [p for _, p in kept], scheme).counts
        tp = counts.diagonal()
        # column sums over the scheme's classes: invalid predictions stay out
        predicted = counts[:, :n].sum(axis=0)
        precision = float(
            np.mean([tp[i] / predicted[i] if predicted[i] > 0 else 0.0 for i in range(n)])
        )
        recall = float(
            np.mean(
                [tp[i] / full_support[i] if full_support[i] > 0 else 0.0 for i in range(n)]
            )
        )
        points.append(
            ThresholdPoint(
                threshold=float(threshold),
                precision=precision,
                recall=recall,
                coverage=len(kept) / total,
                n_labeled=len(kept),
            )
        )
    return points


def write_sweep_csv(points: Sequence[ThresholdPoint], path: str | Path) -> Path:
    return write_csv(path, "threshold,precision,recall,coverage,n_labeled", map(astuple, points))


def per_category_table(report_a: MacroReport, report_b: MacroReport) -> list[tuple]:
    """Side-by-side per-class F1 for two reports under the same scheme.

    Rows are (category_id, f1_a, f1_b, delta) in scheme order.
    """
    if report_a.scheme.fingerprint != report_b.scheme.fingerprint:
        raise SchemeMismatch("reports were produced under different schemes")
    by_id_b = {s.category_id: s for s in report_b.per_class}
    rows = []
    for score_a in report_a.per_class:
        score_b = by_id_b[score_a.category_id]
        rows.append(
            (score_a.category_id, score_a.f1, score_b.f1, score_b.f1 - score_a.f1)
        )
    return rows


def write_per_category_csv(rows: Sequence[tuple], path: str | Path) -> Path:
    return write_csv(path, "category_id,f1_a,f1_b,delta", rows)
