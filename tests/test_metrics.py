from __future__ import annotations

import json

import numpy as np
import pytest

from taxotext.errors import (
    LengthMismatch,
    MissingConfidence,
    ParseError,
    SchemeMismatch,
    UnknownGold,
)
from taxotext.metrics import (
    confusion,
    load_report,
    macro_report,
    per_category_table,
    report_from_json,
    report_to_json,
    threshold_sweep,
    write_class_scores_csv,
    write_per_category_csv,
    write_report,
    write_sweep_csv,
)
from taxotext.remote import INVALID_LABEL
from taxotext.softmax import Prediction
from taxotext.taxonomy import CategoryLabel, TaskId, TaxonomyScheme


def _scheme(n=3):
    cats = tuple(CategoryLabel(f"{i:02d}", f"class {i}") for i in range(10, 10 + n))
    return TaxonomyScheme(task_id=TaskId.SIC, categories=cats, code_map={})


def _labels(scheme, ids):
    return [scheme.by_id[i] for i in ids]


def test_confusion_counts_and_invalid_column():
    scheme = _scheme(3)
    golds = _labels(scheme, ["10", "10", "11", "12"])
    preds = _labels(scheme, ["10", "11", "11"]) + [INVALID_LABEL]
    matrix = confusion(golds, preds, scheme)
    assert matrix.counts.shape == (3, 4)
    assert matrix.counts[0, 0] == 1  # 10 -> 10
    assert matrix.counts[0, 1] == 1  # 10 -> 11
    assert matrix.counts[1, 1] == 1  # 11 -> 11
    assert matrix.counts[2, 3] == 1  # 12 -> invalid column
    assert matrix.counts.sum() == 4


def test_confusion_validates_inputs():
    scheme = _scheme(2)
    with pytest.raises(LengthMismatch):
        confusion(_labels(scheme, ["10"]), [], scheme)
    with pytest.raises(UnknownGold):
        confusion([CategoryLabel("zz", "alien")], _labels(scheme, ["10"]), scheme)


def test_macro_report_desk_example():
    # two classes present, one absent; absent class scores zero and is
    # still averaged in
    scheme = _scheme(3)
    golds = _labels(scheme, ["10", "10", "11", "11"])
    preds = _labels(scheme, ["10", "10", "11", "10"])
    report = macro_report(confusion(golds, preds, scheme))
    s10, s11, s12 = report.per_class
    assert s10.precision == pytest.approx(2 / 3)
    assert s10.recall == 1.0
    assert s11.precision == 1.0
    assert s11.recall == 0.5
    assert s12.precision == s12.recall == s12.f1 == 0.0
    assert report.macro_p == pytest.approx((2 / 3 + 1 + 0) / 3)
    assert report.macro_r == pytest.approx((1 + 0.5 + 0) / 3)
    # macro F1 is the mean of per-class F1, not the harmonic combination of
    # the macro precision and recall
    f10 = 2 * (2 / 3) * 1 / ((2 / 3) + 1)
    f11 = 2 * 1 * 0.5 / 1.5
    assert report.macro_f1 == pytest.approx((f10 + f11 + 0) / 3)
    hm = 2 * report.macro_p * report.macro_r / (report.macro_p + report.macro_r)
    assert report.macro_f1 != pytest.approx(hm)


def _brute_force_macro(golds, preds, ids):
    ps, rs, f1s = [], [], []
    for cid in ids:
        tp = sum(1 for g, p in zip(golds, preds) if g == cid and p == cid)
        fp = sum(1 for g, p in zip(golds, preds) if g != cid and p == cid)
        fn = sum(1 for g, p in zip(golds, preds) if g == cid and p != cid)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        ps.append(p)
        rs.append(r)
        f1s.append(f)
    n = len(ids)
    return sum(ps) / n, sum(rs) / n, sum(f1s) / n


def test_macro_report_matches_brute_force_on_random_data():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n_classes = int(rng.integers(2, 8))
        scheme = _scheme(n_classes)
        n = int(rng.integers(1, 60))
        gold_ids = [scheme.ids[i] for i in rng.integers(0, n_classes, size=n)]
        pred_ids = [scheme.ids[i] for i in rng.integers(0, n_classes, size=n)]
        golds = _labels(scheme, gold_ids)
        preds = _labels(scheme, pred_ids)
        report = macro_report(confusion(golds, preds, scheme))
        bp, br, bf = _brute_force_macro(gold_ids, pred_ids, scheme.ids)
        assert report.macro_p == pytest.approx(bp, abs=1e-12)
        assert report.macro_r == pytest.approx(br, abs=1e-12)
        assert report.macro_f1 == pytest.approx(bf, abs=1e-12)


def _preds(scheme, spec):
    """spec: list of (gold_id, pred_id, confidence).  Returns (preds, golds)."""
    preds, golds = [], []
    for n, (gid, pid, conf) in enumerate(spec):
        golds.append(scheme.by_id[gid])
        label = scheme.by_id[pid] if pid in scheme.by_id else INVALID_LABEL
        preds.append(Prediction(entity_id=f"e{n}", label=label, confidence=conf))
    return preds, golds


def test_threshold_sweep_desk_example():
    scheme = _scheme(2)
    preds, golds = _preds(
        scheme,
        [("10", "10", 0.9), ("10", "11", 0.7), ("11", "11", 0.5)],
    )
    points = threshold_sweep(preds, golds, scheme, thresholds=(0.6,))
    pt = points[0]
    assert pt.n_labeled == 2
    assert pt.coverage == pytest.approx(2 / 3)
    # kept: one correct 10, one 10->11 wrong. precision: 10 -> 1/1;
    # 11 -> 0/1 => macro 0.5. recall vs full gold support: 10 -> 1/2,
    # 11 -> 0/1 => macro 0.25
    assert pt.precision == pytest.approx(0.5)
    assert pt.recall == pytest.approx(0.25)


def test_threshold_sweep_strict_vs_inclusive():
    scheme = _scheme(2)
    preds, golds = _preds(scheme, [("10", "10", 0.6), ("11", "11", 0.8)])
    strict = threshold_sweep(preds, golds, scheme, thresholds=(0.6,))[0]
    inclusive = threshold_sweep(preds, golds, scheme, thresholds=(0.6,), inclusive=True)[0]
    assert strict.n_labeled == 1
    assert inclusive.n_labeled == 2


def test_threshold_sweep_matches_enumeration_oracle():
    rng = np.random.default_rng(7)
    scheme = _scheme(4)
    spec = []
    for _ in range(120):
        gid = scheme.ids[int(rng.integers(0, 4))]
        pid = scheme.ids[int(rng.integers(0, 4))]
        spec.append((gid, pid, float(rng.random())))
    preds, golds = _preds(scheme, spec)
    thresholds = (0.2, 0.5, 0.8)
    points = threshold_sweep(preds, golds, scheme, thresholds=thresholds)
    for pt in points:
        kept = [(g, p) for g, p in zip(golds, preds) if p.confidence > pt.threshold]
        kept_golds = [g for g, _ in kept]
        kept_preds = [p.label.id for _, p in kept]
        ps, rs = [], []
        for cid in scheme.ids:
            tp = sum(1 for g, p in zip(kept_golds, kept_preds) if g.id == cid and p == cid)
            fp = sum(1 for g, p in zip(kept_golds, kept_preds) if g.id != cid and p == cid)
            full_fn = sum(1 for g in golds if g.id == cid) - tp
            ps.append(tp / (tp + fp) if tp + fp else 0.0)
            rs.append(tp / (tp + full_fn) if tp + full_fn else 0.0)
        assert pt.precision == pytest.approx(sum(ps) / len(ps), abs=1e-12)
        assert pt.recall == pytest.approx(sum(rs) / len(rs), abs=1e-12)
        assert pt.n_labeled == len(kept)
        assert pt.coverage == pytest.approx(len(kept) / len(golds))


def test_threshold_sweep_requires_confidence():
    scheme = _scheme(2)
    preds, golds = _preds(scheme, [("10", "10", None)])
    with pytest.raises(MissingConfidence):
        threshold_sweep(preds, golds, scheme, thresholds=(0.5,))


def test_threshold_points_sorted_ascending():
    scheme = _scheme(2)
    preds, golds = _preds(scheme, [("10", "10", 0.9)])
    points = threshold_sweep(preds, golds, scheme, thresholds=(0.8, 0.2, 0.5))
    assert [p.threshold for p in points] == [0.2, 0.5, 0.8]


# --- report files ---------------------------------------------------------------


def _report(scheme):
    golds = _labels(scheme, ["10", "11", "11"])
    preds = _labels(scheme, ["10", "11", "10"])
    return macro_report(confusion(golds, preds, scheme), config_fingerprint="cafe", run_id="r9")


def test_report_json_roundtrip(tmp_path):
    scheme = _scheme(3)
    report = _report(scheme)
    path = write_report(report, tmp_path / "r.json")
    again = load_report(path, scheme)
    assert again.macro_f1 == report.macro_f1
    assert again.run_id == "r9"
    assert again.config_fingerprint == "cafe"
    assert np.array_equal(again.confusion.counts, report.confusion.counts)
    assert [s.category_id for s in again.per_class] == list(scheme.ids)


def test_report_json_rejects_other_scheme(tmp_path):
    scheme = _scheme(3)
    payload = report_to_json(_report(scheme))
    with pytest.raises(SchemeMismatch):
        report_from_json(payload, _scheme(4))
    hc_like = dict(payload, task="HEALTHCARE")
    with pytest.raises(SchemeMismatch):
        report_from_json(hc_like, scheme)


def test_report_rows_ignore_extra_keys():
    scheme = _scheme(3)
    report = _report(scheme)
    payload = report_to_json(report)
    for row in payload["per_class"]:
        row["note"] = "added by a later version"
    assert report_from_json(payload, scheme).per_class == report.per_class


@pytest.mark.parametrize("missing", ["category_id", "precision", "recall", "f1", "support"])
def test_report_row_without_a_field_is_a_parse_error(tmp_path, missing):
    scheme = _scheme(3)
    payload = report_to_json(_report(scheme))
    del payload["per_class"][1][missing]
    path = tmp_path / "r.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_report(path, scheme)
    assert str(path) in str(err.value)


def test_write_report_is_deterministic(tmp_path):
    scheme = _scheme(3)
    a = write_report(_report(scheme), tmp_path / "a.json")
    b = write_report(_report(scheme), tmp_path / "b.json")
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["task"] == "SIC"


def test_csv_writers_shapes(tmp_path):
    scheme = _scheme(3)
    report = _report(scheme)
    sweep_path = write_sweep_csv(
        threshold_sweep(*_preds(scheme, [("10", "10", 0.9)]), scheme, thresholds=(0.5,)),
        tmp_path / "sweep.csv",
    )
    lines = sweep_path.read_text().splitlines()
    assert lines[0] == "threshold,precision,recall,coverage,n_labeled"
    assert len(lines) == 2

    scores_path = write_class_scores_csv(report, tmp_path / "scores.csv")
    lines = scores_path.read_text().splitlines()
    assert lines[0] == "category_id,precision,recall,f1,support"
    assert len(lines) == 4


def test_per_category_table_and_csv(tmp_path):
    scheme = _scheme(3)
    report_a = _report(scheme)
    golds = _labels(scheme, ["10", "11", "11"])
    better = _labels(scheme, ["10", "11", "11"])
    report_b = macro_report(confusion(golds, better, scheme))
    rows = per_category_table(report_a, report_b)
    assert [r[0] for r in rows] == list(scheme.ids)
    row11 = rows[1]
    assert row11[2] == 1.0  # perfect run
    assert row11[3] == pytest.approx(row11[2] - row11[1])
    path = write_per_category_csv(rows, tmp_path / "cmp.csv")
    assert path.read_text().splitlines()[0] == "category_id,f1_a,f1_b,delta"


def test_per_category_table_rejects_mismatched_schemes():
    with pytest.raises(SchemeMismatch):
        per_category_table(_report(_scheme(3)), _report(_scheme(4)))
