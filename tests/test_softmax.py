"""Classifier training: gradients, optimizer schedule, determinism, serialization."""

from __future__ import annotations

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from taxotext.corpus import ClassificationInstance
from taxotext.errors import (
    EmptyTrainingSet,
    FingerprintMismatch,
    MissingGold,
    ParseError,
    UnknownLabel,
)
from taxotext import softmax
from taxotext.features import N_BUCKETS, FeatureVector, featurize
from taxotext.softmax import (
    UPDATE_CHUNK_COLS,
    SoftmaxModel,
    TrainConfig,
    _softmax,
    load_model,
    loss_and_grad,
    predict,
    predict_instances,
    predict_text,
    save_model,
    train,
)
from taxotext.taxonomy import CategoryLabel, load_healthcare_scheme, load_sic_scheme


def _instances(scheme, cats, per_class, salt=""):
    """Synthetic separable corpus: each class gets a private marker token."""
    out = []
    n = 0
    for cid in cats:
        for i in range(per_class):
            n += 1
            out.append(
                ClassificationInstance(
                    entity_id=f"x{n:04d}",
                    input_text=f"Entity {n}\nclasstoken_{cid}{salt} filler words {i}",
                    gold=scheme.by_id[cid],
                    source_signature="gsnip10",
                )
            )
    return out


def _random_fv(rng, dim):
    nnz = rng.integers(1, 6)
    idx = np.sort(rng.choice(dim, size=nnz, replace=False)).astype(np.int64)
    vals = rng.random(nnz) + 0.1
    vals /= np.linalg.norm(vals)
    return FeatureVector(idx, vals)


# --- gradient ----------------------------------------------------------------


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    C, D = 4, 30
    for _ in range(5):
        W = rng.normal(size=(C, D)) * 0.5
        b = rng.normal(size=C) * 0.1
        batch = [(_random_fv(rng, D), int(rng.integers(0, C))) for _ in range(6)]
        loss, gW, gb = loss_and_grad(W, b, batch)
        h = 1e-6
        for _ in range(12):
            i, j = rng.integers(0, C), rng.integers(0, D)
            Wp, Wm = W.copy(), W.copy()
            Wp[i, j] += h
            Wm[i, j] -= h
            fd = (loss_and_grad(Wp, b, batch)[0] - loss_and_grad(Wm, b, batch)[0]) / (2 * h)
            assert fd == pytest.approx(gW[i, j], rel=1e-4, abs=1e-7)
        for i in range(C):
            bp, bm = b.copy(), b.copy()
            bp[i] += h
            bm[i] -= h
            fd = (loss_and_grad(W, bp, batch)[0] - loss_and_grad(W, bm, batch)[0]) / (2 * h)
            assert fd == pytest.approx(gb[i], rel=1e-4, abs=1e-7)


def test_gradient_rejects_empty_batch():
    with pytest.raises(ValueError):
        loss_and_grad(np.zeros((2, 4)), np.zeros(2), [])


# --- optimizer schedule against a dense oracle ---------------------------------


def _dense_oracle(instances, scheme, config):
    """Full-matrix re-run of the update rule: moment estimates with bias
    correction, decay applied multiplicatively before the step, bias
    undecayed, warmup scaling both. Must agree with train() exactly."""
    feats = [featurize(i.input_text) for i in instances]
    targets = [scheme.index_of(i.gold.id) for i in instances]
    C = len(scheme.categories)
    W = np.zeros((C, N_BUCKETS))
    b = np.zeros(C)
    mW = np.zeros((C, N_BUCKETS))
    vW = np.zeros((C, N_BUCKETS))
    mb = np.zeros(C)
    vb = np.zeros(C)
    rng = np.random.default_rng(config.seed)
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(len(feats))
        for start in range(0, len(order), config.batch_size):
            ids = order[start : start + config.batch_size]
            step += 1
            batch = [(feats[i], targets[i]) for i in ids]
            _, gW, gb = loss_and_grad(W, b, batch)
            mult = min(step / config.warmup_steps, 1.0) if config.warmup_steps > 0 else 1.0
            mW = config.beta1 * mW + (1.0 - config.beta1) * gW
            vW = config.beta2 * vW + (1.0 - config.beta2) * (gW * gW)
            mb = config.beta1 * mb + (1.0 - config.beta1) * gb
            vb = config.beta2 * vb + (1.0 - config.beta2) * (gb * gb)
            bc1 = 1.0 - config.beta1**step
            bc2 = 1.0 - config.beta2**step
            scale = mult * config.learning_rate / bc1
            if config.weight_decay:
                W = W * (1.0 - mult * config.weight_decay)
            W = W - scale * (mW / (np.sqrt(vW) / math.sqrt(bc2) + eps_of(config)))
            b = b - scale * (mb / (np.sqrt(vb) / math.sqrt(bc2) + eps_of(config)))
    return W, b


def eps_of(config):
    return config.eps


def test_train_matches_dense_oracle():
    scheme = load_sic_scheme()
    instances = _instances(scheme, ["20", "60", "73"], per_class=6)
    config = TrainConfig(epochs=2, batch_size=4, warmup_steps=5, weight_decay=0.02, seed=3)
    model = train(instances, scheme, config)
    W, b = _dense_oracle(instances, scheme, config)
    nz = np.flatnonzero(np.any(W != 0.0, axis=0))
    assert np.array_equal(model.W[:, nz], W[:, nz])
    assert np.array_equal(model.b, b)
    # untouched columns are exactly zero in both
    untouched = np.setdiff1d(np.arange(0, 2000), nz)
    assert not np.any(model.W[:, untouched])


def test_train_matches_dense_oracle_with_empty_texts_and_short_last_batch():
    scheme = load_sic_scheme()
    instances = _instances(scheme, ["20", "60", "73"], per_class=3)
    # punctuation-only texts featurize to empty vectors
    instances += [
        ClassificationInstance(f"y{k}", "--- !!", scheme.by_id["60"], "gsnip10") for k in range(2)
    ]
    assert featurize("--- !!").nnz == 0
    n = len(instances)
    assert n % 4 != 0  # the last batch of four is short
    # seed 17 shuffles both empty instances first: with batch_size=1 the
    # first two steps are batches of empty vectors, before any column is used
    assert set(np.random.default_rng(17).permutation(n)[:2]) == {n - 2, n - 1}
    for config in (
        TrainConfig(epochs=1, batch_size=1, warmup_steps=5, weight_decay=0.02, seed=17),
        TrainConfig(epochs=2, batch_size=4, warmup_steps=3, weight_decay=0.02, seed=17),
    ):
        model = train(instances, scheme, config)
        W, b = _dense_oracle(instances, scheme, config)
        nz = np.flatnonzero(np.any(W != 0.0, axis=0))
        assert np.array_equal(model.W[:, nz], W[:, nz])
        assert np.array_equal(model.b, b)
        # untouched columns are exactly zero
        untouched = np.setdiff1d(np.arange(N_BUCKETS), nz)
        assert not np.any(model.W[:, untouched])


@pytest.mark.parametrize(
    "batch_size, chunk",
    [
        pytest.param(1, 7, id="1"),
        pytest.param(4, 7, id="4"),
        pytest.param(1, 1, id="1-chunk1"),
        pytest.param(4, 1, id="4-chunk1"),
    ],
)
def test_train_matches_dense_oracle_across_narrow_update_chunks(monkeypatch, batch_size, chunk):
    # narrow chunks split the corpus's columns into several update chunks
    # (7-slot ones leave the last one short), and the moment updates of the
    # first batch's slots fall on both sides of a chunk boundary
    monkeypatch.setattr(softmax, "UPDATE_CHUNK_COLS", chunk)
    scheme = load_sic_scheme()
    instances = _instances(scheme, ["20", "60", "73"], per_class=6)
    config = TrainConfig(epochs=2, batch_size=batch_size, warmup_steps=5, weight_decay=0.02, seed=3)
    model = train(instances, scheme, config)
    assert model.cols.size > 2 * chunk and (chunk == 1 or model.cols.size % chunk != 0)
    order = np.random.default_rng(config.seed).permutation(len(instances))
    _, _, slots = softmax._slot_layout([featurize(i.input_text) for i in instances], order)
    first_batch = np.concatenate([slots[i] for i in order[:batch_size]])
    assert first_batch.min() // chunk < first_batch.max() // chunk
    W, b = _dense_oracle(instances, scheme, config)
    assert np.array_equal(model.W, W)
    assert np.array_equal(model.b, b)


def test_warmup_scales_early_updates_linearly():
    scheme = load_sic_scheme()
    instances = _instances(scheme, ["20"], per_class=4)
    # one batch, one step: with warmup_steps=10 the step is exactly a tenth
    # of the unwarmed step (decay is a no-op on zero weights)
    base = TrainConfig(epochs=1, batch_size=4, warmup_steps=0, weight_decay=0.0, seed=0)
    warm = TrainConfig(epochs=1, batch_size=4, warmup_steps=10, weight_decay=0.0, seed=0)
    model_base = train(instances, scheme, base)
    model_warm = train(instances, scheme, warm)
    assert np.allclose(model_warm.W, 0.1 * model_base.W, rtol=1e-12, atol=0)
    assert np.allclose(model_warm.b, 0.1 * model_base.b, rtol=1e-12, atol=0)


def test_decay_multiplies_weights_not_gradients():
    # with learning_rate=0 all adaptive steps vanish; weights stay zero and
    # decay alone must leave them zero rather than injecting movement
    scheme = load_sic_scheme()
    instances = _instances(scheme, ["20", "60"], per_class=3)
    config = TrainConfig(epochs=2, batch_size=2, learning_rate=0.0, weight_decay=0.5, seed=0)
    model = train(instances, scheme, config)
    assert not np.any(model.W)
    assert not np.any(model.b)


def test_weight_decay_changes_weights_bias_exempt():
    scheme = load_sic_scheme()
    instances = _instances(scheme, ["20", "60"], per_class=4)
    plain = train(instances, scheme, TrainConfig(epochs=1, batch_size=4, warmup_steps=0, weight_decay=0.0, seed=0))
    decayed = train(instances, scheme, TrainConfig(epochs=1, batch_size=4, warmup_steps=0, weight_decay=0.1, seed=0))
    assert not np.array_equal(plain.W, decayed.W)
    # two batches: the second W update follows a decay, the bias never does.
    # bias trajectories agree because decay touches only W and W enters the
    # bias update only through logits, whose gradient the first step fixed
    assert plain.b == pytest.approx(decayed.b, abs=1e-9)


def test_train_is_deterministic_and_seed_sensitive():
    scheme = load_sic_scheme()
    instances = _instances(scheme, ["20", "60", "73"], per_class=5)
    config = TrainConfig(epochs=2, batch_size=4, seed=11)
    a = train(instances, scheme, config)
    b = train(instances, scheme, config)
    assert np.array_equal(a.W, b.W) and np.array_equal(a.b, b.b)
    c = train(instances, scheme, TrainConfig(epochs=2, batch_size=4, seed=12))
    assert not (np.array_equal(a.W, c.W) and np.array_equal(a.b, c.b))


def test_train_separates_synthetic_classes():
    scheme = load_sic_scheme()
    train_set = _instances(scheme, ["20", "60", "73"], per_class=20)
    model = train(train_set, scheme, TrainConfig(epochs=3, batch_size=8, warmup_steps=20))
    test_set = _instances(scheme, ["20", "60", "73"], per_class=5)
    preds = predict_instances(model, test_set)
    assert all(p.label == inst.gold for p, inst in zip(preds, test_set))


def test_train_input_validation():
    scheme = load_sic_scheme()
    with pytest.raises(EmptyTrainingSet):
        train([], scheme)
    no_gold = ClassificationInstance("e1", "text", None, "gsnip10")
    with pytest.raises(MissingGold):
        train([no_gold], scheme)
    alien = ClassificationInstance(
        "e1", "text", CategoryLabel("99", "not a member"), "gsnip10"
    )
    with pytest.raises(UnknownLabel):
        train([alien], scheme)


# --- prediction -----------------------------------------------------------------


def test_zero_model_predicts_uniformly():
    scheme = load_sic_scheme()
    model = SoftmaxModel(scheme)
    pred = predict_text(model, "anything at all")
    assert pred.label == scheme.categories[0]  # tie broken by lowest index
    assert pred.confidence == pytest.approx(1.0 / len(scheme.categories))


def test_predict_reports_entity_and_scores():
    scheme = load_sic_scheme()
    model = SoftmaxModel(scheme)
    pred = predict(model, featurize("words"), entity_id="e77")
    assert pred.entity_id == "e77"
    assert pred.scores.shape == (len(scheme.categories),)
    assert pred.scores.sum() == pytest.approx(1.0)


def test_predict_instances_preserves_order():
    scheme = load_sic_scheme()
    insts = _instances(scheme, ["20", "60"], per_class=3)
    model = SoftmaxModel(scheme)
    preds = predict_instances(model, insts)
    assert [p.entity_id for p in preds] == [i.entity_id for i in insts]


# --- serialization ----------------------------------------------------------------


def test_train_on_an_empty_vocabulary_gives_a_bias_only_model(tmp_path):
    # no training text yields a feature: the dense update moves only the bias
    scheme = load_sic_scheme()
    instances = [
        ClassificationInstance(f"y{k}", "--- !!", scheme.by_id[cid], "gsnip10")
        for k, cid in enumerate(["20", "60", "60"])
    ]
    config = TrainConfig(epochs=2, batch_size=2, warmup_steps=2, weight_decay=0.02, seed=4)
    model = train(instances, scheme, config)
    assert model.cols.size == 0 and model.block.shape == (len(scheme.categories), 0)
    _, b = _dense_oracle(instances, scheme, config)
    assert np.array_equal(model.b, b)

    loaded = load_model(save_model(model, tmp_path / "m.model"), scheme)
    assert np.array_equal(loaded.b, model.b) and loaded.cols.size == 0
    for text in ("--- !!", "anvils and rockets"):
        assert np.array_equal(predict_text(loaded, text).scores, predict_text(model, text).scores)
    assert predict_text(loaded, "x").label == scheme.by_id["60"]


def test_model_file_roundtrip(tmp_path):
    scheme = load_sic_scheme()
    instances = _instances(scheme, ["20", "60"], per_class=5)
    model = train(instances, scheme, TrainConfig(epochs=1, batch_size=4))
    path = save_model(model, tmp_path / "m.model")
    loaded = load_model(path, scheme)
    assert np.array_equal(loaded.W, model.W)
    assert np.array_equal(loaded.b, model.b)


def test_model_file_bits_stable_across_retrains(tmp_path):
    scheme = load_sic_scheme()
    instances = _instances(scheme, ["20", "60"], per_class=5)
    config = TrainConfig(epochs=2, batch_size=4, seed=5)
    path_a = save_model(train(instances, scheme, config), tmp_path / "a.model")
    path_b = save_model(train(instances, scheme, config), tmp_path / "b.model")
    assert path_a.read_bytes() == path_b.read_bytes()


def test_load_model_rejects_other_scheme(tmp_path):
    sic = load_sic_scheme()
    instances = _instances(sic, ["20"], per_class=3)
    path = save_model(train(instances, sic, TrainConfig(epochs=1)), tmp_path / "m.model")
    with pytest.raises(FingerprintMismatch):
        load_model(path, load_healthcare_scheme())


def test_load_model_rejects_garbage(tmp_path):
    path = tmp_path / "junk.model"
    path.write_bytes(b'{"format": "something-else/1"}\n')
    with pytest.raises(FingerprintMismatch):
        load_model(path, load_sic_scheme())


# --- sparse-column model ------------------------------------------------------------


def _wide_instances(scheme, n=60):
    """SIC instances over about 6,000 distinct buckets: more than two update
    chunks, the last one short."""
    cats = ["20", "60", "73"]
    out = []
    for k in range(n):
        cid = cats[k % len(cats)]
        words = " ".join(f"tok{k}x{i}" for i in range(50))
        out.append(
            ClassificationInstance(
                f"w{k:03d}", f"classtoken_{cid} {words}", scheme.by_id[cid], "gsnip10"
            )
        )
    return out


# sha256 of the model file the dense-matrix trainer wrote for _wide_instances
# under WIDE_CONFIG; the sparse-column model and the chunked update must keep it.
WIDE_CONFIG = TrainConfig(epochs=2, batch_size=8, warmup_steps=10, seed=4)
WIDE_MODEL_SHA256 = "5cc73305d36d0e7fb8638630d34f65a53ffb83d1cb0215c42fa4ef3b2fde58ef"


def test_model_file_bytes_pinned_across_update_chunks(tmp_path):
    scheme = load_sic_scheme()
    model = train(_wide_instances(scheme), scheme, WIDE_CONFIG)
    assert model.cols.size > 2 * UPDATE_CHUNK_COLS
    assert model.cols.size % UPDATE_CHUNK_COLS != 0
    path = save_model(model, tmp_path / "wide.model")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WIDE_MODEL_SHA256


def test_train_save_load_predict_never_allocate_a_dense_matrix(tmp_path):
    scheme = load_sic_scheme()
    instances = _wide_instances(scheme)
    dense_bytes = len(scheme.categories) * N_BUCKETS * 8
    tracemalloc.start()
    try:
        model = train(instances, scheme, WIDE_CONFIG)
        path = save_model(model, tmp_path / "wide.model")
        loaded = load_model(path, scheme)
        predict_instances(loaded, instances)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dense_bytes > 50 * 2**20
    assert peak < 16 * 2**20


def test_predict_equals_dense_gather_with_unseen_buckets():
    scheme = load_sic_scheme()
    model = train(_instances(scheme, ["20", "60"], per_class=4), scheme, TrainConfig(epochs=1))
    fv = featurize("classtoken_20 filler words and several never seen tokens")
    known = np.isin(fv.indices, model.cols)
    assert known.any() and not known.all()
    expected = _softmax(model.b + model.W[:, fv.indices] @ fv.values)
    assert np.array_equal(predict(model, fv).scores, expected)


def test_dense_view_matches_columns():
    scheme = load_sic_scheme()
    model = train(_instances(scheme, ["20", "60"], per_class=3), scheme, TrainConfig(epochs=1))
    W = model.W
    assert not W.flags.writeable
    assert np.array_equal(W[:, model.cols], model.block)
    assert not np.any(np.delete(W, model.cols, axis=1))


def test_load_model_rejects_truncated_file(tmp_path):
    scheme = load_sic_scheme()
    path = save_model(train(_instances(scheme, ["20"], per_class=3), scheme), tmp_path / "m.model")
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ParseError, match="bytes"):
        load_model(path, scheme)


def test_load_model_rejects_out_of_range_column(tmp_path):
    scheme = load_sic_scheme()
    path = save_model(train(_instances(scheme, ["20"], per_class=3), scheme), tmp_path / "m.model")
    head, _, body = path.read_bytes().partition(b"\n")
    n_cols = json.loads(head)["n_cols"]
    cols = np.frombuffer(body, dtype="<i8", count=n_cols).copy()
    cols[-1] = N_BUCKETS
    path.write_bytes(head + b"\n" + cols.tobytes() + body[8 * n_cols :])
    with pytest.raises(ParseError, match="increasing"):
        load_model(path, scheme)


def test_load_model_rejects_other_bucket_count(tmp_path):
    scheme = load_sic_scheme()
    path = save_model(train(_instances(scheme, ["20"], per_class=3), scheme), tmp_path / "m.model")
    head, _, body = path.read_bytes().partition(b"\n")
    header = json.loads(head)
    header["buckets"] = N_BUCKETS // 2
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)
    with pytest.raises(ParseError, match="buckets"):
        load_model(path, scheme)
