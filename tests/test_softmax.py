"""Classifier training: gradients, optimizer schedule, determinism, serialization."""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import threading
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
    slots = softmax.TrainingRows(instances, scheme)
    softmax._slot_layout(slots, order)
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


# --- the compact row layout ------------------------------------------------------


def test_train_on_one_shot_generators_writes_the_model_of_lists(tmp_path):
    scheme = load_sic_scheme()
    instances = _wide_instances(scheme)
    vectors = [featurize(inst.input_text) for inst in instances]
    runs = {
        "lists": lambda: train(instances, scheme, WIDE_CONFIG),
        "instances": lambda: train((i for i in instances), scheme, WIDE_CONFIG),
        "features-list": lambda: train(instances, scheme, WIDE_CONFIG, features=vectors),
        "both": lambda: train(
            (i for i in instances), scheme, WIDE_CONFIG, features=(fv for fv in vectors)
        ),
        "rows": lambda: train(softmax.TrainingRows(iter(instances), scheme), scheme, WIDE_CONFIG),
    }
    for name, run in runs.items():
        path = save_model(run(), tmp_path / f"{name}.model")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == WIDE_MODEL_SHA256, name


def test_training_rows_check_their_vectors_and_train_once():
    scheme = load_sic_scheme()
    instances = _instances(scheme, ["20", "60"], per_class=3)
    vectors = [featurize(inst.input_text) for inst in instances]
    for wrong in (vectors[:-1], vectors + vectors[:1]):
        with pytest.raises(ValueError, match="feature vectors"):
            train(iter(instances), scheme, features=iter(wrong))
    rows = softmax.TrainingRows(instances, scheme)
    assert len(rows) == len(instances)
    assert [rows.cols.dtype, rows.values.dtype, rows.offsets.dtype] == [np.int32, np.float64, np.int64]
    for i, fv in enumerate(vectors):
        assert np.array_equal(rows[i], fv.indices)
        assert np.array_equal(rows.values[rows.offsets[i] : rows.offsets[i + 1]], fv.values)
    train(rows, scheme)
    with pytest.raises(ValueError, match="renumbered"):
        train(rows, scheme)
    with pytest.raises(ValueError, match="scheme"):
        train(softmax.TrainingRows(instances, scheme), load_healthcare_scheme())


def _small_vocabulary_texts(n_rows, n_tokens=120, vocab=60):
    """Texts over a few dozen words: many stored features, few distinct buckets."""
    rng = np.random.default_rng(5)
    words = [f"word{i}" for i in range(vocab)]
    return [" ".join(rng.choice(words, size=n_tokens)) for _ in range(n_rows)]


def test_train_holds_the_adam_state_the_rows_and_one_batch(tmp_path):
    # The traced peak of train over a generator of instances is bounded by
    # the three slots x classes arrays (weights and both moments), 12 B per
    # stored feature (an int32 slot and a float64 value), 16 B per row
    # (offset and class), 20 B per slot (bucket, slot and union position),
    # and the step buffers: gradient rows for the largest possible batch union
    # (the update squares them into its chunk buffer, not into a second union
    # of rows), gathered weights and an outer product for the longest row, and
    # two chunks of the update. A list of FeatureVectors with int64 slots, or
    # holding the instances, exceeds it.
    scheme = load_sic_scheme()
    cats = ["20", "60", "73"]
    texts = _small_vocabulary_texts(1200)
    config = TrainConfig(epochs=2, batch_size=8, warmup_steps=10, seed=1)
    nnz = np.array([featurize(t).nnz for t in texts])
    n_slots = np.unique(np.concatenate([featurize(t).indices for t in texts])).size
    n_classes = len(scheme.categories)
    batch_union = min(n_slots, int(np.sort(nnz)[-config.batch_size :].sum()))
    chunk = min(UPDATE_CHUNK_COLS, n_slots)
    step_buffers = 8 * n_classes * (batch_union + 2 * int(nnz.max()) + 2 * chunk)
    adam_state = 3 * 8 * n_slots * n_classes
    bound = adam_state + 12 * int(nnz.sum()) + 16 * len(texts) + 20 * n_slots + step_buffers
    instances = (
        ClassificationInstance(f"r{k:05d}", text, scheme.by_id[cats[k % 3]], "gsnip10")
        for k, text in enumerate(texts)
    )
    model, peak = _traced_peak(lambda: train(instances, scheme, config))
    assert 12 * nnz.sum() > adam_state  # the rows weigh in the bound
    assert model.cols.size == n_slots
    assert peak <= bound, (peak, bound)


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


def _saturated_model(scheme, stride=4):
    """A model with weights in every stride-th bucket: 27 x 65,536 for SIC at stride 4."""
    rng = np.random.default_rng(7)
    cols = np.arange(0, N_BUCKETS, stride)
    n_classes = len(scheme.categories)
    return SoftmaxModel(
        scheme, cols, rng.standard_normal((n_classes, cols.size)), rng.standard_normal(n_classes)
    )


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_model_reads_the_weights_in_place(tmp_path):
    scheme = load_sic_scheme()
    model = _saturated_model(scheme)
    path = save_model(model, tmp_path / "wide.model")
    block_bytes, row_bytes = model.block.nbytes, model.cols.nbytes
    del model
    loaded, peak = _traced_peak(lambda: load_model(path, scheme))
    assert block_bytes > 10 * 2**20
    # the model's own arrays, one row read ahead, and the header: no copy of the body
    assert peak <= block_bytes + row_bytes + 2**20
    assert np.array_equal(loaded.block, _saturated_model(scheme).block)


def test_save_model_writes_the_weights_in_place(tmp_path):
    scheme = load_sic_scheme()
    model = _saturated_model(scheme)
    path, peak = _traced_peak(lambda: save_model(model, tmp_path / "wide.model"))
    # the nonzero mask, a bool per weight, and one row: no copy of the block
    assert peak <= model.block.nbytes // 8 + model.cols.nbytes
    loaded = load_model(path, scheme)
    assert np.array_equal(loaded.cols, model.cols) and np.array_equal(loaded.block, model.block)
    assert np.array_equal(loaded.b, model.b)


def test_load_model_rejects_trailing_bytes(tmp_path):
    scheme = load_sic_scheme()
    path = save_model(train(_instances(scheme, ["20"], per_class=3), scheme), tmp_path / "m.model")
    path.write_bytes(path.read_bytes() + b"\0" * 8)
    with pytest.raises(ParseError, match="bytes"):
        load_model(path, scheme)


def test_all_zero_columns_are_not_saved(tmp_path):
    scheme = load_sic_scheme()
    n_classes = len(scheme.categories)
    block = np.arange(3 * n_classes, dtype=np.float64).reshape(n_classes, 3) + 1.0
    block[:, 1] = 0.0
    model = SoftmaxModel(scheme, [3, 70, 900], block, np.linspace(-1.0, 1.0, n_classes))
    path = save_model(model, tmp_path / "m.model")
    assert json.loads(path.read_bytes().partition(b"\n")[0])["n_cols"] == 2
    loaded = load_model(path, scheme)
    assert loaded.cols.tolist() == [3, 900]
    assert np.array_equal(loaded.W, model.W)
    assert np.array_equal(loaded.b, model.b)


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


# --- the two-thread step ----------------------------------------------------------


def _record_adam_halves(monkeypatch):
    """Wrap _adam_step; each call appends its row count to the list of the
    thread it ran on: "main" for the calling thread, "worker" for the other."""
    calls = {"main": [], "worker": []}
    real = softmax._adam_step

    def recording(W, mW, vW, n_active, *rest):
        on_main = threading.current_thread() is threading.main_thread()
        calls["main" if on_main else "worker"].append(n_active)
        return real(W, mW, vW, n_active, *rest)

    monkeypatch.setattr(softmax, "_adam_step", recording)
    return calls


@pytest.fixture
def forced_split(monkeypatch):
    """Split every step whose prefix can be cut, as on a host with two CPUs."""
    monkeypatch.setattr(softmax, "SPLIT_MIN_ELEMENTS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.mark.parametrize("chunk", [1, 7])
def test_split_step_matches_dense_oracle(monkeypatch, forced_split, chunk):
    monkeypatch.setattr(softmax, "UPDATE_CHUNK_COLS", chunk)
    calls = _record_adam_halves(monkeypatch)
    scheme = load_sic_scheme()
    instances = _instances(scheme, ["20", "60", "73"], per_class=6)
    config = TrainConfig(epochs=2, batch_size=4, warmup_steps=5, weight_decay=0.02, seed=3)
    # switch threads as often as the interpreter can, so that an update one
    # half made to the other half's rows would show in the weights
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        model = train(instances, scheme, config)
    finally:
        sys.setswitchinterval(interval)
    # the first step cuts the first batch's slots, which are the leading rows
    # [:k], on a chunk boundary: the lower rows here, the upper on the worker
    order = np.random.default_rng(config.seed).permutation(len(instances))
    slots = softmax.TrainingRows(instances, scheme)
    softmax._slot_layout(slots, order)
    k = np.unique(np.concatenate([slots[i] for i in order[: config.batch_size]])).size
    mid = calls["main"][0]
    assert 0 < mid < k and mid % chunk == 0
    assert calls["worker"][0] == k - mid
    assert len(calls["worker"]) == len(calls["main"]) == math.ceil(len(instances) / 4) * 2
    W, b = _dense_oracle(instances, scheme, config)
    assert np.array_equal(model.W, W)
    assert np.array_equal(model.b, b)


def test_split_step_keeps_the_pinned_model_bytes(monkeypatch, forced_split, tmp_path):
    calls = _record_adam_halves(monkeypatch)
    scheme = load_sic_scheme()
    path = save_model(train(_wide_instances(scheme), scheme, WIDE_CONFIG), tmp_path / "wide.model")
    assert calls["worker"]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WIDE_MODEL_SHA256


def test_split_step_raises_the_workers_exception_and_leaves_no_thread(monkeypatch, forced_split):
    monkeypatch.setattr(softmax, "UPDATE_CHUNK_COLS", 64)
    scheme = load_sic_scheme()
    instances = _wide_instances(scheme, n=12)
    before = threading.enumerate()
    train(instances, scheme, WIDE_CONFIG)
    assert threading.enumerate() == before

    error = RuntimeError("upper half failed")
    real = softmax._adam_step

    def failing_on_worker(*args):
        if threading.current_thread() is not threading.main_thread():
            raise error
        return real(*args)

    monkeypatch.setattr(softmax, "_adam_step", failing_on_worker)
    with pytest.raises(RuntimeError) as raised:
        train(instances, scheme, WIDE_CONFIG)
    assert raised.value is error
    assert threading.enumerate() == before


def _thread_starts(monkeypatch):
    """Record every thread started from here on."""
    starts = []
    real = threading.Thread.start

    def counting(thread):
        starts.append(thread)
        return real(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return starts


@pytest.mark.parametrize("cpus, workers", [({0}, 0), ({0, 1}, 1)], ids=["one-cpu", "two-cpus"])
def test_split_step_needs_two_usable_cpus(monkeypatch, cpus, workers):
    monkeypatch.setattr(softmax, "SPLIT_MIN_ELEMENTS", 0)
    monkeypatch.setattr(softmax, "UPDATE_CHUNK_COLS", 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    starts = _thread_starts(monkeypatch)
    scheme = load_sic_scheme()
    train(_wide_instances(scheme, n=12), scheme, WIDE_CONFIG)
    assert len(starts) == workers


def test_split_step_counts_cpus_without_affinity(monkeypatch):
    monkeypatch.setattr(softmax, "SPLIT_MIN_ELEMENTS", 0)
    monkeypatch.setattr(softmax, "UPDATE_CHUNK_COLS", 64)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    starts = _thread_starts(monkeypatch)
    scheme = load_sic_scheme()
    train(_wide_instances(scheme, n=12), scheme, WIDE_CONFIG)
    assert not starts


def test_split_step_needs_a_prefix_of_split_min_elements(monkeypatch):
    # under the threshold neither the corpus nor any step splits
    monkeypatch.setattr(softmax, "UPDATE_CHUNK_COLS", 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    scheme = load_sic_scheme()
    instances = _wide_instances(scheme, n=12)
    n_weights = train(instances, scheme, WIDE_CONFIG).cols.size * len(scheme.categories)
    monkeypatch.setattr(softmax, "SPLIT_MIN_ELEMENTS", n_weights + 1)
    starts = _thread_starts(monkeypatch)
    calls = _record_adam_halves(monkeypatch)
    train(instances, scheme, WIDE_CONFIG)
    assert not starts and not calls["worker"]
    monkeypatch.setattr(softmax, "SPLIT_MIN_ELEMENTS", n_weights)
    train(instances, scheme, WIDE_CONFIG)
    assert len(starts) == 1 and calls["worker"]
