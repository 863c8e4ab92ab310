"""Linear softmax classifier over hashed features.

Training uses moment-adaptive updates (first and second gradient moments
with bias correction), decoupled multiplicative weight decay, and a linear
learning-rate warmup. With zero initialization and decay applied
multiplicatively, a feature column stays exactly zero until a gradient first
touches it. Every feature vector is known before the first step and every
instance appears in the first epoch, so each used bucket gets a compact slot,
numbered in order of first appearance under the first epoch's shuffle. The
columns touched so far are then always the prefix ``[:n_active]`` of
classes x slots arrays, and decay, moments and update are in-place slice
operations on that prefix. Each weight, moment and logit sees the same
floating-point operations in the same order as in a dense update over all
2^18 columns (logits gather a vector's weights in its bucket order, gradients
accumulate in instance order), so the weights are bit-identical to it (see
the dense-oracle tests). The slots are scattered back to bucket columns once,
at the end.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    EmptyTrainingSet,
    FingerprintMismatch,
    MissingGold,
    UnknownLabel,
)
from .features import FEATURIZER_HASH, N_BUCKETS, FeatureVector, featurize
from .taxonomy import CategoryLabel, TaxonomyScheme

logger = logging.getLogger(__name__)

MODEL_FORMAT = "taxotext-softmax/1"


@dataclass
class TrainConfig:
    epochs: int = 3
    batch_size: int = 8
    eval_batch_size: int = 16
    # Default tuned for this backend; transformer-style rates (~5e-5) barely
    # move a linear model on unit-norm hashed features.
    learning_rate: float = 0.05
    warmup_steps: int = 500
    weight_decay: float = 0.01
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


class SoftmaxModel:
    """Weights W (classes x buckets) and bias b, in scheme category order."""

    def __init__(self, scheme: TaxonomyScheme, W: np.ndarray | None = None, b: np.ndarray | None = None):
        n_classes = len(scheme.categories)
        self.scheme = scheme
        self.W = np.zeros((n_classes, N_BUCKETS)) if W is None else W
        self.b = np.zeros(n_classes) if b is None else b
        if self.W.shape != (n_classes, N_BUCKETS) or self.b.shape != (n_classes,):
            raise ValueError("weight shapes do not match the scheme")


@dataclass(eq=False)
class Prediction:
    entity_id: str | None
    label: CategoryLabel
    confidence: float | None
    scores: np.ndarray | None = None


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


def loss_and_grad(
    W: np.ndarray, b: np.ndarray, batch: list[tuple[FeatureVector, int]]
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy over a batch and its exact analytic gradient."""
    if not batch:
        raise ValueError("batch must be non-empty")
    grad_W = np.zeros_like(W)
    grad_b = np.zeros_like(b)
    total = 0.0
    for fv, y in batch:
        z = b + (W[:, fv.indices] @ fv.values if fv.nnz else 0.0)
        shifted = z - z.max()
        e = np.exp(shifted)
        log_norm = math.log(e.sum())
        total += log_norm - shifted[y]
        g = e / e.sum()
        g[y] -= 1.0
        if fv.nnz:
            grad_W[:, fv.indices] += np.outer(g, fv.values)
        grad_b += g
    n = len(batch)
    return total / n, grad_W / n, grad_b / n


def _slot_layout(feats: list[FeatureVector], first_order):
    """Number the used buckets by first appearance along `first_order`.

    Returns each slot's bucket and, per instance, the slots of its feature
    indices in the same (bucket) order as the indices.
    """
    seq = np.concatenate([feats[i].indices for i in first_order])
    buckets, first = np.unique(seq, return_index=True)
    by_appearance = np.argsort(first)
    slot_of = np.empty(buckets.size, dtype=np.int64)
    slot_of[by_appearance] = np.arange(buckets.size)
    slots = [slot_of[np.searchsorted(buckets, fv.indices)] for fv in feats]
    return buckets[by_appearance], slots


def _batch_grad(W, b, feats, slots, targets, batch_ids):
    """Gradient restricted to the union of the batch's slots."""
    cols = np.unique(np.concatenate([slots[i] for i in batch_ids]))
    grad_cols = np.zeros((W.shape[0], cols.size))
    grad_b = np.zeros(W.shape[0])
    loss = 0.0
    for i in batch_ids:
        fv, y = feats[i], targets[i]
        z = b + (W[:, slots[i]] @ fv.values if fv.nnz else 0.0)
        shifted = z - z.max()
        e = np.exp(shifted)
        loss += math.log(e.sum()) - shifted[y]
        g = e / e.sum()
        g[y] -= 1.0
        if fv.nnz:
            grad_cols[:, np.searchsorted(cols, slots[i])] += np.outer(g, fv.values)
        grad_b += g
    n = len(batch_ids)
    return cols, grad_cols / n, grad_b / n, loss / n


def train(instances, scheme: TaxonomyScheme, config: TrainConfig | None = None) -> SoftmaxModel:
    """Fit the classifier on gold-labeled instances.

    Deterministic for a fixed seed: shuffle order, batching, and update
    order are all derived from it. Bias is exempt from weight decay.
    """
    config = config or TrainConfig()
    instances = list(instances)
    if not instances:
        raise EmptyTrainingSet("no training instances")
    by_id = scheme.by_id
    feats: list[FeatureVector] = []
    targets: list[int] = []
    for inst in instances:
        if inst.gold is None:
            raise MissingGold(f"instance {inst.entity_id!r} has no gold label")
        if inst.gold.id not in by_id:
            raise UnknownLabel(f"gold label {inst.gold.id!r} not in scheme")
        feats.append(featurize(inst.input_text))
        targets.append(scheme.index_of(inst.gold.id))

    rng = np.random.default_rng(config.seed)
    orders = [rng.permutation(len(feats)) for _ in range(config.epochs)]
    buckets, slots = _slot_layout(feats, orders[0] if orders else range(len(feats)))

    n_classes = len(scheme.categories)
    W = np.zeros((n_classes, buckets.size))
    b = np.zeros(n_classes)
    mW = np.zeros_like(W)
    vW = np.zeros_like(W)
    mb = np.zeros(n_classes)
    vb = np.zeros(n_classes)
    n_active = 0

    beta1, beta2, eps = config.beta1, config.beta2, config.eps
    step = 0
    for epoch, order in enumerate(orders):
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(order), config.batch_size):
            batch_ids = order[start : start + config.batch_size]
            step += 1
            cols, grad_cols, grad_b, batch_loss = _batch_grad(W, b, feats, slots, targets, batch_ids)
            if cols.size:
                n_active = max(n_active, int(cols[-1]) + 1)
            W_act, mW_act, vW_act = W[:, :n_active], mW[:, :n_active], vW[:, :n_active]

            mult = min(step / config.warmup_steps, 1.0) if config.warmup_steps > 0 else 1.0
            mW_act *= beta1
            vW_act *= beta2
            mW[:, cols] += (1.0 - beta1) * grad_cols
            vW[:, cols] += (1.0 - beta2) * (grad_cols * grad_cols)
            mb = beta1 * mb + (1.0 - beta1) * grad_b
            vb = beta2 * vb + (1.0 - beta2) * (grad_b * grad_b)

            bc1 = 1.0 - beta1**step
            bc2 = 1.0 - beta2**step
            scale = mult * config.learning_rate / bc1
            if config.weight_decay:
                W_act *= 1.0 - mult * config.weight_decay
            denom = np.sqrt(vW_act) / math.sqrt(bc2) + eps
            W_act -= scale * (mW_act / denom)
            b = b - scale * (mb / (np.sqrt(vb) / math.sqrt(bc2) + eps))
            epoch_loss += batch_loss
            n_batches += 1
        logger.info("epoch %d: mean batch loss %.4f", epoch + 1, epoch_loss / max(1, n_batches))

    W_dense = np.zeros((n_classes, N_BUCKETS))
    W_dense[:, buckets] = W
    return SoftmaxModel(scheme, W_dense, b)


def predict(model: SoftmaxModel, features: FeatureVector, entity_id: str | None = None) -> Prediction:
    """Score one feature vector; ties go to the lowest category index."""
    z = model.b.copy()
    if features.nnz:
        z += model.W[:, features.indices] @ features.values
    scores = _softmax(z)
    best = int(np.argmax(scores))
    return Prediction(
        entity_id=entity_id,
        label=model.scheme.categories[best],
        confidence=float(scores[best]),
        scores=scores,
    )


def predict_text(model: SoftmaxModel, text: str, entity_id: str | None = None) -> Prediction:
    return predict(model, featurize(text), entity_id=entity_id)


def predict_instances(model: SoftmaxModel, instances, batch_size: int = 16) -> list[Prediction]:
    """Predict a sequence of instances one at a time, in order.

    ``batch_size`` has no effect; it stays so callers passing the
    ``eval_batch_size`` setting keep working.
    """
    return [predict_text(model, inst.input_text, entity_id=inst.entity_id) for inst in instances]


def save_model(model: SoftmaxModel, path: str | Path) -> Path:
    """Write a deterministic container: JSON header + raw arrays.

    Only columns with any nonzero weight are stored; bytes are identical
    across retrainings with the same data and seed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    nonzero_cols = np.flatnonzero(np.any(model.W != 0.0, axis=0)).astype(np.int64)
    block = np.ascontiguousarray(model.W[:, nonzero_cols], dtype="<f8")
    header = {
        "format": MODEL_FORMAT,
        "classes": int(model.W.shape[0]),
        "buckets": int(model.W.shape[1]),
        "storage": "sparse-columns",
        "n_cols": int(nonzero_cols.size),
        "scheme_fingerprint": model.scheme.fingerprint,
        "featurizer_hash": FEATURIZER_HASH,
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        fh.write(nonzero_cols.astype("<i8").tobytes())
        fh.write(block.tobytes())
        fh.write(model.b.astype("<f8").tobytes())
    return path


def load_model(path: str | Path, scheme: TaxonomyScheme) -> SoftmaxModel:
    """Read a model container; reject scheme or featurizer mismatches."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        if header.get("format") != MODEL_FORMAT:
            raise FingerprintMismatch(f"unsupported model format {header.get('format')!r}")
        if header["scheme_fingerprint"] != scheme.fingerprint:
            raise FingerprintMismatch("model was trained under a different scheme")
        if header["featurizer_hash"] != FEATURIZER_HASH:
            raise FingerprintMismatch("model was trained with a different featurizer")
        n_classes, n_cols = header["classes"], header["n_cols"]
        cols = np.frombuffer(fh.read(8 * n_cols), dtype="<i8")
        block = np.frombuffer(fh.read(8 * n_classes * n_cols), dtype="<f8").reshape(
            n_classes, n_cols
        )
        b = np.frombuffer(fh.read(8 * n_classes), dtype="<f8").copy()
    W = np.zeros((n_classes, header["buckets"]))
    W[:, cols] = block
    return SoftmaxModel(scheme, W, b)
