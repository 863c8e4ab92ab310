"""Linear softmax classifier over hashed features.

Training uses moment-adaptive updates (first and second gradient moments
with bias correction), decoupled multiplicative weight decay, and a linear
learning-rate warmup. With zero initialization and decay applied
multiplicatively, a feature column stays exactly zero until a gradient first
touches it. Every feature vector is known before the first step and every
instance appears in the first epoch, so each used bucket gets a compact slot,
numbered in order of first appearance under the first epoch's shuffle. The
weights and moments are slots x classes arrays, so the slots touched so far
are always the contiguous leading rows ``[:n_active]``, and decay, moments
and update are in-place operations on that one block. Each weight, moment and
logit sees the same floating-point operations in the same order as in a dense
update over all 2^18 columns (logits gather a vector's weights in its bucket
order, gradients accumulate in instance order), so the weights are
bit-identical to it (see the dense-oracle tests). At the end the slots are
put in bucket order once, as the classes x buckets columns the model keeps:
no path builds the classes x 2^18 matrix except the on-demand
``SoftmaxModel.W``.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    EmptyTrainingSet,
    FingerprintMismatch,
    MissingGold,
    ParseError,
    UnknownLabel,
)
from .features import FEATURIZER_HASH, N_BUCKETS, FeatureVector, featurize
from .files import write_file
from .taxonomy import CategoryLabel, TaxonomyScheme

logger = logging.getLogger(__name__)

MODEL_FORMAT = "taxotext-softmax/1"

# Slots per chunk of the Adam update and of the final copy into model columns:
# a chunk is UPDATE_CHUNK_COLS contiguous rows of the slots x classes arrays.
UPDATE_CHUNK_COLS = 2048


@dataclass
class TrainConfig:
    epochs: int = 3
    batch_size: int = 8
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
    """Bias ``b`` and the weight columns of the buckets in ``cols``.

    ``cols`` holds strictly increasing buckets; ``block[:, j]`` holds the
    weights of bucket ``cols[j]``, rows in scheme category order. Every other
    bucket's weights are zero. Without ``block`` the weights start at zero.
    """

    def __init__(
        self,
        scheme: TaxonomyScheme,
        cols: np.ndarray | None = None,
        block: np.ndarray | None = None,
        b: np.ndarray | None = None,
    ):
        n_classes = len(scheme.categories)
        self.scheme = scheme
        self.cols = np.zeros(0, dtype=np.int64) if cols is None else np.asarray(cols, dtype=np.int64)
        self.b = np.zeros(n_classes) if b is None else b
        n = self.cols.size
        if (
            self.cols.shape != (n,)
            or self.b.shape != (n_classes,)
            or (block is not None and np.shape(block) != (n_classes, n))
        ):
            raise ValueError("weight shapes do not match the scheme")
        if n and (self.cols[0] < 0 or self.cols[-1] >= N_BUCKETS or np.any(np.diff(self.cols) <= 0)):
            raise ValueError(f"columns must be strictly increasing buckets in [0, {N_BUCKETS})")
        # One trailing all-zero column stands in for every bucket not in cols.
        self._weights = np.zeros((n_classes, n + 1))
        if block is not None:
            self.block[...] = block

    @property
    def block(self) -> np.ndarray:
        """Writable classes x len(cols) view of the weights."""
        return self._weights[:, :-1]

    @property
    def W(self) -> np.ndarray:
        """Dense read-only classes x N_BUCKETS weights, built on each access.

        About 57 MB for SIC's 27 classes; the pipeline never reads it.
        """
        W = np.zeros((self.b.size, N_BUCKETS))
        W[:, self.cols] = self.block
        W.flags.writeable = False
        return W

    def weights_of(self, indices: np.ndarray) -> np.ndarray:
        """The classes x len(indices) weights of these buckets, zeros included.

        This is the same matrix as ``W[:, indices]``, so a product with it
        sums the same terms in the same order.
        """
        n = self.cols.size
        pos = np.searchsorted(self.cols, indices)
        found = pos < n
        found[found] = self.cols[pos[found]] == indices[found]
        pos[~found] = n
        return self._weights[:, pos]


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

    Returns the used buckets in increasing order, the slot of each, and, per
    instance, the slots of its feature indices in the same (bucket) order as
    the indices.
    """
    seq = np.concatenate([feats[i].indices for i in first_order])
    buckets, first = np.unique(seq, return_index=True)
    slot_of = np.empty(buckets.size, dtype=np.int64)
    slot_of[np.argsort(first)] = np.arange(buckets.size)
    slots = [slot_of[np.searchsorted(buckets, fv.indices)] for fv in feats]
    return buckets, slot_of, slots


def _batch_grad(W, b, feats, slots, targets, batch_ids, pos_of):
    """Gradient rows of the union of the batch's slots, for slots x classes ``W``.

    The logits use the transposed gather ``W[slots].T``: like the dense
    ``W[:, indices]`` it is classes x n in Fortran order, so the product sums
    in the same order. A C-contiguous copy would change the order and the
    last bits of the weights. ``pos_of`` is scratch with one entry per slot;
    it maps each slot of the union to its gradient row.
    """
    # The sorted union by a mask on adjacent differences. On a plain integer
    # array np.unique takes its hash path, about ten times slower at these sizes.
    seq = np.concatenate([slots[i] for i in batch_ids])
    seq.sort()
    first = np.empty(seq.size, dtype=bool)
    first[:1] = True
    np.not_equal(seq[1:], seq[:-1], out=first[1:])
    cols = seq[first]
    pos_of[cols] = np.arange(cols.size)
    grad_rows = np.zeros((cols.size, b.size))
    grad_b = np.zeros(b.size)
    loss = 0.0
    for i in batch_ids:
        fv, y = feats[i], targets[i]
        z = b + (W[slots[i]].T @ fv.values if fv.nnz else 0.0)
        shifted = z - z.max()
        e = np.exp(shifted)
        loss += math.log(e.sum()) - shifted[y]
        g = e / e.sum()
        g[y] -= 1.0
        if fv.nnz:
            grad_rows[pos_of[slots[i]]] += np.outer(fv.values, g)
        grad_b += g
    n = len(batch_ids)
    grad_rows /= n
    return cols, grad_rows, grad_b / n, loss / n


def _adam_step(W, mW, vW, n_active, cols, grad_rows, beta1, beta2, decay, scale, sqrt_bc2, eps, buf):
    """One moment update and weight step on the slots x classes arrays, in place.

    ``mW = beta1 * mW + (1 - beta1) * g`` and ``vW = beta2 * vW + (1 - beta2) * g * g``
    for the gradient ``g``, whose nonzero rows are ``grad_rows`` at the sorted
    slots ``cols``; then ``W = W * decay - scale * (mW / (sqrt(vW) / sqrt_bc2 + eps))``.
    Both run over the prefix ``[:n_active]`` one contiguous block of rows at a
    time, through ``buf``, so each block of W, mW and vW is read once while it
    is in cache. Every element sees the same IEEE operations in the same order
    as the whole-prefix expressions, without their n_active x classes
    temporaries. ``decay`` None skips the multiplication. ``grad_rows`` is
    overwritten.
    """
    grad_sq = np.multiply(grad_rows, grad_rows)
    grad_sq *= 1.0 - beta2
    grad_rows *= 1.0 - beta1
    chunk = buf.shape[0]
    edges = np.searchsorted(cols, range(0, n_active + chunk, chunk)).tolist()
    for lo, hi, start in zip(edges, edges[1:], range(0, n_active, chunk)):
        stop = min(start + chunk, n_active)
        w, m, v, step = W[start:stop], mW[start:stop], vW[start:stop], buf[: stop - start]
        m *= beta1
        v *= beta2
        if hi > lo:
            rows = cols[lo:hi] - start
            m[rows] += grad_rows[lo:hi]
            v[rows] += grad_sq[lo:hi]
        if decay is not None:
            w *= decay
        np.sqrt(v, out=step)
        step /= sqrt_bc2
        step += eps
        np.divide(m, step, out=step)
        step *= scale
        w -= step


def _one_per_instance(features: Sequence[FeatureVector], instances: list) -> list[FeatureVector]:
    features = list(features)
    if len(features) != len(instances):
        raise ValueError(f"{len(features)} feature vectors for {len(instances)} instances")
    return features


def train(
    instances,
    scheme: TaxonomyScheme,
    config: TrainConfig | None = None,
    *,
    features: Sequence[FeatureVector] | None = None,
) -> SoftmaxModel:
    """Fit the classifier on gold-labeled instances.

    Deterministic for a fixed seed: shuffle order, batching, and update
    order are all derived from it. Bias is exempt from weight decay.
    ``features``, one vector per instance in order, stands in for
    featurizing each instance's text.
    """
    config = config or TrainConfig()
    instances = list(instances)
    if not instances:
        raise EmptyTrainingSet("no training instances")
    by_id = scheme.by_id
    targets: list[int] = []
    for inst in instances:
        if inst.gold is None:
            raise MissingGold(f"instance {inst.entity_id!r} has no gold label")
        if inst.gold.id not in by_id:
            raise UnknownLabel(f"gold label {inst.gold.id!r} not in scheme")
        targets.append(scheme.index_of(inst.gold.id))
    if features is None:
        feats = [featurize(inst.input_text) for inst in instances]
    else:
        feats = _one_per_instance(features, instances)

    rng = np.random.default_rng(config.seed)
    orders = [rng.permutation(len(feats)) for _ in range(config.epochs)]
    buckets, slot_of, slots = _slot_layout(feats, orders[0] if orders else range(len(feats)))

    n_classes = len(scheme.categories)
    W = np.zeros((buckets.size, n_classes))
    buf = np.empty((max(1, min(UPDATE_CHUNK_COLS, buckets.size)), n_classes))
    pos_of = np.empty(buckets.size, dtype=np.intp)
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
            cols, grad_rows, grad_b, batch_loss = _batch_grad(
                W, b, feats, slots, targets, batch_ids, pos_of
            )
            if cols.size:
                n_active = max(n_active, int(cols[-1]) + 1)

            mult = min(step / config.warmup_steps, 1.0) if config.warmup_steps > 0 else 1.0
            mb = beta1 * mb + (1.0 - beta1) * grad_b
            vb = beta2 * vb + (1.0 - beta2) * (grad_b * grad_b)

            bc1 = 1.0 - beta1**step
            bc2 = 1.0 - beta2**step
            scale = mult * config.learning_rate / bc1
            decay = 1.0 - mult * config.weight_decay if config.weight_decay else None
            _adam_step(
                W, mW, vW, n_active, cols, grad_rows,
                beta1, beta2, decay, scale, math.sqrt(bc2), eps, buf,
            )
            b = b - scale * (mb / (np.sqrt(vb) / math.sqrt(bc2) + eps))
            epoch_loss += batch_loss
            n_batches += 1
        logger.info("epoch %d: mean batch loss %.4f", epoch + 1, epoch_loss / max(1, n_batches))

    # Free the moments, then copy the slots into bucket order in chunks, so at
    # most two arrays of U x classes weights (W and the model's block) are ever
    # alive here.
    del mW, vW
    model = SoftmaxModel(scheme, buckets, b=b)
    block = model.block
    for start in range(0, buckets.size, UPDATE_CHUNK_COLS):
        stop = start + UPDATE_CHUNK_COLS
        block[:, start:stop] = W[slot_of[start:stop]].T
    return model


def predict(model: SoftmaxModel, features: FeatureVector, entity_id: str | None = None) -> Prediction:
    """Score one feature vector; ties go to the lowest category index."""
    z = model.b.copy()
    if features.nnz:
        z += model.weights_of(features.indices) @ features.values
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


def predict_instances(
    model: SoftmaxModel, instances, *, features: Sequence[FeatureVector] | None = None
) -> list[Prediction]:
    """Predict a sequence of instances one at a time, in order.

    ``features``, one vector per instance in order, stands in for
    featurizing each instance's text.
    """
    instances = list(instances)
    if features is None:
        features = (featurize(inst.input_text) for inst in instances)
    else:
        features = _one_per_instance(features, instances)
    return [predict(model, fv, entity_id=inst.entity_id) for inst, fv in zip(instances, features)]


def save_model(model: SoftmaxModel, path: str | Path) -> Path:
    """Write a deterministic container: JSON header + raw arrays.

    Only columns with any nonzero weight are stored; bytes are identical
    across retrainings with the same data and seed.
    """
    nonzero = np.any(model.block != 0.0, axis=0)
    cols = model.cols[nonzero]
    block = model.block[:, nonzero]
    header = {
        "format": MODEL_FORMAT,
        "classes": int(model.b.size),
        "buckets": N_BUCKETS,
        "storage": "sparse-columns",
        "n_cols": int(cols.size),
        "scheme_fingerprint": model.scheme.fingerprint,
        "featurizer_hash": FEATURIZER_HASH,
    }
    arrays = ((cols, "<i8"), (block, "<f8"), (model.b, "<f8"))
    chunks = chain(
        [(json.dumps(header, sort_keys=True) + "\n").encode("utf-8")],
        (a.astype(dtype, copy=False).tobytes() for a, dtype in arrays),
    )
    return write_file(path, chunks, binary=True)


def load_model(path: str | Path, scheme: TaxonomyScheme) -> SoftmaxModel:
    """Read a model container.

    Raises FingerprintMismatch for another format, scheme or featurizer, and
    ParseError for a file that is not a well-formed container.
    """
    head, _, body = Path(path).read_bytes().partition(b"\n")
    try:
        header = json.loads(head)
    except ValueError:
        raise ParseError(f"{path}: model header is not JSON") from None
    if not isinstance(header, dict):
        raise ParseError(f"{path}: model header is not a JSON object")
    if header.get("format") != MODEL_FORMAT:
        raise FingerprintMismatch(f"unsupported model format {header.get('format')!r}")
    if header.get("scheme_fingerprint") != scheme.fingerprint:
        raise FingerprintMismatch("model was trained under a different scheme")
    if header.get("featurizer_hash") != FEATURIZER_HASH:
        raise FingerprintMismatch("model was trained with a different featurizer")
    if header.get("buckets") != N_BUCKETS:
        raise ParseError(f"{path}: model has {header.get('buckets')!r} buckets, expected {N_BUCKETS}")
    n_classes, n_cols = header.get("classes"), header.get("n_cols")
    if not (isinstance(n_classes, int) and isinstance(n_cols, int) and n_classes >= 0 and n_cols >= 0):
        raise ParseError(f"{path}: model header has no valid classes/n_cols")
    expected = 8 * (n_cols + n_classes * n_cols + n_classes)
    if len(body) != expected:
        raise ParseError(f"{path}: model body is {len(body)} bytes, expected {expected}")
    cols = np.frombuffer(body, dtype="<i8", count=n_cols)
    block = np.frombuffer(body, dtype="<f8", count=n_classes * n_cols, offset=8 * n_cols)
    b = np.frombuffer(body, dtype="<f8", count=n_classes, offset=8 * (n_cols + n_classes * n_cols))
    try:
        return SoftmaxModel(
            scheme, cols.astype(np.int64), block.reshape(n_classes, n_cols), b.astype(np.float64)
        )
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
