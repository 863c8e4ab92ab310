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

The corpus is held as ``TrainingRows``: one compact layout of every row's
features, filled as each text is featurized, so no instance, text or
``FeatureVector`` outlives its row. Each step gathers weight rows, forms outer
products and accumulates the batch's gradient in buffers allocated once per
``train`` call, sized for the longest row and the largest batch union.

When at least two CPUs are usable and the corpus has at least
``SPLIT_MIN_ELEMENTS`` weights, a step whose prefix is that large updates it
in two halves at once: a worker thread takes the upper rows, the calling
thread the lower ones, and the step waits for both. The halves are disjoint
rows and every element's operations stay as they are, so the weights are the
same bits as on one thread.
"""

from __future__ import annotations

import json
import logging
import math
import os
from array import array
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable

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

# A step updates its prefix of slots x classes weights in two halves, one on a
# worker thread, when the prefix holds at least this many weights. On smaller
# 17-class prefixes the split costs about one CPU ms per wall ms it saves
# (BENCH_25.json, step_curve).
SPLIT_MIN_ELEMENTS = 2**19


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


class TrainingRows:
    """Gold-labeled feature rows in one compact layout, filled one instance at a time.

    Row ``i`` holds the buckets ``rows[i]``, a view of the int32 ``cols`` from
    ``offsets[i]`` to ``offsets[i + 1]``, with its feature values at the same
    positions of ``values`` and its class index ``targets[i]``. Each instance
    and its ``FeatureVector`` are dropped once copied in, so an iterator of
    instances is never held whole. ``features``, one vector per instance in
    order, stands in for featurizing each instance's text. ``train`` renumbers
    ``cols`` from buckets to slots in place, so the rows train once. An
    instance without a gold label in the scheme raises ``MissingGold`` or
    ``UnknownLabel`` as it is read.
    """

    def __init__(
        self,
        instances: Iterable,
        scheme: TaxonomyScheme,
        features: Iterable[FeatureVector] | None = None,
    ):
        by_id = scheme.by_id
        cols, values, offsets, targets = array("i"), array("d"), array("q", [0]), array("q")
        vectors = None if features is None else iter(features)
        for inst in instances:
            if inst.gold is None:
                raise MissingGold(f"instance {inst.entity_id!r} has no gold label")
            if inst.gold.id not in by_id:
                raise UnknownLabel(f"gold label {inst.gold.id!r} not in scheme")
            fv = featurize(inst.input_text) if vectors is None else next(vectors, None)
            if fv is None:
                raise ValueError("fewer feature vectors than instances")
            targets.append(scheme.index_of(inst.gold.id))
            cols.frombytes(fv.indices.astype(np.int32).tobytes())
            values.frombytes(fv.values.tobytes())
            offsets.append(len(cols))
        if vectors is not None and next(vectors, None) is not None:
            raise ValueError("more feature vectors than instances")
        self.scheme = scheme
        self.cols = np.frombuffer(cols, dtype=np.int32)
        self.values = np.frombuffer(values, dtype=np.float64)
        self.offsets = np.frombuffer(offsets, dtype=np.int64)
        self.targets = np.frombuffer(targets, dtype=np.int64)
        self.renumbered = False

    def __len__(self) -> int:
        return self.targets.size

    def __getitem__(self, i: int) -> np.ndarray:
        return self.cols[self.offsets[i] : self.offsets[i + 1]]


def _slot_layout(rows: TrainingRows, first_order) -> tuple[np.ndarray, np.ndarray]:
    """Number the used buckets by first appearance along `first_order`.

    Rewrites each row's buckets to their slots in place, so ``rows[i]`` then
    holds the slots of its features in the same (bucket) order, and returns the
    used buckets in increasing order and the slot of each. Walking the rows
    needs one bucket-indexed map, not a sort of every stored feature.
    """
    if rows.renumbered:
        raise ValueError("these rows were renumbered by an earlier train call")
    rows.renumbered = True
    slot = np.full(N_BUCKETS, -1, dtype=np.int32)
    n_slots = 0
    for i in first_order:
        row = rows[i]
        new = row[slot[row] < 0]
        slot[new] = np.arange(n_slots, n_slots + new.size, dtype=np.int32)
        n_slots += new.size
        row[...] = slot[row]
    buckets = np.flatnonzero(slot >= 0)
    return buckets, slot[buckets]


def _batch_grad(W, b, rows, batch_ids, pos_of, grad_buf, gather_buf, outer_buf):
    """Gradient rows of the union of the batch's slots, for slots x classes ``W``.

    The logits use the transposed gather of ``W``'s rows at the instance's
    slots: like the dense ``W[:, indices]`` it is classes x n in Fortran
    order, so the product sums in the same order. Multiplying a C-contiguous
    classes x n copy would change the order and the last bits of the weights.
    ``pos_of`` is scratch with one entry per slot; it maps each slot of the
    union to its gradient row. The gradient rows are the leading rows of
    ``grad_buf``; each instance's gathered weights and outer product go into
    the leading rows of ``gather_buf`` and ``outer_buf``.
    """
    # The sorted union by a mask on adjacent differences. On a plain integer
    # array np.unique takes its hash path, about ten times slower at these sizes.
    # The union is intp: indexing with the rows' int32 slots would cast them
    # again at each block of the update.
    seq = np.concatenate([rows[i] for i in batch_ids], dtype=np.intp)
    seq.sort()
    first = np.empty(seq.size, dtype=bool)
    first[:1] = True
    np.not_equal(seq[1:], seq[:-1], out=first[1:])
    cols = seq[first]
    pos_of[cols] = np.arange(cols.size)
    grad_rows = grad_buf[: cols.size]
    grad_rows.fill(0.0)
    grad_b = np.zeros(b.size)
    loss = 0.0
    offsets, values, targets = rows.offsets, rows.values, rows.targets
    for i in batch_ids:
        lo, hi = offsets[i], offsets[i + 1]
        slots, fv_values, y = rows.cols[lo:hi], values[lo:hi], targets[i]
        # mode="clip" writes straight into the buffer; every slot is in range.
        gathered = np.take(W, slots, axis=0, out=gather_buf[: slots.size], mode="clip")
        z = b + (gathered.T @ fv_values if slots.size else 0.0)
        shifted = z - z.max()
        e = np.exp(shifted)
        loss += math.log(e.sum()) - shifted[y]
        g = e / e.sum()
        g[y] -= 1.0
        if slots.size:
            # grad_rows[at] += np.outer(fv_values, g), through the two buffers
            outer = np.multiply(fv_values[:, None], g[None, :], out=outer_buf[: slots.size])
            at = pos_of[slots]
            np.take(grad_rows, at, axis=0, out=gathered, mode="clip")
            gathered += outer
            grad_rows[at] = gathered
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
    is in cache. A block's gradient rows are squared and scaled into the
    leading rows of ``buf`` (a block holds at most as many gradient rows as
    ``buf`` has rows) before ``buf`` holds its step. Every element sees the
    same IEEE operations in the same order as the whole-prefix expressions,
    without their n_active x classes temporaries. ``decay`` None skips the
    multiplication. ``grad_rows`` is overwritten.
    """
    chunk = buf.shape[0]
    edges = np.searchsorted(cols, range(0, n_active + chunk, chunk)).tolist()
    for lo, hi, start in zip(edges, edges[1:], range(0, n_active, chunk)):
        stop = min(start + chunk, n_active)
        w, m, v, step = W[start:stop], mW[start:stop], vW[start:stop], buf[: stop - start]
        m *= beta1
        v *= beta2
        if hi > lo:
            at, g, g_sq = cols[lo:hi], grad_rows[lo:hi], step[: hi - lo]
            np.multiply(g, g, out=g_sq)
            g_sq *= 1.0 - beta2
            g *= 1.0 - beta1
            mW[at] += g
            vW[at] += g_sq
        if decay is not None:
            w *= decay
        np.sqrt(v, out=step)
        step /= sqrt_bc2
        step += eps
        np.divide(m, step, out=step)
        step *= scale
        w -= step


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _split_point(n_active: int, n_classes: int, chunk: int) -> int:
    """The first row of the prefix's upper half, a multiple of ``chunk`` near
    its middle; 0 when the prefix is under SPLIT_MIN_ELEMENTS weights or too
    short to cut on a chunk boundary."""
    if n_active * n_classes < SPLIT_MIN_ELEMENTS:
        return 0
    mid = (n_active + chunk) // (2 * chunk) * chunk
    return mid if mid < n_active else 0


def train(
    instances,
    scheme: TaxonomyScheme,
    config: TrainConfig | None = None,
    *,
    features: Iterable[FeatureVector] | None = None,
) -> SoftmaxModel:
    """Fit the classifier on gold-labeled instances, or on their ``TrainingRows``.

    Deterministic for a fixed seed: shuffle order, batching, and update
    order are all derived from it. Bias is exempt from weight decay.
    ``instances`` may be any iterable, read once; ``features``, one vector per
    instance in order, stands in for featurizing each instance's text, and
    then only the instances' ``entity_id`` and ``gold`` are read, so
    ``EntityRecord``s serve as well. A gold label missing or outside the
    scheme raises as ``TrainingRows`` reads it, and no rows raise
    ``EmptyTrainingSet``.
    """
    config = config or TrainConfig()
    if isinstance(instances, TrainingRows):
        rows = instances
        if rows.scheme.fingerprint != scheme.fingerprint:
            raise ValueError("the rows were labeled under a different scheme")
    else:
        rows = TrainingRows(instances, scheme, features)
    if not len(rows):
        raise EmptyTrainingSet("no training instances")

    rng = np.random.default_rng(config.seed)
    orders = [rng.permutation(len(rows)) for _ in range(config.epochs)]
    buckets, slot_of = _slot_layout(rows, orders[0] if orders else range(len(rows)))

    n_classes = len(scheme.categories)
    W = np.zeros((buckets.size, n_classes))
    buf = np.empty((max(1, min(UPDATE_CHUNK_COLS, buckets.size)), n_classes))
    pos_of = np.empty(buckets.size, dtype=np.intp)
    # The step buffers, allocated once: gathered weights and an outer product
    # for the longest row, and gradient rows for the largest union a batch can
    # have, that of its batch_size longest rows. A step writes only the
    # leading rows it needs.
    lengths = np.diff(rows.offsets)
    gather_buf = np.empty((int(lengths.max()), n_classes))
    outer_buf = np.empty_like(gather_buf)
    grad_buf = np.empty((min(buckets.size, int(np.sort(lengths)[-config.batch_size :].sum())), n_classes))
    b = np.zeros(n_classes)
    mW = np.zeros_like(W)
    vW = np.zeros_like(W)
    mb = np.zeros(n_classes)
    vb = np.zeros(n_classes)
    n_active = 0
    # No prefix reaches SPLIT_MIN_ELEMENTS unless the whole corpus does.
    split = _usable_cpus() >= 2 and buckets.size * n_classes >= SPLIT_MIN_ELEMENTS
    upper_buf = np.empty_like(buf) if split else None

    beta1, beta2, eps = config.beta1, config.beta2, config.eps
    step = 0
    with ThreadPoolExecutor(max_workers=1) if split else nullcontext() as worker:
        for epoch, order in enumerate(orders):
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, len(order), config.batch_size):
                batch_ids = order[start : start + config.batch_size]
                step += 1
                cols, grad_rows, grad_b, batch_loss = _batch_grad(
                    W, b, rows, batch_ids, pos_of, grad_buf, gather_buf, outer_buf
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
                hyper = (beta1, beta2, decay, scale, math.sqrt(bc2), eps)
                mid = _split_point(n_active, n_classes, buf.shape[0]) if split else 0
                if mid:
                    # The worker updates rows [mid:n_active], this thread rows [:mid].
                    cut = int(np.searchsorted(cols, mid))
                    upper = worker.submit(
                        _adam_step, W[mid:], mW[mid:], vW[mid:], n_active - mid,
                        cols[cut:] - mid, grad_rows[cut:], *hyper, upper_buf,
                    )
                    _adam_step(W, mW, vW, mid, cols[:cut], grad_rows[:cut], *hyper, buf)
                    upper.result()
                else:
                    _adam_step(W, mW, vW, n_active, cols, grad_rows, *hyper, buf)
                b = b - scale * (mb / (np.sqrt(vb) / math.sqrt(bc2) + eps))
                epoch_loss += batch_loss
                n_batches += 1
            logger.info("epoch %d: mean batch loss %.4f", epoch + 1, epoch_loss / max(1, n_batches))

    # Free the moments and the step buffers, then copy the slots into bucket
    # order in chunks, so at most two arrays of U x classes weights (W and the
    # model's block) are ever alive here.
    del mW, vW, grad_buf, gather_buf, outer_buf
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
    model: SoftmaxModel, instances, *, features: Iterable[FeatureVector] | None = None
) -> list[Prediction]:
    """Predict instances one at a time, in order.

    ``features``, one vector per instance in order, stands in for
    featurizing each instance's text (then only ``entity_id`` is read); a
    count that differs is a ValueError. Each instance is featurized and
    dropped as it is read, but every ``Prediction`` is returned, with its
    scores: about 0.5 KB a row. ``cli predict`` writes each row's prediction
    as it scores it (``predict_text``) and holds none.
    """
    if features is None:
        pairs = ((inst, featurize(inst.input_text)) for inst in instances)
    else:
        pairs = zip(instances, features, strict=True)
    return [predict(model, fv, entity_id=inst.entity_id) for inst, fv in pairs]


def save_model(model: SoftmaxModel, path: str | Path) -> Path:
    """Write a deterministic container: JSON header + raw arrays.

    Only columns with any nonzero weight are stored; bytes are identical
    across retrainings with the same data and seed. The weights go out one
    class row at a time, so no copy of the whole block is made.
    """
    nonzero = np.any(model.block != 0.0, axis=0)
    keep = slice(None) if nonzero.all() else nonzero
    cols = model.cols[keep]
    header = {
        "format": MODEL_FORMAT,
        "classes": int(model.b.size),
        "buckets": N_BUCKETS,
        "storage": "sparse-columns",
        "n_cols": int(cols.size),
        "scheme_fingerprint": model.scheme.fingerprint,
        "featurizer_hash": FEATURIZER_HASH,
    }
    arrays = chain([(cols, "<i8")], ((row[keep], "<f8") for row in model.block), [(model.b, "<f8")])
    chunks = chain(
        [(json.dumps(header, sort_keys=True) + "\n").encode("utf-8")],
        (a.astype(dtype, copy=False).tobytes() for a, dtype in arrays),
    )
    return write_file(path, chunks, binary=True)


def load_model(path: str | Path, scheme: TaxonomyScheme) -> SoftmaxModel:
    """Read a model container.

    Raises FingerprintMismatch for another format, scheme or featurizer, and
    ParseError for a file that is not a well-formed container. The body's
    length is checked against the file size before it is read; its arrays are
    then read straight into the model's own, one class row at a time.
    """
    with open(path, "rb") as fh:
        head = fh.readline()
        body_size = os.fstat(fh.fileno()).st_size - len(head)
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
        if body_size != expected:
            raise ParseError(f"{path}: model body is {body_size} bytes, expected {expected}")
        try:
            cols = np.fromfile(fh, dtype="<i8", count=n_cols)
            model = SoftmaxModel(scheme, cols, b=np.zeros(n_classes))
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from None
        for row in model.block:
            row[...] = np.fromfile(fh, dtype="<f8", count=n_cols)
        model.b[...] = np.fromfile(fh, dtype="<f8", count=n_classes)
    return model
