"""Confidence-gated self-training for a fingerprint logistic classifier.

The classifier is logistic regression over folded circular fingerprints,
fit by minibatch gradient descent on binary cross entropy with an L2
penalty on the weights. Loss and gradient share one code path
(:func:`loss_and_grad`) so the gradient can be audited against finite
differences.

Training reads each row as its on-bit columns (a fingerprint sets a few
dozen of its bits), so a minibatch is a :class:`SparseBatch` and its logit
and gradient sums are ``np.bincount`` calls, which add in their fixed input
order: per row in ascending column, per column in batch order. They no
longer run in the OpenBLAS ``dgemv`` kernel picked for the CPU at run time.
Scoring (:func:`predict`, the validation logits and the pool rescore) stays
a dense BLAS product, as do the L2 term of the reported loss and the
diffusion posterior.

Self-training proceeds in epochs. For the first ``warmup_epochs`` only the
labeled set is used. Afterwards, on every epoch divisible by
``refresh_period``, the generated pool is rescored and the entries whose
predicted probability exceeds ``confidence_threshold`` join the training
set as pseudo-actives (class 1; generation starts from active scaffolds,
so no pseudo-inactives are ever minted). The minority class is oversampled
with replacement to a 1:1 ratio each epoch. The learning rate follows a
polynomial decay, lr0 * (1 - epoch / epochs) ** 0.9, and the model kept is
the one with the best validation BEDROC (earliest epoch on ties).

Everything is driven by explicit seeds; identical configuration and data
reproduce the history and weights bit for bit.
"""

from __future__ import annotations

import copy
import csv
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .chem.graph import MolGraph
from .fingerprints import DEFAULT_NBITS, DEFAULT_RADIUS, ecfp, fingerprint_matrix
from .metrics import RankedList, bedroc

__all__ = [
    "CHECKPOINT_VERSION",
    "DegenerateData",
    "EpochRecord",
    "FingerprintClassifier",
    "LabeledSet",
    "SelfTrainConfig",
    "SparseBatch",
    "load_checkpoint",
    "loss_and_grad",
    "predict",
    "pseudo_label",
    "save_checkpoint",
    "self_train",
    "write_history_csv",
]

CHECKPOINT_VERSION = 1


class DegenerateData(ValueError):
    """Raised when training data lacks one of the two classes."""


@dataclass(frozen=True)
class LabeledSet:
    """Molecules with binary labels; origin tags original vs pseudo-labeled data."""

    ids: tuple[str, ...]
    molecules: tuple[MolGraph, ...]
    labels: np.ndarray
    origin: str = "original"

    def __post_init__(self) -> None:
        if not (len(self.ids) == len(self.molecules) == len(self.labels)):
            raise ValueError("ids, molecules and labels must align")
        if self.origin not in ("original", "pseudo"):
            raise ValueError(f"unknown origin {self.origin!r}")
        labels = np.asarray(self.labels, dtype=np.int64)
        if len(labels) and not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be binary")
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return len(self.molecules)

    @property
    def active_fraction(self) -> float:
        return float(self.labels.mean()) if self.size else 0.0


@dataclass
class FingerprintClassifier:
    """Logistic regression over folded fingerprints."""

    radius: int = DEFAULT_RADIUS
    nbits: int = DEFAULT_NBITS
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]
    bias: float = 0.0

    def __post_init__(self) -> None:
        if self.weights is None:
            self.weights = np.zeros(self.nbits, dtype=np.float64)
        if self.weights.shape != (self.nbits,):
            raise ValueError("weight vector width must equal nbits")

    def featurize(self, mols: Sequence[MolGraph]) -> np.ndarray:
        """One uint8 0/1 row per molecule."""
        if not mols:
            return np.zeros((0, self.nbits), dtype=np.uint8)
        return fingerprint_matrix(
            [ecfp(m, radius=self.radius, nbits=self.nbits) for m in mols], dtype=np.uint8
        )

    def logits(self, features: np.ndarray) -> np.ndarray:
        return features.astype(np.float64, copy=False) @ self.weights + self.bias


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, so no exp overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


class SparseBatch(NamedTuple):
    """A minibatch of 0/1 rows as its on bits: entry e is 1 at ``(row[e], cols[e])``."""

    row: np.ndarray
    cols: np.ndarray


def loss_and_grad(
    weights: np.ndarray,
    bias: float,
    features: np.ndarray | SparseBatch,
    labels: np.ndarray,
    l2_penalty: float,
) -> tuple[float, np.ndarray, float]:
    """Mean binary cross entropy plus L2 on the weights, with its gradient.

    ``features`` is a dense 2-D array or a :class:`SparseBatch` of
    ``len(labels)`` rows. Returns ``(loss, grad_weights, grad_bias)``. The
    penalty term is 0.5 * l2 * ||w||^2; the bias is not penalized.
    """
    n = len(labels)
    sparse = isinstance(features, SparseBatch)
    if sparse:
        z = np.bincount(features.row, weights=weights[features.cols], minlength=n)
        z = z + bias  # not in place: with no entries, bincount returns integer zeros
    else:
        z = features @ weights + bias
    # log(1 + exp(z)) - y 'z, computed stably via softplus. Means are taken
    # as sum / n, the value ndarray.mean gives, without its Python overhead.
    softplus = np.logaddexp(0.0, z)
    data_loss = float((softplus - labels * z).sum()) / n
    loss = data_loss + 0.5 * l2_penalty * float(weights @ weights)
    residual = _sigmoid(z) - labels
    if sparse:
        grad_w = np.bincount(
            features.cols, weights=residual[features.row], minlength=len(weights)
        )
    else:
        grad_w = features.T @ residual
    grad_w = grad_w / n
    grad_w += l2_penalty * weights
    grad_b = float(residual.sum()) / n
    return loss, grad_w, grad_b


def _on_bits(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR form of 0/1 ``rows``: row i sets ``cols[indptr[i]:indptr[i + 1]]``, ascending."""
    row_ids, cols = np.nonzero(rows)
    indptr = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum(np.bincount(row_ids, minlength=len(rows)), out=indptr[1:])
    return indptr, cols


def _oversample_to_balance(
    labels: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Index array with the minority class duplicated (with replacement) to 1:1."""
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    if len(pos) == 0 or len(neg) == 0:
        raise DegenerateData("training data must contain both classes")
    if len(pos) == len(neg):
        return np.arange(len(labels))
    minority, majority = (pos, neg) if len(pos) < len(neg) else (neg, pos)
    extra = rng.choice(minority, size=len(majority) - len(minority), replace=True)
    return np.concatenate([np.arange(len(labels)), extra])


def _run_epoch_on_features(
    model: FingerprintClassifier,
    indptr: np.ndarray,
    cols: np.ndarray,
    row_index: np.ndarray,
    labels: np.ndarray,
    learning_rate: float,
    l2_penalty: float,
    batch_size: int,
    rng: np.random.Generator,
) -> float:
    """One epoch over the rows ``row_index`` picks from the CSR rows, labeled ``labels``.

    Each row's on bits are located once per epoch, in shuffled order; a
    minibatch then gathers its entries with a few array calls, numbering its
    rows from 0. Per-minibatch gathers keep every buffer small: laying out
    the whole epoch's entries at once made a fresh half-megabyte array per
    epoch, whose page faults cost more than the calls saved. The weights are
    updated in place.
    """
    indices = _oversample_to_balance(labels, rng)
    rng.shuffle(indices)
    order = row_index[indices]
    starts = indptr[order]
    lengths = indptr[order + 1] - starts
    entry_ptr = np.zeros(len(order) + 1, dtype=np.intp)
    np.cumsum(lengths, out=entry_ptr[1:])
    # Entry e of the epoch, in row k, is cols[shift[k] + e].
    shift = starts - entry_ptr[:-1]
    batch_rows = np.arange(batch_size)
    epoch_labels = labels[indices]
    batch_starts = range(0, len(order), batch_size)
    bounds = entry_ptr[[*batch_starts, len(order)]].tolist()
    losses = []
    for start, lo, hi in zip(batch_starts, bounds, bounds[1:]):
        stop = start + batch_size
        counts = lengths[start:stop]
        gather = np.repeat(shift[start:stop], counts)
        gather += np.arange(lo, hi)
        batch = SparseBatch(np.repeat(batch_rows[: len(counts)], counts), cols[gather])
        loss, grad_w, grad_b = loss_and_grad(
            model.weights, model.bias, batch, epoch_labels[start:stop], l2_penalty
        )
        model.weights -= learning_rate * grad_w
        model.bias -= learning_rate * grad_b
        losses.append(loss)
    return float(np.mean(losses))


def predict(model: FingerprintClassifier, mols: Sequence[MolGraph]) -> np.ndarray:
    """Raw logits, one per molecule."""
    if not mols:
        return np.zeros(0, dtype=np.float64)
    return model.logits(model.featurize(mols))


def pseudo_label(
    model: FingerprintClassifier,
    pool_ids: Sequence[str],
    pool: Sequence[MolGraph],
    confidence_threshold: float,
) -> LabeledSet:
    """Entries of ``pool`` scored above the confidence threshold, as pseudo-actives."""
    if not 0.0 < confidence_threshold <= 1.0:
        raise ValueError("confidence threshold must lie in (0, 1]")
    if len(pool_ids) != len(pool):
        raise ValueError("pool ids and molecules must align")
    if not pool:
        return LabeledSet(ids=(), molecules=(), labels=np.zeros(0), origin="pseudo")
    confidence = _sigmoid(predict(model, pool))
    chosen = np.flatnonzero(confidence > confidence_threshold)
    return LabeledSet(
        ids=tuple(pool_ids[int(i)] for i in chosen),
        molecules=tuple(pool[int(i)] for i in chosen),
        labels=np.ones(len(chosen), dtype=np.int64),
        origin="pseudo",
    )


def _validation_bedroc(validation: LabeledSet, logits: np.ndarray) -> float:
    """BEDROC of ``validation`` ranked by ``logits``.

    Descending logits with ties in input order, as ``RankedList.from_records``
    ranks them, without building one Python tuple per record.
    """
    order = np.argsort(-logits, kind="stable")
    ranked = RankedList(
        ids=tuple(validation.ids[i] for i in order),
        scores=logits[order],
        labels=validation.labels[order],
    )
    return bedroc(ranked)


@dataclass(frozen=True)
class SelfTrainConfig:
    epochs: int = 100
    warmup_epochs: int = 20
    refresh_period: int = 5
    confidence_threshold: float = 0.9
    learning_rate: float = 0.1
    l2_penalty: float = 1e-4
    batch_size: int = 128
    lr_decay_power: float = 0.9
    radius: int = DEFAULT_RADIUS
    nbits: int = DEFAULT_NBITS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if not 0 <= self.warmup_epochs <= self.epochs:
            raise ValueError("warmup_epochs must lie in [0, epochs]")
        if self.refresh_period < 1:
            raise ValueError("refresh_period must be positive")
        if not 0.0 < self.confidence_threshold <= 1.0:
            raise ValueError("confidence threshold must lie in (0, 1]")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if not (math.isfinite(self.l2_penalty) and self.l2_penalty >= 0):
            raise ValueError("l2_penalty must be finite and non-negative")
        if not (math.isfinite(self.lr_decay_power) and self.lr_decay_power >= 0):
            raise ValueError("lr_decay_power must be finite and non-negative")

    def learning_rate_at(self, epoch: int) -> float:
        return self.learning_rate * (1.0 - epoch / self.epochs) ** self.lr_decay_power


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    loss: float
    val_bedroc: float
    n_pseudo: int


def self_train(
    labeled: LabeledSet,
    pool_ids: Sequence[str],
    pool: Sequence[MolGraph],
    validation: LabeledSet,
    config: SelfTrainConfig,
) -> tuple[FingerprintClassifier, list[EpochRecord]]:
    """Train with periodic confidence-gated pseudo-labeling.

    ``pool`` holds the unlabeled generated molecules; an empty pool reduces
    the procedure to plain supervised training. The returned model is the
    validation-BEDROC argmax over epochs.
    """
    if validation.size == 0 or not 0 < validation.labels.sum() < validation.size:
        raise DegenerateData("validation set needs both an active and an inactive")
    model = FingerprintClassifier(radius=config.radius, nbits=config.nbits)
    # Labeled rows first, then pool rows; an epoch picks rows by index.
    rows = model.featurize([*labeled.molecules, *pool])
    indptr, cols = _on_bits(rows)
    n_labeled = labeled.size
    labeled_rows = np.arange(n_labeled)
    val_features = model.featurize(validation.molecules).astype(np.float64)

    root = np.random.SeedSequence(config.seed)
    epoch_seeds = root.spawn(config.epochs)

    pseudo_mask = np.zeros(0, dtype=np.int64)
    history: list[EpochRecord] = []
    best_score = -np.inf
    best_model: FingerprintClassifier | None = None

    for epoch in range(config.epochs):
        if epoch >= config.warmup_epochs and epoch % config.refresh_period == 0 and len(pool):
            confidence = _sigmoid(model.logits(rows[n_labeled:]))
            pseudo_mask = np.flatnonzero(confidence > config.confidence_threshold)

        if len(pseudo_mask):
            epoch_rows = np.concatenate([labeled_rows, n_labeled + pseudo_mask])
            epoch_labels = np.concatenate(
                [labeled.labels, np.ones(len(pseudo_mask), dtype=np.int64)]
            )
        else:
            epoch_rows = labeled_rows
            epoch_labels = labeled.labels

        rng = np.random.default_rng(epoch_seeds[epoch])
        loss = _run_epoch_on_features(
            model,
            indptr,
            cols,
            epoch_rows,
            epoch_labels,
            config.learning_rate_at(epoch),
            config.l2_penalty,
            config.batch_size,
            rng,
        )

        score = _validation_bedroc(validation, model.logits(val_features))
        history.append(
            EpochRecord(epoch=epoch, loss=loss, val_bedroc=score, n_pseudo=len(pseudo_mask))
        )
        if score > best_score:
            best_score = score
            best_model = copy.deepcopy(model)

    assert best_model is not None
    return best_model, history


def write_history_csv(path, history: Sequence[EpochRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "loss", "val_bedroc", "n_pseudo"])
        for record in history:
            writer.writerow(
                [record.epoch, repr(record.loss), repr(record.val_bedroc), record.n_pseudo]
            )


def save_checkpoint(path, model: FingerprintClassifier) -> None:
    """Versioned JSON checkpoint: feature configuration plus parameters."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "radius": model.radius,
        "nbits": model.nbits,
        "bias": model.bias,
        "weights": model.weights.tolist(),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_checkpoint(path) -> FingerprintClassifier:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    return FingerprintClassifier(
        radius=payload["radius"],
        nbits=payload["nbits"],
        weights=np.asarray(payload["weights"], dtype=np.float64),
        bias=float(payload["bias"]),
    )
