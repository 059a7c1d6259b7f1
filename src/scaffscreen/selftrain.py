"""Confidence-gated self-training for a fingerprint logistic classifier.

The classifier is logistic regression over folded circular fingerprints,
fit by minibatch gradient descent on binary cross entropy with an L2
penalty on the weights. Loss and gradient share one code path
(:func:`loss_and_grad`) so the gradient can be audited against finite
differences.

Training reads each row as its on-bit columns (a fingerprint sets a few
dozen of its bits), so a minibatch is a :class:`SparseBatch` and its logit
and gradient sums are ``np.bincount`` calls, which add in their fixed input
order: per row in ascending column, per column in batch order. They do not
run in the OpenBLAS ``dgemv`` kernel picked for the CPU at run time.
Scoring (:func:`predict`, the validation logits and the pool rescore) stays
a dense BLAS product per cell, as do the L2 term of the reported loss and
the diffusion posterior. Sparse validation logits add in another order,
which reordered near-ties low in a validation ranking and moved a
``history.csv`` BEDROC in its tenth digit.

The cells of one split (its evaluation seeds) train in lockstep
(:func:`self_train_cells`): they share the labeled rows, pool and
validation fold, and differ only in their seeds. Each cell still makes its
own draws, pool rescore and pseudo-label choice, but one
:func:`loss_and_grad` call takes a step for every cell whose epoch has as
many rows as its own. A cell's sums add in the same order as when it
trains alone, so its model and history are the same bit for bit.

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

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .artifacts import read_json, write_csv
from .chem.graph import MolGraph
from .fingerprints import DEFAULT_NBITS, DEFAULT_RADIUS, ecfps, fingerprint_matrix
from .metrics import bedroc_of_order

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
    "self_train_cells",
    "write_history_csv",
]

CHECKPOINT_VERSION = 1


class DegenerateData(ValueError):
    """Raised when training data lacks one of the two classes."""


@dataclass(frozen=True)
class LabeledSet:
    """Molecules with binary labels."""

    molecules: tuple[MolGraph, ...]
    labels: np.ndarray

    def __post_init__(self) -> None:
        if len(self.molecules) != len(self.labels):
            raise ValueError("molecules and labels must align")
        labels = np.asarray(self.labels, dtype=np.int64)
        if len(labels) and not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be binary")
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return len(self.molecules)


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
        return fingerprint_matrix(ecfps(mols, self.radius, self.nbits), dtype=np.uint8)

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
    biases: np.ndarray,
    batch: SparseBatch,
    labels: np.ndarray,
    l2_penalty: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each cell's mean binary cross entropy plus L2 on its weights, with gradients.

    ``weights`` holds one row per cell, shape ``(C, nbits)``, and ``biases``
    one entry, shape ``(C,)``. ``batch`` holds ``len(labels)`` rows, ``n =
    len(labels) // C`` per cell and cell by cell: cell c owns rows ``c * n``
    to ``c * n + n - 1`` and columns offset by ``c * nbits``. Returns the
    ``(C,)`` losses, the ``(C, nbits)`` weight gradients and the ``(C,)``
    bias gradients. The penalty term is 0.5 * l2 * ||w||^2; the bias is not
    penalized.

    A cell's sums add as if it were alone: ``np.bincount`` adds each bin in
    input order, a row of a C-ordered ``(C, n)`` array sums like that row
    alone, and each cell's L2 term is its own dot product.
    """
    n_cells, nbits = weights.shape
    n = len(labels) // n_cells
    z = np.bincount(batch.row, weights=weights.ravel()[batch.cols], minlength=len(labels))
    # Not in place: with no entries, bincount returns integer zeros.
    z = z.reshape(n_cells, n) + biases[:, None]
    labels = labels.reshape(n_cells, n)
    # log(1 + exp(z)) - y 'z, computed stably via softplus. Means are taken
    # as sum / n, the value ndarray.mean gives.
    softplus = np.logaddexp(0.0, z)
    data_loss = (softplus - labels * z).sum(axis=1) / n
    losses = data_loss + 0.5 * l2_penalty * np.array([w @ w for w in weights])
    residual = _sigmoid(z) - labels
    grad_w = np.bincount(batch.cols, weights=residual.ravel()[batch.row], minlength=weights.size)
    grad_w = grad_w.reshape(n_cells, nbits) / n
    grad_w += l2_penalty * weights
    grad_b = residual.sum(axis=1) / n
    return losses, grad_w, grad_b


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


def _run_epoch(
    weights: np.ndarray,
    biases: np.ndarray,
    indptr: np.ndarray,
    cols: np.ndarray,
    orders: np.ndarray,
    labels: np.ndarray,
    learning_rate: float,
    l2_penalty: float,
    batch_size: int,
) -> np.ndarray:
    """One epoch of G cells in lockstep; returns each cell's mean step loss.

    Cell g trains on the CSR rows ``orders[g]``, labeled ``labels[g]``, in
    that order; both are ``(G, L)``, so every cell's epoch has L rows.
    ``cols`` holds the CSR columns once per cell: copy g starts at entry ``g
    * indptr[-1]`` and is offset by ``g * nbits``. A step takes the next
    ``batch_size`` rows of every cell, cell by cell, so it is each cell's
    own minibatch. Each row's on bits are located once per epoch, in step
    order; a step then gathers its entries with a few array calls. Per-step
    gathers keep every buffer small: laying out the whole epoch's entries
    at once made a fresh half-megabyte array per epoch, whose page faults
    cost more than the calls saved. ``weights`` (G, nbits) and ``biases``
    (G,) are updated in place.
    """
    n_cells, length = orders.shape
    step = np.arange(length) // batch_size
    # Row j of cell g goes to step j // batch_size, cells in order within a step.
    seq = np.argsort((step * n_cells + np.arange(n_cells)[:, None]).ravel(), kind="stable")
    order = orders.ravel()[seq]
    first = indptr[order]
    lengths = indptr[order + 1] - first
    entry_ptr = np.zeros(len(order) + 1, dtype=np.intp)
    np.cumsum(lengths, out=entry_ptr[1:])
    # Entry e of the epoch, in row k, is cols[shift[k] + e].
    shift = first + (seq // length) * indptr[-1] - entry_ptr[:-1]
    epoch_labels = labels.ravel()[seq]
    step_rows = n_cells * batch_size
    batch_rows = np.arange(step_rows)
    batch_starts = range(0, len(order), step_rows)
    bounds = entry_ptr[[*batch_starts, len(order)]].tolist()
    # One row of step losses per cell, so a cell's mean adds like its own list.
    losses = np.empty((n_cells, len(batch_starts)))
    for k, (start, lo, hi) in enumerate(zip(batch_starts, bounds, bounds[1:])):
        stop = start + step_rows
        counts = lengths[start:stop]
        gather = np.repeat(shift[start:stop], counts)
        gather += np.arange(lo, hi)
        batch = SparseBatch(np.repeat(batch_rows[: len(counts)], counts), cols[gather])
        losses[:, k], grad_w, grad_b = loss_and_grad(
            weights, biases, batch, epoch_labels[start:stop], l2_penalty
        )
        weights -= learning_rate * grad_w
        biases -= learning_rate * grad_b
    return losses.mean(axis=1)


def predict(model: FingerprintClassifier, mols: Sequence[MolGraph]) -> np.ndarray:
    """Raw logits, one per molecule."""
    if not mols:
        return np.zeros(0, dtype=np.float64)
    return model.logits(model.featurize(mols))


def pseudo_label(logits: np.ndarray, confidence_threshold: float) -> np.ndarray:
    """Indices of the pool entries scored above the confidence threshold.

    ``logits`` holds one raw score per pool entry; the chosen entries join
    the training set as pseudo-actives.
    """
    if not 0.0 < confidence_threshold <= 1.0:
        raise ValueError("confidence threshold must lie in (0, 1]")
    return np.flatnonzero(_sigmoid(logits) > confidence_threshold)


def _validation_bedrocs(labels: np.ndarray, logits: np.ndarray) -> list[float]:
    """BEDROC of ``labels`` ranked by each row of ``logits``.

    Descending logits with ties in input order, as ``RankedList.from_records``
    ranks them; BEDROC reads only the label order.
    """
    orders = np.argsort(-logits, axis=1, kind="stable")
    return [bedroc_of_order(labels[order]) for order in orders]


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
    pool: Sequence[MolGraph],
    validation: LabeledSet,
    config: SelfTrainConfig,
) -> tuple[FingerprintClassifier, list[EpochRecord]]:
    """Train one cell with periodic confidence-gated pseudo-labeling.

    ``pool`` holds the unlabeled generated molecules; an empty pool reduces
    the procedure to plain supervised training. The returned model is the
    validation-BEDROC argmax over epochs. This is :func:`self_train_cells`
    with one cell.
    """
    (cell,) = self_train_cells(labeled, pool, validation, [config])
    return cell


def self_train_cells(
    labeled: LabeledSet,
    pool: Sequence[MolGraph],
    validation: LabeledSet,
    configs: Sequence[SelfTrainConfig],
) -> list[tuple[FingerprintClassifier, list[EpochRecord]]]:
    """Train one cell per config on the same data, in lockstep.

    The configs may differ only in ``seed``. Cell c makes the draws, pool
    rescores and pseudo-label choices that :func:`self_train` makes under
    ``configs[c]``, and its model and history are the same bit for bit.
    Each epoch, the cells whose epochs have the same number of rows take
    their steps together.
    """
    config = configs[0]
    if any(dataclasses.replace(c, seed=config.seed) != config for c in configs):
        raise ValueError("cells trained together may differ only in seed")
    if validation.size == 0 or not 0 < validation.labels.sum() < validation.size:
        raise DegenerateData("validation set needs both an active and an inactive")
    n_cells, nbits = len(configs), config.nbits
    featurizer = FingerprintClassifier(radius=config.radius, nbits=nbits)
    # Labeled rows first, then pool rows; an epoch picks rows by index.
    rows = featurizer.featurize([*labeled.molecules, *pool])
    indptr, cols = _on_bits(rows)
    n_labeled = labeled.size
    pool_rows = rows[n_labeled:].astype(np.float64)
    cols = (cols + nbits * np.arange(n_cells)[:, None]).ravel()
    val_rows = featurizer.featurize(validation.molecules).astype(np.float64)

    weights = np.zeros((n_cells, nbits))
    biases = np.zeros(n_cells)
    epoch_seeds = [np.random.SeedSequence(c.seed).spawn(config.epochs) for c in configs]
    pseudo_rows = [np.zeros(0, dtype=np.int64)] * n_cells
    histories: list[list[EpochRecord]] = [[] for _ in configs]
    best_scores = [-np.inf] * n_cells
    best: list[FingerprintClassifier | None] = [None] * n_cells

    for epoch in range(config.epochs):
        refresh = (
            epoch >= config.warmup_epochs and epoch % config.refresh_period == 0 and len(pool)
        )
        orders, epoch_labels = [], []
        for c in range(n_cells):
            if refresh:
                pseudo_rows[c] = n_labeled + pseudo_label(
                    pool_rows @ weights[c] + biases[c], config.confidence_threshold
                )
            cell_rows = np.concatenate([np.arange(n_labeled), pseudo_rows[c]])
            cell_labels = np.concatenate(
                [labeled.labels, np.ones(len(pseudo_rows[c]), dtype=np.int64)]
            )
            rng = np.random.default_rng(epoch_seeds[c][epoch])
            indices = _oversample_to_balance(cell_labels, rng)
            rng.shuffle(indices)
            orders.append(cell_rows[indices])
            epoch_labels.append(cell_labels[indices])

        # Cells step together while their epochs have equally many rows.
        groups: dict[int, list[int]] = {}
        for c, order in enumerate(orders):
            groups.setdefault(len(order), []).append(c)
        losses = np.empty(n_cells)
        for group in groups.values():
            w, b = weights[group], biases[group]
            losses[group] = _run_epoch(
                w,
                b,
                indptr,
                cols,
                np.stack([orders[c] for c in group]),
                np.stack([epoch_labels[c] for c in group]),
                config.learning_rate_at(epoch),
                config.l2_penalty,
                config.batch_size,
            )
            weights[group], biases[group] = w, b

        # One product per cell: val_rows @ weights.T would add in dgemm's order.
        logits = np.stack([val_rows @ w + b for w, b in zip(weights, biases)])
        scores = _validation_bedrocs(validation.labels, logits)
        for c, score in enumerate(scores):
            histories[c].append(
                EpochRecord(
                    epoch=epoch,
                    loss=float(losses[c]),
                    val_bedroc=score,
                    n_pseudo=len(pseudo_rows[c]),
                )
            )
            if score > best_scores[c]:
                best_scores[c] = score
                best[c] = FingerprintClassifier(
                    radius=config.radius,
                    nbits=nbits,
                    weights=weights[c].copy(),
                    bias=float(biases[c]),
                )

    return list(zip(best, histories))


def write_history_csv(path, history: Sequence[EpochRecord]) -> None:
    write_csv(
        path,
        ["epoch", "loss", "val_bedroc", "n_pseudo"],
        ((r.epoch, repr(r.loss), repr(r.val_bedroc), r.n_pseudo) for r in history),
    )


def save_checkpoint(path, model: FingerprintClassifier) -> None:
    """Versioned JSON checkpoint: feature configuration plus parameters, compact."""
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
    payload = read_json(path)
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    return FingerprintClassifier(
        radius=payload["radius"],
        nbits=payload["nbits"],
        weights=np.asarray(payload["weights"], dtype=np.float64),
        bias=float(payload["bias"]),
    )
