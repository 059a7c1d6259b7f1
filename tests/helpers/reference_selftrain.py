"""Dense minibatch SGD epoch, kept as the reference for sparse training.

``selftrain._run_epoch_on_features`` used to gather each minibatch as
dense float64 rows and pass them to the dense form of ``loss_and_grad``.
``dense_epoch`` is that epoch, with the same signature as the sparse one,
so a test can run either, or swap it into ``self_train``. It makes the same
random draws in the same order, and it reaches ``loss_and_grad`` through
the module, so a test that wraps that function sees both epochs' calls.
Its logit and gradient sums run in the BLAS kernel's order rather than
``np.bincount``'s, so the two agree to a tolerance, not bit for bit.
"""

from __future__ import annotations

import numpy as np

from scaffscreen import selftrain


def dense_rows(indptr: np.ndarray, cols: np.ndarray, width: int) -> np.ndarray:
    """The uint8 0/1 matrix whose row i sets ``cols[indptr[i]:indptr[i + 1]]``."""
    rows = np.zeros((len(indptr) - 1, width), dtype=np.uint8)
    rows[np.repeat(np.arange(len(indptr) - 1), np.diff(indptr)), cols] = 1
    return rows


def dense_epoch(
    model: selftrain.FingerprintClassifier,
    indptr: np.ndarray,
    cols: np.ndarray,
    row_index: np.ndarray,
    labels: np.ndarray,
    learning_rate: float,
    l2_penalty: float,
    batch_size: int,
    rng: np.random.Generator,
) -> float:
    rows = dense_rows(indptr, cols, model.nbits)
    indices = selftrain._oversample_to_balance(labels, rng)
    rng.shuffle(indices)
    losses = []
    buffer = np.empty((min(batch_size, len(indices)), rows.shape[1]))
    for start in range(0, len(indices), batch_size):
        batch = indices[start : start + batch_size]
        features = buffer[: len(batch)]
        features[...] = rows[row_index[batch]]
        loss, grad_w, grad_b = selftrain.loss_and_grad(
            model.weights, model.bias, features, labels[batch], l2_penalty
        )
        model.weights = model.weights - learning_rate * grad_w
        model.bias = model.bias - learning_rate * grad_b
        losses.append(loss)
    return float(np.mean(losses))
