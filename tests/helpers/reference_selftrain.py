"""Dense forms of self-training's loss and epoch, kept as references for the sparse ones.

``selftrain.loss_and_grad`` reads each row as its on bits and takes a step
for several cells at once. ``dense_loss_and_grad`` is the same formula for
one cell on dense float rows, with its sums in the BLAS kernel's order, so
the two agree to a tolerance, not bit for bit. ``dense_epoch`` has the
signature of ``selftrain._run_epoch`` and takes each cell's minibatches
densely, one cell after the other, so a test can run either, or swap it
into ``self_train``. ``one_cell_loss_and_grad`` calls the sparse function
on one cell given as dense 0/1 rows, for audits of the formula.
"""

from __future__ import annotations

import numpy as np

from scaffscreen import selftrain


def dense_rows(indptr: np.ndarray, cols: np.ndarray, width: int) -> np.ndarray:
    """The uint8 0/1 matrix whose row i sets ``cols[indptr[i]:indptr[i + 1]]``."""
    rows = np.zeros((len(indptr) - 1, width), dtype=np.uint8)
    rows[np.repeat(np.arange(len(indptr) - 1), np.diff(indptr)), cols] = 1
    return rows


def dense_loss_and_grad(
    weights: np.ndarray,
    bias: float,
    features: np.ndarray,
    labels: np.ndarray,
    l2_penalty: float,
) -> tuple[float, np.ndarray, float]:
    """Mean binary cross entropy plus 0.5 * l2 * ||w||^2 of one cell, with its gradient."""
    n = len(labels)
    z = features @ weights + bias
    softplus = np.logaddexp(0.0, z)
    loss = float((softplus - labels * z).sum()) / n + 0.5 * l2_penalty * float(weights @ weights)
    residual = selftrain._sigmoid(z) - labels
    grad_w = features.T @ residual / n + l2_penalty * weights
    return loss, grad_w, float(residual.sum()) / n


def one_cell_loss_and_grad(
    weights: np.ndarray,
    bias: float,
    rows: np.ndarray,
    labels: np.ndarray,
    l2_penalty: float,
) -> tuple[float, np.ndarray, float]:
    """``selftrain.loss_and_grad`` on the 0/1 ``rows`` of one cell, unstacked."""
    losses, grad_w, grad_b = selftrain.loss_and_grad(
        weights[None], np.array([bias]), selftrain.SparseBatch(*np.nonzero(rows)), labels, l2_penalty
    )
    return float(losses[0]), grad_w[0], float(grad_b[0])


def dense_epoch(
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
    rows = dense_rows(indptr, cols[: indptr[-1]], weights.shape[1]).astype(np.float64)
    means = np.empty(len(orders))
    for g, (order, cell_labels) in enumerate(zip(orders, labels)):
        losses = []
        for start in range(0, len(order), batch_size):
            batch = slice(start, start + batch_size)
            loss, grad_w, grad_b = dense_loss_and_grad(
                weights[g], biases[g], rows[order[batch]], cell_labels[batch], l2_penalty
            )
            weights[g] -= learning_rate * grad_w
            biases[g] -= learning_rate * grad_b
            losses.append(loss)
        means[g] = np.mean(losses)
    return means
