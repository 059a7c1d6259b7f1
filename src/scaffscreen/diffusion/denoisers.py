"""Denoiser plug-ins for the reverse diffusion loop.

A denoiser receives a stack of noisy graphs at step ``t`` and returns
categorical probabilities over clean node and edge types, one row per node
and one per pair (see :class:`Denoiser`). ``MarginalDenoiser`` predicts the
dataset priors everywhere (no learned signal, useful as a floor and for
exercising the machinery) and ``OneHotEchoDenoiser`` returns certainty on
whatever is currently present (turning the reverse step into an
identity-preserving map, useful for tests). ``ExternalDenoiser`` bridges to
any trained model over a line-delimited JSON protocol so heavyweight
network code stays out of process.

Wire protocol, one JSON object per line on stdin/stdout, one graph each:

    request:  {"t": int, "nodes": [id, ...], "edges": [[i, j, id], ...]}
    response: {"node_probs": [[...], ...], "edge_probs": [[i, j, [...]], ...]}

Requests list only present edges (category > 0), i < j in row-major order.
Responses may omit pairs, which then get a one-hot "no edge" row; an entry
may name its pair in either order, the last entry for a pair wins, and one
with i == j is checked, then ignored. Probabilities must be finite and
non-negative, and each row must sum to one within 1e-5 + 1e-9 (the
tolerance of ``np.allclose(sums, 1, atol=1e-9)``). Malformed traffic raises
:class:`ProtocolError` with the offending line.

``ExternalDenoiser`` walks the stack chain by chain, so consecutive
requests interleave chains at each timestep: one request per chain at t,
then one per chain at t - 1. Each request carries one whole graph and its
t, so a child needs no memory of earlier requests.
"""

from __future__ import annotations

import contextlib
import json
import subprocess
import threading
from typing import Protocol, Sequence

import numpy as np

from .marginals import EDGE_NONE, N_EDGE_CATEGORIES, Marginals, pair_position, upper_indices

__all__ = [
    "Denoiser",
    "ExternalDenoiser",
    "MarginalDenoiser",
    "OneHotEchoDenoiser",
    "ProtocolError",
]

CLOSE_TIMEOUT_S = 10.0  # seconds ``close`` waits for the child to exit before killing it
Rows = tuple[np.ndarray, np.ndarray]  # a stack's node rows and pair rows


class ProtocolError(RuntimeError):
    """Raised when an external denoiser violates the wire protocol."""


class Denoiser(Protocol):
    def denoise(self, t: int, nodes: np.ndarray, pairs: np.ndarray, sizes: Sequence[int]) -> Rows:
        """Clean-category rows for a stack of noisy graphs at ``t``.

        Chain c has ``sizes[c]`` nodes. ``nodes`` holds every chain's node
        categories, chain after chain, and ``pairs`` every chain's pair
        categories, each chain's in ``upper_indices`` order. Returns one row
        per node, shaped (len(nodes), n_atom_types), and one per pair,
        shaped (len(pairs), 5), in the same order.
        """
        ...


class MarginalDenoiser:
    """Predicts the dataset marginal distribution at every position."""

    def __init__(self, marginals: Marginals) -> None:
        self._node_prior = marginals.node_prior
        self._edge_prior = marginals.edge_prior

    def denoise(self, t: int, nodes: np.ndarray, pairs: np.ndarray, sizes: Sequence[int]) -> Rows:
        """Read-only broadcast views of the priors."""
        return (
            np.broadcast_to(self._node_prior, (len(nodes), len(self._node_prior))),
            np.broadcast_to(self._edge_prior, (len(pairs), len(self._edge_prior))),
        )


class OneHotEchoDenoiser:
    """Returns full certainty on the categories currently in the graph."""

    def __init__(self, n_atom_types: int) -> None:
        self._n_atom_types = n_atom_types

    def denoise(self, t: int, nodes: np.ndarray, pairs: np.ndarray, sizes: Sequence[int]) -> Rows:
        return np.eye(self._n_atom_types)[nodes], np.eye(N_EDGE_CATEGORIES)[pairs]


def _request_line(t: int, nodes: np.ndarray, pairs: np.ndarray) -> str:
    """One request line: a graph's present pairs, in ``upper_indices`` order."""
    iu, ju = upper_indices(len(nodes))
    present = np.flatnonzero(pairs != EDGE_NONE)
    sparse_edges = np.stack([iu[present], ju[present], pairs[present]], axis=1).tolist()
    request = {"t": int(t), "nodes": [int(v) for v in nodes], "edges": sparse_edges}
    return json.dumps(request) + "\n"


def _check_rows(rows: np.ndarray, kind: str, line: str) -> None:
    sums = rows.sum(axis=1)
    if not ((rows >= 0).all() and np.isfinite(sums).all()):
        raise ProtocolError(f"{kind} probabilities negative or not finite: {line.strip()!r}")
    if not (np.abs(sums - 1.0) <= 1e-5 + 1e-9).all():
        raise ProtocolError(f"{kind} probability rows do not sum to 1: {line.strip()!r}")


class ExternalDenoiser:
    """Bridges to a denoiser child process over line-delimited JSON.

    The child is started lazily on first use and kept alive between calls;
    access is serialized, one in-flight request at a time.
    """

    def __init__(self, command: Sequence[str], n_atom_types: int) -> None:
        self._command = list(command)
        self._n_atom_types = n_atom_types
        self._lock = threading.Lock()
        self._proc: subprocess.Popen[str] | None = None

    def _ensure_started(self) -> subprocess.Popen[str]:
        if self._proc is None or self._proc.poll() is not None:
            self._proc = subprocess.Popen(
                self._command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        return self._proc

    def close(self) -> None:
        """Close the child's input and wait for it; kill it if it lingers."""
        with self._lock:
            proc, self._proc = self._proc, None
            if proc is None:
                return
            with contextlib.suppress(BrokenPipeError):
                proc.stdin.close()
            try:
                proc.wait(timeout=CLOSE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def __enter__(self) -> "ExternalDenoiser":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def denoise(self, t: int, nodes: np.ndarray, pairs: np.ndarray, sizes: Sequence[int]) -> Rows:
        """One request per chain, in stack order."""
        node_rows, pair_rows = [], []
        node_stop = pair_stop = 0
        for n in sizes:
            node_start, node_stop = node_stop, node_stop + n
            pair_start, pair_stop = pair_stop, pair_stop + n * (n - 1) // 2
            request = _request_line(t, nodes[node_start:node_stop], pairs[pair_start:pair_stop])
            with self._lock:
                proc = self._ensure_started()
                try:
                    proc.stdin.write(request)
                    proc.stdin.flush()
                    line = proc.stdout.readline()
                except (BrokenPipeError, OSError) as exc:
                    raise ProtocolError(f"denoiser process pipe failed: {exc}") from exc
            if not line:
                raise ProtocolError("denoiser process closed its output stream")
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ProtocolError(f"invalid JSON from denoiser: {line.strip()!r}") from exc
            chain_nodes, chain_pairs = self._decode(payload, line, n)
            node_rows.append(chain_nodes)
            pair_rows.append(chain_pairs)
        return np.concatenate(node_rows), np.concatenate(pair_rows)

    def _decode(self, payload: object, line: str, n: int) -> Rows:
        """A reply's node rows and its pair rows in ``upper_indices(n)`` order."""
        if not isinstance(payload, dict) or "node_probs" not in payload:
            raise ProtocolError(f"malformed denoiser response: {line.strip()!r}")
        pair_rows = np.zeros((n * (n - 1) // 2, N_EDGE_CATEGORIES))
        pair_rows[:, EDGE_NONE] = 1.0
        try:
            node_probs = np.asarray(payload["node_probs"], dtype=np.float64)
            items = payload.get("edge_probs", [])
            if items:
                if not all(isinstance(item, list) and len(item) == 3 for item in items):
                    raise ValueError("edge entries must be [i, j, row] triples")
                i, j, rows = zip(*items)
                ends = np.asarray([i, j])
                rows = np.asarray(rows, dtype=np.float64)
                if ends.dtype.kind != "i":
                    raise ValueError("edge indices must be integers")
                if rows.shape != (len(items), N_EDGE_CATEGORIES):
                    raise ValueError(f"edge rows have shape {rows.shape}")
                if not ((ends >= 0) & (ends < n)).all():
                    raise ValueError(f"edge index out of bounds for {n} nodes")
                _check_rows(rows, "edge", line)
                lo, hi = ends.min(axis=0), ends.max(axis=0)
                pair = lo != hi
                # In reply order, so a pair sent twice keeps its last row.
                pair_rows[pair_position(lo[pair], hi[pair], n)] = rows[pair]
        except (ValueError, TypeError) as exc:
            raise ProtocolError(f"malformed denoiser response ({exc}): {line.strip()!r}") from exc
        if node_probs.shape != (n, self._n_atom_types):
            raise ProtocolError(
                f"node_probs shape {node_probs.shape}, expected ({n}, {self._n_atom_types})"
            )
        _check_rows(node_probs, "node", line)
        return node_probs, pair_rows
