"""Denoiser plug-ins for the reverse diffusion loop.

A denoiser receives the noisy graph at step ``t`` and returns categorical
probabilities over clean node and edge types. Two references ship here:
``MarginalDenoiser`` predicts the dataset priors everywhere (no learned
signal, useful as a floor and for exercising the machinery) and
``OneHotEchoDenoiser`` returns certainty on whatever is currently present
(turning the reverse step into an identity-preserving map, useful for
tests). ``ExternalDenoiser`` bridges to any trained model over a
line-delimited JSON protocol so heavyweight network code stays out of
process.

Wire protocol, one JSON object per line on stdin/stdout:

    request:  {"t": int, "nodes": [id, ...], "edges": [[i, j, id], ...]}
    response: {"node_probs": [[...], ...], "edge_probs": [[i, j, [...]], ...]}

Requests list only edges that are present (category > 0); absent pairs are
category 0. Responses may likewise omit pairs, which then default to a
one-hot "no edge" row. Node probability rows must sum to one within 1e-9.
Malformed traffic raises :class:`ProtocolError` with the offending line.

Every chain of a generation call advances in lockstep, so consecutive
requests interleave chains at each timestep: one request per chain at t,
then one per chain at t - 1. Each request carries one whole graph and its
t, so a child needs no memory of earlier requests.
"""

from __future__ import annotations

import json
import subprocess
import threading
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .marginals import Marginals, N_EDGE_CATEGORIES, EDGE_NONE

__all__ = [
    "DenoiserOutput",
    "Denoiser",
    "ExternalDenoiser",
    "MarginalDenoiser",
    "OneHotEchoDenoiser",
    "ProtocolError",
]


class ProtocolError(RuntimeError):
    """Raised when an external denoiser violates the wire protocol."""


@dataclass(frozen=True)
class DenoiserOutput:
    """Clean-category probabilities: nodes (n, a) and symmetric edges (n, n, b)."""

    node_probs: np.ndarray
    edge_probs: np.ndarray

    def validate(self, n: int, n_atom_types: int) -> None:
        if self.node_probs.shape != (n, n_atom_types):
            raise ValueError(f"node_probs shape {self.node_probs.shape} mismatch")
        if self.edge_probs.shape != (n, n, N_EDGE_CATEGORIES):
            raise ValueError(f"edge_probs shape {self.edge_probs.shape} mismatch")


class Denoiser(Protocol):
    def denoise(self, t: int, nodes: np.ndarray, edges: np.ndarray) -> DenoiserOutput:
        """Predict clean-category probabilities for the noisy graph at ``t``."""
        ...


class MarginalDenoiser:
    """Predicts the dataset marginal distribution at every position."""

    def __init__(self, marginals: Marginals) -> None:
        self._node_prior = marginals.node_prior
        self._edge_prior = marginals.edge_prior
        self._by_size: dict[int, DenoiserOutput] = {}

    def denoise(self, t: int, nodes: np.ndarray, edges: np.ndarray) -> DenoiserOutput:
        """Read-only broadcast views of the priors, made once per graph size."""
        n = len(nodes)
        output = self._by_size.get(n)
        if output is None:
            output = self._by_size[n] = DenoiserOutput(
                node_probs=np.broadcast_to(self._node_prior, (n, len(self._node_prior))),
                edge_probs=np.broadcast_to(self._edge_prior, (n, n, len(self._edge_prior))),
            )
        return output


class OneHotEchoDenoiser:
    """Returns full certainty on the categories currently in the graph."""

    def __init__(self, n_atom_types: int) -> None:
        self._n_atom_types = n_atom_types

    def denoise(self, t: int, nodes: np.ndarray, edges: np.ndarray) -> DenoiserOutput:
        n = len(nodes)
        node_probs = np.zeros((n, self._n_atom_types))
        node_probs[np.arange(n), nodes] = 1.0
        edge_probs = np.zeros((n, n, N_EDGE_CATEGORIES))
        flat = edge_probs.reshape(n * n, N_EDGE_CATEGORIES)
        flat[np.arange(n * n), edges.reshape(-1)] = 1.0
        return DenoiserOutput(node_probs=node_probs, edge_probs=edge_probs)


def _request_line(t: int, nodes: np.ndarray, edges: np.ndarray) -> str:
    """One request line: present edges of the upper triangle in row-major order."""
    rows, cols = np.nonzero(np.triu(edges != EDGE_NONE, 1))
    sparse_edges = np.stack([rows, cols, edges[rows, cols]], axis=1).tolist()
    request = {"t": int(t), "nodes": [int(v) for v in nodes], "edges": sparse_edges}
    return json.dumps(request) + "\n"


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
        with self._lock:
            if self._proc is not None and self._proc.poll() is None:
                self._proc.stdin.close()
                self._proc.wait(timeout=10)
            self._proc = None

    def __enter__(self) -> "ExternalDenoiser":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def denoise(self, t: int, nodes: np.ndarray, edges: np.ndarray) -> DenoiserOutput:
        n = len(nodes)
        request = _request_line(t, nodes, edges)
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
        return self._decode(payload, line, n)

    def _decode(self, payload: object, line: str, n: int) -> DenoiserOutput:
        if not isinstance(payload, dict) or "node_probs" not in payload:
            raise ProtocolError(f"malformed denoiser response: {line.strip()!r}")
        try:
            node_probs = np.asarray(payload["node_probs"], dtype=np.float64)
            edge_probs = np.zeros((n, n, N_EDGE_CATEGORIES))
            edge_probs[:, :, EDGE_NONE] = 1.0
            items = payload.get("edge_probs", [])
            if items:
                if not all(isinstance(item, list) and len(item) == 3 for item in items):
                    raise ValueError("edge entries must be [i, j, row] triples")
                i, j, rows = zip(*items)
                pairs = np.asarray([i, j])
                rows = np.asarray(rows, dtype=np.float64)
                if pairs.dtype.kind != "i":
                    raise ValueError("edge indices must be integers")
                if rows.shape != (len(items), N_EDGE_CATEGORIES):
                    raise ValueError(f"edge rows have shape {rows.shape}")
                # (i, j) then (j, i) per entry, in reply order, so a pair sent
                # twice keeps its last row in both orientations.
                edge_probs[pairs.T.ravel(), pairs[::-1].T.ravel()] = np.repeat(rows, 2, axis=0)
        except (ValueError, TypeError, IndexError) as exc:
            raise ProtocolError(
                f"malformed denoiser response ({exc}): {line.strip()!r}"
            ) from exc
        if node_probs.shape != (n, self._n_atom_types):
            raise ProtocolError(
                f"node_probs shape {node_probs.shape}, expected ({n}, {self._n_atom_types})"
            )
        if not np.allclose(node_probs.sum(axis=1), 1.0, atol=1e-9):
            raise ProtocolError(f"node probability rows do not sum to 1: {line.strip()!r}")
        if not np.allclose(edge_probs.sum(axis=2), 1.0, atol=1e-9):
            raise ProtocolError(f"edge probability rows do not sum to 1: {line.strip()!r}")
        return DenoiserOutput(node_probs=node_probs, edge_probs=edge_probs)
