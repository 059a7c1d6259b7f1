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

A run opens one ``ExternalDenoiser``, so one child, for all its splits. It
sends a timestep's requests in stack order, one per chain and one in flight
at a time, then decodes the replies together. Each request carries one
whole graph and its t, so a child needs no memory of earlier requests.
"""

from __future__ import annotations

import contextlib
import itertools
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


def _request_lines(t: int, nodes: np.ndarray, pairs: np.ndarray, sizes: Sequence[int]) -> list[str]:
    """One request line per chain: its nodes and present pairs, in ``upper_indices`` order."""
    iu, ju = (np.concatenate(part) for part in zip(*map(upper_indices, sizes)))
    present = np.flatnonzero(pairs != EDGE_NONE)
    edges = np.stack([iu[present], ju[present], pairs[present]], axis=1).tolist()
    pair_bounds = list(itertools.accumulate((n * (n - 1) // 2 for n in sizes), initial=0))
    edge_bounds = np.searchsorted(present, pair_bounds).tolist()
    node_bounds = list(itertools.accumulate(sizes, initial=0))
    node_ids = nodes.tolist()
    return [
        json.dumps({"t": int(t), "nodes": node_ids[a:b], "edges": edges[c:d]}) + "\n"
        for a, b, c, d in zip(node_bounds, node_bounds[1:], edge_bounds, edge_bounds[1:])
    ]


def _check_rows(rows: np.ndarray, kind: str) -> None:
    sums = rows.sum(axis=1)
    if not ((rows >= 0).all() and np.isfinite(sums).all()):
        raise ValueError(f"{kind} probabilities negative or not finite")
    if not (np.abs(sums - 1.0) <= 1e-5 + 1e-9).all():
        raise ValueError(f"{kind} probability rows do not sum to 1")


def _row_width(rows: Sequence[object]) -> int | None:
    """The one width of ``rows`` when each is a list and all are that long."""
    if set(map(type, rows)) == {list} and len(widths := set(map(len, rows))) == 1:
        return widths.pop()
    return None


def _decode(lines: Sequence[str], sizes: Sequence[int]) -> Rows:
    """A stack's node rows and pair rows from its replies, one line per chain.

    Each reply is parsed, checked for structure and flattened on its own. The
    numeric checks, the "no edge" fill and the pair scatter run once over the
    stack; when they fail, each reply is decoded alone to quote the bad one.
    """
    width, node_flat, ends_i, ends_j, edge_flat, counts = None, [], [], [], [], []
    for line, n in zip(lines, sizes):
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict) or not isinstance(payload.get("node_probs"), list):
                raise ValueError("no node_probs list")
            node_probs, items = payload["node_probs"], payload.get("edge_probs") or []
            if len(node_probs) != n:
                raise ValueError(f"{len(node_probs)} node rows for {n} nodes")
            if node_probs:
                row_width = _row_width(node_probs)
                width = row_width if width is None else width
                if row_width is None or row_width != width:
                    raise ValueError(f"node row shapes differ from ({width},)")
            node_flat += itertools.chain.from_iterable(node_probs)
            if items:
                if not (isinstance(items, list) and _row_width(items) == 3):
                    raise ValueError("edge entries must be [i, j, row] triples")
                i, j, rows = zip(*items)
                if _row_width(rows) != N_EDGE_CATEGORIES:
                    raise ValueError(f"edge row shapes differ from ({N_EDGE_CATEGORIES},)")
                ends_i += i
                ends_j += j
                edge_flat += itertools.chain.from_iterable(rows)
            counts.append(len(items))
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"invalid JSON from denoiser: {line.strip()!r}") from exc
        except ValueError as exc:
            raise ProtocolError(f"malformed denoiser response ({exc}): {line.strip()!r}") from exc
    try:
        node_rows = np.fromiter(node_flat, np.float64, len(node_flat)).reshape(sum(sizes), -1)
        _check_rows(node_rows, "node")
        pair_bounds = list(itertools.accumulate((n * (n - 1) // 2 for n in sizes), initial=0))
        pair_rows = np.tile(np.eye(N_EDGE_CATEGORIES)[EDGE_NONE], (pair_bounds[-1], 1))
        if not ends_i:
            return node_rows, pair_rows
        ends = np.array([ends_i, ends_j])
        if ends.dtype.kind != "i":
            raise ValueError("edge indices must be integers")
        entry_n = np.repeat(sizes, counts)  # the node count of each entry's chain
        if not ((ends >= 0) & (ends < entry_n)).all():
            raise ValueError("edge index out of bounds")
        edge_rows = np.fromiter(edge_flat, np.float64, len(edge_flat)).reshape(len(ends_i), -1)
        _check_rows(edge_rows, "edge")
    except (ValueError, TypeError, OverflowError) as exc:
        if len(lines) > 1:
            for line, n in zip(lines, sizes):
                _decode([line], [n])
        raise ProtocolError(f"malformed denoiser response ({exc}): {lines[0].strip()!r}") from exc
    lo, hi = ends.min(axis=0), ends.max(axis=0)
    pair = lo != hi
    position = pair_position(lo, hi, entry_n) + np.repeat(pair_bounds[:-1], counts)
    # In reply order, so a pair sent twice keeps its last row.
    pair_rows[position[pair]] = edge_rows[pair]
    return node_rows, pair_rows


class ExternalDenoiser:
    """Bridges to a denoiser child process over line-delimited JSON.

    The child is started lazily on first use and kept alive between calls
    until ``close``; a child that exits before then fails the next call
    rather than being replaced. Access is serialized, one in-flight request
    at a time; a timestep's replies are decoded together once the last one
    is in.
    """

    def __init__(self, command: Sequence[str]) -> None:
        self._command = list(command)
        self._lock = threading.Lock()
        self._proc: subprocess.Popen[str] | None = None

    def _ensure_started(self) -> subprocess.Popen[str]:
        """The open child, started if none is open; one that has exited is an error."""
        if self._proc is None:
            self._proc = subprocess.Popen(
                self._command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        elif self._proc.poll() is not None:
            raise ProtocolError(f"denoiser process exited with code {self._proc.returncode}")
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
        """One request per chain, in stack order; then the replies decoded together."""
        replies = []
        with self._lock:
            proc = self._ensure_started()
            try:
                for request in _request_lines(t, nodes, pairs, sizes):
                    proc.stdin.write(request)
                    proc.stdin.flush()
                    line = proc.stdout.readline()
                    if not line:
                        raise ProtocolError("denoiser process closed its output stream")
                    replies.append(line)
            except (BrokenPipeError, OSError) as exc:
                raise ProtocolError(f"denoiser process pipe failed: {exc}") from exc
        return _decode(replies, sizes)
