"""Scaffold-anchored reverse diffusion over molecular graphs.

Generation extends a fixed scaffold with freshly sampled atoms and bonds.
The scaffold occupies node indices ``[0, n_scaffold)`` and the full
submatrix between those indices (bonds and non-bonds alike), so it stays
an exact induced subgraph of every intermediate state: after each sampling
step the anchored positions are overwritten with the scaffold categories
before anything else sees the graph.

A reverse step computes, independently per node and per unordered pair,

    p(z_{t-1} = j) = sum_x  pred(x) * q(z_{t-1} = j | z_t = k, z_0 = x)

with the discrete posterior assembled from the cumulative and per-step
transition matrices of the cosine schedule, then samples each position.
Rows of the assembled posterior sum to one up to rounding; they are only
rescaled by their own sum at the sampling draw. The transition matrices
depend only on (schedule, t, prior), so they are built once per schedule
and prior and shared by every chain and step.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ..chem.graph import MolGraph
from ..chem.valence import check_valence
from .denoisers import Denoiser, DenoiserOutput
from .marginals import Marginals, decode_graph, encode_molecule
from .schedule import CosineSchedule, mixing_matrix

__all__ = [
    "DiffusionState",
    "GenerationReport",
    "GeneratedEntry",
    "extend_scaffold",
    "generate_scaffold_extensions",
    "posterior_distributions",
    "sample_prior",
]

logger = logging.getLogger(__name__)

SIZE_REJECTION_LIMIT = 100
SIZE_FALLBACK_MARGIN = 5

StepHook = Callable[["DiffusionState", np.ndarray, np.ndarray], None]


@dataclass(frozen=True)
class DiffusionState:
    """Noisy graph at step ``t`` with scaffold anchoring data.

    ``nodes`` holds categorical ids, ``edges`` a symmetric id matrix with a
    zero diagonal. Anchored positions (``node_mask`` / ``edge_mask``) always
    carry the scaffold categories.
    """

    t: int
    nodes: np.ndarray
    edges: np.ndarray
    node_mask: np.ndarray
    edge_mask: np.ndarray
    anchor_nodes: np.ndarray
    anchor_edges: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def anchored(self) -> "DiffusionState":
        """Copy with the scaffold overwrite applied."""
        nodes = self.nodes.copy()
        edges = self.edges.copy()
        nodes[self.node_mask] = self.anchor_nodes[self.node_mask]
        edges[self.edge_mask] = self.anchor_edges[self.edge_mask]
        return replace(self, nodes=nodes, edges=edges)

    def anchor_intact(self) -> bool:
        return bool(
            (self.nodes[self.node_mask] == self.anchor_nodes[self.node_mask]).all()
            and (self.edges[self.edge_mask] == self.anchor_edges[self.edge_mask]).all()
        )


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@functools.lru_cache(maxsize=128)
def _upper_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    iu, ju = np.triu_indices(n, k=1)
    return _read_only(iu), _read_only(ju)


@functools.lru_cache(maxsize=4)
def _transition_tables(
    schedule: CosineSchedule, prior_bytes: bytes, prior_dtype: str
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """(Qbar_t, Qbar_{t-1}, Q_t) of one prior for t = 1..T, at index t - 1.

    Keyed by value, so an equal schedule and prior share one read-only table
    whatever object holds them. A chain walks every t, so all are built.
    """
    prior = np.frombuffer(prior_bytes, dtype=prior_dtype)
    cumulative = [
        _read_only(mixing_matrix(schedule.alpha_bar(t), prior))
        for t in range(schedule.timesteps + 1)
    ]
    step = [
        _read_only(mixing_matrix(schedule.step_ratio(t), prior))
        for t in range(1, schedule.timesteps + 1)
    ]
    return tuple(zip(cumulative[1:], cumulative[:-1], step))


def _transitions(
    schedule: CosineSchedule, prior: np.ndarray, t: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Qbar_t, Qbar_{t-1}, Q_t) for ``prior``, each equal to its ``mixing_matrix``."""
    return _transition_tables(schedule, prior.tobytes(), prior.dtype.str)[t - 1]


def _sample_rows(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per row."""
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random(len(probs))
    return (cdf < u[:, None]).sum(axis=1)


def sample_prior(
    n: int,
    marginals: Marginals,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw an n-node graph from the node and edge marginal priors."""
    nodes = rng.choice(marginals.n_atom_types, size=n, p=marginals.node_prior)
    edges = np.zeros((n, n), dtype=np.int64)
    iu, ju = _upper_indices(n)
    draws = rng.choice(marginals.n_edge_types, size=len(iu), p=marginals.edge_prior)
    edges[iu, ju] = draws
    edges[ju, iu] = draws
    return nodes.astype(np.int64), edges


def _posterior(
    current: np.ndarray,
    pred: np.ndarray,
    qbar_t: np.ndarray,
    qbar_prev: np.ndarray,
    qstep: np.ndarray,
) -> np.ndarray:
    """Rows of p(z_{t-1} | z_t, pred) for a batch of positions.

    ``current`` is the vector of observed categories k, ``pred`` the matrix
    of predicted clean-category probabilities, one row per position.
    """
    weighted = pred / qbar_t[:, current].T
    return (weighted @ qbar_prev) * qstep[:, current].T


def posterior_distributions(
    state: DiffusionState,
    pred: DenoiserOutput,
    marginals: Marginals,
    schedule: CosineSchedule,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node and per-pair posterior rows for the step t -> t-1.

    Returns (n, a) node rows and (m, b) rows for the upper-triangle pairs;
    every row sums to one up to floating point rounding.
    """
    t = state.t
    if t < 1:
        raise ValueError("posterior step needs t >= 1")
    if t > schedule.timesteps:
        raise ValueError(f"t must lie in [1, {schedule.timesteps}]")
    n = state.n_nodes
    pred.validate(n, marginals.n_atom_types)

    node_post = _posterior(
        state.nodes, pred.node_probs, *_transitions(schedule, marginals.node_prior, t)
    )
    iu, ju = _upper_indices(n)
    edge_post = _posterior(
        state.edges[iu, ju],
        pred.edge_probs[iu, ju],
        *_transitions(schedule, marginals.edge_prior, t),
    )
    return node_post, edge_post


def _reverse_step(
    state: DiffusionState,
    pred: DenoiserOutput,
    marginals: Marginals,
    schedule: CosineSchedule,
    rng: np.random.Generator,
) -> tuple[DiffusionState, np.ndarray, np.ndarray]:
    """Sample the graph at t-1 (nodes, then pairs) and re-apply the scaffold.

    Returns the new state with the node and pair posterior rows it was
    drawn from.
    """
    node_post, edge_post = posterior_distributions(state, pred, marginals, schedule)
    n = state.n_nodes
    nodes = _sample_rows(node_post, rng).astype(np.int64)
    pair_draws = _sample_rows(edge_post, rng).astype(np.int64)
    edges = np.zeros((n, n), dtype=np.int64)
    iu, ju = _upper_indices(n)
    edges[iu, ju] = pair_draws
    edges[ju, iu] = pair_draws
    state = replace(state, t=state.t - 1, nodes=nodes, edges=edges).anchored()
    return state, node_post, edge_post


def _draw_size(n_scaffold: int, marginals: Marginals, rng: np.random.Generator) -> int:
    """Molecule size above the scaffold size, by rejection from the histogram.

    After ``SIZE_REJECTION_LIMIT`` failed draws the size falls back to the
    scaffold size plus a fixed margin.
    """
    for _ in range(SIZE_REJECTION_LIMIT):
        n = int(rng.choice(marginals.sizes, p=marginals.size_probs))
        if n > n_scaffold:
            return n
    logger.debug(
        "size rejection exhausted for scaffold of %d atoms; using fallback", n_scaffold
    )
    return n_scaffold + SIZE_FALLBACK_MARGIN


def _initial_state(
    scaffold: MolGraph,
    n_total: int,
    marginals: Marginals,
    schedule: CosineSchedule,
    rng: np.random.Generator,
) -> DiffusionState:
    n_scaffold = scaffold.n_atoms
    anchor_nodes = np.zeros(n_total, dtype=np.int64)
    anchor_edges = np.zeros((n_total, n_total), dtype=np.int64)
    scaffold_nodes, scaffold_edges = encode_molecule(scaffold, marginals)
    anchor_nodes[:n_scaffold] = scaffold_nodes
    anchor_edges[:n_scaffold, :n_scaffold] = scaffold_edges

    node_mask = np.zeros(n_total, dtype=bool)
    node_mask[:n_scaffold] = True
    edge_mask = np.zeros((n_total, n_total), dtype=bool)
    edge_mask[:n_scaffold, :n_scaffold] = True
    np.fill_diagonal(edge_mask, False)

    nodes, edges = sample_prior(n_total, marginals, rng)
    return DiffusionState(
        t=schedule.timesteps,
        nodes=nodes,
        edges=edges,
        node_mask=node_mask,
        edge_mask=edge_mask,
        anchor_nodes=anchor_nodes,
        anchor_edges=anchor_edges,
    ).anchored()


def extend_scaffold(
    scaffold: MolGraph,
    denoiser: Denoiser,
    marginals: Marginals,
    schedule: CosineSchedule | None = None,
    seed: int | np.random.Generator = 0,
    on_step: StepHook | None = None,
) -> MolGraph:
    """Grow a molecule around ``scaffold`` by reverse diffusion.

    The returned molecule keeps the scaffold at indices ``[0, n_scaffold)``;
    sampled fragments not connected to it are discarded. ``on_step``, when
    given, receives every post-step state along with the posterior rows
    that produced it.
    """
    for atom in scaffold.atoms:
        marginals.atom_index(atom)  # KeyError for atoms outside the vocabulary
    schedule = schedule or CosineSchedule()
    rng = np.random.default_rng(seed)
    n_total = _draw_size(scaffold.n_atoms, marginals, rng)
    state = _initial_state(scaffold, n_total, marginals, schedule, rng)
    while state.t > 0:
        pred = denoiser.denoise(state.t, state.nodes, state.edges)
        state, node_post, edge_post = _reverse_step(state, pred, marginals, schedule, rng)
        if on_step is not None:
            on_step(state, node_post, edge_post)
    return _decode_extension(state, scaffold, marginals)


def _decode_extension(
    state: DiffusionState, scaffold: MolGraph, marginals: Marginals
) -> MolGraph:
    full = decode_graph(state.nodes, state.edges, marginals.atom_types)
    for component in full.connected_components():
        if 0 in component:
            return full.subgraph(component)
    raise AssertionError("scaffold root vanished from its own component")


@dataclass(frozen=True)
class GeneratedEntry:
    molecule: MolGraph
    scaffold: MolGraph
    cluster_id: int
    valid: bool


@dataclass(frozen=True)
class GenerationReport:
    total: int
    n_valid: int

    @property
    def validity_rate(self) -> float:
        return self.n_valid / self.total if self.total else 0.0


def generate_scaffold_extensions(
    scaffolds: Sequence[MolGraph],
    cluster_ids: Sequence[int],
    denoiser: Denoiser,
    marginals: Marginals,
    schedule: CosineSchedule | None = None,
    seed: int = 0,
) -> tuple[list[GeneratedEntry], GenerationReport]:
    """Run one extension per scaffold entry and screen the results.

    Every generated molecule is valence-checked; both valid and invalid
    entries are returned (flagged) so the caller can report the validity
    rate, but only valid ones should enter training data.
    """
    if len(scaffolds) != len(cluster_ids):
        raise ValueError("scaffolds and cluster_ids are misaligned")
    schedule = schedule or CosineSchedule()
    entries: list[GeneratedEntry] = []
    n_valid = 0
    children = np.random.SeedSequence(seed).spawn(len(scaffolds))
    for scaffold, cluster_id, child in zip(scaffolds, cluster_ids, children):
        mol = extend_scaffold(
            scaffold,
            denoiser,
            marginals,
            schedule=schedule,
            seed=np.random.default_rng(child),
        )
        valid = check_valence(mol).valid
        n_valid += int(valid)
        entries.append(
            GeneratedEntry(
                molecule=mol, scaffold=scaffold, cluster_id=int(cluster_id), valid=valid
            )
        )
    return entries, GenerationReport(total=len(entries), n_valid=n_valid)
