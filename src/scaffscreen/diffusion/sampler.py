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

All chains of one call advance in lockstep, one timestep at a time. Every
chain's nodes and upper-triangle pairs sit in flat arrays, so a step asks
the denoiser once per chain, computes the posterior with one row product
for all nodes and one for all pairs, and samples and re-anchors the whole
stack at once. Each chain keeps its own generator and draws its uniforms
in the same order as when run alone (its nodes, then its pairs), so a
chain samples the same molecule whichever chains run beside it. That
holds bit for bit as long as each chain brings at least two node rows and
two pair rows: a one-row block goes through BLAS's matrix-vector kernel
when run alone, which may round its last bit otherwise. A scaffold is a
ring system and the drawn size exceeds it, so a pipeline chain has at
least four nodes and six pairs.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

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


def _sample_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One categorical draw per row, by inverting its cdf at the uniform ``u``."""
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1:]
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
    weighted = pred / np.take(qbar_t.T, current, axis=0)
    return (weighted @ qbar_prev) * np.take(qstep.T, current, axis=0)


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


def _bounds(counts: Iterable[int]) -> list[int]:
    return [0, *itertools.accumulate(counts)]


@dataclass(frozen=True)
class _Lockstep:
    """Every chain of one call at the same step ``t``, stacked in flat arrays.

    Chain c holds ``nodes[node_bounds[c]:node_bounds[c + 1]]``, its
    upper-triangle pairs in ``np.triu_indices`` order as the like slice of
    ``pairs``, and its symmetric edge matrix as an n*n block of ``edges``
    from ``edge_bounds[c]``; ``upper`` and ``lower`` index each pair's two
    cells in ``edges``. A step's uniforms are laid out chain by chain, each
    chain's nodes then its pairs, and ``node_draws``/``pair_draws`` pick
    them out for the stacked rows. ``templates`` keep each chain's masks
    and anchors, which ``node_mask``/``node_anchor`` and
    ``pair_mask``/``pair_anchor`` hold in flat form.
    """

    t: int
    nodes: np.ndarray
    pairs: np.ndarray
    edges: np.ndarray
    templates: tuple[DiffusionState, ...]
    rngs: tuple[np.random.Generator, ...]
    sizes: tuple[int, ...]
    node_bounds: list[int]
    edge_bounds: list[int]
    draw_bounds: list[int]
    upper: np.ndarray
    lower: np.ndarray
    node_mask: np.ndarray
    node_anchor: np.ndarray
    pair_mask: np.ndarray
    pair_anchor: np.ndarray
    node_draws: np.ndarray
    pair_draws: np.ndarray

    def _graph(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        n = self.sizes[c]
        edges = self.edges[self.edge_bounds[c] : self.edge_bounds[c + 1]]
        return self.nodes[self.node_bounds[c] : self.node_bounds[c + 1]], edges.reshape(n, n)

    def graphs(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Each chain's (nodes, edges) as views of this step's arrays."""
        return (self._graph(c) for c in range(len(self.sizes)))

    def state(self, c: int) -> DiffusionState:
        nodes, edges = self._graph(c)
        return replace(self.templates[c], t=self.t, nodes=nodes, edges=edges)


def _stack(
    states: Sequence[DiffusionState], rngs: Sequence[np.random.Generator]
) -> _Lockstep:
    """Lay out chains at one common step for lockstep advance."""
    sizes = tuple(state.n_nodes for state in states)
    n_pairs = [n * (n - 1) // 2 for n in sizes]
    node_bounds = _bounds(sizes)
    pair_bounds = _bounds(n_pairs)
    edge_bounds = _bounds(n * n for n in sizes)
    upper = []
    lower = []
    for n, offset in zip(sizes, edge_bounds):
        iu, ju = _upper_indices(n)
        upper.append(offset + iu * n + ju)
        lower.append(offset + ju * n + iu)
    upper = np.concatenate(upper)
    lower = np.concatenate(lower)
    edges = np.concatenate([state.edges.ravel() for state in states])
    edge_mask = np.concatenate([state.edge_mask.ravel() for state in states])
    anchor_edges = np.concatenate([state.anchor_edges.ravel() for state in states])
    # A chain's uniforms start after every earlier chain's nodes and pairs.
    node_draws = np.arange(node_bounds[-1]) + np.repeat(pair_bounds[:-1], sizes)
    pair_draws = np.arange(pair_bounds[-1]) + np.repeat(node_bounds[1:], n_pairs)
    return _Lockstep(
        t=states[0].t,
        nodes=np.concatenate([state.nodes for state in states]),
        pairs=edges[upper],
        edges=edges,
        templates=tuple(states),
        rngs=tuple(rngs),
        sizes=sizes,
        node_bounds=node_bounds,
        edge_bounds=edge_bounds,
        draw_bounds=_bounds(n + m for n, m in zip(sizes, n_pairs)),
        upper=upper,
        lower=lower,
        node_mask=np.concatenate([state.node_mask for state in states]),
        node_anchor=np.concatenate([state.anchor_nodes for state in states]),
        pair_mask=edge_mask[upper],
        pair_anchor=anchor_edges[upper],
        node_draws=node_draws,
        pair_draws=pair_draws,
    )


def _reverse_step(
    chains: _Lockstep,
    preds: Sequence[DenoiserOutput],
    marginals: Marginals,
    schedule: CosineSchedule,
) -> tuple[_Lockstep, np.ndarray, np.ndarray]:
    """Sample every chain at t-1 from its prediction and re-apply the scaffolds.

    Returns the chains at t-1 with the stacked node and pair posterior rows
    they were drawn from.
    """
    node_rows = []
    pair_rows = []
    for pred, n in zip(preds, chains.sizes):
        pred.validate(n, marginals.n_atom_types)
        iu, ju = _upper_indices(n)
        node_rows.append(pred.node_probs)
        pair_rows.append(pred.edge_probs[iu, ju])
    t = chains.t
    node_post = _posterior(
        chains.nodes,
        np.concatenate(node_rows),
        *_transitions(schedule, marginals.node_prior, t),
    )
    pair_post = _posterior(
        chains.pairs,
        np.concatenate(pair_rows),
        *_transitions(schedule, marginals.edge_prior, t),
    )
    uniforms = np.empty(chains.draw_bounds[-1])
    for rng, start, stop in zip(chains.rngs, chains.draw_bounds, chains.draw_bounds[1:]):
        rng.random(out=uniforms[start:stop])
    nodes = np.where(
        chains.node_mask,
        chains.node_anchor,
        _sample_rows(node_post, uniforms[chains.node_draws]),
    )
    pairs = np.where(
        chains.pair_mask,
        chains.pair_anchor,
        _sample_rows(pair_post, uniforms[chains.pair_draws]),
    )
    edges = np.zeros_like(chains.edges)
    edges[chains.upper] = pairs
    edges[chains.lower] = pairs
    stepped = replace(chains, t=t - 1, nodes=nodes, pairs=pairs, edges=edges)
    return stepped, node_post, pair_post


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


def _run_chains(
    scaffolds: Sequence[MolGraph],
    rngs: Sequence[np.random.Generator],
    denoiser: Denoiser,
    marginals: Marginals,
    schedule: CosineSchedule,
    on_step: StepHook | None = None,
) -> list[MolGraph]:
    """Grow one molecule per scaffold, chain c drawing from ``rngs[c]``.

    Each chain draws its size and prior first, then all chains take the
    reverse steps together. ``on_step`` is for one-chain runs: it receives
    the first chain's state after every step with the step's rows.
    """
    if not scaffolds:
        return []
    for scaffold in scaffolds:
        for atom in scaffold.atoms:
            marginals.atom_index(atom)  # KeyError for atoms outside the vocabulary
    states = []
    for scaffold, rng in zip(scaffolds, rngs):
        n_total = _draw_size(scaffold.n_atoms, marginals, rng)
        states.append(_initial_state(scaffold, n_total, marginals, schedule, rng))
    chains = _stack(states, rngs)
    while chains.t > 0:
        preds = [denoiser.denoise(chains.t, nodes, edges) for nodes, edges in chains.graphs()]
        chains, node_post, pair_post = _reverse_step(chains, preds, marginals, schedule)
        if on_step is not None:
            on_step(chains.state(0), node_post, pair_post)
    return [
        _decode_extension(chains.state(c), scaffold, marginals)
        for c, scaffold in enumerate(scaffolds)
    ]


def extend_scaffold(
    scaffold: MolGraph,
    denoiser: Denoiser,
    marginals: Marginals,
    schedule: CosineSchedule | None = None,
    seed: int | np.random.Generator = 0,
    on_step: StepHook | None = None,
) -> MolGraph:
    """Grow a molecule around ``scaffold`` by reverse diffusion.

    The one-chain case of the lockstep engine. The returned molecule keeps
    the scaffold at indices ``[0, n_scaffold)``; sampled fragments not
    connected to it are discarded. ``on_step``, when given, receives every
    post-step state along with the posterior rows that produced it.
    """
    (molecule,) = _run_chains(
        [scaffold],
        [np.random.default_rng(seed)],
        denoiser,
        marginals,
        schedule or CosineSchedule(),
        on_step,
    )
    return molecule


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

    Entry c grows from a generator on the c-th child of ``SeedSequence(seed)``,
    so it equals ``extend_scaffold`` seeded with that generator. Every
    generated molecule is valence-checked; both valid and invalid entries
    are returned (flagged) so the caller can report the validity rate, but
    only valid ones should enter training data.
    """
    if len(scaffolds) != len(cluster_ids):
        raise ValueError("scaffolds and cluster_ids are misaligned")
    children = np.random.SeedSequence(seed).spawn(len(scaffolds))
    molecules = _run_chains(
        scaffolds,
        [np.random.default_rng(child) for child in children],
        denoiser,
        marginals,
        schedule or CosineSchedule(),
    )
    entries: list[GeneratedEntry] = []
    n_valid = 0
    for scaffold, cluster_id, mol in zip(scaffolds, cluster_ids, molecules):
        valid = check_valence(mol).valid
        n_valid += int(valid)
        entries.append(
            GeneratedEntry(
                molecule=mol, scaffold=scaffold, cluster_id=int(cluster_id), valid=valid
            )
        )
    return entries, GenerationReport(total=len(entries), n_valid=n_valid)
