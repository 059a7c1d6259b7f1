"""Scaffold-anchored reverse diffusion over molecular graphs.

Generation extends a fixed scaffold with freshly sampled atoms and bonds.
The scaffold occupies node indices ``[0, n_scaffold)`` and every pair
between those indices (bonds and non-bonds alike), so it stays an exact
induced subgraph of every intermediate graph: after each sampling step the
anchored positions are overwritten with the scaffold categories before
anything else sees the graph.

A reverse step computes, independently per node and per unordered pair,

    p(z_{t-1} = j) = sum_x  pred(x) * q(z_{t-1} = j | z_t = k, z_0 = x)

with the discrete posterior assembled from the cumulative and per-step
transition matrices of the cosine schedule (``posterior_distributions``),
then samples each position. Rows of the posterior sum to one up to
rounding; they are only rescaled by their own sum at the sampling draw.
The transition matrices depend only on (schedule, t, prior), so they are
built once per schedule and prior and shared by every chain and step.

``_run_chains`` is the one reverse-diffusion loop. All chains of one call
advance in lockstep, one timestep at a time, over flat arrays: every
chain's nodes, then every chain's pairs in ``upper_indices`` order, each
with a fixed flag and its scaffold category. A step asks the denoiser once
for the rows of the whole stack, computes the posterior with one row
product for all nodes and one for all pairs, and samples and re-anchors
the whole stack at once. Each chain keeps its own generator and draws its
uniforms in the same order as when run alone (its nodes, then its pairs),
so a chain samples the same molecule whichever chains run beside it. That
holds bit for bit as long as each chain brings at least two node rows and
two pair rows: a one-row block goes through BLAS's matrix-vector kernel
when run alone, which may round its last bit otherwise. A scaffold is a
ring system and the drawn size exceeds it, so a pipeline chain has at
least four nodes and six pairs.

A chain draws its uniforms for ``UNIFORM_BLOCK_STEPS`` steps at a time, in
one call: one ``random(steps * draws)`` call yields the same stream as
``steps`` calls of ``random(draws)``. The block's buffer holds each chain's
run in turn, and one gather per block lays it out as (step, position) for
the node stack and for the pair stack.

A draw inverts the row's cdf at its uniform one category column at a time:
the running sums are the additions ``np.cumsum(axis=1)`` makes, in the same
order, each is divided by the row total, and the rows still below their
uniform are counted. The last column's quotient is 1.0 or NaN, never below
a uniform, so it is not formed.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..chem.graph import MolGraph
from ..chem.valence import check_valence
from .denoisers import Denoiser
from .marginals import Marginals, decode_graph, encode_molecule, upper_indices
from .schedule import CosineSchedule, mixing_matrix

__all__ = [
    "GenerationReport",
    "GeneratedEntry",
    "extend_scaffold",
    "generate_scaffold_extensions",
    "posterior_distributions",
]

logger = logging.getLogger(__name__)

SIZE_REJECTION_LIMIT = 100
SIZE_FALLBACK_MARGIN = 5
UNIFORM_BLOCK_STEPS = 10


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


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


def posterior_distributions(
    t: int,
    current: np.ndarray,
    pred: np.ndarray,
    prior: np.ndarray,
    schedule: CosineSchedule,
) -> np.ndarray:
    """Rows of p(z_{t-1} | z_t, pred) for a batch of positions, t -> t-1.

    ``current`` holds each position's observed category k at step t,
    ``pred`` one row of predicted clean-category probabilities per position,
    and ``prior`` the marginal the forward process mixes toward. Every row
    sums to one up to floating point rounding.
    """
    if not 1 <= t <= schedule.timesteps:
        raise ValueError(f"t must lie in [1, {schedule.timesteps}]")
    qbar_t, qbar_prev, qstep = _transition_tables(schedule, prior.tobytes(), prior.dtype.str)[
        t - 1
    ]
    weighted = pred / np.take(qbar_t.T, current, axis=0)
    return (weighted @ qbar_prev) * np.take(qstep.T, current, axis=0)


def _sample_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One categorical draw per row, by inverting its cdf at the uniform ``u`` in [0, 1)."""
    partials = list(itertools.accumulate(probs.T))
    total = partials.pop()
    draws = np.zeros(len(u), dtype=np.intp)
    for partial in partials:
        draws += partial / total < u
    return draws


def _bounds(counts: Iterable[int]) -> list[int]:
    return [0, *itertools.accumulate(counts)]


def _choice(cdf: np.ndarray, rng: np.random.Generator, size: int | None = None):
    """``rng.choice(len(p), size, p=p)`` given the cdf of ``p``: equal draws, equal stream.

    ``Generator.choice`` builds that cdf on every call, draws ``rng.random(size)``
    and looks the uniforms up with ``searchsorted(side="right")``.
    """
    return cdf.searchsorted(rng.random(size), side="right")


def _draw_size(n_scaffold: int, marginals: Marginals, rng: np.random.Generator) -> int:
    """Molecule size above the scaffold size, by rejection from the histogram.

    After ``SIZE_REJECTION_LIMIT`` failed draws the size falls back to the
    scaffold size plus a fixed margin.
    """
    for _ in range(SIZE_REJECTION_LIMIT):
        n = int(marginals.sizes[_choice(marginals.size_cdf, rng)])
        if n > n_scaffold:
            return n
    logger.debug(
        "size rejection exhausted for scaffold of %d atoms; using fallback", n_scaffold
    )
    return n_scaffold + SIZE_FALLBACK_MARGIN


def _run_chains(
    scaffolds: Sequence[MolGraph],
    rngs: Sequence[np.random.Generator],
    denoiser: Denoiser,
    marginals: Marginals,
    schedule: CosineSchedule,
) -> list[MolGraph]:
    """Grow one molecule per scaffold, chain c drawing from ``rngs[c]``.

    Each chain draws its size, its prior nodes and its prior pairs first,
    then all chains take the reverse steps t = T..1 together.
    """
    if not scaffolds:
        return []
    sizes, nodes, node_fixed, pairs, pair_fixed, anchors = [], [], [], [], [], []
    for scaffold, rng in zip(scaffolds, rngs):
        anchors.append(encode_molecule(scaffold, marginals))  # KeyError for unknown atoms
        n_scaffold = scaffold.n_atoms
        n = _draw_size(n_scaffold, marginals, rng)
        _, ju = upper_indices(n)
        sizes.append(n)
        nodes.append(_choice(marginals.node_cdf, rng, n))
        pairs.append(_choice(marginals.edge_cdf, rng, len(ju)))
        # Node i is fixed iff i < n_scaffold, pair (i, j) with i < j iff j < n_scaffold.
        node_fixed.append(np.arange(n) < n_scaffold)
        pair_fixed.append(ju < n_scaffold)
    n_pairs = [n * (n - 1) // 2 for n in sizes]
    node_bounds = _bounds(sizes)
    pair_bounds = _bounds(n_pairs)
    draws = np.array([n + m for n, m in zip(sizes, n_pairs)])
    draw_bounds = _bounds(draws)
    # Within a step, a chain's uniforms start after every earlier chain's
    # nodes and pairs. In stack order (every node, then every pair), position
    # i takes uniform step_draw[i] of a step, drawn by chain chain_of[i].
    step_draw = np.concatenate(
        [
            np.arange(node_bounds[-1]) + np.repeat(pair_bounds[:-1], sizes),
            np.arange(pair_bounds[-1]) + np.repeat(node_bounds[1:], n_pairs),
        ]
    )
    chain_of = np.repeat(np.tile(np.arange(len(sizes)), 2), sizes + n_pairs)
    node_fixed = np.concatenate(node_fixed)
    pair_fixed = np.concatenate(pair_fixed)
    # In stack order, a chain's fixed nodes and pairs are its scaffold's encoding.
    node_anchor, pair_anchor = (np.concatenate(part) for part in zip(*anchors))
    nodes, pairs = np.concatenate(nodes), np.concatenate(pairs)
    nodes[node_fixed] = node_anchor
    pairs[pair_fixed] = pair_anchor
    want = ((len(nodes), marginals.n_atom_types), (len(pairs), marginals.n_edge_types))

    steps = range(schedule.timesteps, 0, -1)
    for first in range(0, len(steps), UNIFORM_BLOCK_STEPS):
        block = steps[first : first + UNIFORM_BLOCK_STEPS]
        # Chain c draws the whole block's uniforms as one run, which starts
        # at n_steps * draw_bounds[c]; its step s starts s * draws[c] into it.
        n_steps = len(block)
        uniforms = np.empty(n_steps * draw_bounds[-1])
        for rng, start, stop in zip(rngs, draw_bounds, draw_bounds[1:]):
            rng.random(out=uniforms[n_steps * start : n_steps * stop])
        shift = np.arange(n_steps)[:, None] * draws + (n_steps - 1) * np.array(draw_bounds[:-1])
        block_uniforms = uniforms[step_draw + shift[:, chain_of]]
        for t, step_uniforms in zip(block, block_uniforms):
            node_pred, pair_pred = denoiser.denoise(t, nodes, pairs, sizes)
            if (node_pred.shape, pair_pred.shape) != want:
                raise ValueError(
                    f"denoiser row shapes {node_pred.shape, pair_pred.shape}, not {want}"
                )
            node_post = posterior_distributions(t, nodes, node_pred, marginals.node_prior, schedule)
            pair_post = posterior_distributions(t, pairs, pair_pred, marginals.edge_prior, schedule)
            nodes = _sample_rows(node_post, step_uniforms[: node_bounds[-1]])
            pairs = _sample_rows(pair_post, step_uniforms[node_bounds[-1] :])
            nodes[node_fixed] = node_anchor
            pairs[pair_fixed] = pair_anchor
    return [
        _decode_extension(nodes[a:b], pairs[c:d], marginals)
        for a, b, c, d in zip(node_bounds, node_bounds[1:], pair_bounds, pair_bounds[1:])
    ]


def extend_scaffold(
    scaffold: MolGraph,
    denoiser: Denoiser,
    marginals: Marginals,
    schedule: CosineSchedule | None = None,
    seed: int | np.random.Generator = 0,
) -> MolGraph:
    """Grow a molecule around ``scaffold`` by reverse diffusion.

    The one-chain case of the lockstep engine. The returned molecule keeps
    the scaffold at indices ``[0, n_scaffold)``; sampled fragments not
    connected to it are discarded.
    """
    (molecule,) = _run_chains(
        [scaffold],
        [np.random.default_rng(seed)],
        denoiser,
        marginals,
        schedule or CosineSchedule(),
    )
    return molecule


def _decode_extension(nodes: np.ndarray, pairs: np.ndarray, marginals: Marginals) -> MolGraph:
    full = decode_graph(nodes, pairs, marginals.atom_types)
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
