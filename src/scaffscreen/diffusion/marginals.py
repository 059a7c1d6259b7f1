"""Dataset statistics backing the discrete graph diffusion process.

The node vocabulary is derived from the data: every distinct atom label
(element, aromatic flag, charge, explicit hydrogens) observed in the input
becomes one categorical id, in sorted order. The edge vocabulary is fixed:
category 0 means "no edge", categories 1-4 are single, double, triple and
aromatic, matching :class:`~scaffscreen.chem.graph.BondOrder` values.

Edge marginals count all unordered atom pairs, so absent bonds weigh in as
category 0. A single-atom molecule has no pairs; by convention it
contributes a point mass on "no edge" when it is the only input.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..chem.graph import Atom, BondOrder, MolGraph

__all__ = [
    "EDGE_CATEGORIES",
    "EDGE_NONE",
    "Marginals",
    "compute_marginals",
    "decode_graph",
    "encode_molecule",
]

EDGE_NONE = 0
EDGE_CATEGORIES: tuple[BondOrder | None, ...] = (
    None,
    BondOrder.SINGLE,
    BondOrder.DOUBLE,
    BondOrder.TRIPLE,
    BondOrder.AROMATIC,
)
N_EDGE_CATEGORIES = len(EDGE_CATEGORIES)


def _atom_sort_key(atom: Atom) -> tuple:
    return (atom.element, atom.aromatic, atom.charge, atom.explicit_h)


@dataclass(frozen=True)
class Marginals:
    """Empirical node/edge category priors and the molecule size histogram."""

    atom_types: tuple[Atom, ...]
    node_prior: np.ndarray
    edge_prior: np.ndarray
    sizes: np.ndarray
    size_probs: np.ndarray

    @property
    def n_atom_types(self) -> int:
        return len(self.atom_types)

    @property
    def n_edge_types(self) -> int:
        return N_EDGE_CATEGORIES

    def atom_index(self, atom: Atom) -> int:
        try:
            return self._index[atom]
        except AttributeError:
            object.__setattr__(
                self, "_index", {a: k for k, a in enumerate(self.atom_types)}
            )
            return self._index[atom]

    # The cdfs that ``Generator.choice(p=...)`` would build on every call.
    @functools.cached_property
    def size_cdf(self) -> np.ndarray:
        return _cdf(self.size_probs)

    @functools.cached_property
    def node_cdf(self) -> np.ndarray:
        return _cdf(self.node_prior)

    @functools.cached_property
    def edge_cdf(self) -> np.ndarray:
        return _cdf(self.edge_prior)


def _cdf(probs: np.ndarray) -> np.ndarray:
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def compute_marginals(mols: Sequence[MolGraph]) -> Marginals:
    """Count node categories, pairwise edge categories and sizes over ``mols``."""
    if not mols:
        raise ValueError("cannot compute marginals over an empty dataset")

    # Counted in Python ints; each float64 array is built once from exact counts.
    atom_counts: Counter[Atom] = Counter()
    size_counts: Counter[int] = Counter()
    edge_counts = [0] * N_EDGE_CATEGORIES
    for mol in mols:
        n = mol.n_atoms
        size_counts[n] += 1
        atom_counts.update(mol.atoms)
        bonds = mol.bonds
        for order in bonds.values():
            edge_counts[order] += 1
        edge_counts[EDGE_NONE] += n * (n - 1) // 2 - len(bonds)

    atom_types = tuple(sorted(atom_counts, key=_atom_sort_key))
    node_prior = np.array([atom_counts[a] for a in atom_types], dtype=np.float64)
    node_prior /= node_prior.sum()

    if not any(edge_counts):
        # Only single-atom molecules: fall back to a point mass on "no edge".
        edge_counts[EDGE_NONE] = 1
    edge_prior = np.array(edge_counts, dtype=np.float64)
    edge_prior /= edge_prior.sum()

    sizes = np.array(sorted(size_counts), dtype=np.int64)
    size_probs = np.array([size_counts[int(s)] for s in sizes], dtype=np.float64)
    size_probs /= size_probs.sum()

    return Marginals(
        atom_types=atom_types,
        node_prior=node_prior,
        edge_prior=edge_prior,
        sizes=sizes,
        size_probs=size_probs,
    )


@functools.lru_cache(maxsize=128)
def upper_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(n, k=1)``: the order of an n-atom graph's pairs."""
    iu, ju = np.triu_indices(n, k=1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def pair_position(i, j, n: int):
    """Position of pair (i, j), i < j, in ``upper_indices(n)`` order."""
    return i * (2 * n - i - 1) // 2 + j - i - 1


def encode_molecule(mol: MolGraph, marginals: Marginals) -> tuple[np.ndarray, np.ndarray]:
    """Categorical encoding: node ids and pair ids in ``upper_indices`` order."""
    nodes = np.array([marginals.atom_index(a) for a in mol.atoms], dtype=np.int64)
    n = mol.n_atoms
    pairs = np.zeros(n * (n - 1) // 2, dtype=np.int64)
    for (i, j), order in mol.bonds.items():
        pairs[pair_position(i, j, n)] = int(order)
    return nodes, pairs


def decode_graph(
    nodes: np.ndarray, pairs: np.ndarray, atom_types: Sequence[Atom]
) -> MolGraph:
    """Inverse of :func:`encode_molecule`; drops "no edge" entries."""
    iu, ju = upper_indices(len(nodes))
    bonds = {
        (int(iu[k]), int(ju[k])): EDGE_CATEGORIES[int(pairs[k])]
        for k in np.flatnonzero(pairs != EDGE_NONE)
    }
    return MolGraph([atom_types[int(k)] for k in nodes], bonds)
