"""Molecular graph primitives.

Molecules are undirected labeled graphs. Atom and bond attributes are
immutable; every operation in this package builds new graphs instead of
mutating existing ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

ORGANIC_SUBSET = ("B", "C", "N", "O", "F", "P", "S", "Cl", "Br", "I")
AROMATIC_CAPABLE = frozenset({"B", "C", "N", "O", "P", "S"})

MIN_CHARGE = -2
MAX_CHARGE = 2


class BondOrder(IntEnum):
    """Bond categories. Integer values double as diffusion edge ids (0 = no edge)."""

    SINGLE = 1
    DOUBLE = 2
    TRIPLE = 3
    AROMATIC = 4

    @property
    def valence(self) -> float:
        """Contribution of one bond of this order to an atom's valence sum."""
        if self is BondOrder.AROMATIC:
            return 1.5
        return float(self.value)


@dataclass(frozen=True, order=True)
class Atom:
    """A heavy atom: element symbol, aromatic flag, formal charge, bracket hydrogens.

    ``explicit_h`` counts hydrogens written explicitly in a bracket atom
    (``[NH3+]`` stores 3). Hydrogens implied by valence on organic-subset
    atoms are not stored.
    """

    element: str
    aromatic: bool = False
    charge: int = 0
    explicit_h: int = 0

    def __post_init__(self) -> None:
        if self.element not in ORGANIC_SUBSET:
            raise ValueError(f"unsupported element {self.element!r}")
        if self.aromatic and self.element not in AROMATIC_CAPABLE:
            raise ValueError(f"element {self.element!r} cannot be aromatic")
        if not MIN_CHARGE <= self.charge <= MAX_CHARGE:
            raise ValueError(f"formal charge {self.charge} out of range [{MIN_CHARGE}, {MAX_CHARGE}]")
        if self.explicit_h < 0:
            raise ValueError("explicit hydrogen count must be nonnegative")


def _bond_key(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


class MolGraph:
    """Immutable undirected molecular graph.

    Bonds are stored once per unordered pair under the key ``(min, max)``.
    Self-loops are rejected. The graph must contain at least one atom;
    connectivity is not required by the type itself.
    """

    __slots__ = ("_atoms", "_bonds", "_adj", "_hash", "__weakref__")

    def __init__(self, atoms: Iterable[Atom], bonds: Mapping[tuple[int, int], BondOrder]) -> None:
        self._atoms: tuple[Atom, ...] = tuple(atoms)
        if not self._atoms:
            raise ValueError("molecular graph needs at least one atom")
        n = len(self._atoms)
        normalized: dict[tuple[int, int], BondOrder] = {}
        for (i, j), order in bonds.items():
            if i == j:
                raise ValueError(f"self-bond on atom {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bond ({i}, {j}) references a missing atom")
            key = _bond_key(i, j)
            if key in normalized and normalized[key] != order:
                raise ValueError(f"conflicting duplicate bond {key}")
            normalized[key] = BondOrder(order)
        self._bonds = dict(sorted(normalized.items()))
        adj: list[list[int]] = [[] for _ in range(n)]
        for i, j in self._bonds:
            adj[i].append(j)
            adj[j].append(i)
        self._adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return self._atoms

    @property
    def bonds(self) -> Mapping[tuple[int, int], BondOrder]:
        return MappingProxyType(self._bonds)

    @property
    def n_atoms(self) -> int:
        return len(self._atoms)

    @property
    def n_bonds(self) -> int:
        return len(self._bonds)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adj[i]

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    def bond(self, i: int, j: int) -> BondOrder | None:
        return self._bonds.get(_bond_key(i, j))

    def aromatic_bond_count(self, i: int) -> int:
        return sum(
            1 for j in self._adj[i] if self._bonds[_bond_key(i, j)] is BondOrder.AROMATIC
        )

    def connected_components(self) -> list[tuple[int, ...]]:
        """Connected components as sorted index tuples, ordered by smallest member."""
        seen = [False] * self.n_atoms
        out: list[tuple[int, ...]] = []
        for start in range(self.n_atoms):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in self._adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            out.append(tuple(sorted(comp)))
        return out

    def subgraph(self, indices: Iterable[int]) -> "MolGraph":
        """Induced subgraph over ``indices``, reindexed in the given order."""
        index_list = list(indices)
        if len(set(index_list)) != len(index_list):
            raise ValueError("duplicate indices in subgraph selection")
        remap = {old: new for new, old in enumerate(index_list)}
        atoms = [self._atoms[i] for i in index_list]
        bonds = {
            (remap[i], remap[j]): order
            for (i, j), order in self._bonds.items()
            if i in remap and j in remap
        }
        return MolGraph(atoms, bonds)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MolGraph):
            return NotImplemented
        return self._atoms == other._atoms and self._bonds == other._bonds

    def __hash__(self) -> int:
        # The graph never changes, so its hash is computed on first use only.
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self._atoms, tuple(self._bonds.items())))
            return self._hash

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms)

    def __len__(self) -> int:
        return len(self._atoms)

    def __repr__(self) -> str:
        return f"MolGraph(n_atoms={self.n_atoms}, n_bonds={self.n_bonds})"
