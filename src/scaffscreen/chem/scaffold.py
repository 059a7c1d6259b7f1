"""Bemis-Murcko scaffold extraction.

The scaffold keeps every ring atom plus the linker atoms and bonds that
connect ring systems; terminal side chains are peeled off one shell at a
time. Graph-theoretically this is the 2-core of the molecular graph:
repeatedly delete atoms with fewer than two remaining connections until
none qualify. Acyclic molecules therefore reduce to nothing, which is
reported as ``None`` rather than an empty graph.

Atom and bond attributes are carried over unchanged; exocyclic
substituents, double-bonded ones included, count as side chains.

``murcko_scaffold`` computes each molecule's scaffold once while the
molecule lives: results are memoized by graph value under a weak key, so
an equal molecule parsed again gets the same scaffold object and an entry
goes when its molecule does. The facts keyed by the scaffold graph then
live exactly as long, such as its ``fingerprints.ecfps`` memo entry. A
stored scaffold is always a new graph, never the molecule itself, even when
every atom survives, so no entry keeps its own key alive.
"""

from __future__ import annotations

import weakref

from .graph import MolGraph

__all__ = ["murcko_scaffold", "scaffold_atom_indices"]


def scaffold_atom_indices(mol: MolGraph) -> tuple[int, ...]:
    """Indices of atoms surviving iterative terminal pruning, in input order."""
    alive = [True] * mol.n_atoms
    degree = [mol.degree(i) for i in range(mol.n_atoms)]
    queue = [i for i in range(mol.n_atoms) if degree[i] <= 1]
    while queue:
        i = queue.pop()
        if not alive[i]:
            continue
        alive[i] = False
        for j in mol.neighbors(i):
            if alive[j]:
                degree[j] -= 1
                if degree[j] <= 1:
                    queue.append(j)
    return tuple(i for i in range(mol.n_atoms) if alive[i])


# Per live molecule, its scaffold (None when acyclic).
_MEMO: "weakref.WeakKeyDictionary[MolGraph, MolGraph | None]" = weakref.WeakKeyDictionary()


def murcko_scaffold(mol: MolGraph) -> MolGraph | None:
    """Ring-and-linker scaffold of ``mol``, or ``None`` for acyclic input.

    Idempotent: the scaffold of a scaffold is itself.
    """
    try:
        return _MEMO[mol]
    except KeyError:
        pass
    kept = scaffold_atom_indices(mol)
    scaffold = _MEMO[mol] = mol.subgraph(kept) if kept else None
    return scaffold
