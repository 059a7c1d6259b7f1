"""Circular (Morgan-style) binary fingerprints.

Each atom starts from an invariant hashing its element, charge, degree,
explicit hydrogen count and aromatic flag. For ``radius`` rounds the
invariant is rehashed together with the sorted (bond order, neighbor
invariant) pairs, and every identifier seen along the way is folded into a
fixed-width bit vector modulo ``nbits``. Hashing uses blake2b, so bit
positions are stable across platforms and processes. Identifiers depend
only on the labeled graph, never on atom numbering.

The empty scaffold of an acyclic molecule maps to the all-zero vector, and
two all-zero vectors count as identical (Tanimoto 1.0); a zero vector
against a nonzero one scores 0.0. This keeps acyclic molecules from being
rewarded as mutually "diverse" in scaffold-diversity metrics.

``ecfps`` is the one engine; ``ecfp(mol)`` is ``ecfps([mol])[0]``. It
computes each graph's fingerprint once per (radius, nbits) while the graph
lives: results are memoized by graph value under a weak key, so an equal
graph parsed again gets the same object and an entry goes when its graph
does. The graphs of a list that miss the memo are fingerprinted together:
one int64 atom table and one directed bond list hold the whole batch, each
round sorts every atom's neighbor pairs with one ``np.lexsort``, and each
distinct row of hashed values (an atom environment) is hashed once, over the
same little-endian int64 bytes as hashing atom by atom would use.
"""

from __future__ import annotations

import hashlib
import weakref
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .chem.graph import MolGraph, ORGANIC_SUBSET

__all__ = [
    "DEFAULT_NBITS",
    "DEFAULT_RADIUS",
    "Fingerprint",
    "WidthMismatch",
    "check_nbits",
    "ecfp",
    "ecfps",
    "fingerprint_matrix",
    "tanimoto",
    "tanimoto_matrix",
]

DEFAULT_RADIUS = 2
DEFAULT_NBITS = 1024

_ELEMENT_INDEX = {symbol: k for k, symbol in enumerate(ORGANIC_SUBSET)}


class WidthMismatch(ValueError):
    """Raised when combining fingerprints of different widths."""


def check_nbits(nbits: int) -> None:
    if nbits < 8 or nbits & (nbits - 1):
        raise ValueError("nbits must be a power of two, at least 8")


@dataclass(frozen=True)
class Fingerprint:
    """Folded binary fingerprint held as an int bitset."""

    bits: int
    nbits: int
    radius: int

    def __post_init__(self) -> None:
        check_nbits(self.nbits)
        if self.bits < 0 or self.bits >> self.nbits:
            raise ValueError("bit pattern wider than nbits")

    def to_hex(self) -> str:
        return f"{self.bits:0{self.nbits // 4}x}"


# Per live graph, its fingerprints by (radius, nbits).
_MEMO: "weakref.WeakKeyDictionary[MolGraph, dict[tuple[int, int], Fingerprint]]" = (
    weakref.WeakKeyDictionary()
)

_ATOM_TAG = 0x5EED
_ROUND_TAG = 0xC1AC


def ecfp(
    mol: MolGraph | None,
    radius: int = DEFAULT_RADIUS,
    nbits: int = DEFAULT_NBITS,
) -> Fingerprint:
    """Fingerprint a molecule; ``None`` (empty scaffold) gives the zero vector."""
    return ecfps([mol], radius, nbits)[0]


def ecfps(
    mols: Sequence[MolGraph | None],
    radius: int = DEFAULT_RADIUS,
    nbits: int = DEFAULT_NBITS,
) -> list[Fingerprint]:
    """Fingerprint every molecule of ``mols``, in order, as :func:`ecfp` does one.

    Memo hits are returned as they are; the distinct graphs that miss are
    fingerprinted together in one pass and memoized.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    check_nbits(nbits)
    key = (radius, nbits)
    zero = Fingerprint(bits=0, nbits=nbits, radius=radius)
    out: list[Fingerprint] = []
    misses: dict[MolGraph, list[int]] = {}
    for position, mol in enumerate(mols):
        fp = zero
        if mol is not None:
            fp = _MEMO.get(mol, {}).get(key)
            if fp is None:
                misses.setdefault(mol, []).append(position)
        out.append(fp)
    if misses:
        for (mol, positions), bits in zip(misses.items(), _batch_bits(misses, radius, nbits)):
            fp = Fingerprint(bits=bits, nbits=nbits, radius=radius)
            known = _MEMO.get(mol)
            if known is None:
                known = _MEMO[mol] = {}
            known[key] = fp
            for position in positions:
                out[position] = fp
    return out


def _batch_bits(mols: Iterable[MolGraph], radius: int, nbits: int) -> list[int]:
    """The folded bitset of each graph, all graphs in one numpy pass."""
    # Atom rows (0x5EED, element, charge, degree, explicit_h, aromatic), the
    # degree filled in once the bonds are counted; bond rows (i, j, order).
    atoms = array("q")
    bonds = array("i")
    sizes = array("q")
    offset = 0
    for mol in mols:
        for atom in mol.atoms:
            element = _ELEMENT_INDEX[atom.element]
            atoms.extend((_ATOM_TAG, element, atom.charge, 0, atom.explicit_h, atom.aromatic))
        for (i, j), order in mol.bonds.items():
            bonds.extend((offset + i, offset + j, order))
        offset += mol.n_atoms
        sizes.append(mol.n_atoms)
    bond_table = np.frombuffer(bonds, dtype=np.intc).reshape(-1, 3)
    # Each bond once from each end: (source atom, neighbor atom, order).
    src = np.concatenate((bond_table[:, 0], bond_table[:, 1]))
    dst = np.concatenate((bond_table[:, 1], bond_table[:, 0]))
    order = np.concatenate((bond_table[:, 2], bond_table[:, 2]))
    degree = np.bincount(src, minlength=offset)
    initial = np.frombuffer(atoms, dtype=np.int64).reshape(-1, 6)
    initial[:, 3] = degree
    invariants = _hash_rows(initial)
    # The rounds need only src, dst and order: free the tables to lower the peak memory.
    del initial, atoms, bond_table, bonds

    # Fold: identifier x of atom a sets bit x % nbits of a's graph, little-endian.
    width = nbits // 8
    packed = np.zeros((len(sizes), width), dtype=np.uint8)
    graph_of = np.repeat(np.arange(len(sizes)), sizes)

    def fold(identifiers: np.ndarray) -> None:
        positions = identifiers % nbits
        np.bitwise_or.at(
            packed, (graph_of, positions >> 3), np.left_shift(1, positions & 7).astype(np.uint8)
        )

    fold(invariants)
    # An atom's neighbor pairs sit at first[atom] + 0..degree-1 once sorted by source.
    first = np.cumsum(degree) - degree
    shells = []
    for d in np.unique(degree).tolist():
        members = np.flatnonzero(degree == d)
        shells.append((d, members, first[members, None] + np.arange(d)))
    for _ in range(radius):
        # (source, order, neighbor invariant): each atom's pairs in sorted order.
        pairs = np.lexsort((invariants[dst], order, src))
        pair_order, pair_invariant = order[pairs], invariants[dst[pairs]]
        refreshed = np.empty(offset, dtype=np.int64)
        for d, members, slots in shells:
            rows = np.empty((len(members), 2 + 2 * d), dtype=np.int64)
            rows[:, 0] = _ROUND_TAG
            rows[:, 1] = invariants[members]
            rows[:, 2::2] = pair_order[slots]
            rows[:, 3::2] = pair_invariant[slots]
            refreshed[members] = _hash_rows(rows)
        invariants = refreshed
        fold(invariants)

    data = packed.tobytes()
    return [int.from_bytes(data[g * width : (g + 1) * width], "little") for g in range(len(sizes))]


def _hash_rows(rows: np.ndarray) -> np.ndarray:
    """blake2b-64 of each row's little-endian int64 bytes, as a signed int64.

    Equal rows are hashed once: a lexicographic sort brings them together.
    """
    n, width = rows.shape
    ranked = np.lexsort(rows.T[::-1])
    fresh = np.zeros(n, dtype=bool)
    fresh[0] = True
    for column in rows.T:
        sorted_column = column[ranked]
        fresh[1:] |= sorted_column[1:] != sorted_column[:-1]
    distinct = memoryview(rows[ranked[fresh]].astype("<i8", copy=False).tobytes())
    step = 8 * width
    blake2b = hashlib.blake2b
    digests = b"".join(
        blake2b(distinct[k : k + step], digest_size=8).digest()
        for k in range(0, len(distinct), step)
    )
    out = np.empty(n, dtype=np.int64)
    out[ranked] = np.frombuffer(digests, dtype="<i8")[np.cumsum(fresh) - 1]
    return out


def tanimoto(x: Fingerprint, y: Fingerprint) -> float:
    """Tanimoto similarity of two equally wide fingerprints.

    Two empty vectors score 1.0, an empty against a nonempty scores 0.0.
    """
    if x.nbits != y.nbits:
        raise WidthMismatch(f"fingerprint widths differ: {x.nbits} vs {y.nbits}")
    union = (x.bits | y.bits).bit_count()
    if union == 0:
        return 1.0
    return (x.bits & y.bits).bit_count() / union


def fingerprint_matrix(
    fps: Sequence[Fingerprint], dtype: np.dtype | type = np.float64
) -> np.ndarray:
    """Stack fingerprints into an (m, nbits) 0/1 matrix of ``dtype``."""
    if not fps:
        raise ValueError("no fingerprints given")
    width = fps[0].nbits
    for fp in fps:
        if fp.nbits != width:
            raise WidthMismatch("mixed fingerprint widths")
    packed = np.frombuffer(
        b"".join(fp.bits.to_bytes(width // 8, "little") for fp in fps), dtype=np.uint8
    )
    rows = np.unpackbits(packed.reshape(len(fps), width // 8), axis=1, bitorder="little")
    return rows.astype(dtype, copy=False)


def tanimoto_matrix(fps: Sequence[Fingerprint]) -> np.ndarray:
    """Every pair's :func:`tanimoto`, bit for bit, as an (m, m) float64 matrix.

    With ``G`` the Gram product of the 0/1 rows, pair (i, j) shares ``G[i, j]``
    bits of ``G[i, i] + G[j, j] - G[i, j]``: counts, exact in any sum order.
    """
    rows = fingerprint_matrix(fps)
    shared = rows @ rows.T
    counts = shared.diagonal()
    union = counts[:, None] + counts[None, :] - shared
    return np.divide(shared, union, out=np.ones_like(shared), where=union > 0)
