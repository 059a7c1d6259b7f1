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

``ecfp`` computes each graph's fingerprint once per (radius, nbits) while
the graph lives: results are memoized by graph value under a weak key, so
an equal graph parsed again gets the same object and an entry goes when
its graph does.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chem.graph import MolGraph, ORGANIC_SUBSET

__all__ = [
    "DEFAULT_NBITS",
    "DEFAULT_RADIUS",
    "Fingerprint",
    "WidthMismatch",
    "check_nbits",
    "ecfp",
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


def _hash64(*values: int) -> int:
    payload = b"".join(v.to_bytes(8, "little", signed=True) for v in values)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little", signed=True)


def _initial_invariants(mol: MolGraph) -> list[int]:
    out = []
    for i, atom in enumerate(mol.atoms):
        out.append(
            _hash64(
                0x5EED,
                _ELEMENT_INDEX[atom.element],
                atom.charge,
                mol.degree(i),
                atom.explicit_h,
                int(atom.aromatic),
            )
        )
    return out


# Per live graph, its fingerprints by (radius, nbits).
_MEMO: "weakref.WeakKeyDictionary[MolGraph, dict[tuple[int, int], Fingerprint]]" = (
    weakref.WeakKeyDictionary()
)


def ecfp(
    mol: MolGraph | None,
    radius: int = DEFAULT_RADIUS,
    nbits: int = DEFAULT_NBITS,
) -> Fingerprint:
    """Fingerprint a molecule; ``None`` (empty scaffold) gives the zero vector."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    check_nbits(nbits)
    if mol is None:
        return Fingerprint(bits=0, nbits=nbits, radius=radius)
    known = _MEMO.get(mol)
    if known is None:
        known = _MEMO[mol] = {}
    fp = known.get((radius, nbits))
    if fp is None:
        fp = known[(radius, nbits)] = _compute_ecfp(mol, radius, nbits)
    return fp


def _compute_ecfp(mol: MolGraph, radius: int, nbits: int) -> Fingerprint:
    invariants = _initial_invariants(mol)
    identifiers = list(invariants)
    for _ in range(radius):
        refreshed = []
        for i in range(mol.n_atoms):
            neighborhood = sorted(
                (int(mol.bond(i, j)), invariants[j]) for j in mol.neighbors(i)
            )
            flat = [invariants[i]]
            for order, inv in neighborhood:
                flat.extend((order, inv))
            refreshed.append(_hash64(0xC1AC, *flat))
        invariants = refreshed
        identifiers.extend(invariants)

    bits = 0
    for ident in identifiers:
        bits |= 1 << (ident % nbits)
    return Fingerprint(bits=bits, nbits=nbits, radius=radius)


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
