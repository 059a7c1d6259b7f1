"""The per-atom ECFP loop, kept as the exactness reference.

This is the implementation that ``fingerprints.ecfps`` replaced: one
blake2b call per atom per radius over the same little-endian int64 bytes.
The function bodies are unchanged, so the tests can require the batch
engine to give the same bits.
"""

from __future__ import annotations

import hashlib

from scaffscreen.chem.graph import MolGraph, ORGANIC_SUBSET
from scaffscreen.fingerprints import Fingerprint, check_nbits

_ELEMENT_INDEX = {symbol: k for k, symbol in enumerate(ORGANIC_SUBSET)}


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


def reference_ecfp(mol: MolGraph | None, radius: int, nbits: int) -> Fingerprint:
    """The fingerprint of ``mol`` by the per-atom loop, never memoized."""
    check_nbits(nbits)
    if mol is None:
        return Fingerprint(bits=0, nbits=nbits, radius=radius)
    return _compute_ecfp(mol, radius, nbits)


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
