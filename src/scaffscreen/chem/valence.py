"""Valence screening for generated and ingested molecules.

The table below lists allowed valences per element. A +1 formal charge adds
one unit to the allowed valences of N and O, a -1 charge removes one; other
elements keep their neutral table regardless of charge. An atom passes when
its connection total fits under any allowed valence, leaving the remainder
to implicit hydrogens.

Aromatic bonds contribute 1.5 each. A fractional total from an odd aromatic
bond count is rounded down, which credits fused ring atoms with the shared
pi pairing. For N, O, P and S an alternative accounting with aromatic bonds
at order one is also accepted, covering pyrrole-type atoms whose lone pair
sits in the ring pi system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Atom, BondOrder, MolGraph

ALLOWED_VALENCES: dict[str, tuple[int, ...]] = {
    "B": (3,),
    "C": (4,),
    "N": (3,),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}

_CHARGE_ADJUSTED = frozenset({"N", "O"})
_LONE_PAIR_DONORS = frozenset({"N", "O", "P", "S"})


@dataclass(frozen=True)
class ValenceViolation:
    atom_index: int
    reason: str


@dataclass(frozen=True)
class ValidityReport:
    violations: tuple[ValenceViolation, ...] = field(default=())

    @property
    def valid(self) -> bool:
        return not self.violations


def allowed_valences(atom: Atom) -> tuple[int, ...]:
    base = ALLOWED_VALENCES[atom.element]
    if atom.element in _CHARGE_ADJUSTED and atom.charge:
        adjusted = tuple(v + atom.charge for v in base)
        return tuple(v for v in adjusted if v >= 0) or (0,)
    return base


def _least_total(atom: Atom, plain: int, aromatic_count: int) -> int:
    """The smaller connection total of an atom with these bond sums (see above)."""
    if aromatic_count >= 2 and atom.element in _LONE_PAIR_DONORS:
        return plain + atom.explicit_h + aromatic_count
    return plain + atom.explicit_h + aromatic_count + aromatic_count // 2


def remaining_capacity(mol: MolGraph, i: int) -> int:
    """How many additional single bonds atom ``i`` could accept, never below 0.

    Uses the most permissive allowed valence against the most favourable
    connection accounting, so the answer is exact for single-bond additions.
    """
    bonds = mol._bonds
    plain = aromatic_count = 0
    for j in mol._adj[i]:
        order = bonds[(i, j) if i < j else (j, i)]
        if order is BondOrder.AROMATIC:
            aromatic_count += 1
        else:
            plain += order
    atom = mol._atoms[i]
    spare = max(allowed_valences(atom)) - _least_total(atom, plain, aromatic_count)
    return spare if spare > 0 else 0


# The largest valence of each element: the one bound a plain atom is held to.
_PLAIN_LIMITS = {element: max(limits) for element, limits in ALLOWED_VALENCES.items()}


def check_valence(mol: MolGraph) -> ValidityReport:
    """Check every atom against the valence table.

    Returns a report with one violation per offending atom, in index order; a
    molecule is valid exactly when the violation list is empty. A plain atom
    (not aromatic, uncharged, no bracket H, no aromatic bond) needs only its
    bond orders under its element's largest valence.
    """
    atoms = mol._atoms
    plain = [0] * len(atoms)
    aromatic = [0] * len(atoms)
    for (i, j), order in mol._bonds.items():
        if order is BondOrder.AROMATIC:
            aromatic[i] += 1
            aromatic[j] += 1
        else:
            plain[i] += order
            plain[j] += order
    violations: list[ValenceViolation] = []
    for i, atom in enumerate(atoms):
        if plain[i] <= _PLAIN_LIMITS[atom.element] and not (
            aromatic[i] or atom.aromatic or atom.charge or atom.explicit_h
        ):
            continue
        if aromatic[i] and not atom.aromatic:
            reason = "aromatic bond on a non-aromatic atom"
        elif atom.aromatic and aromatic[i] < 2:
            reason = "aromatic atom needs at least two aromatic bonds"
        else:
            limits = allowed_valences(atom)
            total = _least_total(atom, plain[i], aromatic[i])
            if total <= max(limits):
                continue
            label = atom.element if not atom.charge else f"{atom.element}{atom.charge:+d}"
            reason = f"connection total {total:g} exceeds allowed valences {limits} for {label}"
        violations.append(ValenceViolation(i, reason))
    return ValidityReport(tuple(violations))
