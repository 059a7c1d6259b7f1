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


def _connection_totals(atom: Atom, plain: float, aromatic_count: int) -> list[float]:
    """Candidate valence totals of an atom (alternatives for aromatics).

    ``plain`` sums the atom's non-aromatic bond orders; ``aromatic_count``
    counts its aromatic bonds.
    """
    base = plain + atom.explicit_h
    totals = [base + (aromatic_count + aromatic_count // 2)]
    if aromatic_count >= 2 and atom.element in _LONE_PAIR_DONORS:
        totals.append(base + aromatic_count)
    return totals


def _bond_sums(mol: MolGraph) -> tuple[list[float], list[int]]:
    """Each atom's plain bond-order total and aromatic bond count, in one pass.

    The plain totals add 1.0, 2.0 and 3.0 only, so they are exact in any order.
    """
    plain = [0.0] * mol.n_atoms
    aromatic = [0] * mol.n_atoms
    for (i, j), order in mol.bonds.items():
        if order is BondOrder.AROMATIC:
            aromatic[i] += 1
            aromatic[j] += 1
        else:
            plain[i] += order
            plain[j] += order
    return plain, aromatic


def remaining_capacity(mol: MolGraph, i: int) -> int:
    """How many additional single bonds atom ``i`` could accept.

    Uses the most permissive allowed valence against the most favourable
    connection accounting, so the answer is exact for single-bond additions.
    """
    atom = mol.atoms[i]
    orders = [mol.bond(i, j) for j in mol.neighbors(i)]
    aromatic_count = orders.count(BondOrder.AROMATIC)
    plain = sum((float(order) for order in orders if order is not BondOrder.AROMATIC), 0.0)
    spare = max(allowed_valences(atom)) - min(_connection_totals(atom, plain, aromatic_count))
    return max(0, int(spare))


def check_valence(mol: MolGraph) -> ValidityReport:
    """Check every atom against the valence table.

    Returns a report with one violation per offending atom; a molecule is
    valid exactly when the violation list is empty.
    """
    violations: list[ValenceViolation] = []
    plain, aromatic = _bond_sums(mol)
    for i, atom in enumerate(mol.atoms):
        aromatic_count = aromatic[i]
        if aromatic_count and not atom.aromatic:
            violations.append(
                ValenceViolation(i, "aromatic bond on a non-aromatic atom")
            )
            continue
        if atom.aromatic and aromatic_count < 2:
            violations.append(
                ValenceViolation(i, "aromatic atom needs at least two aromatic bonds")
            )
            continue
        limits = allowed_valences(atom)
        totals = _connection_totals(atom, plain[i], aromatic_count)
        if not any(total <= limit for total in totals for limit in limits):
            label = atom.element if not atom.charge else f"{atom.element}{atom.charge:+d}"
            violations.append(
                ValenceViolation(
                    i,
                    f"connection total {min(totals):g} exceeds allowed valences"
                    f" {limits} for {label}",
                )
            )
    return ValidityReport(tuple(violations))
