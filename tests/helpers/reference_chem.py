"""The chemistry core as it was before its one-pass rewrite, kept as the exactness reference.

These are the earlier ``MolGraph.__init__`` (as ``ReferenceGraph``), the
earlier ``parse_smiles`` with its bracket reader, ``check_valence`` with its
two bond lookups per neighbour, and ``compute_marginals`` with one float64
``+=`` per bond. The function bodies are unchanged, so the tests can require
the live code to give the same atoms, bonds in order, neighbours, errors,
reports and marginal arrays bit for bit.
"""

from __future__ import annotations

import functools
import warnings
from typing import Iterable, Mapping, Sequence

import numpy as np

from scaffscreen.chem.graph import Atom, BondOrder, MolGraph
from scaffscreen.chem.smiles import ParseError, SmilesFeatureWarning
from scaffscreen.chem.valence import ValenceViolation, ValidityReport, allowed_valences
from scaffscreen.diffusion.marginals import EDGE_NONE, N_EDGE_CATEGORIES, Marginals

_TWO_CHAR = ("Cl", "Br")
_SINGLE_CHAR = frozenset("BCNOPSFI")
_AROMATIC_CHARS = frozenset("bcnops")
_BOND_CHARS = {
    "-": BondOrder.SINGLE,
    "=": BondOrder.DOUBLE,
    "#": BondOrder.TRIPLE,
    ":": BondOrder.AROMATIC,
}
_LONE_PAIR_DONORS = frozenset({"N", "O", "P", "S"})
_atom = functools.lru_cache(maxsize=4096)(Atom)


def _bond_key(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def _atom_sort_key(atom: Atom) -> tuple:
    return (atom.element, atom.aromatic, atom.charge, atom.explicit_h)


class ReferenceGraph:
    """The earlier ``MolGraph`` constructor and the accessors the references read."""

    def __init__(self, atoms: Iterable[Atom], bonds: Mapping[tuple[int, int], BondOrder]) -> None:
        self.atoms: tuple[Atom, ...] = tuple(atoms)
        if not self.atoms:
            raise ValueError("molecular graph needs at least one atom")
        n = len(self.atoms)
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
        self.bonds = dict(sorted(normalized.items()))
        adj: list[list[int]] = [[] for _ in range(n)]
        for i, j in self.bonds:
            adj[i].append(j)
            adj[j].append(i)
        self.adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.adj[i]

    def bond(self, i: int, j: int) -> BondOrder | None:
        return self.bonds.get(_bond_key(i, j))

    def aromatic_bond_count(self, i: int) -> int:
        return sum(
            1 for j in self.adj[i] if self.bonds[_bond_key(i, j)] is BondOrder.AROMATIC
        )


def _parse_bracket(text: str, start: int) -> tuple[Atom, int]:
    """Parse a bracket atom starting at ``text[start] == '['``.

    Returns the atom and the index one past the closing bracket.
    """
    pos = start + 1
    end = text.find("]", pos)
    if end < 0:
        raise ParseError("unterminated bracket atom", start)

    def fail(msg: str) -> ParseError:
        return ParseError(msg, start)

    # Isotope prefix: digits before the element symbol.
    iso_start = pos
    while pos < end and text[pos].isdigit():
        pos += 1
    if pos > iso_start:
        warnings.warn(
            f"isotope label {text[iso_start:pos]!r} ignored", SmilesFeatureWarning, stacklevel=3
        )
    if pos >= end:
        raise fail("bracket atom lacks an element symbol")

    aromatic = False
    element = None
    for sym in _TWO_CHAR:
        if text.startswith(sym, pos):
            element = sym
            pos += 2
            break
    if element is None:
        ch = text[pos]
        if ch in _SINGLE_CHAR:
            element = ch
            pos += 1
        elif ch in _AROMATIC_CHARS:
            element = ch.upper()
            aromatic = True
            pos += 1
        else:
            raise fail(f"unknown element in bracket atom: {text[pos:end]!r}")

    h_count = 0
    charge = 0
    while pos < end:
        ch = text[pos]
        if ch in "@":
            run = pos
            while pos < end and text[pos] == "@":
                pos += 1
            warnings.warn(
                f"stereo marker {text[run:pos]!r} ignored", SmilesFeatureWarning, stacklevel=3
            )
        elif ch == "H":
            pos += 1
            digits = ""
            while pos < end and text[pos].isdigit():
                digits += text[pos]
                pos += 1
            h_count = int(digits) if digits else 1
        elif ch in "+-":
            sign = 1 if ch == "+" else -1
            pos += 1
            if pos < end and text[pos] == ch:
                # Legacy doubled sign form (++ / --).
                magnitude = 1
                while pos < end and text[pos] == ch:
                    magnitude += 1
                    pos += 1
            else:
                digits = ""
                while pos < end and text[pos].isdigit():
                    digits += text[pos]
                    pos += 1
                magnitude = int(digits) if digits else 1
            charge += sign * magnitude
        elif ch == ":":
            pos += 1
            run = pos
            while pos < end and text[pos].isdigit():
                pos += 1
            if pos == run:
                raise fail("atom map class without digits")
            warnings.warn(
                f"atom map class :{text[run:pos]} ignored", SmilesFeatureWarning, stacklevel=3
            )
        else:
            raise fail(f"unexpected character {ch!r} in bracket atom")

    try:
        atom = _atom(element, aromatic, charge, h_count)
    except ValueError as exc:
        raise fail(str(exc)) from None
    return atom, end + 1


def reference_parse_smiles(text: str) -> "ReferenceGraph":
    """Parse a SMILES string into a :class:`ReferenceGraph`.

    Raises :class:`ParseError` with the character offset of the problem on
    malformed input. Aromaticity is taken from the notation as written; no
    perception or kekulization is attempted.
    """
    if not text or not text.strip():
        raise ParseError("empty SMILES", 0)
    if text != text.strip():
        raise ParseError("leading or trailing whitespace", 0)

    atoms: list[Atom] = []
    bonds: dict[tuple[int, int], BondOrder] = {}
    branch_stack: list[tuple[int, int]] = []  # (atom index, offset of '(')
    # ring id -> (atom index, explicit bond or None, offset of the opening digit)
    open_rings: dict[int, tuple[int, BondOrder | None, int]] = {}
    prev: int | None = None
    pending_bond: BondOrder | None = None
    pending_offset = 0

    def add_bond(i: int, j: int, order: BondOrder | None, offset: int) -> None:
        if i == j:
            raise ParseError("ring bond connects an atom to itself", offset)
        if order is None:
            both_aromatic = atoms[i].aromatic and atoms[j].aromatic
            order = BondOrder.AROMATIC if both_aromatic else BondOrder.SINGLE
        key = (i, j) if i < j else (j, i)
        if key in bonds:
            raise ParseError(f"duplicate bond between atoms {key[0]} and {key[1]}", offset)
        bonds[key] = order

    def attach_atom(atom: Atom, offset: int) -> None:
        nonlocal prev, pending_bond
        atoms.append(atom)
        idx = len(atoms) - 1
        if prev is not None:
            add_bond(prev, idx, pending_bond, offset)
        elif pending_bond is not None:
            raise ParseError("bond symbol without a preceding atom", pending_offset)
        pending_bond = None
        prev = idx

    def close_or_open_ring(ring_id: int, offset: int) -> None:
        nonlocal pending_bond
        if prev is None:
            raise ParseError("ring closure before any atom", offset)
        if ring_id in open_rings:
            other, other_bond, other_offset = open_rings.pop(ring_id)
            if pending_bond is not None and other_bond is not None and pending_bond != other_bond:
                raise ParseError(f"conflicting bond orders on ring closure {ring_id}", offset)
            add_bond(other, prev, pending_bond or other_bond, offset)
        else:
            open_rings[ring_id] = (prev, pending_bond, offset)
        pending_bond = None

    pos = 0
    length = len(text)
    while pos < length:
        ch = text[pos]
        matched_element = None
        for sym in _TWO_CHAR:
            if text.startswith(sym, pos):
                matched_element = sym
                break
        if matched_element is not None:
            attach_atom(_atom(matched_element, False, 0, 0), pos)
            pos += 2
        elif ch in _SINGLE_CHAR:
            attach_atom(_atom(ch, False, 0, 0), pos)
            pos += 1
        elif ch in _AROMATIC_CHARS:
            attach_atom(_atom(ch.upper(), True, 0, 0), pos)
            pos += 1
        elif ch == "[":
            atom, nxt = _parse_bracket(text, pos)
            attach_atom(atom, pos)
            pos = nxt
        elif ch in _BOND_CHARS:
            if pending_bond is not None:
                raise ParseError("two consecutive bond symbols", pos)
            pending_bond = _BOND_CHARS[ch]
            pending_offset = pos
            pos += 1
        elif ch in "/\\":
            if pending_bond is not None:
                raise ParseError("two consecutive bond symbols", pos)
            warnings.warn(
                f"directional bond {ch!r} treated as single", SmilesFeatureWarning, stacklevel=2
            )
            pending_bond = BondOrder.SINGLE
            pending_offset = pos
            pos += 1
        elif ch.isdigit():
            close_or_open_ring(int(ch), pos)
            pos += 1
        elif ch == "%":
            if pos + 2 >= length or not text[pos + 1 : pos + 3].isdigit():
                raise ParseError("%% ring closure needs two digits", pos)
            close_or_open_ring(int(text[pos + 1 : pos + 3]), pos)
            pos += 3
        elif ch == "(":
            if prev is None:
                raise ParseError("branch before any atom", pos)
            if pending_bond is not None:
                raise ParseError("bond symbol before branch open", pending_offset)
            branch_stack.append((prev, pos))
            pos += 1
        elif ch == ")":
            if not branch_stack:
                raise ParseError("unmatched branch close", pos)
            if pending_bond is not None:
                raise ParseError("dangling bond before branch close", pending_offset)
            prev, _ = branch_stack.pop()
            pos += 1
        elif ch == ".":
            raise ParseError("disconnected fragments are not supported", pos)
        else:
            raise ParseError(f"unexpected character {ch!r}", pos)

    if pending_bond is not None:
        raise ParseError("dangling bond at end of input", pending_offset)
    if branch_stack:
        raise ParseError("unclosed branch", branch_stack[-1][1])
    if open_rings:
        ring_id = min(open_rings)
        raise ParseError(f"unbalanced ring closure {ring_id}", open_rings[ring_id][2])
    return ReferenceGraph(atoms, bonds)


def _connection_totals(mol: "ReferenceGraph", i: int) -> list[float]:
    """Candidate valence totals for atom ``i`` (alternatives for aromatics)."""
    atom = mol.atoms[i]
    plain = 0.0
    aromatic_count = 0
    for j in mol.neighbors(i):
        order = mol.bond(i, j)
        assert order is not None
        if order is BondOrder.AROMATIC:
            aromatic_count += 1
        else:
            plain += order.valence
    base = plain + atom.explicit_h
    totals = [base + (aromatic_count + aromatic_count // 2)]
    if aromatic_count >= 2 and atom.element in _LONE_PAIR_DONORS:
        totals.append(base + aromatic_count)
    return totals


def reference_check_valence(mol: "ReferenceGraph") -> ValidityReport:
    """Check every atom against the valence table.

    Returns a report with one violation per offending atom; a molecule is
    valid exactly when the violation list is empty.
    """
    violations: list[ValenceViolation] = []
    for i, atom in enumerate(mol.atoms):
        aromatic_count = mol.aromatic_bond_count(i)
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
        totals = _connection_totals(mol, i)
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


def reference_compute_marginals(mols: Sequence[MolGraph]) -> Marginals:
    """Count node categories, pairwise edge categories and sizes over ``mols``."""
    if not mols:
        raise ValueError("cannot compute marginals over an empty dataset")

    atom_counts: dict[Atom, int] = {}
    size_counts: dict[int, int] = {}
    edge_counts = np.zeros(N_EDGE_CATEGORIES, dtype=np.float64)
    for mol in mols:
        n = mol.n_atoms
        size_counts[n] = size_counts.get(n, 0) + 1
        for atom in mol.atoms:
            atom_counts[atom] = atom_counts.get(atom, 0) + 1
        n_pairs = n * (n - 1) // 2
        bonded = 0
        for order in mol.bonds.values():
            edge_counts[int(order)] += 1
            bonded += 1
        edge_counts[EDGE_NONE] += n_pairs - bonded

    atom_types = tuple(sorted(atom_counts, key=_atom_sort_key))
    node_prior = np.array([atom_counts[a] for a in atom_types], dtype=np.float64)
    node_prior /= node_prior.sum()

    if edge_counts.sum() == 0:
        # Only single-atom molecules: fall back to a point mass on "no edge".
        edge_counts[EDGE_NONE] = 1.0
    edge_prior = edge_counts / edge_counts.sum()

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
