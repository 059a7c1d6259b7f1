"""SMILES reading and writing for a drug-like subset.

Supported input: organic-subset atoms (B, C, N, O, P, S, F, Cl, Br, I),
aromatic lowercase forms, bracket atoms with charge and explicit hydrogen
counts, branches, and ring closures up to %99. Stereo markers, isotopes and
atom-map classes are accepted and discarded with a warning. Dot-separated
fragments are rejected; molecules here are single connected graphs.

The writer is deterministic for a given graph (depth-first from atom 0,
neighbors in index order) but performs no canonicalization: isomorphic
graphs with different atom numberings may serialize differently.
"""

from __future__ import annotations

import functools
import heapq
import warnings

from .graph import AROMATIC_CAPABLE, Atom, BondOrder, MolGraph, ORGANIC_SUBSET

__all__ = [
    "ParseError",
    "SerializationError",
    "SmilesFeatureWarning",
    "parse_smiles",
    "to_smiles",
]


class ParseError(ValueError):
    """Raised on malformed SMILES. ``offset`` is the character position."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class SerializationError(ValueError):
    """Raised when a graph cannot be written in the supported subset."""


class SmilesFeatureWarning(UserWarning):
    """Emitted when an accepted-but-ignored feature (stereo, isotope) is dropped."""


_TWO_CHAR = frozenset(("Cl", "Br"))
_SINGLE_CHAR = frozenset("BCNOPSFI")
_AROMATIC_CHARS = frozenset("bcnops")
# SMILES digits are ASCII only: str.isdigit() also accepts "²" and other scripts' digits.
_DIGITS = frozenset("0123456789")
_BOND_CHARS = {
    "-": BondOrder.SINGLE,
    "=": BondOrder.DOUBLE,
    "#": BondOrder.TRIPLE,
    ":": BondOrder.AROMATIC,
}


# One shared Atom per (element, aromatic, charge, explicit_h): equal graphs then
# compare their atoms by identity, not through the dataclass __eq__.
_atom = functools.lru_cache(maxsize=4096)(Atom)

# The atom each unbracketed token stands for.
_TOKEN_ATOMS = {
    **{symbol: _atom(symbol, False, 0, 0) for symbol in ORGANIC_SUBSET},
    **{ch: _atom(ch.upper(), True, 0, 0) for ch in _AROMATIC_CHARS},
}


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
    while pos < end and text[pos] in _DIGITS:
        pos += 1
    if pos > iso_start:
        warnings.warn(
            f"isotope label {text[iso_start:pos]!r} ignored", SmilesFeatureWarning, stacklevel=3
        )
    if pos >= end:
        raise fail("bracket atom lacks an element symbol")

    aromatic = False
    ch = text[pos]
    if text[pos : pos + 2] in _TWO_CHAR:
        element = text[pos : pos + 2]
        pos += 2
    elif ch in _SINGLE_CHAR:
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
            while pos < end and text[pos] in _DIGITS:
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
                while pos < end and text[pos] in _DIGITS:
                    digits += text[pos]
                    pos += 1
                magnitude = int(digits) if digits else 1
            charge += sign * magnitude
        elif ch == ":":
            pos += 1
            run = pos
            while pos < end and text[pos] in _DIGITS:
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


def parse_smiles(text: str) -> MolGraph:
    """Parse a SMILES string into a :class:`MolGraph`.

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

    def attach_atom(atom: Atom) -> None:
        nonlocal prev, pending_bond
        idx = len(atoms)
        if prev is not None:
            # A chain bond joins a new atom, so it is never a duplicate.
            order = pending_bond
            if order is None:
                both_aromatic = atoms[prev].aromatic and atom.aromatic
                order = BondOrder.AROMATIC if both_aromatic else BondOrder.SINGLE
            bonds[(prev, idx)] = order
        elif pending_bond is not None:
            raise ParseError("bond symbol without a preceding atom", pending_offset)
        atoms.append(atom)
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
        atom = _TOKEN_ATOMS.get(ch)
        if atom is not None:
            if (ch == "C" or ch == "B") and text[pos : pos + 2] in _TWO_CHAR:
                atom = _TOKEN_ATOMS[text[pos : pos + 2]]
                pos += 1
            attach_atom(atom)
            pos += 1
        elif ch in _DIGITS:
            close_or_open_ring(int(ch), pos)
            pos += 1
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
        elif ch in _BOND_CHARS:
            if pending_bond is not None:
                raise ParseError("two consecutive bond symbols", pos)
            pending_bond = _BOND_CHARS[ch]
            pending_offset = pos
            pos += 1
        elif ch == "[":
            atom, nxt = _parse_bracket(text, pos)
            attach_atom(atom)
            pos = nxt
        elif ch == "/" or ch == "\\":
            if pending_bond is not None:
                raise ParseError("two consecutive bond symbols", pos)
            warnings.warn(
                f"directional bond {ch!r} treated as single", SmilesFeatureWarning, stacklevel=2
            )
            pending_bond = BondOrder.SINGLE
            pending_offset = pos
            pos += 1
        elif ch == "%":
            if pos + 2 >= length or not (text[pos + 1] in _DIGITS and text[pos + 2] in _DIGITS):
                raise ParseError("%% ring closure needs two digits", pos)
            close_or_open_ring(int(text[pos + 1 : pos + 3]), pos)
            pos += 3
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
    return MolGraph(atoms, bonds)


def _bracket_token(atom: Atom) -> str:
    parts = ["[", atom.element.lower() if atom.aromatic else atom.element]
    if atom.explicit_h == 1:
        parts.append("H")
    elif atom.explicit_h > 1:
        parts.append(f"H{atom.explicit_h}")
    if atom.charge:
        sign = "+" if atom.charge > 0 else "-"
        magnitude = abs(atom.charge)
        parts.append(sign if magnitude == 1 else f"{sign}{magnitude}")
    parts.append("]")
    return "".join(parts)


# An atom with no charge and no bracket hydrogens is written as its bare
# symbol: every element an Atom admits is in the organic subset.
_AROMATIC_SYMBOLS = {element: element.lower() for element in AROMATIC_CAPABLE}
# _BOND_TOKENS[both ends aromatic][order]. A single bond between aromatic
# atoms is written "-", since an unadorned one would read back as aromatic.
_BOND_TOKENS = (("", "", "=", "#", ":"), ("", "-", "=", "#", ""))
_RING_DIGITS = ("", *map(str, range(1, 10)), *(f"%{number}" for number in range(10, 100)))


def to_smiles(mol: MolGraph) -> str:
    """Serialize a connected graph to SMILES, depth-first from atom 0.

    Neighbours are visited in ascending index order. A ring bond opens at
    the atom visited first with the smallest free digit (``%nn`` from 10),
    which is free again from the atom after the one it closes at. Raises
    :class:`SerializationError` for a disconnected graph or when more than 99
    ring bonds would be open at once. There is no recursion, hence no size limit.
    """
    atoms, adj, bonds = mol._atoms, mol._adj, mol._bonds
    n = len(atoms)
    # An atom is discovered when its stack entry is popped, so pushing its
    # neighbours in reverse visits them in ascending order, as recursion would.
    # A discovered neighbour other than the parent is an ancestor: the ring
    # bond opens there and closes here.
    parent = [-1] * n
    last_child = [-1] * (n + 1)  # the root's parent, -1, is the spare last slot
    seen = [False] * n
    order: list[int] = []
    ring_bonds: dict[int, list[int]] = {}  # ancestor -> descendants, in visit order
    stack = [(0, -1)]
    while stack:
        v, p = stack.pop()
        if seen[v]:
            continue
        seen[v] = True
        order.append(v)
        parent[v] = p
        last_child[p] = v
        for w in reversed(adj[v]):
            if not seen[w]:
                stack.append((w, v))
            elif w != p:
                ring_bonds.setdefault(w, []).append(v)
    if len(order) < n:
        raise SerializationError("cannot serialize a disconnected graph")

    # In visit order, an atom's first child follows it directly; each later
    # child closes the branch before it, and each child but the last opens
    # one. An atom's ring closures come in the order their rings opened.
    aromatic = [atom.aromatic for atom in atoms]
    free_digits = list(range(1, 100))  # sorted, so already a heap
    closing: dict[int, list[tuple[int, int]]] = {}  # atom -> (ancestor, digit)
    pieces: list[str] = []
    prev = -1
    for v in order:
        p = parent[v]
        if p >= 0:
            if prev != p:
                pieces.append(")")
            if last_child[p] != v:
                pieces.append("(")
            order_pv = bonds[(p, v) if p < v else (v, p)]
            pieces.append(_BOND_TOKENS[aromatic[p] and aromatic[v]][order_pv])
        atom = atoms[v]
        if atom.charge or atom.explicit_h:
            pieces.append(_bracket_token(atom))
        else:
            pieces.append(_AROMATIC_SYMBOLS[atom.element] if atom.aromatic else atom.element)
        prev = v
        closed = closing.pop(v, ())
        for a, digit in closed:
            order_av = bonds[(a, v) if a < v else (v, a)]
            pieces.append(_BOND_TOKENS[aromatic[a] and aromatic[v]][order_av])
            pieces.append(_RING_DIGITS[digit])
        for d in ring_bonds.get(v, ()):
            if not free_digits:
                raise SerializationError("ring closure digits exhausted")
            digit = heapq.heappop(free_digits)
            closing.setdefault(d, []).append((v, digit))
            pieces.append(_RING_DIGITS[digit])
        for _, digit in closed:
            heapq.heappush(free_digits, digit)
    return "".join(pieces)
