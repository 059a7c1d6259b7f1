"""MolGraph's constructor contract, and the chemistry core against its reference.

``helpers/reference_chem.py`` keeps the earlier constructor, parser, valence
check, writer, capacity count and marginal counts. The live code must give
the same atoms, the same bonds in the same order, the same neighbours,
errors, reports, SMILES strings and capacities, and marginal arrays equal
bit for bit.
"""

from __future__ import annotations

import csv
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaffscreen.chem import (
    Atom,
    BondOrder,
    MolGraph,
    check_valence,
    parse_smiles,
    remaining_capacity,
    to_smiles,
)
from scaffscreen.chem.smiles import ParseError, SerializationError, SmilesFeatureWarning
from scaffscreen.diffusion import compute_marginals
from helpers.reference_chem import (
    ReferenceGraph,
    reference_check_valence,
    reference_compute_marginals,
    reference_parse_smiles,
    reference_remaining_capacity,
    reference_to_smiles,
)

C, N = Atom("C"), Atom("N")


# --- the constructor contract ----------------------------------------------


@pytest.mark.parametrize(
    "bonds,match",
    [
        ({(1, 1): BondOrder.SINGLE}, "self-bond on atom 1"),
        ({(0, 3): BondOrder.SINGLE}, r"bond \(0, 3\) references a missing atom"),
        ({(3, 0): BondOrder.SINGLE}, r"bond \(3, 0\) references a missing atom"),
        ({(-1, 0): BondOrder.SINGLE}, r"bond \(-1, 0\) references a missing atom"),
        ({(0, 1): 1, (1, 0): 2}, r"conflicting duplicate bond \(0, 1\)"),
        ({(1, 0): 2, (0, 1): BondOrder.SINGLE}, r"conflicting duplicate bond \(0, 1\)"),
        ({(0, 1): 7}, "not a valid BondOrder"),
        ({(0, 1): 0}, "not a valid BondOrder"),
    ],
)
def test_constructor_rejects_bad_bonds(bonds, match):
    with pytest.raises(ValueError, match=match):
        MolGraph([C, C, N], bonds)


def test_constructor_needs_an_atom():
    with pytest.raises(ValueError, match="at least one atom"):
        MolGraph([], {})


def test_an_equal_duplicate_is_one_bond():
    mol = MolGraph([C, C], {(0, 1): BondOrder.DOUBLE, (1, 0): 2})
    assert dict(mol.bonds) == {(0, 1): BondOrder.DOUBLE}
    assert mol.n_bonds == 1


def test_integer_orders_become_bond_orders():
    mol = MolGraph([C, C, C, N], {(1, 0): 1, (1, 2): 2, (3, 2): 3})
    assert list(mol.bonds.items()) == [
        ((0, 1), BondOrder.SINGLE),
        ((1, 2), BondOrder.DOUBLE),
        ((2, 3), BondOrder.TRIPLE),
    ]
    assert all(type(order) is BondOrder for order in mol.bonds.values())


def test_neighbors_ascend_whatever_the_bond_order_given():
    bonds = {(4, 2): 1, (2, 0): 1, (5, 1): 1, (3, 2): 1, (1, 2): 1, (5, 0): 1}
    mol = MolGraph([C] * 6, bonds)
    assert [mol.neighbors(i) for i in range(6)] == [
        (2, 5), (2, 5), (0, 1, 3, 4), (2,), (2,), (0, 1)
    ]
    assert list(mol.bonds) == sorted(mol.bonds)


def test_graphs_from_differently_ordered_dicts_are_equal():
    bonds = {(0, 1): BondOrder.SINGLE, (1, 2): BondOrder.DOUBLE, (0, 2): BondOrder.SINGLE}
    first = MolGraph([C, C, N], bonds)
    second = MolGraph([C, C, N], {(2, 1): 2, (2, 0): 1, (1, 0): 1})
    assert first == second
    assert hash(first) == hash(second)
    assert list(first.bonds.items()) == list(second.bonds.items())


# --- the live code against the reference ------------------------------------


def _same_graph(mol: MolGraph, ref: ReferenceGraph) -> None:
    assert mol.atoms == ref.atoms
    assert list(mol.bonds.items()) == list(ref.bonds.items())
    assert [mol.neighbors(i) for i in range(mol.n_atoms)] == list(ref.adj)


def _same_marginals(live, ref) -> None:
    assert live.atom_types == ref.atom_types
    for field in ("node_prior", "edge_prior", "sizes", "size_probs"):
        a, b = getattr(live, field), getattr(ref, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


def _written(write, mol: MolGraph):
    """The SMILES ``write`` gives, or its exception's type and message."""
    try:
        return write(mol)
    except SerializationError as exc:
        return (type(exc), str(exc))


def _same_writer_and_capacities(mol: MolGraph) -> None:
    assert _written(to_smiles, mol) == _written(reference_to_smiles, mol)
    assert [remaining_capacity(mol, i) for i in range(mol.n_atoms)] == [
        reference_remaining_capacity(mol, i) for i in range(mol.n_atoms)
    ]


def _check_corpus(smiles: list[str]) -> None:
    mols = []
    for text in smiles:
        mol, ref = parse_smiles(text), reference_parse_smiles(text)
        _same_graph(mol, ref)
        assert check_valence(mol) == reference_check_valence(ref)
        _same_writer_and_capacities(mol)
        mols.append(mol)
    _same_marginals(compute_marginals(mols), reference_compute_marginals(mols))


def test_benchmark_deck_matches_the_reference(benchmark_deck):
    _check_corpus(list(benchmark_deck.smiles))


def test_split_corpus_matches_the_reference(split_corpus_csv):
    with open(split_corpus_csv, encoding="utf-8", newline="") as fh:
        _check_corpus([row["smiles"] for row in csv.DictReader(fh)])


_ATOMS = [
    Atom("C"), Atom("C", aromatic=True), Atom("N"), Atom("N", aromatic=True),
    Atom("N", charge=1, explicit_h=1), Atom("O"), Atom("O", charge=-1), Atom("S"),
    Atom("S", aromatic=True), Atom("P"), Atom("Cl"), Atom("B", explicit_h=2),
]
_ORDERS = [*BondOrder, 1, 2, 3, 4, 0, 5]


@st.composite
def bond_dicts(draw):
    """Atoms and a bond dict with keys in either orientation, now and then invalid."""
    n = draw(st.integers(min_value=1, max_value=8))
    atoms = draw(st.lists(st.sampled_from(_ATOMS), min_size=n, max_size=n))
    index = st.integers(min_value=0, max_value=n - 1)
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        index = st.integers(min_value=-1, max_value=n)
    orders = st.sampled_from(_ORDERS if draw(st.booleans()) else list(BondOrder))
    bonds = draw(st.dictionaries(st.tuples(index, index), orders, max_size=3 * n))
    return atoms, bonds


def _outcome(build, atoms, bonds):
    try:
        return build(atoms, bonds)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(bond_dicts())
def test_random_graphs_match_the_reference(case):
    atoms, bonds = case
    mol = _outcome(MolGraph, atoms, bonds)
    ref = _outcome(ReferenceGraph, atoms, bonds)
    if isinstance(ref, str):
        assert mol == ref
        return
    _same_graph(mol, ref)
    assert check_valence(mol) == reference_check_valence(ref)
    _same_writer_and_capacities(mol)
    _same_marginals(compute_marginals([mol]), reference_compute_marginals([mol]))


# Aromatic and plain atoms, charged and H-bearing bracket atoms.
_WRITER_ATOMS = [
    *_ATOMS, Atom("O", aromatic=True), Atom("C", charge=-1), Atom("N", explicit_h=2),
    Atom("S", charge=1, explicit_h=3), Atom("B", charge=-2, explicit_h=4), Atom("Br"),
]


@st.composite
def ring_rich_graphs(draw):
    """Up to 24 atoms, mostly connected, some with ten or more rings open at once."""
    n = draw(st.integers(min_value=1, max_value=24))
    atoms = draw(st.lists(st.sampled_from(_WRITER_ATOMS), min_size=n, max_size=n))
    orders = st.sampled_from(list(BondOrder))
    bonds = {}
    if draw(st.integers(min_value=0, max_value=4)):
        for child in range(1, n):
            bonds[(draw(st.integers(min_value=0, max_value=child - 1)), child)] = draw(orders)
    if n > 1:
        index = st.integers(min_value=0, max_value=n - 1)
        pairs = st.tuples(index, index).filter(lambda p: p[0] < p[1])
        bonds.update(draw(st.dictionaries(pairs, orders, max_size=5 * n)))
    return MolGraph(atoms, bonds)


@settings(max_examples=500, deadline=None)
@given(ring_rich_graphs())
def test_ring_rich_graphs_are_written_and_checked_as_the_reference(mol):
    _same_writer_and_capacities(mol)
    ref = ReferenceGraph(mol.atoms, mol.bonds)
    assert check_valence(mol) == reference_check_valence(ref)


@pytest.mark.parametrize("n", [2, 11, 12, 100, 101, 102, 103])
def test_a_fan_of_rings_is_written_as_the_reference(n):
    """Atom 0 bonds to each atom of the chain 1..n-1: n - 2 rings open at once."""
    bonds = {(i, i + 1): BondOrder.SINGLE for i in range(n - 1)}
    bonds.update({(0, j): BondOrder.AROMATIC for j in range(2, n)})
    mol = MolGraph([Atom("C", aromatic=True)] * n, bonds)
    _same_writer_and_capacities(mol)
    written = _written(to_smiles, mol)
    if n - 2 > 99:
        assert written == (SerializationError, "ring closure digits exhausted")
    else:
        assert ("%" in written) == (n - 2 > 9)


@settings(max_examples=60, deadline=None)
@given(st.lists(bond_dicts(), min_size=1, max_size=6))
def test_random_graph_sets_have_the_reference_marginals(cases):
    mols = []
    for atoms, bonds in cases:
        try:
            mols.append(MolGraph(atoms, bonds))
        except ValueError:
            continue
    if mols:
        _same_marginals(compute_marginals(mols), reference_compute_marginals(mols))


_SMILES_TOKENS = [
    "C", "C", "c", "c", "N", "n", "O", "o", "S", "s", "P", "B", "F", "I", "Cl", "Br", "l", "r",
    "(", ")", "1", "1", "2", "3", "%12", "%1", "=", "#", "-", ":", "/", "\\", ".",
    "[nH]", "[NH3+]", "[O-]", "[13C]", "[C@@H]", "[CH3:1]", "[N++]", "[Xe]", "[C", "]", "$",
]


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(_SMILES_TOKENS), min_size=1, max_size=12).map("".join))
def test_random_strings_parse_or_fail_as_the_reference(text):
    def outcome(parse):
        try:
            return parse(text)
        except ParseError as exc:
            return (str(exc), exc.offset)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmilesFeatureWarning)
        mol, ref = outcome(parse_smiles), outcome(reference_parse_smiles)
    if isinstance(ref, tuple):
        assert mol == ref
        return
    _same_graph(mol, ref)
    assert check_valence(mol) == reference_check_valence(ref)
