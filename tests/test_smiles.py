from __future__ import annotations

import warnings

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaffscreen.chem import Atom, BondOrder, MolGraph, parse_smiles, to_smiles
from scaffscreen.chem.smiles import ParseError, SerializationError, SmilesFeatureWarning

# Strings the serializer reproduces verbatim; parse -> serialize is the
# identity on these, which pins the canonical form used by scaffold keys.
FIXED_POINTS = [
    "C",
    "CCO",
    "CC(C)C",
    "C1CC1",
    "c1ccccc1",
    "c1ccncc1",
    "c1cc[nH]c1",
    "c1ccc2ccccc2c1",
    "C1CCc2ccccc2C1",
    "c1ccc(-c2ccccc2)cc1",
    "C=CC#N",
    "[O-]C(=O)c1ccccc1",
    "[NH4+]",
    "O=S(=O)(O)O",
    "ClC(Cl)(Cl)Cl",
    "BrCI",
]


def _to_networkx(mol: MolGraph) -> nx.Graph:
    graph = nx.Graph()
    for i, atom in enumerate(mol.atoms):
        graph.add_node(
            i,
            element=atom.element,
            aromatic=atom.aromatic,
            charge=atom.charge,
            explicit_h=atom.explicit_h,
        )
    for (i, j), order in mol.bonds.items():
        graph.add_edge(i, j, order=int(order))
    return graph


def _isomorphic(a: MolGraph, b: MolGraph) -> bool:
    return nx.is_isomorphic(
        _to_networkx(a),
        _to_networkx(b),
        node_match=lambda x, y: x == y,
        edge_match=lambda x, y: x == y,
    )


@pytest.mark.parametrize("smiles", FIXED_POINTS)
def test_serializer_fixed_points(smiles):
    assert to_smiles(parse_smiles(smiles)) == smiles


def test_benzene_is_fully_aromatic():
    mol = parse_smiles("c1ccccc1")
    assert mol.n_atoms == 6
    assert all(atom.aromatic for atom in mol.atoms)
    assert all(order is BondOrder.AROMATIC for order in mol.bonds.values())


def test_bond_orders_parse():
    mol = parse_smiles("C=C")
    assert list(mol.bonds.values()) == [BondOrder.DOUBLE]
    mol = parse_smiles("C#N")
    assert list(mol.bonds.values()) == [BondOrder.TRIPLE]
    mol = parse_smiles("C:C")
    assert list(mol.bonds.values()) == [BondOrder.AROMATIC]


def test_ring_closure_bond_order():
    mol = parse_smiles("C1CC=1")
    assert mol.bond(0, 2) is BondOrder.DOUBLE


def test_two_digit_ring_closure():
    assert to_smiles(parse_smiles("C%10CC%10")) == "C1CC1"


def test_bracket_atom_fields():
    mol = parse_smiles("[NH3+]")
    atom = mol.atoms[0]
    assert atom.element == "N"
    assert atom.charge == 1
    assert atom.explicit_h == 3
    mol = parse_smiles("[O-2]")
    assert mol.atoms[0].charge == -2


def test_two_character_elements():
    mol = parse_smiles("ClCCBr")
    assert [a.element for a in mol.atoms] == ["Cl", "C", "C", "Br"]


@pytest.mark.parametrize(
    "smiles,offset,fragment",
    [
        ("", 0, "empty"),
        ("C(", 1, "unclosed branch"),
        (")C", 0, "unmatched branch close"),
        ("CC(C", 2, "unclosed branch"),
        ("C1CC", 1, "unbalanced ring closure"),
        ("1CC", 0, "ring closure before any atom"),
        ("CC.CC", 2, "disconnected"),
        ("C==C", 2, "consecutive bond"),
        ("C-=C", 2, "consecutive bond"),
        ("C=", 1, "dangling bond"),
        ("C%1", 1, "two digits"),
        ("C$C", 1, "unexpected character"),
        ("[C", 0, "unterminated bracket"),
        ("[Xe]", 0, "unknown element"),
        ("[CH5+3]", 0, "out of range"),
    ],
)
def test_parse_errors_carry_offsets(smiles, offset, fragment):
    with pytest.raises(ParseError) as excinfo:
        parse_smiles(smiles)
    assert excinfo.value.offset == offset
    assert fragment in str(excinfo.value)


@pytest.mark.parametrize(
    "smiles,offset",
    [
        ("C1CC\u00b2", 4),  # superscript two: isdigit() but not int()
        ("C\uff11CC\uff11", 1),  # full-width one
        ("C\u0663CCC\u0663", 1),  # Arabic-Indic three
        ("C%\uff11\uff12CC%12", 1),
        ("[\uff11\uff13C]", 0),
        ("[NH\u00b2]", 0),
        ("[O-\uff12]", 0),
        ("[CH3:\uff11]", 0),
    ],
)
def test_only_ascii_digits_are_smiles_digits(smiles, offset):
    with pytest.raises(ParseError) as excinfo:
        parse_smiles(smiles)
    assert excinfo.value.offset == offset


@pytest.mark.parametrize(
    "smiles",
    ["C/C=C/C", "[C@H](N)(C)O", "[13C]", "[CH3:1]"],
)
def test_discarded_features_warn(smiles):
    with pytest.warns(SmilesFeatureWarning):
        parse_smiles(smiles)


def test_stereo_is_discarded_but_molecule_parses():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmilesFeatureWarning)
        mol = parse_smiles("C/C=C/C")
    assert mol.n_atoms == 4
    assert mol.bond(1, 2) is BondOrder.DOUBLE


def test_serializing_disconnected_graph_fails():
    two_parts = MolGraph([Atom("C"), Atom("C")], {})
    with pytest.raises(SerializationError):
        to_smiles(two_parts)


def test_equal_graphs_hash_equal_and_the_hash_is_kept():
    first = parse_smiles("CC(=O)Oc1ccccc1C(=O)O")
    second = MolGraph(first.atoms, dict(first.bonds))
    assert first is not second and first == second
    assert hash(first) == hash(second)
    value = hash(first)
    # With its atoms and bonds gone, only a kept hash can still answer.
    first._atoms = first._bonds = None
    assert hash(first) == value
    assert hash(first) == value


def test_parsed_atoms_of_equal_value_are_one_object():
    first = parse_smiles("OCc1ccccc1[NH3+]")
    second = parse_smiles("[NH3+]c1ccccc1CO")
    assert first.atoms[0] is second.atoms[-1]  # O
    assert first.atoms[1] is second.atoms[-2]  # C
    assert first.atoms[2] is second.atoms[1]  # aromatic c
    assert first.atoms[-1] is second.atoms[0]  # bracket [NH3+]
    assert parse_smiles("[CH4]").atoms[0] is not parse_smiles("C").atoms[0]


def test_roundtrip_preserves_structure_on_curated_set():
    curated = FIXED_POINTS + [
        "N#Cc1ccccc1",
        "OCC(N)C(=O)O",
        "c1csc(-c2ccccc2)c1",
        "C1CN(CCO)CCN1",
        "[O-][N+](C)C",
    ]
    for smiles in curated:
        mol = parse_smiles(smiles)
        again = parse_smiles(to_smiles(mol))
        assert _isomorphic(mol, again), smiles


_elements = st.sampled_from(["C", "N", "O", "S", "P", "F", "Cl", "Br"])
_orders = st.sampled_from([BondOrder.SINGLE, BondOrder.DOUBLE, BondOrder.TRIPLE])


@st.composite
def molecule_graphs(draw) -> MolGraph:
    """Random connected non-aromatic graphs; valence is not enforced here,
    only the parser/serializer contract is under test."""
    n = draw(st.integers(min_value=1, max_value=8))
    atoms = []
    for _ in range(n):
        element = draw(_elements)
        charge = draw(st.sampled_from([0, 0, 0, 1, -1]))
        if element not in ("N", "O"):
            charge = 0
        atoms.append(Atom(element, charge=charge))
    bonds: dict[tuple[int, int], BondOrder] = {}
    for child in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=child - 1))
        bonds[(parent, child)] = draw(_orders)
    n_extra = draw(st.integers(min_value=0, max_value=2))
    for _ in range(n_extra):
        if n < 3:
            break
        i = draw(st.integers(min_value=0, max_value=n - 2))
        j = draw(st.integers(min_value=i + 1, max_value=n - 1))
        bonds.setdefault((i, j), BondOrder.SINGLE)
    return MolGraph(atoms, bonds)


@settings(max_examples=200, deadline=None)
@given(molecule_graphs())
def test_roundtrip_random_graphs(mol):
    text = to_smiles(mol)
    again = parse_smiles(text)
    assert again.n_atoms == mol.n_atoms
    assert again.n_bonds == mol.n_bonds
    assert _isomorphic(mol, again), text


@settings(max_examples=50, deadline=None)
@given(molecule_graphs())
def test_serialization_is_deterministic(mol):
    assert to_smiles(mol) == to_smiles(mol)
