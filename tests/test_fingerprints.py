from __future__ import annotations

import csv
import gc
import hashlib
import json
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaffscreen import fingerprints
from scaffscreen.chem import Atom, BondOrder, MolGraph, parse_smiles
from scaffscreen.fingerprints import (
    DEFAULT_NBITS,
    DEFAULT_RADIUS,
    Fingerprint,
    WidthMismatch,
    ecfp,
    ecfps,
    fingerprint_matrix,
    tanimoto,
    tanimoto_matrix,
)
from helpers import reference_fingerprints
from helpers.reference_fingerprints import reference_ecfp

DATA_DIR = Path(__file__).parent / "data"


@st.composite
def small_graphs(draw):
    """Random connected labeled graphs; chemical validity is irrelevant here."""
    n = draw(st.integers(min_value=1, max_value=8))
    elements = draw(st.lists(st.sampled_from(["C", "N", "O", "S"]), min_size=n, max_size=n))
    charges = draw(st.lists(st.sampled_from([0, 0, 0, 1, -1]), min_size=n, max_size=n))
    atoms = [Atom(e, charge=c if e in ("N", "O") else 0) for e, c in zip(elements, charges)]
    bonds: dict[tuple[int, int], BondOrder] = {}
    for child in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=child - 1))
        bonds[(parent, child)] = draw(st.sampled_from([BondOrder.SINGLE, BondOrder.DOUBLE]))
    extra = draw(st.integers(min_value=0, max_value=2))
    for _ in range(extra):
        if n < 2:
            break
        i = draw(st.integers(min_value=0, max_value=n - 2))
        j = draw(st.integers(min_value=i + 1, max_value=n - 1))
        bonds.setdefault((i, j), BondOrder.SINGLE)
    return MolGraph(atoms, bonds)


def _relabel(mol: MolGraph, perm: list[int]) -> MolGraph:
    """Rebuild ``mol`` with atom ``i`` moved to position ``perm[i]``."""
    atoms = [None] * mol.n_atoms
    for i, atom in enumerate(mol.atoms):
        atoms[perm[i]] = atom
    bonds = {(perm[i], perm[j]): order for (i, j), order in mol.bonds.items()}
    return MolGraph(atoms, bonds)


@settings(max_examples=150, deadline=None)
@given(small_graphs(), st.randoms(use_true_random=False))
def test_fingerprint_ignores_atom_numbering(mol, rand):
    perm = list(range(mol.n_atoms))
    rand.shuffle(perm)
    assert ecfp(mol, nbits=256) == ecfp(_relabel(mol, perm), nbits=256)


@settings(max_examples=80, deadline=None)
@given(small_graphs())
def test_larger_radius_keeps_every_smaller_radius_bit(mol):
    previous = ecfp(mol, radius=0, nbits=256)
    for radius in (1, 2, 3):
        current = ecfp(mol, radius=radius, nbits=256)
        assert previous.bits & current.bits == previous.bits
        previous = current


@settings(max_examples=80, deadline=None)
@given(small_graphs())
def test_popcount_bounded_by_identifier_count(mol):
    fp = ecfp(mol, radius=2, nbits=1024)
    assert 1 <= fp.bits.bit_count() <= mol.n_atoms * 3


def _disjoint_union(*parts: MolGraph) -> MolGraph:
    atoms, bonds, offset = [], {}, 0
    for part in parts:
        atoms.extend(part.atoms)
        bonds.update({(offset + i, offset + j): order for (i, j), order in part.bonds.items()})
        offset += part.n_atoms
    return MolGraph(atoms, bonds)


def _oracle_molecules() -> list[MolGraph | None]:
    """The split corpus, the golden extensions and hand-picked edge cases."""
    with open(DATA_DIR / "split_corpus_500.csv", encoding="utf-8", newline="") as fh:
        smiles = [row["smiles"] for row in csv.DictReader(fh)]
    golden = json.loads((DATA_DIR / "extensions_golden.json").read_text(encoding="utf-8"))
    smiles += [s for kind in sorted(golden) for s in golden[kind]]
    # Single atoms, charged and bracket-H atoms.
    smiles += ["C", "[NH4+]", "[O-]", "[Cl-]", "[S+2]", "[nH]1cccc1", "[NH3+]CC([O-])=O"]
    mols: list[MolGraph | None] = [parse_smiles(s) for s in smiles]
    ethanol, ammonium = parse_smiles("CCO"), parse_smiles("[NH4+]")
    mols += [
        _disjoint_union(ethanol, ammonium),
        _disjoint_union(ammonium, ammonium, parse_smiles("c1ccccc1")),
        MolGraph([Atom("C"), Atom("O"), Atom("N", charge=-1, explicit_h=2)], {}),
        None,
        None,
    ]
    return mols


@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_batch_engine_equals_the_per_atom_loop(radius, monkeypatch):
    monkeypatch.setattr(fingerprints, "_MEMO", weakref.WeakKeyDictionary())
    mols = _oracle_molecules()
    for nbits in (8 << k for k in range(10)):  # 8 to 4096
        assert ecfps(mols, radius, nbits) == [reference_ecfp(m, radius, nbits) for m in mols]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.none(), small_graphs(), st.builds(_disjoint_union, small_graphs(), small_graphs())
        ),
        max_size=6,
    ),
    st.integers(0, 3),
    st.sampled_from([8, 64, 1024]),
)
def test_batch_engine_equals_the_per_atom_loop_on_random_graphs(mols, radius, nbits):
    assert ecfps(mols, radius, nbits) == [reference_ecfp(m, radius, nbits) for m in mols]


def test_a_batch_gives_equal_graphs_one_fingerprint_object(monkeypatch):
    monkeypatch.setattr(fingerprints, "_MEMO", weakref.WeakKeyDictionary())
    smiles = "CC(=O)Oc1ccccc1C(=O)O"
    first, second, other = parse_smiles(smiles), parse_smiles(smiles), parse_smiles("CCO")
    fps = ecfps([first, other, first, None, second], 2, 1024)
    assert fps[0] is fps[2] is fps[4]
    assert fps[1] is not fps[0]
    assert fps[3].bits == 0
    assert ecfp(second) is fps[0]
    assert ecfps([], 2, 1024) == []


def _counting_hashlib(monkeypatch, module) -> list[bytes]:
    """Record every payload that ``module`` hands to blake2b."""
    payloads: list[bytes] = []

    def blake2b(data, **kwargs):
        payloads.append(bytes(data))
        return hashlib.blake2b(data, **kwargs)

    monkeypatch.setattr(module, "hashlib", SimpleNamespace(blake2b=blake2b))
    return payloads


def test_one_blake2b_call_per_distinct_environment(monkeypatch):
    monkeypatch.setattr(fingerprints, "_MEMO", weakref.WeakKeyDictionary())
    mols = [m for m in _oracle_molecules() if m is not None]
    batch = mols + [parse_smiles("c1ccccc1"), mols[0], mols[5]]
    environments = _counting_hashlib(monkeypatch, reference_fingerprints)
    for mol in mols:
        reference_ecfp(mol, 3, 1024)
    calls = _counting_hashlib(monkeypatch, fingerprints)
    ecfps(batch, 3, 1024)
    assert len(calls) == len(set(calls)) == len(set(environments))
    # Memo hits compute nothing.
    calls.clear()
    ecfps(batch, 3, 1024)
    ecfp(mols[3], 3, 1024)
    assert calls == []


# Frozen behavior on fixed inputs; any change here means the bit layout moved
# and every on-disk cache is invalid.
PINNED_HEX = [
    ("c1ccccc1", "00002000000040000000080000000000"),
    ("CCO", "09000080000000000002480041000200"),
    ("CC(=O)Oc1ccccc1C(=O)O", "000000080088e12120cb780021112310"),
    ("[NH3+]CC([O-])=O", "0400200001840100219000004a000200"),
    ("C1CCc2ccccc2C1", "08000000200070000000080060101029"),
]


@pytest.mark.parametrize("smiles, expected", PINNED_HEX)
def test_pinned_bit_patterns(smiles, expected):
    assert ecfp(parse_smiles(smiles), radius=2, nbits=128).to_hex() == expected


def test_benzene_collapses_to_three_identifiers():
    # All six atoms are equivalent, so each radius contributes one identifier.
    fp = ecfp(parse_smiles("c1ccccc1"), radius=2, nbits=1024)
    assert fp.bits.bit_count() == 3


def test_none_molecule_gives_zero_vector():
    fp = ecfp(None, radius=2, nbits=512)
    assert fp.bits == 0
    assert fp.bits.bit_count() == 0
    assert fp.nbits == 512
    assert fp.radius == 2
    assert ecfp(None, radius=2, nbits=512) == fp


def test_equal_graphs_share_one_memoized_fingerprint():
    smiles = "CC(=O)Oc1ccccc1C(=O)O"
    first, second = parse_smiles(smiles), parse_smiles(smiles)
    assert first is not second and first == second
    fp = ecfp(first, radius=2, nbits=1024)
    assert ecfp(second, radius=2, nbits=1024) is fp
    assert fp == reference_ecfp(second, 2, 1024)
    # Other settings are separate entries of the same graph.
    assert ecfp(second, radius=1, nbits=1024) is not fp
    assert ecfp(second, radius=2, nbits=512).nbits == 512
    assert ecfp(first, radius=2, nbits=1024) is fp


def test_memo_keeps_nothing_once_its_graphs_are_gone():
    smiles = "CCCCCCCCCCCCN(C)C(=O)c1ccsc1"
    first, second = parse_smiles(smiles), parse_smiles(smiles)
    fp = ecfp(first)
    assert ecfp(second) is fp
    assert first in fingerprints._MEMO
    del first, second
    gc.collect()
    probe = parse_smiles(smiles)
    assert probe not in fingerprints._MEMO
    again = ecfp(probe)
    assert again == fp and again is not fp


def test_tanimoto_conventions():
    zero = Fingerprint(bits=0, nbits=64, radius=2)
    some = Fingerprint(bits=0b1011, nbits=64, radius=2)
    assert tanimoto(zero, zero) == 1.0
    assert tanimoto(zero, some) == 0.0
    assert tanimoto(some, zero) == 0.0
    assert tanimoto(some, some) == 1.0


def test_tanimoto_hand_value():
    x = Fingerprint(bits=0b1110, nbits=16, radius=1)
    y = Fingerprint(bits=0b0111, nbits=16, radius=1)
    assert tanimoto(x, y) == pytest.approx(2 / 4)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), small_graphs())
def test_tanimoto_is_symmetric_and_bounded(a, b):
    x, y = ecfp(a, nbits=256), ecfp(b, nbits=256)
    s = tanimoto(x, y)
    assert s == tanimoto(y, x)
    assert 0.0 <= s <= 1.0


@st.composite
def fingerprint_sets(draw):
    """Dense, sparse and empty fingerprints of one width, with repeats."""
    nbits = draw(st.sampled_from([8, 16, 64, 256, 1024]))
    sparse = st.sets(st.integers(0, nbits - 1), max_size=12).map(
        lambda on: sum(1 << p for p in on)
    )
    distinct = draw(
        st.lists(st.one_of(st.just(0), sparse, st.integers(0, 2**nbits - 1)), min_size=1, max_size=6)
    )
    picks = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=12))
    return [Fingerprint(bits=bits, nbits=nbits, radius=2) for bits in picks]


@settings(max_examples=150, deadline=None)
@given(fingerprint_sets())
def test_tanimoto_matrix_equals_tanimoto_for_every_pair(fps):
    sim = tanimoto_matrix(fps)
    assert sim.dtype == np.float64
    assert sim.shape == (len(fps), len(fps))
    for i, x in enumerate(fps):
        for j, y in enumerate(fps):
            assert sim[i, j] == tanimoto(x, y)


def test_width_mismatch_raises():
    x = ecfp(parse_smiles("CCO"), nbits=128)
    y = ecfp(parse_smiles("CCO"), nbits=256)
    with pytest.raises(WidthMismatch):
        tanimoto(x, y)
    with pytest.raises(WidthMismatch):
        fingerprint_matrix([x, y])
    with pytest.raises(WidthMismatch):
        tanimoto_matrix([x, x, y])


def test_argument_validation():
    mol = parse_smiles("CCO")
    for target in (mol, None):
        with pytest.raises(ValueError):
            ecfp(target, radius=-1)
        with pytest.raises(ValueError):
            ecfp(target, nbits=100)
        with pytest.raises(ValueError):
            ecfp(target, nbits=1000)
        with pytest.raises(ValueError):
            ecfp(target, nbits=4)
    # Rejected arguments leave nothing in the memo.
    assert mol not in fingerprints._MEMO
    with pytest.raises(ValueError):
        Fingerprint(bits=1 << 64, nbits=64, radius=2)


def _set_bits(fp: Fingerprint) -> set[int]:
    return {k for k in range(fp.nbits) if (fp.bits >> k) & 1}


def test_hex_round_trip():
    fp = ecfp(parse_smiles("CC(=O)Oc1ccccc1C(=O)O"), radius=2, nbits=1024)
    text = fp.to_hex()
    assert len(text) == 256
    assert int(text, 16) == fp.bits


def test_to_array_matches_on_bits():
    # The dense array of one fingerprint is the row of its one-row matrix.
    for fp in (
        ecfp(parse_smiles("c1ccncc1"), nbits=128),
        Fingerprint(bits=1, nbits=128, radius=2),
        Fingerprint(bits=1 << 127, nbits=128, radius=2),
        Fingerprint(bits=0, nbits=128, radius=2),
        Fingerprint(bits=0b1000_0001, nbits=8, radius=2),
    ):
        arr = fingerprint_matrix([fp])[0]
        assert arr.shape == (fp.nbits,)
        assert arr.dtype == np.float64
        assert set(np.flatnonzero(arr)) == _set_bits(fp)
        assert arr.sum() == fp.bits.bit_count()


def test_fingerprint_matrix_shape_and_content():
    fps = [ecfp(parse_smiles(s), nbits=64) for s in ["CCO", "CCN"]]
    fps.append(Fingerprint(bits=1 | 1 << 63, nbits=64, radius=2))
    matrix = fingerprint_matrix(fps)
    assert matrix.shape == (3, 64)
    assert matrix.dtype == np.float64
    for row, fp in zip(matrix, fps):
        assert set(np.flatnonzero(row)) == _set_bits(fp)
        assert (row == fingerprint_matrix([fp])[0]).all()
    rows = fingerprint_matrix(fps, dtype=np.uint8)
    assert rows.dtype == np.uint8
    assert (rows == matrix).all()
    with pytest.raises(ValueError):
        fingerprint_matrix([])


def test_charge_and_element_change_the_fingerprint():
    base = ecfp(parse_smiles("CCO"), nbits=1024)
    assert ecfp(parse_smiles("CCN"), nbits=1024) != base
    assert ecfp(parse_smiles("CC[O-]"), nbits=1024) != base
