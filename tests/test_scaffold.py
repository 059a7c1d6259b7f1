from __future__ import annotations

import gc
import weakref

import networkx as nx
import pytest

from scaffscreen.chem import murcko_scaffold, parse_smiles, to_smiles
from scaffscreen.chem import scaffold as scaffold_module
from scaffscreen.chem.scaffold import scaffold_atom_indices


def _two_core_indices(mol) -> set[int]:
    """Independent oracle: the 2-core of the bond graph via networkx."""
    graph = nx.Graph()
    graph.add_nodes_from(range(mol.n_atoms))
    graph.add_edges_from(mol.bonds.keys())
    return set(nx.k_core(graph, 2).nodes)


CURATED = [
    "CCO",
    "CC(C)(C)C",
    "c1ccccc1",
    "CCc1ccccc1",
    "OC(=O)c1ccc(N)cc1",
    "c1ccc2ccccc2c1",
    "C1CCc2ccccc2C1",
    "c1ccc(CCc2ccccn2)cc1",
    "CC(C)N1CCN(c2ccccc2)CC1",
    "O=C(O)CCCc1ccc2[nH]ccc2c1",
    "C1CC1C1CC1",
    "FC(F)(F)c1ccccc1CNC1CCNCC1",
]


@pytest.mark.parametrize("smiles", CURATED)
def test_indices_match_two_core_oracle(smiles):
    mol = parse_smiles(smiles)
    assert set(scaffold_atom_indices(mol)) == _two_core_indices(mol)


def test_oracle_agreement_on_generated_decks(benchmark_deck):
    for smiles in benchmark_deck.smiles[:300]:
        mol = parse_smiles(smiles)
        assert set(scaffold_atom_indices(mol)) == _two_core_indices(mol), smiles


def test_acyclic_molecules_have_no_scaffold():
    assert murcko_scaffold(parse_smiles("CCO")) is None
    assert murcko_scaffold(parse_smiles("C")) is None
    assert murcko_scaffold(parse_smiles("CC(C)C(N)C=O")) is None


def test_ring_molecule_is_its_own_scaffold():
    benzene = parse_smiles("c1ccccc1")
    assert murcko_scaffold(benzene) == benzene


def test_side_chains_are_stripped():
    scaffold = murcko_scaffold(parse_smiles("CCc1ccccc1"))
    assert scaffold is not None
    assert to_smiles(scaffold) == "c1ccccc1"


def test_linkers_between_rings_survive():
    scaffold = murcko_scaffold(parse_smiles("c1ccc(CCc2ccccn2)cc1"))
    assert scaffold is not None
    assert to_smiles(scaffold) == "c1ccc(CCc2ccccn2)cc1"
    # A methyl on the linker goes away, the linker itself stays.
    decorated = murcko_scaffold(parse_smiles("c1ccc(C(C)Cc2ccccn2)cc1"))
    assert to_smiles(decorated) == "c1ccc(CCc2ccccn2)cc1"


def test_scaffold_is_idempotent():
    for smiles in CURATED:
        scaffold = murcko_scaffold(parse_smiles(smiles))
        if scaffold is None:
            continue
        assert murcko_scaffold(scaffold) == scaffold


@pytest.mark.parametrize(
    "smiles",
    ["CCCOc1ccc2ncsc2c1", "C1CCC2(CC1)CCNCC2"],
    ids=["decorated", "own-scaffold"],
)
def test_memo_entry_goes_with_its_molecule(smiles):
    mol = parse_smiles(smiles)
    scaffold = murcko_scaffold(mol)
    # An equal molecule parsed again shares the entry; the stored scaffold
    # is never the molecule itself, so the entry cannot pin its own key.
    assert murcko_scaffold(parse_smiles(smiles)) is scaffold
    assert scaffold is not mol
    assert mol in scaffold_module._MEMO
    scaffold_alive = weakref.ref(scaffold)
    del mol, scaffold
    gc.collect()
    # The scaffold graph went too, and with it the facts keyed by it.
    assert scaffold_alive() is None
    assert parse_smiles(smiles) not in scaffold_module._MEMO


def test_scaffold_contains_every_ring_atom():
    mol = parse_smiles("CC(C)N1CCN(c2ccccc2)CC1")
    kept = set(scaffold_atom_indices(mol))
    oracle = _two_core_indices(mol)
    assert kept == oracle
    assert len(kept) == 12  # two six-rings joined by a direct bond


def test_deck_scaffolds_reproduce_source_cores(benchmark_deck):
    """Decorated molecules must map back to the exact core they grew from."""
    for smiles, core in zip(benchmark_deck.smiles[:300], benchmark_deck.cores[:300]):
        scaffold = murcko_scaffold(parse_smiles(smiles))
        if core == "":
            assert scaffold is None
        else:
            assert to_smiles(scaffold) == core
