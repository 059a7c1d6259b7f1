"""Seeded synthetic screening decks for benchmarks and protocol tests.

Molecules are built by decorating a fixed pool of ring cores with short
side chains, so every record parses, passes the valence screen, and maps
onto a known scaffold. The deck assay concentrates its actives on four
cores with a deliberately skewed 12/4/2/2 cluster profile; the broader
corpus spreads uniformly over a larger pool and is meant for split
protocol checks rather than model benchmarks. ``scaffold_key`` recomputes a
record's scaffold bin on its own, as the split tests' oracle.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from scaffscreen.chem import (
    Atom,
    BondOrder,
    MolGraph,
    check_valence,
    murcko_scaffold,
    parse_smiles,
    remaining_capacity,
    to_smiles,
)

__all__ = [
    "ACTIVE_CORES",
    "DECOY_CORES",
    "SyntheticDeck",
    "make_benchmark_deck",
    "make_split_corpus",
    "scaffold_key",
    "scaffold_overlap",
    "write_deck_csv",
]

# Cores carrying the active label. The first one dominates with 60% of the
# actives; the tail cores keep two members each so cluster balancing has
# something to rescue.
ACTIVE_CORES: tuple[str, ...] = (
    "c1ccc2ccccc2c1",          # fused bicyclic aromatic
    "C1CCc2ccccc2C1",          # six-ring fused to a benzene
    "c1ccc(CCc2ccccn2)cc1",    # two-ring system with an ethylene linker
    "C1Cc2ccccc2C1",           # five-ring fused to a benzene
)

ACTIVE_CLUSTER_SIZES: tuple[int, ...] = (12, 4, 2, 2)

DECOY_CORES: tuple[str, ...] = (
    "c1ccccc1",
    "C1CCCCC1",
    "c1ccncc1",
    "c1ccoc1",
    "c1ccsc1",
    "c1cc[nH]c1",
    "c1cncnc1",
    "C1CCNCC1",
    "C1CCOCC1",
    "C1CNCCN1",
    "c1ccc2[nH]ccc2c1",
    "c1ccc2occc2c1",
    "c1ccc2sccc2c1",
    "C1CCC2CCCCC2C1",
    "c1ccc(-c2ccccc2)cc1",
    "c1ccc(Oc2ccccc2)cc1",
    "C1CC2CCC1CC2",
    "c1ccc2ncccc2c1",
    "c1ccc2cccnc2c1",
    "C1COCCN1",
    "c1csc(-c2ccccc2)c1",
    "C1CCC(CC2CCCCC2)CC1",
    "c1ccc(Cc2ccccc2)cc1",
    "c1ccc(CCc2ccccc2)cc1",
    "c1ccnnc1",
    "c1cnccn1",
    "C1CCNC1",
    "C1CCOC1",
    "c1cscn1",
    "c1cnc[nH]1",
)

# Side chains grown atom by atom off a ring position; each tuple is a
# linear chain starting at the attachment point.
_SIDE_CHAINS: tuple[tuple[str, ...], ...] = (
    ("C",),
    ("C", "C"),
    ("C", "C", "C"),
    ("O",),
    ("N",),
    ("F",),
    ("Cl",),
    ("C", "O"),
    ("C", "N"),
    ("C", "C", "O"),
)

_ACYCLIC_ELEMENTS = ("C", "C", "C", "C", "N", "O")


@dataclass(frozen=True)
class SyntheticDeck:
    """A generated screening deck plus its ground-truth core assignment."""

    ids: tuple[str, ...]
    smiles: tuple[str, ...]
    labels: tuple[int, ...]
    cores: tuple[str, ...]  # originating core, "" for acyclic records

    @property
    def size(self) -> int:
        return len(self.ids)

    @property
    def n_actives(self) -> int:
        return int(sum(self.labels))


def _decorate(core: MolGraph, rng: np.random.Generator, max_chains: int = 2) -> MolGraph:
    """Attach one to ``max_chains`` side chains at open ring positions."""
    atoms = list(core.atoms)
    bonds = dict(core.bonds)
    capacity = {
        i: remaining_capacity(core, i) if atom.element in ("C", "N") else 0
        for i, atom in enumerate(core.atoms)
    }
    n_chains = int(rng.integers(1, max_chains + 1))
    for _ in range(n_chains):
        sites = [i for i, c in capacity.items() if c > 0]
        if not sites:
            break
        site = int(sites[rng.integers(len(sites))])
        capacity[site] -= 1
        chain = _SIDE_CHAINS[rng.integers(len(_SIDE_CHAINS))]
        anchor = site
        for element in chain:
            atoms.append(Atom(element))
            new_index = len(atoms) - 1
            bonds[(min(anchor, new_index), max(anchor, new_index))] = BondOrder.SINGLE
            anchor = new_index
    return MolGraph(atoms, bonds)


def _acyclic(rng: np.random.Generator) -> MolGraph:
    """A small random tree of heavy atoms, all single bonds."""
    n_atoms = int(rng.integers(3, 9))
    atoms = [Atom("C")]
    bonds: dict[tuple[int, int], BondOrder] = {}
    degree = [0]
    for _ in range(n_atoms - 1):
        element = _ACYCLIC_ELEMENTS[rng.integers(len(_ACYCLIC_ELEMENTS))]
        open_sites = [
            i
            for i, atom in enumerate(atoms)
            if degree[i] < (4 if atom.element == "C" else 3 if atom.element == "N" else 2)
        ]
        parent = int(open_sites[rng.integers(len(open_sites))])
        atoms.append(Atom(element))
        child = len(atoms) - 1
        degree.append(0)
        bonds[(parent, child)] = BondOrder.SINGLE
        degree[parent] += 1
        degree[child] += 1
    return MolGraph(atoms, bonds)


def _emit(mol: MolGraph) -> str:
    report = check_valence(mol)
    if not report.valid:
        raise AssertionError(f"generator produced an invalid molecule: {report.violations}")
    return to_smiles(mol)


def make_benchmark_deck(
    seed: int = 2024,
    n_molecules: int = 2000,
    acyclic_fraction: float = 0.15,
) -> SyntheticDeck:
    """The 2000-record benchmark deck with a skewed active scaffold profile.

    Actives follow the fixed 12/4/2/2 split over :data:`ACTIVE_CORES`; the
    remaining records are decorated decoy cores plus a tail of acyclic
    molecules that exercise the empty-scaffold path.
    """
    n_actives = sum(ACTIVE_CLUSTER_SIZES)
    if n_molecules <= n_actives:
        raise ValueError("deck too small for the fixed active profile")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    parsed_active = [parse_smiles(s) for s in ACTIVE_CORES]
    parsed_decoy = [parse_smiles(s) for s in DECOY_CORES]

    rows: list[tuple[str, int, str]] = []
    for core_smiles, core, count in zip(ACTIVE_CORES, parsed_active, ACTIVE_CLUSTER_SIZES):
        for _ in range(count):
            rows.append((_emit(_decorate(core, rng)), 1, core_smiles))

    n_decoys = n_molecules - n_actives
    n_acyclic = int(round(n_decoys * acyclic_fraction))
    for _ in range(n_decoys - n_acyclic):
        pick = int(rng.integers(len(parsed_decoy)))
        rows.append((_emit(_decorate(parsed_decoy[pick], rng)), 0, DECOY_CORES[pick]))
    for _ in range(n_acyclic):
        rows.append((_emit(_acyclic(rng)), 0, ""))

    order = rng.permutation(len(rows))
    width = len(str(n_molecules - 1))
    ids = tuple(f"m{i:0{width}d}" for i in range(len(rows)))
    smiles = tuple(rows[j][0] for j in order)
    labels = tuple(rows[j][1] for j in order)
    cores = tuple(rows[j][2] for j in order)
    return SyntheticDeck(ids, smiles, labels, cores)


def make_split_corpus(seed: int = 77, n_molecules: int = 500) -> SyntheticDeck:
    """A wider, flatter corpus for exercising the split protocols.

    Cores are drawn uniformly from the full pool, so scaffold bins stay
    small relative to the corpus, and the active fraction is held at one
    percent to stay inside the ingestion sanity band.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pool_smiles = ACTIVE_CORES + DECOY_CORES
    pool = [parse_smiles(s) for s in pool_smiles]
    n_acyclic = max(1, n_molecules // 20)
    n_actives = max(1, n_molecules // 100)

    rows: list[tuple[str, int, str]] = []
    for _ in range(n_molecules - n_acyclic):
        pick = int(rng.integers(len(pool)))
        rows.append((_emit(_decorate(pool[pick], rng)), 0, pool_smiles[pick]))
    for _ in range(n_acyclic):
        rows.append((_emit(_acyclic(rng)), 0, ""))

    active_positions = rng.choice(len(rows) - n_acyclic, size=n_actives, replace=False)
    for pos in active_positions:
        rows[int(pos)] = (rows[int(pos)][0], 1, rows[int(pos)][2])

    order = rng.permutation(len(rows))
    width = len(str(n_molecules - 1))
    ids = tuple(f"c{i:0{width}d}" for i in range(len(rows)))
    smiles = tuple(rows[j][0] for j in order)
    labels = tuple(rows[j][1] for j in order)
    cores = tuple(rows[j][2] for j in order)
    return SyntheticDeck(ids, smiles, labels, cores)


def write_deck_csv(deck: SyntheticDeck, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "smiles", "label"])
        for record_id, smiles, label in zip(deck.ids, deck.smiles, deck.labels):
            writer.writerow([record_id, smiles, label])


def scaffold_key(mol: MolGraph) -> str:
    """The Murcko scaffold's SMILES, or "" for an acyclic molecule."""
    scaffold = murcko_scaffold(mol)
    return "" if scaffold is None else to_smiles(scaffold)


def scaffold_overlap(mols_by_id, split) -> set[str]:
    """Scaffold keys found in more than one of ``split``'s three folds."""
    folds = [
        {scaffold_key(mols_by_id[rid]) for rid in ids}
        for ids in (split.train_ids, split.valid_ids, split.test_ids)
    ]
    return (folds[0] & folds[1]) | (folds[0] & folds[2]) | (folds[1] & folds[2])
