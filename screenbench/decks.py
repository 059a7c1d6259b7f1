"""Workload definitions and their seeded assays.

Every workload fixes a *layout*: for each file position, the record id, its
label and the ring core it is built on (or none, for an acyclic record).
The layout comes from a constant layout seed, so the folds, the actives per
fold and the scaffold multiset are the same for every benchmark seed. The
benchmark seed only redraws the decorations: the side chains grown on each
core and the shape of each acyclic tree. Side chains are acyclic, so a
record's Bemis-Murcko scaffold is its core whatever the seed.

Run as a script, this module writes one workload's assay and prints a JSON
line of facts about it; ``run.py`` times that in a fresh interpreter as the
benchmark's set-up::

    python3 screenbench/decks.py --workload deck-2k --seed 1 --out assay.csv
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

# The reference deck's cores, as in ``scaffscreen.pipeline.synthetic``.
ACTIVE_CORES = (
    "c1ccc2ccccc2c1",
    "C1CCc2ccccc2C1",
    "c1ccc(CCc2ccccn2)cc1",
    "C1Cc2ccccc2C1",
)
DECOY_CORES = (
    "c1ccccc1", "C1CCCCC1", "c1ccncc1", "c1ccoc1", "c1ccsc1", "c1cc[nH]c1",
    "c1cncnc1", "C1CCNCC1", "C1CCOCC1", "C1CNCCN1", "c1ccc2[nH]ccc2c1",
    "c1ccc2occc2c1", "c1ccc2sccc2c1", "C1CCC2CCCCC2C1", "c1ccc(-c2ccccc2)cc1",
    "c1ccc(Oc2ccccc2)cc1", "C1CC2CCC1CC2", "c1ccc2ncccc2c1", "c1ccc2cccnc2c1",
    "C1COCCN1", "c1csc(-c2ccccc2)c1", "C1CCC(CC2CCCCC2)CC1", "c1ccc(Cc2ccccc2)cc1",
    "c1ccc(CCc2ccccc2)cc1", "c1ccnnc1", "c1cnccn1", "C1CCNC1", "C1CCOC1",
    "c1cscn1", "c1cnc[nH]1",
)

SIDE_CHAINS = (
    ("C",), ("C", "C"), ("C", "C", "C"), ("O",), ("N",), ("F",), ("Cl",),
    ("C", "O"), ("C", "N"), ("C", "C", "O"),
)
# Scaffold-rich chains: actives carry polar ones, decoys on active cores a
# look-alike set without the two-carbon alcohol, all other records apolar
# ones. The classifier learns the polar chains, so records on active cores
# it never saw in training still score positive.
POLAR_CHAINS = (("O",), ("N",), ("C", "O"), ("C", "N"), ("C", "C", "O"))
LOOKALIKE_CHAINS = (("O",), ("N",), ("C", "O"), ("C", "N"), ("C",))
APOLAR_CHAINS = (("C",), ("C", "C"), ("C", "C", "C"), ("F",), ("Cl",))
ACYCLIC_ELEMENTS = ("C", "C", "C", "C", "N", "O")
MAX_DEGREE = {"C": 4, "N": 3, "O": 2}


@dataclass(frozen=True)
class Layout:
    """Record positions, labels and cores; fixed for every benchmark seed."""

    ids: tuple[str, ...]
    labels: tuple[int, ...]
    cores: tuple[str, ...]  # "" for an acyclic record
    chains: tuple[tuple[tuple[str, ...], ...], ...]  # side chains to draw from


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    layout_seed: int
    # (core, actives, decoys on that core) for the cores that carry actives.
    active_cores: tuple[tuple[str, int, int], ...]
    decoy_cores: tuple[str, ...]
    n_records: int
    acyclic_fraction: float
    # RunConfig fields that differ from the defaults.
    config: dict = field(default_factory=dict)
    external_denoiser: bool = False
    # Polar chains on the active cores and apolar ones elsewhere, instead
    # of the full chain set everywhere.
    polar_active_cores: bool = False
    # Every cell gets enough positive scores for the rerank to run.
    rerank_every_cell: bool = False
    # Pooled EF@top_k that the deck's design guarantees a working run clears.
    ef_floor: float = 1.0

    def layout(self) -> Layout:
        rng = np.random.default_rng(np.random.SeedSequence(self.layout_seed))
        rows: list[tuple[int, str]] = []
        for core, n_actives, n_decoys in self.active_cores:
            rows += [(1, core)] * n_actives + [(0, core)] * n_decoys
        n_rest = self.n_records - len(rows)
        n_acyclic = int(round(n_rest * self.acyclic_fraction))
        picks = rng.integers(len(self.decoy_cores), size=n_rest - n_acyclic)
        rows += [(0, self.decoy_cores[int(k)]) for k in picks]
        rows += [(0, "")] * n_acyclic
        active_cores = {core for core, _, _ in self.active_cores}
        if self.polar_active_cores:
            chains = [
                (POLAR_CHAINS if y else LOOKALIKE_CHAINS) if c in active_cores else APOLAR_CHAINS
                for y, c in rows
            ]
        else:
            chains = [SIDE_CHAINS] * len(rows)
        order = rng.permutation(len(rows))
        width = len(str(self.n_records - 1))
        return Layout(
            ids=tuple(f"m{i:0{width}d}" for i in range(len(rows))),
            labels=tuple(rows[j][0] for j in order),
            cores=tuple(rows[j][1] for j in order),
            chains=tuple(chains[j] for j in order),
        )


def _head_heavy(cores: tuple[str, ...], total: int) -> list[int]:
    """Split ``total`` actives over ``cores`` in proportion to 1/rank."""
    weights = np.array([1.0 / (r + 1) for r in range(len(cores))])
    counts = np.floor(total * weights / weights.sum()).astype(int)
    counts[: total - counts.sum()] += 1
    return [int(c) for c in counts]


_RICH_CORES = ACTIVE_CORES + DECOY_CORES[10:22]
_RICH_ACTIVES = _head_heavy(_RICH_CORES, 230)
_RICH_DECOYS = [135] + [63] * (len(_RICH_CORES) - 1)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="deck-2k",
            why="reference 2000-record deck: self-training and in-process diffusion "
            "dominate, and cells mostly get too few candidates to rerank",
            layout_seed=2024,
            active_cores=tuple(zip(ACTIVE_CORES, (12, 4, 2, 2), (0, 0, 0, 0))),
            decoy_cores=DECOY_CORES,
            n_records=2000,
            acyclic_fraction=0.15,
            # At the default 0.9, whether any of the 5-9 valid generated
            # molecules of a split gets pseudo-labeled was up to the seed;
            # a seed with none skipped that work and read 20 MB less peak
            # memory. At 0.5 every seed tried pseudo-labels.
            config={"confidence_threshold": 0.5},
            ef_floor=10.0,
        ),
        Workload(
            name="scaffold-rich",
            why="230 actives on 16 cores under the scaffold split: k-means, MMR "
            "rerank at a binding cap, sd@k and scaffold binning do the work",
            layout_seed=2025,
            active_cores=tuple(zip(_RICH_CORES, _RICH_ACTIVES, _RICH_DECOYS)),
            decoy_cores=DECOY_CORES[:2],
            n_records=2000,
            acyclic_fraction=0.3,
            polar_active_cores=True,
            rerank_every_cell=True,
            config={
                "scheme": "scaffold",
                "eval_seeds": 1,
                "library_fraction": 0.02,
                "candidate_cap": 150,
                "k_max": 6,
                "epochs": 4,
                "warmup_epochs": 2,
                "refresh_period": 1,
            },
            # A random ranking of the pooled list averages 1 with a standard
            # deviation near 0.23; working runs gave 1.55 and more.
            ef_floor=1.3,
        ),
        Workload(
            name="external-denoiser",
            why="deck-2k through a child-process denoiser that answers densely: "
            "diffusion across a process boundary",
            layout_seed=2024,
            active_cores=tuple(zip(ACTIVE_CORES, (12, 4, 2, 2), (0, 0, 0, 0))),
            decoy_cores=DECOY_CORES,
            n_records=2000,
            acyclic_fraction=0.15,
            # With about six valid generated molecules a run, a pseudo-label
            # was up to the seed (1 seed in 20 had one, and read 18 MB more
            # peak memory); at threshold 1 no seed pseudo-labels.
            config={
                "eval_seeds": 1,
                "timesteps": 10,
                "library_fraction": 0.05,
                "epochs": 30,
                "warmup_epochs": 10,
                "confidence_threshold": 1.0,
            },
            external_denoiser=True,
            ef_floor=10.0,
        ),
    )
}


def generate(workload: Workload, seed: int, out: Path) -> dict:
    """Write the workload's assay for ``seed`` to ``out``; return its facts."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from scaffscreen.chem import (
        Atom,
        BondOrder,
        MolGraph,
        check_valence,
        parse_smiles,
        remaining_capacity,
        to_smiles,
    )

    def decorate(core: MolGraph, chains, rng: np.random.Generator) -> MolGraph:
        atoms = list(core.atoms)
        bonds = dict(core.bonds)
        capacity = {
            i: remaining_capacity(core, i) if atom.element in ("C", "N") else 0
            for i, atom in enumerate(core.atoms)
        }
        for _ in range(int(rng.integers(1, 3))):
            sites = [i for i, c in capacity.items() if c > 0]
            site = sites[int(rng.integers(len(sites)))]
            capacity[site] -= 1
            anchor = site
            for element in chains[int(rng.integers(len(chains)))]:
                atoms.append(Atom(element))
                bonds[(anchor, len(atoms) - 1)] = BondOrder.SINGLE
                anchor = len(atoms) - 1
        return MolGraph(atoms, bonds)

    def acyclic(rng: np.random.Generator) -> MolGraph:
        atoms = [Atom("C")]
        degree = [0]
        bonds = {}
        for _ in range(int(rng.integers(3, 9)) - 1):
            element = ACYCLIC_ELEMENTS[int(rng.integers(len(ACYCLIC_ELEMENTS)))]
            sites = [i for i, a in enumerate(atoms) if degree[i] < MAX_DEGREE[a.element]]
            parent = sites[int(rng.integers(len(sites)))]
            atoms.append(Atom(element))
            degree.append(1)
            degree[parent] += 1
            bonds[(parent, len(atoms) - 1)] = BondOrder.SINGLE
        return MolGraph(atoms, bonds)

    layout = workload.layout()
    parsed = {core: parse_smiles(core) for core in set(layout.cores) if core}
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    atom_types: set = set()
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "smiles", "label"])
        for record_id, label, core, chains in zip(
            layout.ids, layout.labels, layout.cores, layout.chains
        ):
            mol = decorate(parsed[core], chains, rng) if core else acyclic(rng)
            if not check_valence(mol).valid:
                raise AssertionError(f"{record_id}: generated an invalid molecule")
            atom_types.update(mol.atoms)
            writer.writerow([record_id, to_smiles(mol), label])
    return {"records": len(layout.ids), "n_atom_types": len(atom_types)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    facts = generate(WORKLOADS[args.workload], args.seed, Path(args.out))
    print(json.dumps(facts))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
