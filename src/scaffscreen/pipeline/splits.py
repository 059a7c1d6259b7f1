"""Train/valid/test splitting: rotating random folds and scaffold bins.

Random scheme ("nested cross-validation lite"): records are shuffled once
by seed and dealt into five folds. Split i tests on fold i, validates on
fold (i - 1) mod 5 and trains on the rest, so each record is tested
exactly once across the five splits.

Scaffold scheme: records are binned by the serialized scaffold string
(acyclic molecules share one empty-scaffold bin). Bins holding more than
ten percent of the data go to train outright; the rest are shuffled by
seed, stably sorted by descending size, and dealt greedily to whichever
fold is furthest under its 3:1:1 quota. One scaffold bin never straddles
folds, which is verified after assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..artifacts import read_json, write_json
from ..chem.graph import MolGraph
from ..chem.scaffold import murcko_scaffold
from ..chem.smiles import to_smiles
from .ingest import Assay, AssayRecord

__all__ = [
    "Split",
    "SplitPlan",
    "TooFewScaffolds",
    "make_splits",
]

N_SPLITS = 5
DOMINANT_BIN_FRACTION = 0.10
FOLD_QUOTAS = {"train": 3.0 / 5.0, "valid": 1.0 / 5.0, "test": 1.0 / 5.0}


class TooFewScaffolds(ValueError):
    """Not enough scaffold bins to populate validation and test folds."""


@dataclass(frozen=True)
class Split:
    train_ids: tuple[str, ...]
    valid_ids: tuple[str, ...]
    test_ids: tuple[str, ...]


@dataclass(frozen=True)
class SplitPlan:
    scheme: str
    seed: int
    splits: tuple[Split, ...]

    def to_json(self, path) -> None:
        payload = {
            "scheme": self.scheme,
            "seed": self.seed,
            "splits": [
                {
                    "train": list(s.train_ids),
                    "valid": list(s.valid_ids),
                    "test": list(s.test_ids),
                }
                for s in self.splits
            ],
        }
        write_json(path, payload)

    @classmethod
    def from_json(cls, path) -> "SplitPlan":
        payload = read_json(path)
        return cls(
            scheme=payload["scheme"],
            seed=payload["seed"],
            splits=tuple(
                Split(
                    train_ids=tuple(s["train"]),
                    valid_ids=tuple(s["valid"]),
                    test_ids=tuple(s["test"]),
                )
                for s in payload["splits"]
            ),
        )


def _scaffold_keys(records: Sequence[AssayRecord]) -> dict[str, str]:
    """Each record's scaffold identity string by id; empty for acyclic molecules.

    Identity is string-level over this package's deterministic serializer;
    no graph canonicalization is attempted. Equal scaffolds are serialized
    once.
    """
    strings: dict[MolGraph, str] = {}
    keys: dict[str, str] = {}
    for record in records:
        scaffold = murcko_scaffold(record.mol)
        if scaffold is None:
            keys[record.record_id] = ""
        elif (key := strings.get(scaffold)) is not None:
            keys[record.record_id] = key
        else:
            keys[record.record_id] = strings[scaffold] = to_smiles(scaffold)
    return keys


def _random_splits(assay: Assay, seed: int) -> tuple[Split, ...]:
    rng = np.random.default_rng(seed)
    ids = [r.record_id for r in assay.records]
    order = rng.permutation(len(ids))
    folds: list[list[str]] = [[] for _ in range(N_SPLITS)]
    for position, idx in enumerate(order):
        folds[position % N_SPLITS].append(ids[idx])
    splits = []
    for i in range(N_SPLITS):
        test = folds[i]
        valid = folds[(i - 1) % N_SPLITS]
        train = [
            rid
            for j in range(N_SPLITS)
            if j not in (i, (i - 1) % N_SPLITS)
            for rid in folds[j]
        ]
        splits.append(
            Split(train_ids=tuple(train), valid_ids=tuple(valid), test_ids=tuple(test))
        )
    return tuple(splits)


def _scaffold_split(assay: Assay, seed: int, keys: dict[str, str]) -> Split:
    bins: dict[str, list[str]] = {}
    for record in assay.records:
        bins.setdefault(keys[record.record_id], []).append(record.record_id)

    total = assay.size
    train: list[str] = []
    assignable: list[tuple[str, list[str]]] = []
    for key, members in bins.items():
        if len(members) > DOMINANT_BIN_FRACTION * total:
            train.extend(members)
        else:
            assignable.append((key, members))
    if len(assignable) < 2:
        raise TooFewScaffolds(
            f"only {len(assignable)} assignable scaffold bins; cannot fill valid and test"
        )

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(assignable))
    shuffled = [assignable[int(i)] for i in order]
    shuffled.sort(key=lambda item: -len(item[1]))  # stable, keeps shuffle among ties

    folds: dict[str, list[str]] = {"train": train, "valid": [], "test": []}
    for _, members in shuffled:
        deficits = {
            name: FOLD_QUOTAS[name] * total - len(folds[name]) for name in folds
        }
        # Largest deficit wins; ties resolve train > valid > test.
        target = max(folds, key=lambda name: (deficits[name], name == "train", name == "valid"))
        folds[target].extend(members)

    if not folds["valid"] or not folds["test"]:
        raise TooFewScaffolds("scaffold bins too coarse to fill valid and test folds")
    return Split(
        train_ids=tuple(folds["train"]),
        valid_ids=tuple(folds["valid"]),
        test_ids=tuple(folds["test"]),
    )


def make_splits(assay: Assay, scheme: str = "random", seed: int = 0) -> SplitPlan:
    """Build the split plan for an assay under the requested scheme."""
    if assay.size < 2 * N_SPLITS:
        raise ValueError("assay too small to split")
    if scheme == "random":
        splits = _random_splits(assay, seed)
    elif scheme == "scaffold":
        keys = _scaffold_keys(assay.records)
        splits = tuple(_scaffold_split(assay, seed + i, keys) for i in range(N_SPLITS))
        for split in splits:
            _assert_no_leakage(split, keys)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")

    for split in splits:
        _assert_partition(assay, split)
    return SplitPlan(scheme=scheme, seed=seed, splits=splits)


def _assert_partition(assay: Assay, split: Split) -> None:
    all_ids = {r.record_id for r in assay.records}
    train, valid, test = set(split.train_ids), set(split.valid_ids), set(split.test_ids)
    if train | valid | test != all_ids:
        raise AssertionError("split does not cover the assay")
    if train & valid or train & test or valid & test:
        raise AssertionError("split folds overlap")


def _assert_no_leakage(split: Split, keys: dict[str, str]) -> None:
    fold_scaffolds = {
        name: {keys[rid] for rid in ids}
        for name, ids in (
            ("train", split.train_ids),
            ("valid", split.valid_ids),
            ("test", split.test_ids),
        )
    }
    overlap = (
        (fold_scaffolds["train"] & fold_scaffolds["valid"])
        | (fold_scaffolds["train"] & fold_scaffolds["test"])
        | (fold_scaffolds["valid"] & fold_scaffolds["test"])
    )
    if overlap:
        sample = sorted(overlap)[:3]
        raise AssertionError(f"scaffold leakage across folds: {sample}")
