"""Diversity-aware reranking of screening hits by maximal marginal relevance.

Candidates are the positively scored records (logit > 0), kept in
descending score order (ties by input position) and capped. Selection is
greedy: the top-scoring candidate seeds the list, then each step adds the
candidate maximizing

    lambda * sigmoid(score) - (1 - lambda) * max_similarity_to_selected

where similarity is Tanimoto over scaffold fingerprints, so the tradeoff
is between predicted activity and scaffold novelty. Ties go to the higher
raw score, then to the earlier input position. With lambda = 1 the
original score order is reproduced exactly; the first pick never depends
on lambda.

Each candidate set computes one Tanimoto matrix, which every lambda and
both diversity figures read. A step takes the first maximum of the
objective vector; as candidates are in descending score order (ties by
position), that is the candidate the tie rule above picks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .artifacts import DECIMALS, read_csv, write_csv
from .chem.graph import MolGraph
from .chem.scaffold import murcko_scaffold
from .fingerprints import DEFAULT_NBITS, DEFAULT_RADIUS, Fingerprint, ecfps, tanimoto_matrix
from .metrics import DegenerateLabels, RankedList, mean_upper_triangle

__all__ = [
    "CandidateSet",
    "DEFAULT_CANDIDATE_CAP",
    "EmptyCandidates",
    "LambdaReport",
    "RerankedSet",
    "build_candidates",
    "check_lambda",
    "lambda_sweep",
    "mmr_rerank",
    "read_sweep_csv",
    "rerank_report",
    "write_sweep_csv",
]

DEFAULT_CANDIDATE_CAP = 500
DEFAULT_LAMBDA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


class EmptyCandidates(ValueError):
    """Too few records scored positive for reranking to work with."""


@dataclass(frozen=True)
class CandidateSet:
    """Positively scored records in descending score order, with fingerprints."""

    ids: tuple[str, ...]
    scores: np.ndarray
    fingerprints: tuple[Fingerprint, ...]

    @property
    def size(self) -> int:
        return len(self.ids)

    @cached_property
    def similarity(self) -> np.ndarray:
        """Tanimoto similarity of every pair of candidates, by position."""
        return tanimoto_matrix(self.fingerprints)


@dataclass(frozen=True)
class RerankedSet:
    """A permutation of the candidate ids with the greedy objective values."""

    ids: tuple[str, ...]
    objective: np.ndarray
    lam: float
    candidates: CandidateSet


def candidate_fingerprints(
    mols: Sequence[MolGraph], radius: int = DEFAULT_RADIUS, nbits: int = DEFAULT_NBITS
) -> list[Fingerprint]:
    """The fingerprints of ``mols``' Murcko scaffolds, in one batch."""
    return ecfps([murcko_scaffold(mol) for mol in mols], radius, nbits)


def candidate_fingerprint(
    mol: MolGraph, radius: int = DEFAULT_RADIUS, nbits: int = DEFAULT_NBITS
) -> Fingerprint:
    """The fingerprint of ``mol``'s Murcko scaffold."""
    return candidate_fingerprints([mol], radius, nbits)[0]


def build_candidates(
    ids: Sequence[str],
    scores: Sequence[float],
    fingerprints: Callable[[Sequence[str]], Sequence[Fingerprint]],
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> CandidateSet:
    """Filter to positive scores, sort descending (stable), truncate to ``cap``.

    ``fingerprints`` maps a list of record ids to their fingerprints; it is
    called once, with the kept candidates. No positive score raises
    :class:`EmptyCandidates`.
    """
    if len(ids) != len(scores):
        raise ValueError("ids and scores must align")
    if cap < 1:
        raise ValueError("cap must be positive")
    positive = [k for k, s in enumerate(scores) if s > 0.0]
    if not positive:
        raise EmptyCandidates("no positive scores")
    positive.sort(key=lambda k: -scores[k])
    positive = positive[:cap]
    kept = tuple(ids[k] for k in positive)
    return CandidateSet(
        ids=kept,
        scores=np.array([scores[k] for k in positive], dtype=np.float64),
        fingerprints=tuple(fingerprints(kept)),
    )


def check_lambda(lam: float) -> None:
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")


def mmr_rerank(candidates: CandidateSet, lam: float) -> RerankedSet:
    """Greedy maximal-marginal-relevance ordering of the candidate set."""
    check_lambda(lam)
    relevance = np.array([1.0 / (1.0 + math.exp(-s)) for s in candidates.scores])
    max_sim = np.zeros(candidates.size)
    taken = np.zeros(candidates.size, dtype=bool)
    # Seed with the highest raw score; candidates are already sorted with
    # deterministic tie-breaks, so that is position 0.
    order, objective = [0], [float(lam * relevance[0])]
    for _ in range(1, candidates.size):
        taken[order[-1]] = True
        np.maximum(max_sim, candidates.similarity[order[-1]], out=max_sim)
        values = lam * relevance - (1.0 - lam) * max_sim
        values[taken] = -np.inf
        order.append(int(values.argmax()))
        objective.append(values[order[-1]])
    ids = tuple(candidates.ids[k] for k in order)
    return RerankedSet(ids, np.array(objective), lam, candidates)


@dataclass(frozen=True)
class LambdaReport:
    lam: float
    ef_before: float
    ef_after: float
    sd_before: float
    sd_after: float


def rerank_report(original: RankedList, reranked: RerankedSet, k: int = 100) -> LambdaReport:
    """Paired enrichment and scaffold diversity at depth k, before vs after.

    "Before" is the candidate (score) order; "after" is the reranked
    order. Enrichment uses the full original ranking as the baseline
    population.
    """
    candidates = reranked.candidates
    if k > candidates.size:
        raise ValueError(f"k={k} exceeds the candidate set size {candidates.size}")
    if original.n_actives == 0:
        raise DegenerateLabels("enrichment needs at least one active in the baseline")
    label_of = dict(zip(original.ids, (int(v) for v in original.labels)))
    base_rate = original.n_actives / original.n_records

    def ef_of(ids: Sequence[str]) -> float:
        hits = sum(label_of[i] for i in ids[:k])
        return (hits / k) / base_rate

    position = {record_id: p for p, record_id in enumerate(candidates.ids)}

    def sd_of(ids: Sequence[str]) -> float:
        top = [position[i] for i in ids[:k]]
        return 1.0 - mean_upper_triangle(candidates.similarity[np.ix_(top, top)])

    return LambdaReport(
        lam=reranked.lam,
        ef_before=ef_of(candidates.ids),
        ef_after=ef_of(reranked.ids),
        sd_before=sd_of(candidates.ids),
        sd_after=sd_of(reranked.ids),
    )


def lambda_sweep(
    original: RankedList,
    candidates: CandidateSet,
    lambdas: Sequence[float] = DEFAULT_LAMBDA_GRID,
    k: int = 100,
) -> list[LambdaReport]:
    return [rerank_report(original, mmr_rerank(candidates, lam), k=k) for lam in lambdas]


def _sweep_header(k: int) -> list[str]:
    return ["lambda", f"ef{k}_before", f"ef{k}_after", f"sd{k}_before", f"sd{k}_after"]


def write_sweep_csv(path, reports: Sequence[LambdaReport], k: int = 100) -> None:
    """One row per lambda, figures to six decimals, headed for depth ``k``."""
    write_csv(
        path,
        _sweep_header(k),
        (
            [f"{r.lam:g}"]
            + [f"{x:.{DECIMALS}f}" for x in (r.ef_before, r.ef_after, r.sd_before, r.sd_after)]
            for r in reports
        ),
    )


def read_sweep_csv(path, k: int = 100) -> list[LambdaReport]:
    """The rows of a sweep csv written for depth ``k``, as the values it holds."""
    rows = read_csv(path, _sweep_header(k), "sweep")
    return [LambdaReport(*(float(v) for v in row)) for row in rows]
