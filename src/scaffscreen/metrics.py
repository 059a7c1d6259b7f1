"""Early-recognition metrics for ranked screening output.

All metrics operate on a :class:`RankedList`, which orders records by
descending score with ties broken by input position, so results depend
only on the induced ranking: any strictly increasing transform of the
scores leaves every value unchanged.

log_auc
    Area under the ROC curve plotted against log10 of the false positive
    rate, integrated over [fpr_lo, fpr_hi] by the trapezoid rule on the
    linearly interpolated ROC polyline, normalized by log10(hi / lo).
    A uniformly random ranking scores about 0.0215 on [0.001, 0.1].

bedroc
    Boltzmann-enhanced discrimination of ROC, from the robust initial
    enhancement RIE with exponential weight alpha:

        RIE  = (1/n) sum_i exp(-alpha r_i / N)
               ----------------------------------
               (1/N) (1 - exp(-alpha)) / (exp(alpha / N) - 1)

    scaled between its closed-form extremes RIE_min and RIE_max so the
    result lies in [0, 1].

ef_k
    Enrichment factor (n_k / k) / (n / N) for the top k.

dcg_k
    Binary discounted cumulative gain, sum of 1 / log2(rank + 1) over
    actives in the top k.

sd_k
    Scaffold diversity: one minus the mean pairwise Tanimoto similarity
    of the scaffold fingerprints of k molecules, using this package's
    scaffold extraction and fingerprinting (acyclic molecules share the
    zero fingerprint and count as mutually identical). The pairs of one
    Tanimoto matrix are summed one by one in row-major order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .artifacts import DECIMALS, write_json
from .chem.graph import MolGraph
from .chem.scaffold import murcko_scaffold
from .fingerprints import DEFAULT_NBITS, DEFAULT_RADIUS, Fingerprint, ecfps, tanimoto_matrix

__all__ = [
    "DegenerateLabels",
    "RankedList",
    "bedroc",
    "bedroc_of_order",
    "check_fpr_window",
    "dcg_k",
    "ef_k",
    "log_auc",
    "mean_upper_triangle",
    "pairwise_mean_tanimoto",
    "sd_k",
    "write_metric_report",
]

class DegenerateLabels(ValueError):
    """Raised when a metric is undefined for the given label mix."""


@dataclass(frozen=True)
class RankedList:
    """Records sorted by descending score; ties keep input order."""

    ids: tuple[str, ...]
    scores: np.ndarray
    labels: np.ndarray

    @classmethod
    def from_records(cls, records: Iterable[tuple[str, float, int]]) -> "RankedList":
        rows = list(records)
        if not rows:
            raise ValueError("cannot rank an empty record list")
        for _, _, label in rows:
            if label not in (0, 1):
                raise ValueError(f"labels must be 0 or 1, got {label!r}")
        order = sorted(range(len(rows)), key=lambda i: -rows[i][1])
        return cls(
            ids=tuple(rows[i][0] for i in order),
            scores=np.array([rows[i][1] for i in order], dtype=np.float64),
            labels=np.array([rows[i][2] for i in order], dtype=np.int64),
        )

    @property
    def n_records(self) -> int:
        return len(self.labels)

    @property
    def n_actives(self) -> int:
        return int(self.labels.sum())


def _roc_polyline(ranked: RankedList) -> tuple[np.ndarray, np.ndarray]:
    """Unique-FPR ROC vertices from the ranking (upper envelope)."""
    n = ranked.n_actives
    total = ranked.n_records
    n_inactive = total - n
    tp = np.concatenate(([0], np.cumsum(ranked.labels)))
    fp = np.concatenate(([0], np.cumsum(1 - ranked.labels)))
    tpr = tp / n
    fpr = fp / n_inactive
    # Collapse vertical runs: keep the highest TPR reached at each FPR.
    keep = np.r_[fpr[1:] != fpr[:-1], True]
    return fpr[keep], tpr[keep]


def check_fpr_window(fpr_lo: float, fpr_hi: float) -> None:
    if not 0.0 < fpr_lo < fpr_hi <= 1.0:
        raise ValueError("need 0 < fpr_lo < fpr_hi <= 1")


def log_auc(
    ranked: RankedList, fpr_lo: float = 0.001, fpr_hi: float = 0.1
) -> float:
    """Normalized area under TPR d(log10 FPR) over [fpr_lo, fpr_hi]."""
    check_fpr_window(fpr_lo, fpr_hi)
    n = ranked.n_actives
    if n == 0 or n == ranked.n_records:
        raise DegenerateLabels("log_auc needs both actives and inactives")
    fpr, tpr = _roc_polyline(ranked)
    inner = (fpr > fpr_lo) & (fpr < fpr_hi)
    grid = np.concatenate(([fpr_lo], fpr[inner], [fpr_hi]))
    heights = np.interp(grid, fpr, tpr)
    log_grid = np.log10(grid)
    area = float(((heights[1:] + heights[:-1]) / 2.0 * np.diff(log_grid)).sum())
    return area / (math.log10(fpr_hi) - math.log10(fpr_lo))


def bedroc(ranked: RankedList, alpha: float = 20.0) -> float:
    """BEDROC in [0, 1]; 1.0 when all actives lead, 0.0 when they trail."""
    return bedroc_of_order(ranked.labels, alpha)


def bedroc_of_order(labels: np.ndarray, alpha: float = 20.0) -> float:
    """BEDROC of 0/1 ``labels`` given in rank order, best first."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    n = int(labels.sum())
    total = len(labels)
    if n == 0 or n == total:
        raise DegenerateLabels("bedroc needs both actives and inactives")
    ranks = np.flatnonzero(labels == 1) + 1
    ratio = n / total
    observed = np.exp(-alpha * ranks / total).sum() / n
    expected = (1.0 - math.exp(-alpha)) / (total * (math.exp(alpha / total) - 1.0))
    rie = observed / expected
    rie_max = (1.0 - math.exp(-alpha * ratio)) / (ratio * (1.0 - math.exp(-alpha)))
    rie_min = (1.0 - math.exp(alpha * ratio)) / (ratio * (1.0 - math.exp(alpha)))
    return float((rie - rie_min) / (rie_max - rie_min))


def ef_k(ranked: RankedList, k: int = 100) -> float:
    """Enrichment factor at depth k."""
    if not 1 <= k <= ranked.n_records:
        raise ValueError("k must lie in [1, n_records]")
    n = ranked.n_actives
    if n == 0:
        raise DegenerateLabels("ef_k needs at least one active")
    hits = int(ranked.labels[:k].sum())
    return (hits / k) / (n / ranked.n_records)


def dcg_k(ranked: RankedList, k: int = 100) -> float:
    """Binary DCG over the top k."""
    if not 1 <= k <= ranked.n_records:
        raise ValueError("k must lie in [1, n_records]")
    top = ranked.labels[:k]
    discounts = 1.0 / np.log2(np.arange(1, k + 1) + 1.0)
    return float((top * discounts).sum())


def pairwise_mean_tanimoto(fps: Sequence[Fingerprint]) -> float:
    """Mean Tanimoto over all unordered pairs; needs at least two entries."""
    return mean_upper_triangle(tanimoto_matrix(fps))


def mean_upper_triangle(sim: np.ndarray) -> float:
    """Mean above the diagonal, added one by one in row-major (pair-loop) order."""
    # np.sum would add pairwise, which can move the sixth decimal.
    k = len(sim)
    if k < 2:
        raise ValueError("need at least two entries")
    upper = sim[np.triu_indices(k, 1)]
    return float(np.add.accumulate(upper)[-1]) / (k * (k - 1) / 2)


def sd_k(
    mols: Sequence[MolGraph],
    k: int = 100,
    radius: int = DEFAULT_RADIUS,
    nbits: int = DEFAULT_NBITS,
) -> float:
    """Scaffold diversity of exactly k molecules."""
    if len(mols) != k:
        raise ValueError(f"expected exactly {k} molecules, got {len(mols)}")
    if k < 2:
        raise ValueError("scaffold diversity needs at least two molecules")
    fps = ecfps([murcko_scaffold(mol) for mol in mols], radius, nbits)
    return 1.0 - pairwise_mean_tanimoto(fps)


def write_metric_report(path, values: dict[str, float]) -> None:
    """Serialize a metric mapping as JSON with six-decimal values."""
    write_json(path, {key: round(float(val), DECIMALS) for key, val in values.items()})
