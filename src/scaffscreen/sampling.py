"""Cluster-balanced scaffold sampling.

Active scaffolds are fingerprinted, grouped by k-means (k chosen by mean
silhouette), and then sampled with per-cluster probabilities proportional
to inverse cluster size. Rare chemotypes are thereby drawn about as often
as dominant ones, countering the head-heavy scaffold distribution typical
of screening actives. Draws are with replacement: a cluster is picked from
the weight distribution, then one of its members uniformly.

k-means runs with k-means++ seeding, 10 restarts per k, at most 100 Lloyd
iterations, and stops once the largest centroid shift drops below 1e-6.
Distances are Euclidean over the raw 0/1 fingerprint vectors. The restarts
stop early at one whose inertia is 0.0: only a strictly lower inertia
replaces the best restart, so no later one could.

The k scan stops past the number of distinct fingerprint rows. Every point
takes the label of its row's nearest center, so such a k always leaves a
cluster empty, which inverse-size weights cannot serve.

k-means runs on the distinct rows with their counts, which is exact: a
point's distances depend only on its row, draws, sums, reseeds and labels
still run over all points, and a centroid's count-weighted row sum is the
same integer per bit as the sum over its members.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .chem.graph import MolGraph
from .chem.smiles import to_smiles
from .fingerprints import Fingerprint, fingerprint_matrix

__all__ = [
    "ClusterModel",
    "LibraryEntry",
    "SamplingWeights",
    "ScaffoldLibrary",
    "cluster_scaffolds",
    "sample_library",
    "sampling_weights",
    "silhouette",
    "single_cluster",
    "write_library_csv",
]

KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 100
KMEANS_TOL = 1e-6
WEIGHT_EPSILON = 1e-8


@dataclass(frozen=True)
class ClusterModel:
    """Fitted clustering over scaffold fingerprints.

    ``degenerate`` marks the single-cluster fallback (``single_cluster``);
    its silhouette is NaN.
    """

    k: int
    centroids: np.ndarray
    assignments: np.ndarray
    silhouette_score: float
    degenerate: bool = False

    @property
    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.k)


@dataclass(frozen=True)
class SamplingWeights:
    counts: np.ndarray
    weights: np.ndarray
    probabilities: np.ndarray


@dataclass(frozen=True)
class LibraryEntry:
    scaffold: MolGraph
    cluster_id: int
    source_label: int
    source_index: int


@dataclass(frozen=True)
class ScaffoldLibrary:
    entries: tuple[LibraryEntry, ...] = field(default=())

    @property
    def size(self) -> int:
        return len(self.entries)

    def cluster_counts(self, k: int) -> np.ndarray:
        ids = np.array([entry.cluster_id for entry in self.entries], dtype=np.int64)
        return np.bincount(ids, minlength=k)


# Lloyd's distances broadcast (rows, k, nbits); this bounds one block of rows.
_BLOCK_BYTES = 8 * 2**20


def _squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    step = max(1, _BLOCK_BYTES // (8 * centers.size))
    blocks = (points[s : s + step, None, :] - centers for s in range(0, len(points), step))
    return np.concatenate([np.einsum("ijk,ijk->ij", diff, diff) for diff in blocks])


def _kmeans_plus_plus(
    rows: np.ndarray, inverse: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    m = len(inverse)
    centers = np.empty((k, rows.shape[1]))
    first = rng.integers(m)
    centers[0] = rows[inverse[first]]
    closest = _squared_distances(rows, centers[:1])[:, 0]
    for c in range(1, k):
        per_point = closest[inverse]
        total = per_point.sum()
        if total <= 0.0:
            idx = rng.integers(m)
        else:
            idx = int(np.searchsorted(np.cumsum(per_point / total), rng.random()))
            idx = min(idx, m - 1)
        centers[c] = rows[inverse[idx]]
        closest = np.minimum(closest, ((rows - centers[c]) ** 2).sum(axis=1))
    return centers


def _lloyd(
    rows: np.ndarray, inverse: np.ndarray, counts: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    k = centers.shape[0]
    for _ in range(KMEANS_MAX_ITER):
        dists = _squared_distances(rows, centers)
        labels = dists.argmin(axis=1)
        updated = centers.copy()
        for c in range(k):
            members = labels == c
            if members.any():
                updated[c] = (counts[members] @ rows[members]) / counts[members].sum()
            else:
                # Re-seed an emptied cluster with the point farthest from
                # its current assignment.
                worst = int(dists.min(axis=1)[inverse].argmax())
                updated[c] = rows[inverse[worst]]
        shift = np.sqrt(((updated - centers) ** 2).sum(axis=1)).max()
        centers = updated
        if shift < KMEANS_TOL:
            break
    dists = _squared_distances(rows, centers)
    labels = dists.argmin(axis=1)
    inertia = float(dists[np.arange(len(rows)), labels][inverse].sum())
    return centers, labels[inverse], inertia


def _distinct_rows(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of a 0/1 matrix, each point's row index, and row counts."""
    # Keyed by packed bytes: np.unique(points, axis=0) was about 100 times slower.
    packed = np.packbits(points != 0, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    return points[first], inverse.reshape(-1), counts


def _kmeans(
    rows: np.ndarray, inverse: np.ndarray, counts: np.ndarray, k: int, seed: np.random.SeedSequence
) -> tuple[np.ndarray, np.ndarray]:
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for child in seed.spawn(KMEANS_RESTARTS):
        rng = np.random.default_rng(child)
        centers = _kmeans_plus_plus(rows, inverse, k, rng)
        centers, labels, inertia = _lloyd(rows, inverse, counts, centers)
        if best is None or inertia < best[0]:
            best = (inertia, centers, labels)
        if inertia == 0.0:
            break
    assert best is not None
    return best[1], best[2]


def silhouette(points: np.ndarray, assignments: np.ndarray) -> float:
    """Mean silhouette over all points; singleton clusters score zero.

    Squared distances come from the Gram identity ``|p_i|^2 + |p_j|^2 -
    2 p_i . p_j``. On 0/1 points each term is a bit count, exact in float64
    in any summation order, so they equal the (m, m, d) broadcast form.
    Each point's distance sum to a cluster is a row sum of that cluster's
    C-ordered column block, which adds like the point's own row alone.
    """
    points = np.asarray(points, dtype=np.float64)
    assignments = np.asarray(assignments)
    m = len(points)
    if m < 2:
        raise ValueError("silhouette needs at least two points")
    labels, cluster_of = np.unique(assignments, return_inverse=True)
    if len(labels) < 2:
        raise ValueError("silhouette needs at least two clusters")
    norms = np.einsum("ij,ij->i", points, points)
    dists = points @ points.T
    dists *= -2.0
    dists += norms[:, None]
    dists += norms[None, :]
    np.maximum(dists, 0.0, out=dists)
    np.fill_diagonal(dists, 0.0)
    np.sqrt(dists, out=dists)
    masks = cluster_of == np.arange(len(labels))[:, None]
    sizes = masks.sum(axis=1)
    # sums[c, i]: point i's distance sum to the members of cluster c.
    sums = np.stack([dists.compress(mask, axis=1).sum(axis=1) for mask in masks])
    means = sums / sizes[:, None]
    rows = np.arange(m)
    own_size = sizes[cluster_of]
    singleton = own_size == 1
    a = sums[cluster_of, rows] / np.where(singleton, 1, own_size - 1)
    means[cluster_of, rows] = np.inf
    b = means.min(axis=0)
    denom = np.maximum(a, b)
    zero = singleton | (denom == 0.0)
    scores = np.where(zero, 0.0, (b - a) / np.where(zero, 1.0, denom))
    return float(scores.mean())


def single_cluster(points: np.ndarray) -> ClusterModel:
    """The flagged one-cluster model over the fingerprint rows ``points``.

    The fallback when clustering means nothing: every fingerprint is
    identical, or there are too few for the requested k range.
    """
    return ClusterModel(
        k=1,
        centroids=points[:1].copy(),
        assignments=np.zeros(len(points), dtype=np.int64),
        silhouette_score=float("nan"),
        degenerate=True,
    )


def cluster_scaffolds(
    fps: Sequence[Fingerprint],
    k_range: Sequence[int] | None = None,
    seed: int = 0,
) -> ClusterModel:
    """Cluster scaffold fingerprints, selecting k by mean silhouette.

    Needs at least three fingerprints. When every fingerprint is identical
    no clustering is meaningful, so a flagged single-cluster model comes
    back instead. A k above the number of distinct fingerprints is skipped,
    since it would leave a cluster empty.
    """
    if len(fps) < 3:
        raise ValueError("clustering needs at least three fingerprints")
    points = fingerprint_matrix(fps)
    m = len(points)
    if k_range is None:
        k_range = range(2, min(20, m - 1) + 1)
    ks = sorted(set(int(k) for k in k_range))
    if not ks or ks[0] < 2 or ks[-1] > m - 1:
        raise ValueError(f"k_range must lie within [2, {m - 1}]")

    if (points == points[0]).all():
        return single_cluster(points)

    distinct = _distinct_rows(points)
    n_distinct = len(distinct[0])
    root = np.random.SeedSequence(seed)
    best: tuple[float, int, np.ndarray, np.ndarray] | None = None
    for k, child in zip(ks, root.spawn(len(ks))):
        if k > n_distinct:
            break
        centers, labels = _kmeans(*distinct, k, child)
        if len(np.unique(labels)) < 2:
            continue
        score = silhouette(points, labels)
        # Ties prefer the smaller k.
        if best is None or score > best[0] + 1e-12:
            best = (score, k, centers, labels)
    if best is None:
        raise ValueError(
            f"no k in k_range up to the {n_distinct} distinct fingerprints "
            "produced two nonempty clusters"
        )
    score, k, centers, labels = best
    return ClusterModel(k, centers, labels.astype(np.int64), silhouette_score=score)


def sampling_weights(model: ClusterModel, epsilon: float = WEIGHT_EPSILON) -> SamplingWeights:
    """Inverse-size cluster weights, normalized to a distribution.

    Smaller clusters strictly outweigh larger ones; the epsilon only guards
    the division.
    """
    counts = model.cluster_sizes
    if (counts == 0).any():
        raise ValueError("every cluster must be nonempty")
    weights = 1.0 / (counts + epsilon)
    probabilities = weights / weights.sum()
    return SamplingWeights(counts=counts, weights=weights, probabilities=probabilities)


def sample_library(
    scaffolds: Sequence[MolGraph],
    model: ClusterModel,
    weights: SamplingWeights,
    n_draws: int,
    seed: int = 0,
    source_labels: Sequence[int] | None = None,
) -> ScaffoldLibrary:
    """Draw ``n_draws`` scaffolds with replacement, cluster-weighted.

    ``scaffolds`` must align with ``model.assignments``.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be at least 1")
    if len(scaffolds) != len(model.assignments):
        raise ValueError("scaffolds and assignments are misaligned")
    labels = list(source_labels) if source_labels is not None else [1] * len(scaffolds)
    members = [np.flatnonzero(model.assignments == c) for c in range(model.k)]
    rng = np.random.default_rng(seed)
    clusters = rng.choice(model.k, size=n_draws, p=weights.probabilities)
    entries = []
    for c in clusters:
        pick = int(members[c][rng.integers(len(members[c]))])
        entries.append(
            LibraryEntry(
                scaffold=scaffolds[pick],
                cluster_id=int(c),
                source_label=labels[pick],
                source_index=pick,
            )
        )
    return ScaffoldLibrary(entries=tuple(entries))


def write_library_csv(path, library: ScaffoldLibrary) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["scaffold_smiles", "cluster_id", "source_label"])
        strings: dict[MolGraph, str] = {}  # equal scaffolds are serialized once
        for entry in library.entries:
            if (smiles := strings.get(entry.scaffold)) is None:
                smiles = strings[entry.scaffold] = to_smiles(entry.scaffold)
            writer.writerow([smiles, entry.cluster_id, entry.source_label])
