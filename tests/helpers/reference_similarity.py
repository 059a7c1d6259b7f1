"""Pair-loop similarity and per-point k-means, kept as exactness references.

These are the implementations that ``metrics.pairwise_mean_tanimoto``,
``rerank.mmr_rerank``, ``rerank.rerank_report``, the k-means of
``sampling`` and ``sampling.silhouette`` replaced: one ``tanimoto`` call per
pair, Lloyd's iterations over every point rather than over the distinct
rows, every restart of every k of the range, and one silhouette score per
point. The function bodies are unchanged, so the tests can require the
faster code to give the same bytes.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from scaffscreen.fingerprints import Fingerprint, fingerprint_matrix, tanimoto
from scaffscreen.metrics import DegenerateLabels, RankedList
from scaffscreen.rerank import CandidateSet, LambdaReport, RerankedSet, check_lambda
from scaffscreen.sampling import (
    KMEANS_MAX_ITER,
    KMEANS_RESTARTS,
    KMEANS_TOL,
    ClusterModel,
    single_cluster,
)
from scaffscreen.sampling import silhouette as _fast_silhouette


def pairwise_mean_tanimoto(fps: Sequence[Fingerprint]) -> float:
    """Mean Tanimoto over all unordered pairs; needs at least two entries."""
    k = len(fps)
    if k < 2:
        raise ValueError("need at least two fingerprints")
    total = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            total += tanimoto(fps[i], fps[j])
    return total / (k * (k - 1) / 2)


def mmr_rerank(candidates: CandidateSet, lam: float) -> RerankedSet:
    """Greedy maximal-marginal-relevance ordering of the candidate set."""
    check_lambda(lam)
    size = candidates.size
    relevance = np.array([1.0 / (1.0 + math.exp(-s)) for s in candidates.scores])
    remaining = list(range(size))
    max_sim = np.zeros(size)
    order: list[int] = []
    objective: list[float] = []

    # Seed with the highest raw score; candidates are already sorted with
    # deterministic tie-breaks, so that is position 0.
    def take(pos_in_remaining: int, value: float) -> None:
        chosen = remaining.pop(pos_in_remaining)
        order.append(chosen)
        objective.append(value)
        for k in remaining:
            sim = tanimoto(candidates.fingerprints[chosen], candidates.fingerprints[k])
            if sim > max_sim[k]:
                max_sim[k] = sim

    take(0, float(lam * relevance[0]))
    while remaining:
        best_pos = 0
        best_key: tuple[float, float, int] | None = None
        for pos, k in enumerate(remaining):
            value = lam * relevance[k] - (1.0 - lam) * max_sim[k]
            # Higher objective, then higher raw score, then earlier input position.
            key = (value, candidates.scores[k], -k)
            if best_key is None or key > best_key:
                best_key = key
                best_pos = pos
        assert best_key is not None
        take(best_pos, best_key[0])

    return RerankedSet(
        ids=tuple(candidates.ids[k] for k in order),
        objective=np.array(objective),
        lam=lam,
        candidates=candidates,
    )


def _diversity(fps: Sequence[Fingerprint]) -> float:
    return 1.0 - pairwise_mean_tanimoto(fps)


def rerank_report(
    original: RankedList, reranked: RerankedSet, k: int = 100
) -> LambdaReport:
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

    fp_of = dict(zip(candidates.ids, candidates.fingerprints))
    return LambdaReport(
        lam=reranked.lam,
        ef_before=ef_of(candidates.ids),
        ef_after=ef_of(reranked.ids),
        sd_before=_diversity([fp_of[i] for i in candidates.ids[:k]]),
        sd_after=_diversity([fp_of[i] for i in reranked.ids[:k]]),
    )


def _squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _kmeans_plus_plus(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    m = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = rng.integers(m)
    centers[0] = points[first]
    closest = _squared_distances(points, centers[:1])[:, 0]
    for c in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            idx = rng.integers(m)
        else:
            idx = int(np.searchsorted(np.cumsum(closest / total), rng.random()))
            idx = min(idx, m - 1)
        centers[c] = points[idx]
        closest = np.minimum(closest, ((points - centers[c]) ** 2).sum(axis=1))
    return centers


def _lloyd(points: np.ndarray, centers: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, float]:
    k = centers.shape[0]
    for _ in range(KMEANS_MAX_ITER):
        dists = _squared_distances(points, centers)
        labels = dists.argmin(axis=1)
        updated = centers.copy()
        for c in range(k):
            members = points[labels == c]
            if len(members):
                updated[c] = members.mean(axis=0)
            else:
                # Re-seed an emptied cluster with the point farthest from
                # its current assignment.
                worst = int(dists.min(axis=1).argmax())
                updated[c] = points[worst]
        shift = np.sqrt(((updated - centers) ** 2).sum(axis=1)).max()
        centers = updated
        if shift < KMEANS_TOL:
            break
    dists = _squared_distances(points, centers)
    labels = dists.argmin(axis=1)
    inertia = float(dists[np.arange(len(points)), labels].sum())
    return centers, labels, inertia


def _kmeans(points: np.ndarray, k: int, seed_seq: np.random.SeedSequence) -> tuple[np.ndarray, np.ndarray]:
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for child in seed_seq.spawn(KMEANS_RESTARTS):
        rng = np.random.default_rng(child)
        centers = _kmeans_plus_plus(points, k, rng)
        centers, labels, inertia = _lloyd(points, centers, rng)
        if best is None or inertia < best[0]:
            best = (inertia, centers, labels)
    assert best is not None
    return best[1], best[2]


def silhouette(points: np.ndarray, assignments: np.ndarray) -> float:
    """Mean silhouette over all points; singleton clusters score zero."""
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
    sizes = masks.sum(axis=1).tolist()
    scores = np.zeros(m)
    for i in range(m):
        own = cluster_of[i]
        if sizes[own] == 1:
            scores[i] = 0.0
            continue
        a = dists[i, masks[own]].sum() / (sizes[own] - 1)
        b = min(dists[i, mask].mean() for c, mask in enumerate(masks) if c != own)
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(scores.mean())


def cluster_scaffolds(
    fps: Sequence[Fingerprint],
    k_range: Sequence[int] | None = None,
    seed: int = 0,
) -> ClusterModel:
    """k by mean silhouette over every k of the range, each with all its restarts."""
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

    root = np.random.SeedSequence(seed)
    best: tuple[float, int, np.ndarray, np.ndarray] | None = None
    for k, child in zip(ks, root.spawn(len(ks))):
        centers, labels = _kmeans(points, k, child)
        if len(np.unique(labels)) < 2:
            continue
        score = _fast_silhouette(points, labels)
        # Ties prefer the smaller k.
        if best is None or score > best[0] + 1e-12:
            best = (score, k, centers, labels)
    if best is None:
        raise ValueError("no k in k_range produced two nonempty clusters")
    score, k, centers, labels = best
    return ClusterModel(k, centers, labels.astype(np.int64), silhouette_score=score)
