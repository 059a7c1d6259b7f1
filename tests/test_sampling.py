from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from scaffscreen.chem import parse_smiles, to_smiles
from scaffscreen import sampling
from scaffscreen.fingerprints import Fingerprint, ecfp, fingerprint_matrix
from scaffscreen.sampling import (
    ClusterModel,
    ScaffoldLibrary,
    cluster_scaffolds,
    sample_library,
    sampling_weights,
    silhouette,
    write_library_csv,
)

from helpers import reference_similarity as reference


def _fp(positions, nbits=64) -> Fingerprint:
    bits = 0
    for p in positions:
        bits |= 1 << p
    return Fingerprint(bits=bits, nbits=nbits, radius=2)


def _model(assignments, k) -> ClusterModel:
    assignments = np.asarray(assignments, dtype=np.int64)
    return ClusterModel(
        k=k,
        centroids=np.zeros((k, 4)),
        assignments=assignments,
        silhouette_score=0.5,
    )


# --- silhouette ---------------------------------------------------------


def test_silhouette_hand_computed_three_clusters():
    # Six points on a line, clustered in pairs. Every a and b below is
    # worked out longhand from pairwise distances.
    points = np.array([[0.0], [1.0], [10.0], [11.0], [20.0], [22.0]])
    labels = np.array([0, 0, 1, 1, 2, 2])
    expected = np.mean(
        [
            (10.5 - 1.0) / 10.5,  # x=0:  a=1,  b=min((10+11)/2, (20+22)/2)
            (9.5 - 1.0) / 9.5,    # x=1:  a=1,  b=min((9+10)/2, (19+21)/2)
            (9.5 - 1.0) / 9.5,    # x=10: a=1,  b=min((10+9)/2, (10+12)/2)
            (10.0 - 1.0) / 10.0,  # x=11: a=1,  b=min((11+10)/2, (9+11)/2)
            (9.5 - 2.0) / 9.5,    # x=20: a=2,  b=min((20+19)/2, (10+9)/2)
            (11.5 - 2.0) / 11.5,  # x=22: a=2,  b=min((22+21)/2, (12+11)/2)
        ]
    )
    assert silhouette(points, labels) == pytest.approx(expected, abs=1e-12)


def test_silhouette_singleton_scores_zero():
    points = np.array([[0.0], [0.5], [10.0]])
    labels = np.array([0, 0, 1])
    expected = ((10.0 - 0.5) / 10.0 + (9.5 - 0.5) / 9.5 + 0.0) / 3
    assert silhouette(points, labels) == pytest.approx(expected, abs=1e-12)


def test_silhouette_rejects_degenerate_input():
    with pytest.raises(ValueError):
        silhouette(np.array([[0.0]]), np.array([0]))
    with pytest.raises(ValueError):
        silhouette(np.array([[0.0], [1.0]]), np.array([0, 0]))


def test_silhouette_perfect_separation_scores_one():
    points = np.array([[0.0, 0.0], [0.0, 0.0], [9.0, 9.0], [9.0, 9.0]])
    labels = np.array([0, 0, 1, 1])
    assert silhouette(points, labels) == pytest.approx(1.0)


# --- clustering ---------------------------------------------------------

BLOB_A = [_fp({0, 1, 2}), _fp({0, 1, 3}), _fp({0, 2, 3})]
BLOB_B = [_fp({40, 41, 42}), _fp({40, 41, 43}), _fp({40, 42, 43})]


def test_two_blobs_are_recovered():
    model = cluster_scaffolds(BLOB_A + BLOB_B, k_range=[2, 3], seed=0)
    assert model.k == 2
    assert not model.degenerate
    a = set(model.assignments[:3])
    b = set(model.assignments[3:])
    assert len(a) == 1 and len(b) == 1 and a != b
    assert sorted(model.cluster_sizes.tolist()) == [3, 3]


def test_reported_silhouette_matches_recomputation():
    fps = BLOB_A + BLOB_B
    model = cluster_scaffolds(fps, k_range=[2, 3], seed=0)
    points = fingerprint_matrix(fps)
    assert model.silhouette_score == pytest.approx(
        silhouette(points, model.assignments), abs=1e-12
    )


def test_clustering_is_deterministic():
    first = cluster_scaffolds(BLOB_A + BLOB_B, k_range=[2, 3, 4], seed=11)
    second = cluster_scaffolds(BLOB_A + BLOB_B, k_range=[2, 3, 4], seed=11)
    assert first.k == second.k
    assert (first.assignments == second.assignments).all()
    assert first.silhouette_score == second.silhouette_score


def _row_by_row_silhouette(points, assignments):
    """Reference silhouette: distances as differences, one row at a time."""
    labels = np.unique(assignments)
    scores = []
    for i, own in enumerate(assignments):
        diff = points - points[i]
        dists = np.sqrt((diff * diff).sum(axis=1))
        mask_own = assignments == own
        if mask_own.sum() == 1:
            scores.append(0.0)
            continue
        a = dists[mask_own].sum() / (mask_own.sum() - 1)
        b = min(dists[assignments == other].mean() for other in labels if other != own)
        denom = max(a, b)
        scores.append(0.0 if denom == 0.0 else (b - a) / denom)
    return float(np.mean(scores))


def test_k_selection_runs_in_bounded_memory_and_picks_the_same_k(monkeypatch):
    rng = np.random.default_rng(5)
    fps = [
        Fingerprint(bits=int.from_bytes(row.tobytes(), "little"), nbits=1024, radius=2)
        for row in np.packbits(rng.random((150, 1024)) < 0.05, axis=1, bitorder="little")
    ]
    tracemalloc.start()
    try:
        model = cluster_scaffolds(fps, k_range=range(2, 5), seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One (150, 150, 1024) float64 broadcast alone would be 184 MB.
    assert peak < 20 * 2**20

    monkeypatch.setattr(sampling, "silhouette", _row_by_row_silhouette)
    reference = cluster_scaffolds(fps, k_range=range(2, 5), seed=3)
    assert model.k == reference.k
    assert model.silhouette_score == reference.silhouette_score
    assert np.array_equal(model.assignments, reference.assignments)


def test_silhouette_equals_the_row_by_row_form_exactly():
    # Singletons, empty label gaps and ties between clusters included.
    rng = np.random.default_rng(23)
    for n in range(40):
        m = int(rng.integers(3, 60))
        points = (rng.random((m, 64)) < 0.1).astype(np.float64)
        assignments = rng.integers(0, int(rng.integers(2, 8)), size=m) * 3
        if len(np.unique(assignments)) < 2:
            continue
        assert silhouette(points, assignments) == _row_by_row_silhouette(points, assignments)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(2, 120),
    width=st.integers(1, 256),
    density=st.floats(0.0, 0.5),
    n_labels=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_silhouette_equals_the_per_point_form_bit_for_bit(m, width, density, n_labels, seed):
    # Singletons, clusters of equal points and label gaps all occur.
    rng = np.random.default_rng(seed)
    points = (rng.random((m, width)) < density).astype(np.float64)
    assignments = rng.integers(0, n_labels, size=m) * 2
    assignments[:2] = (0, 2)
    assert silhouette(points, assignments) == reference.silhouette(points, assignments)


def _fingerprints(rows: np.ndarray) -> list[Fingerprint]:
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [
        Fingerprint(bits=int.from_bytes(row.tobytes(), "little"), nbits=rows.shape[1], radius=2)
        for row in packed
    ]


def _head_heavy(rng, m: int, n_distinct: int, nbits: int) -> np.ndarray:
    """m rows drawn from n_distinct patterns, a few of them covering most rows."""
    patterns = rng.random((n_distinct, nbits)) < 0.08
    weights = 1.0 / np.arange(1, n_distinct + 1) ** 2
    return patterns[rng.choice(n_distinct, size=m, p=weights / weights.sum())]


def test_distinct_row_kmeans_equals_the_per_point_reference(monkeypatch):
    rng = np.random.default_rng(17)
    cases = []
    for n in range(24):
        nbits = (64, 256, 1024)[n % 3]
        m = int(rng.integers(6, 90))
        if n % 2:
            rows = rng.random((m, nbits)) < 0.08  # (almost surely) all distinct
        else:
            rows = _head_heavy(rng, m, int(rng.integers(2, 18)), nbits)
        cases.append((_fingerprints(rows), n))
    for fps, seed in cases:
        points = fingerprint_matrix(fps)
        distinct = sampling._distinct_rows(points)
        for k in (2, 3, 7):
            if k < len(fps):
                ours = sampling._kmeans(*distinct, k, np.random.SeedSequence(seed))
                theirs = reference._kmeans(points, k, np.random.SeedSequence(seed))
                assert ours[0].tobytes() == theirs[0].tobytes()
                assert np.array_equal(ours[1], theirs[1])
    models = [cluster_scaffolds(fps, k_range=range(2, 6), seed=seed) for fps, seed in cases]
    monkeypatch.setattr(sampling, "_distinct_rows", lambda points: (points,))
    monkeypatch.setattr(sampling, "_kmeans", reference._kmeans)
    for (fps, seed), model in zip(cases, models):
        expected = cluster_scaffolds(fps, k_range=range(2, 6), seed=seed)
        assert model.k == expected.k
        assert model.centroids.tobytes() == expected.centroids.tobytes()
        assert np.array_equal(model.assignments, expected.assignments)
        assert model.silhouette_score == expected.silhouette_score


def _head_heavy_cases(seed: int, n_cases: int) -> list[tuple[list[Fingerprint], int]]:
    rng = np.random.default_rng(seed)
    cases = []
    for n in range(n_cases):
        nbits = (64, 256, 1024)[n % 3]
        rows = _head_heavy(rng, int(rng.integers(6, 60)), int(rng.integers(2, 12)), nbits)
        cases.append((_fingerprints(rows), n))
    return cases


def _four_scaffolds(nbits: int) -> np.ndarray:
    """20 rows of four distinct patterns, 12/4/2/2, like a deck-2k training fold."""
    patterns = np.random.default_rng(4).random((4, nbits)) < 0.2
    assert len(np.unique(patterns, axis=0)) == 4
    return np.repeat(patterns, [12, 4, 2, 2], axis=0)


def test_k_scan_stops_at_the_distinct_row_count(monkeypatch):
    rows = _four_scaffolds(1024)
    n_distinct = 4
    ks, lloyd_runs = [], []
    kmeans, lloyd = sampling._kmeans, sampling._lloyd

    def counting_kmeans(rows, inverse, counts, k, seed):
        ks.append(k)
        lloyd_runs.append(0)
        return kmeans(rows, inverse, counts, k, seed)

    def counting_lloyd(*args):
        lloyd_runs[-1] += 1
        return lloyd(*args)

    monkeypatch.setattr(sampling, "_kmeans", counting_kmeans)
    monkeypatch.setattr(sampling, "_lloyd", counting_lloyd)
    model = cluster_scaffolds(_fingerprints(rows), seed=9)
    assert ks == list(range(2, n_distinct + 1))
    # At k = 4 the first restart puts a center on every distinct row.
    assert lloyd_runs[-1] == 1
    assert (model.cluster_sizes > 0).all()


def test_bounded_k_scan_equals_the_full_scan():
    for fps, seed in _head_heavy_cases(31, 12):
        ours = cluster_scaffolds(fps, seed=seed)
        theirs = reference.cluster_scaffolds(fps, seed=seed)
        assert ours.k == theirs.k
        assert ours.centroids.tobytes() == theirs.centroids.tobytes()
        assert np.array_equal(ours.assignments, theirs.assignments)
        assert ours.silhouette_score == theirs.silhouette_score


def test_k_range_above_the_distinct_rows_is_rejected():
    rows = _four_scaffolds(64)
    with pytest.raises(ValueError, match="up to the 4 distinct fingerprints"):
        cluster_scaffolds(_fingerprints(rows), k_range=[5, 6], seed=0)


def test_clustering_a_thousand_distinct_scaffolds_stays_under_50_mb():
    # One (1000, 20, 1024) float64 difference broadcast alone is 164 MB.
    rng = np.random.default_rng(8)
    centers = rng.random((20, 1024)) < 0.05
    rows = centers[np.arange(1000) % 20] ^ (rng.random((1000, 1024)) < 0.01)
    assert len(np.unique(rows, axis=0)) == 1000
    fps = _fingerprints(rows)
    tracemalloc.start()
    try:
        model = cluster_scaffolds(fps, k_range=[2, 20], seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.k == 20
    assert peak < 50 * 2**20


def test_identical_fingerprints_fall_back_to_one_cluster():
    fps = [_fp({1, 2, 3})] * 5
    model = cluster_scaffolds(fps, k_range=[2, 3], seed=0)
    assert model.degenerate
    assert model.k == 1
    assert (model.assignments == 0).all()
    assert np.isnan(model.silhouette_score)


def test_clustering_input_validation():
    with pytest.raises(ValueError):
        cluster_scaffolds(BLOB_A[:2], k_range=[2], seed=0)
    with pytest.raises(ValueError):
        cluster_scaffolds(BLOB_A + BLOB_B, k_range=[1, 2], seed=0)
    with pytest.raises(ValueError):
        cluster_scaffolds(BLOB_A + BLOB_B, k_range=[2, 6], seed=0)
    with pytest.raises(ValueError):
        cluster_scaffolds(BLOB_A + BLOB_B, k_range=[], seed=0)


# --- weights ------------------------------------------------------------


def test_inverse_size_weights_on_three_one_split():
    # Cluster sizes 3 and 1: weights 1/3 and 1, so probabilities 0.25, 0.75.
    weights = sampling_weights(_model([0, 0, 0, 1], k=2))
    assert weights.counts.tolist() == [3, 1]
    assert weights.probabilities[0] == pytest.approx(0.25, rel=1e-6)
    assert weights.probabilities[1] == pytest.approx(0.75, rel=1e-6)
    assert weights.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_smaller_clusters_strictly_outweigh_larger():
    model = _model([0] * 5 + [1] * 2 + [2] * 9 + [3] * 1, k=4)
    probs = sampling_weights(model).probabilities
    counts = np.array([5, 2, 9, 1])
    order = np.argsort(counts)
    assert (np.diff(probs[order]) < 0).all()


def test_weights_reject_empty_clusters():
    with pytest.raises(ValueError):
        sampling_weights(_model([0, 0, 2], k=3))


# --- sampling -----------------------------------------------------------

SCAFFOLD_POOL = [
    parse_smiles("c1ccccc1"),
    parse_smiles("c1ccncc1"),
    parse_smiles("C1CCCCC1"),
    parse_smiles("c1ccoc1"),
]


def test_draw_frequencies_match_inverse_size_distribution():
    model = _model([0, 0, 0, 1], k=2)
    weights = sampling_weights(model)
    library = sample_library(SCAFFOLD_POOL, model, weights, n_draws=20000, seed=5)
    observed = np.zeros(4)
    for entry in library.entries:
        observed[entry.source_index] += 1
    # Cluster draws follow [0.25, 0.75]; within cluster 0 each of the three
    # members carries 0.25 / 3.
    expected = 20000 * np.array([0.25 / 3, 0.25 / 3, 0.25 / 3, 0.75])
    result = stats.chisquare(observed, expected)
    assert result.pvalue > 0.001


def test_library_entries_are_consistent():
    model = _model([0, 0, 0, 1], k=2)
    weights = sampling_weights(model)
    library = sample_library(SCAFFOLD_POOL, model, weights, n_draws=50, seed=3)
    assert library.size == 50
    for entry in library.entries:
        assert model.assignments[entry.source_index] == entry.cluster_id
        assert entry.scaffold == SCAFFOLD_POOL[entry.source_index]
    counts = library.cluster_counts(2)
    assert counts.sum() == 50


def test_sampling_is_seed_deterministic():
    model = _model([0, 0, 0, 1], k=2)
    weights = sampling_weights(model)
    first = sample_library(SCAFFOLD_POOL, model, weights, n_draws=40, seed=9)
    second = sample_library(SCAFFOLD_POOL, model, weights, n_draws=40, seed=9)
    third = sample_library(SCAFFOLD_POOL, model, weights, n_draws=40, seed=10)
    assert [e.source_index for e in first.entries] == [e.source_index for e in second.entries]
    assert [e.source_index for e in first.entries] != [e.source_index for e in third.entries]


def test_sampling_input_validation():
    model = _model([0, 0, 0, 1], k=2)
    weights = sampling_weights(model)
    with pytest.raises(ValueError):
        sample_library(SCAFFOLD_POOL, model, weights, n_draws=0, seed=0)
    with pytest.raises(ValueError):
        sample_library(SCAFFOLD_POOL[:3], model, weights, n_draws=5, seed=0)


def test_library_csv_layout(tmp_path):
    model = _model([0, 0, 0, 1], k=2)
    weights = sampling_weights(model)
    library = sample_library(SCAFFOLD_POOL, model, weights, n_draws=3, seed=1)
    path = tmp_path / "library.csv"
    write_library_csv(path, library)
    lines = path.read_text().splitlines()
    assert lines[0] == "scaffold_smiles,cluster_id,source_label"
    assert len(lines) == 4
    for line, entry in zip(lines[1:], library.entries):
        smiles, cluster_id, label = line.split(",")
        assert int(cluster_id) == entry.cluster_id
        assert label == "1"
        assert smiles == to_smiles(entry.scaffold)


def test_empty_library_accessors():
    library = ScaffoldLibrary()
    assert library.size == 0
    assert library.cluster_counts(3).tolist() == [0, 0, 0]
