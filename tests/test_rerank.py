from __future__ import annotations

import math

import numpy as np
import pytest

from scaffscreen.chem import parse_smiles
from scaffscreen import rerank
from scaffscreen.fingerprints import Fingerprint, ecfp, tanimoto, tanimoto_matrix
from scaffscreen.metrics import DegenerateLabels, RankedList, pairwise_mean_tanimoto
from scaffscreen.rerank import (
    EmptyCandidates,
    build_candidates,
    candidate_fingerprint,
    lambda_sweep,
    mmr_rerank,
    rerank_report,
    write_sweep_csv,
)
from scaffscreen.chem.scaffold import murcko_scaffold

from helpers import reference_similarity as reference


def _fp(positions, nbits=64) -> Fingerprint:
    bits = 0
    for p in positions:
        bits |= 1 << int(p)
    return Fingerprint(bits=bits, nbits=nbits, radius=2)


def fps_by_id(ids, fps):
    """The fingerprint function ``build_candidates`` takes, over ``fps`` aligned with ``ids``."""
    table = dict(zip(ids, fps))
    return lambda kept: [table[record_id] for record_id in kept]


# Three candidates with sigmoid scores 0.9, 0.8, 0.7 and pairwise scaffold
# similarities sim(1,2)=0.9, sim(1,3)=0.1, sim(2,3)=0.2, realized exactly
# by bit counts: |18 & 20|/|18 | 20| = 18/20 and so on.
TRACE_FPS = (_fp(range(18)), _fp(range(20)), _fp({0, 1, 18, 19}))
TRACE_SCORES = (math.log(9.0), math.log(4.0), math.log(7.0 / 3.0))


def _trace_candidates():
    ids = ("c1", "c2", "c3")
    return build_candidates(ids, TRACE_SCORES, fps_by_id(ids, TRACE_FPS))


def test_trace_fixture_has_the_intended_geometry():
    assert tanimoto(TRACE_FPS[0], TRACE_FPS[1]) == pytest.approx(0.9, abs=1e-15)
    assert tanimoto(TRACE_FPS[0], TRACE_FPS[2]) == pytest.approx(0.1, abs=1e-15)
    assert tanimoto(TRACE_FPS[1], TRACE_FPS[2]) == pytest.approx(0.2, abs=1e-15)
    relevance = [1.0 / (1.0 + math.exp(-s)) for s in TRACE_SCORES]
    assert relevance == pytest.approx([0.9, 0.8, 0.7], abs=1e-12)


def test_greedy_selection_traced_by_hand():
    # Seed: c1 (relevance 0.9), objective 0.5 * 0.9 = 0.45.
    # Step 2: c2 scores 0.5*0.8 - 0.5*0.9 = -0.05, c3 scores
    #         0.5*0.7 - 0.5*0.1 = 0.30, so c3 is taken.
    # Step 3: c2 keeps max similarity 0.9, objective -0.05.
    reranked = mmr_rerank(_trace_candidates(), lam=0.5)
    assert reranked.ids == ("c1", "c3", "c2")
    assert reranked.objective == pytest.approx([0.45, 0.30, -0.05], abs=1e-12)


def test_lambda_one_reproduces_score_order():
    reranked = mmr_rerank(_trace_candidates(), lam=1.0)
    assert reranked.ids == ("c1", "c2", "c3")
    rng = np.random.default_rng(4)
    for _ in range(20):
        size = int(rng.integers(2, 12))
        ids = tuple(f"m{i}" for i in range(size))
        scores = tuple(float(s) for s in rng.uniform(0.1, 5.0, size=size))
        fps = tuple(_fp(rng.choice(64, size=6, replace=False)) for _ in range(size))
        candidates = build_candidates(ids, scores, fps_by_id(ids, fps))
        assert mmr_rerank(candidates, lam=1.0).ids == candidates.ids


def test_first_pick_ignores_lambda():
    candidates = _trace_candidates()
    firsts = {mmr_rerank(candidates, lam).ids[0] for lam in (0.0, 0.25, 0.5, 0.75, 1.0)}
    assert firsts == {"c1"}


def test_rerank_returns_a_permutation():
    rng = np.random.default_rng(9)
    for lam in (0.0, 0.3, 0.7):
        size = int(rng.integers(3, 10))
        ids = tuple(f"m{i}" for i in range(size))
        scores = tuple(float(s) for s in rng.uniform(0.1, 3.0, size=size))
        fps = tuple(_fp(rng.choice(64, size=5, replace=False)) for _ in range(size))
        candidates = build_candidates(ids, scores, fps_by_id(ids, fps))
        reranked = mmr_rerank(candidates, lam)
        assert sorted(reranked.ids) == sorted(candidates.ids)
        assert len(reranked.objective) == size


def test_objective_ties_break_by_score_then_position():
    # Both followers are entirely dissimilar to the seed, tying the
    # diversity term at zero; the higher raw score must come first.
    fps = (_fp({0, 1}), _fp({10, 11}), _fp({20, 21}))
    ids = ("seed", "low", "high")
    candidates = build_candidates(ids, (3.0, 0.5, 1.0), fps_by_id(ids, fps))
    assert mmr_rerank(candidates, lam=0.0).ids == ("seed", "high", "low")
    # Identical scores as well: input order decides.
    fps = (_fp({0, 1}), _fp({10, 11}), _fp({20, 21}))
    ids = ("seed", "first", "second")
    candidates = build_candidates(ids, (3.0, 1.0, 1.0), fps_by_id(ids, fps))
    assert mmr_rerank(candidates, lam=0.0).ids == ("seed", "first", "second")


def test_lambda_bounds_are_checked():
    candidates = _trace_candidates()
    with pytest.raises(ValueError):
        mmr_rerank(candidates, lam=-0.1)
    with pytest.raises(ValueError):
        mmr_rerank(candidates, lam=1.1)


# --- candidate construction ---------------------------------------------


def test_candidates_keep_only_positive_scores():
    ids = ("a", "b", "c", "d")
    fps = fps_by_id(ids, (_fp({i}) for i in range(4)))
    candidates = build_candidates(ids, (1.2, 0.0, -0.5, 2.0), fps)
    assert candidates.ids == ("d", "a")
    assert candidates.scores.tolist() == [2.0, 1.2]


def test_candidates_sort_stably_and_cap():
    ids = ("a", "b", "c", "d", "e")
    fps = fps_by_id(ids, (_fp({i}) for i in range(5)))
    candidates = build_candidates(ids, (1.0, 3.0, 1.0, 2.0, 1.0), fps, cap=4)
    assert candidates.ids == ("b", "d", "a", "c")
    assert candidates.size == 4


def test_a_fingerprint_function_is_called_only_for_kept_candidates():
    ids = ("a", "b", "c", "d", "e")
    scores = (1.0, 3.0, -1.0, 2.0, 1.0)
    fps = dict(zip(ids, (_fp({i}) for i in range(5))))
    asked = []

    def fingerprint_of(record_ids):
        asked.append(tuple(record_ids))
        return [fps[record_id] for record_id in record_ids]

    candidates = build_candidates(ids, scores, fingerprint_of, cap=3)
    assert candidates.ids == ("b", "d", "a")
    assert candidates.scores.tolist() == [3.0, 2.0, 1.0]
    assert candidates.fingerprints == (fps["b"], fps["d"], fps["a"])
    assert asked == [("b", "d", "a")]

    asked.clear()
    with pytest.raises(EmptyCandidates, match="no positive scores"):
        build_candidates(ids, (-1.0,) * 5, fingerprint_of)
    assert asked == []


def test_candidate_validation():
    fps = fps_by_id(("a", "b"), (_fp({0}), _fp({1})))
    with pytest.raises(EmptyCandidates):
        build_candidates(("a",), (-1.0,), fps)
    with pytest.raises(ValueError, match="ids and scores must align"):
        build_candidates(("a", "b"), (1.0,), fps)
    with pytest.raises(ValueError):
        build_candidates(("a",), (1.0,), fps, cap=0)


def test_singleton_candidate_set():
    candidates = build_candidates(("only",), (2.0,), fps_by_id(("only",), (_fp({0}),)))
    reranked = mmr_rerank(candidates, lam=0.5)
    assert reranked.ids == ("only",)
    assert reranked.objective == pytest.approx([0.5 / (1.0 + math.exp(-2.0))])


def test_candidate_fingerprint_modes():
    mol = parse_smiles("CCc1ccccc1")
    scaffold_fp = candidate_fingerprint(mol, nbits=256)
    assert scaffold_fp == ecfp(murcko_scaffold(mol), nbits=256)
    assert scaffold_fp != ecfp(mol, nbits=256)


# --- reports ------------------------------------------------------------


def _report_fixture():
    """Two high-scoring same-scaffold hits ahead of two fresh scaffolds."""
    fps = (_fp({0, 1, 2}), _fp({0, 1, 2}), _fp({10, 11, 12}), _fp({20, 21, 22}))
    ids = ("dup1", "dup2", "fresh1", "fresh2")
    scores = (3.0, 2.5, 2.0, 1.5)
    records = [(i, s, 1) for i, s in zip(ids, scores)]
    records += [("miss1", -1.0, 0), ("miss2", -2.0, 0)]
    original = RankedList.from_records(records)
    return original, build_candidates(ids, scores, fps_by_id(ids, fps))


def test_rerank_lifts_scaffold_diversity_at_fixed_depth():
    original, candidates = _report_fixture()
    report = rerank_report(original, mmr_rerank(candidates, lam=0.5), k=3)
    # Score order fills the top three with a duplicated scaffold; the
    # reranked order replaces the duplicate with a fresh one.
    assert report.sd_before == pytest.approx(1.0 - 1.0 / 3.0)
    assert report.sd_after == pytest.approx(1.0)
    assert report.sd_after > report.sd_before
    # Every candidate is an active, so enrichment is unchanged.
    assert report.ef_before == pytest.approx((3 / 3) / (4 / 6))
    assert report.ef_after == report.ef_before
    assert report.lam == 0.5


def test_report_validation():
    original, candidates = _report_fixture()
    reranked = mmr_rerank(candidates, lam=0.5)
    with pytest.raises(ValueError):
        rerank_report(original, reranked, k=10)
    no_actives = RankedList.from_records(
        [("dup1", 3.0, 0), ("dup2", 2.5, 0), ("fresh1", 2.0, 0), ("fresh2", 1.5, 0)]
    )
    with pytest.raises(DegenerateLabels):
        rerank_report(no_actives, reranked, k=3)


def test_lambda_sweep_and_csv_layout(tmp_path):
    original, candidates = _report_fixture()
    reports = lambda_sweep(original, candidates, lambdas=(0.0, 0.5, 1.0), k=3)
    assert [r.lam for r in reports] == [0.0, 0.5, 1.0]
    # lambda = 1 reproduces the before-order, so the paired columns agree.
    assert reports[2].ef_after == reports[2].ef_before
    assert reports[2].sd_after == pytest.approx(reports[2].sd_before)

    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, reports)
    lines = path.read_text().splitlines()
    assert lines[0] == "lambda,ef100_before,ef100_after,sd100_before,sd100_after"
    assert len(lines) == 4
    for line, report in zip(lines[1:], reports):
        lam, ef_b, ef_a, sd_b, sd_a = line.split(",")
        assert float(lam) == report.lam
        assert float(ef_b) == pytest.approx(report.ef_before, abs=1e-6)
        assert float(ef_a) == pytest.approx(report.ef_after, abs=1e-6)
        assert float(sd_b) == pytest.approx(report.sd_before, abs=1e-6)
        assert float(sd_a) == pytest.approx(report.sd_after, abs=1e-6)


# --- exactness against the pair-loop reference --------------------------


def _tie_heavy_sets(count: int, seed: int):
    """Candidate sets with repeated scores and repeated or empty fingerprints."""
    rng = np.random.default_rng(seed)
    for n in range(count):
        nbits = (8, 64, 1024)[n % 3]
        size = int(rng.integers(5, 90)) if n % 10 else 160
        pool = [_fp(rng.choice(nbits, size=int(rng.integers(1, 7)), replace=False), nbits)
                for _ in range(int(rng.integers(1, 8)))]
        pool.append(_fp((), nbits))
        ids = tuple(f"m{i}" for i in range(size))
        scores = tuple(float(v) for v in rng.choice([0.25, 0.5, 1.0, 2.0, 3.5], size=size))
        fps = tuple(pool[int(rng.integers(len(pool)))] for _ in range(size))
        labels = rng.integers(0, 2, size=size)
        labels[0] = 1
        records = [(i, s, int(v)) for i, s, v in zip(ids, scores, labels)]
        records += [(f"neg{i}", -1.0, 0) for i in range(size)]
        yield RankedList.from_records(records), build_candidates(ids, scores, fps_by_id(ids, fps))


def test_matrix_rerank_equals_the_pair_loop_at_every_lambda():
    for original, candidates in _tie_heavy_sets(30, seed=21):
        k = min(candidates.size, 25)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0, 0.3):
            fast = mmr_rerank(candidates, lam)
            slow = reference.mmr_rerank(candidates, lam)
            assert fast.ids == slow.ids
            assert fast.objective.tobytes() == slow.objective.tobytes()
            assert rerank_report(original, fast, k=k) == reference.rerank_report(
                original, slow, k=k
            )
        assert pairwise_mean_tanimoto(candidates.fingerprints) == (
            reference.pairwise_mean_tanimoto(candidates.fingerprints)
        )


def test_a_sweep_builds_one_similarity_matrix(monkeypatch):
    built = []

    def counting(fps):
        built.append(len(fps))
        return tanimoto_matrix(fps)

    monkeypatch.setattr(rerank, "tanimoto_matrix", counting)
    original, candidates = _report_fixture()
    lambda_sweep(original, candidates, k=3)
    lambda_sweep(original, candidates, k=2)
    assert built == [4]
