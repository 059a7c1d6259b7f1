"""Release acceptance gate.

Ten end-to-end checks, one test per release criterion. Each test emits a
single ``[tag] PASS/FAIL: detail`` verdict line; run with ``-s`` (or look at
a failure report) to read the details. The checks deliberately rebuild their
expectations from first principles (closed-form baselines, naive summation,
high-precision arithmetic, frozen oracle counts) rather than calling back
into the code under test.
"""

from __future__ import annotations

import json
import time
from collections import Counter

import numpy as np
import pytest
from mpmath import mp
from scipy import stats

from scaffscreen.chem import murcko_scaffold, parse_smiles, to_smiles
from scaffscreen.diffusion import (
    CosineSchedule,
    MarginalDenoiser,
    compute_marginals,
    encode_molecule,
    extend_scaffold,
)
from scaffscreen.diffusion import sampler
from scaffscreen.diffusion.sampler import posterior_distributions
from scaffscreen.fingerprints import Fingerprint
from scaffscreen.metrics import RankedList, bedroc, ef_k, log_auc
from scaffscreen.pipeline.config import RunConfig, resolve_overrides
from scaffscreen.pipeline.ingest import ingest
from scaffscreen.pipeline.runner import augment_split, derive_seed, run_experiment
from scaffscreen.pipeline.splits import make_splits
from scaffscreen.rerank import build_candidates, lambda_sweep, mmr_rerank
from scaffscreen.sampling import ClusterModel, sample_library, sampling_weights
from scaffscreen.selftrain import FingerprintClassifier, predict, pseudo_label

from helpers.chain_stack import split_stack
from helpers.decks import make_benchmark_deck, write_deck_csv
from helpers.reference_selftrain import one_cell_loss_and_grad

pytestmark = pytest.mark.filterwarnings("ignore:.*active fraction.*:UserWarning")


def _verdict(tag: str, ok: bool, detail: str) -> None:
    line = f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def fps_by_id(ids, fps):
    """The fingerprint function ``build_candidates`` takes, over ``fps`` aligned with ``ids``."""
    table = dict(zip(ids, fps))
    return lambda kept: [table[record_id] for record_id in kept]


RING_CORES = [
    "c1ccc2ccccc2c1",
    "c1ccc(Cc2ccccc2)cc1",
    "C1CCc2ccccc2C1",
    "C1Cc2ccccc2C1",
    "c1ccccc1",
    "C1CCCCC1",
    "c1ccncc1",
    "C1CCNCC1",
    "C1CCOCC1",
    "c1ccc(-c2ccccc2)cc1",
]
DECORATED = [
    "Cc1ccccc1",
    "CCC1CCCCC1",
    "NCc1ccncc1",
    "OCC1CCNCC1",
    "CC(C)c1ccncc1",
]
POOL_EXTRAS = [
    "CCc1ccc2ccccc2c1",
    "NC1CCc2ccccc2C1",
    "OC1Cc2ccccc2C1",
    "Clc1ccccc1",
    "FC1CCCCC1",
    "Oc1ccncc1",
    "CC(N)C1CCOCC1",
    "OCc1ccc(-c2ccccc2)cc1",
    "CNC1CCNCC1",
    "CCOC1CCCCC1",
    "Cc1ccncc1",
    "CCCc1ccccc1",
    "NCC1CCCCC1",
    "OC1CCOCC1",
    "CC(O)c1ccc2ccccc2c1",
]


# ---------------------------------------------------------------------------
# random-score baselines
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def random_baselines() -> tuple[list[float], list[float], float]:
    """Metric values for ten uniform-random screens of 100k with 1k actives."""
    labels = np.zeros(100_000, dtype=np.int64)
    labels[:1000] = 1
    ids = [str(i) for i in range(100_000)]
    start = time.perf_counter()
    logaucs, efs = [], []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        scores = rng.random(100_000)
        ranked = RankedList.from_records(zip(ids, scores.tolist(), labels.tolist()))
        logaucs.append(log_auc(ranked, 0.001, 0.1))
        efs.append(ef_k(ranked, 100))
    elapsed = time.perf_counter() - start
    return logaucs, efs, elapsed


def test_random_scores_recover_the_logauc_baseline(random_baselines):
    logaucs, _, elapsed = random_baselines
    mean = float(np.mean(logaucs))
    ok = abs(mean - 0.0215) <= 0.005 and elapsed < 30.0
    _verdict(
        "random-logauc",
        ok,
        f"mean logAUC[0.001,0.1] = {mean:.4f} over 10 seeds "
        f"(target 0.0215 +- 0.005), computed in {elapsed:.1f}s (budget 30s)",
    )


def test_random_scores_recover_unit_enrichment(random_baselines):
    _, efs, _ = random_baselines
    mean = float(np.mean(efs))
    ok = 0.7 <= mean <= 1.3
    _verdict(
        "random-ef100",
        ok,
        f"mean EF@100 = {mean:.3f} over 10 seeds (target [0.7, 1.3])",
    )


# ---------------------------------------------------------------------------
# early-recognition score against independent arithmetic
# ---------------------------------------------------------------------------


def _naive_bedroc(ranks: np.ndarray, n_total: int, alpha: float = 20.0) -> float:
    """Brute-force exponential rank sums, no closed forms."""

    def s(rs) -> float:
        return float(np.sum(np.exp(-alpha * np.asarray(rs, dtype=float) / n_total)))

    n = len(ranks)
    best = s(np.arange(1, n + 1))
    worst = s(np.arange(n_total - n + 1, n_total + 1))
    return (s(ranks) - worst) / (best - worst)


def _mp_bedroc(ranks: list[int], n_total: int, alpha) -> float:
    """The same quantity at 50 significant digits."""

    def s(rs):
        return sum(mp.e ** (-alpha * mp.mpf(r) / n_total) for r in rs)

    n = len(ranks)
    best = s(range(1, n + 1))
    worst = s(range(n_total - n + 1, n_total + 1))
    return float((s(ranks) - worst) / (best - worst))


def test_bedroc_matches_naive_summation():
    perfect = RankedList.from_records(
        (str(i), float(2000 - i), 1 if i < 60 else 0) for i in range(2000)
    )
    inverted = RankedList.from_records(
        (str(i), float(2000 - i), 1 if i >= 1940 else 0) for i in range(2000)
    )
    dev_hi = abs(bedroc(perfect, 20.0) - 1.0)
    dev_lo = abs(bedroc(inverted, 20.0) - 0.0)

    worst_dev = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n_total = int(rng.integers(50, 500))
        n_active = int(rng.integers(2, max(3, n_total // 10)))
        labels = np.zeros(n_total, dtype=np.int64)
        labels[rng.choice(n_total, n_active, replace=False)] = 1
        scores = rng.standard_normal(n_total)
        ranked = RankedList.from_records(
            (str(i), float(s), int(l)) for i, (s, l) in enumerate(zip(scores, labels))
        )
        ranks = np.flatnonzero(np.asarray(ranked.labels) == 1) + 1
        worst_dev = max(worst_dev, abs(bedroc(ranked, 20.0) - _naive_bedroc(ranks, n_total)))

    mp.dps = 50
    small = RankedList.from_records(
        (str(i), float(10 - i), 1 if i in (0, 4) else 0) for i in range(10)
    )
    mp_dev = abs(bedroc(small, 20.0) - _mp_bedroc([1, 5], 10, mp.mpf(20)))

    ok = dev_hi <= 1e-9 and dev_lo <= 1e-9 and worst_dev <= 1e-9 and mp_dev <= 1e-12
    _verdict(
        "bedroc-oracle",
        ok,
        f"extreme deviations ({dev_hi:.1e}, {dev_lo:.1e}) <= 1e-9, "
        f"worst of 100 naive-sum checks {worst_dev:.1e} <= 1e-9, "
        f"50-digit spot check {mp_dev:.1e} <= 1e-12",
    )


# ---------------------------------------------------------------------------
# diversity reranking
# ---------------------------------------------------------------------------


def test_mmr_identity_and_diversity_tradeoff():
    rng = np.random.default_rng(404)
    identity_ok = 0
    for _ in range(100):
        size = int(rng.integers(3, 40))
        scores = rng.permutation(size).astype(float) + 1.0
        fps = [
            Fingerprint(bits=int(rng.integers(1, 2**62)), nbits=64, radius=2)
            for _ in range(size)
        ]
        ids = [f"c{i}" for i in range(size)]
        candidates = build_candidates(ids, scores, fps_by_id(ids, fps), cap=size)
        if list(mmr_rerank(candidates, 1.0).ids) == list(candidates.ids):
            identity_ok += 1

    # A deck whose 150 top-scored candidates all share one substructure
    # pattern while 150 lower-scored ones are pairwise dissimilar. At
    # lambda = 1 the top 100 are all copies; any diversity pressure should
    # displace them.
    nbits = 256
    shared = Fingerprint(bits=(1 << 40) - 1, nbits=nbits, radius=2)
    ids4, scores4, fps4, labels4 = [], [], [], []
    for i in range(150):
        ids4.append(f"d{i:03d}")
        scores4.append(3.0 - 0.01 * i)
        fps4.append(shared)
        labels4.append(1 if i % 10 == 0 else 0)
    for i in range(150):
        ids4.append(f"u{i:03d}")
        scores4.append(1.0 - 0.001 * i)
        fps4.append(Fingerprint(bits=1 << (40 + i), nbits=nbits, radius=2))
        labels4.append(1 if i % 10 == 0 else 0)
    original = RankedList.from_records(zip(ids4, scores4, labels4))
    candidates = build_candidates(ids4, np.asarray(scores4), fps_by_id(ids4, fps4), cap=300)
    half, full = lambda_sweep(original, candidates, (0.5, 1.0), k=100)

    ok = identity_ok == 100 and half.sd_after > full.sd_after
    _verdict(
        "mmr-rerank",
        ok,
        f"lambda=1 preserved score order on {identity_ok}/100 random decks; "
        f"SD@100 {half.sd_after:.3f} (lambda=0.5) > {full.sd_after:.3f} (lambda=1) "
        "on the duplicate-heavy deck",
    )


# ---------------------------------------------------------------------------
# inverse-frequency cluster sampling
# ---------------------------------------------------------------------------


def test_sampling_follows_inverse_frequency_distribution():
    counts = [8, 5, 4, 2, 1]
    model = ClusterModel(
        k=5,
        centroids=np.zeros((5, 8)),
        assignments=np.repeat(np.arange(5), counts),
        silhouette_score=0.5,
    )
    weights = sampling_weights(model)

    ordered = all(
        (weights.probabilities[i] > weights.probabilities[j]) == (counts[i] < counts[j])
        for i in range(5)
        for j in range(5)
        if counts[i] != counts[j]
    )

    benzene = parse_smiles("c1ccccc1")
    library = sample_library([benzene] * 20, model, weights, 100_000, seed=505)
    observed = np.bincount([e.cluster_id for e in library.entries], minlength=5)
    chi = stats.chisquare(observed, f_exp=weights.probabilities * 100_000)

    ok = ordered and chi.pvalue > 0.001
    _verdict(
        "cluster-sampling",
        ok,
        f"probabilities strictly inverse to cluster sizes; chi-square p = "
        f"{chi.pvalue:.3f} > 0.001 over 100k draws (observed {observed.tolist()})",
    )


# ---------------------------------------------------------------------------
# scaffold-anchored generation
# ---------------------------------------------------------------------------


def test_extension_preserves_the_scaffold_at_every_step(monkeypatch):
    molecules = [parse_smiles(s) for s in RING_CORES + DECORATED]
    marginals = compute_marginals(molecules)
    schedule = CosineSchedule(10)
    scaffolds = [parse_smiles(s) for s in RING_CORES]

    steps = 0
    max_dev = 0.0
    anchor_failures = 0
    size_failures = 0
    decoded_extensions = 0

    def record_rows(t, current, pred, prior, schedule):
        nonlocal max_dev
        rows = posterior_distributions(t, current, pred, prior, schedule)
        if rows.size:
            max_dev = max(max_dev, float(np.abs(rows.sum(axis=1) - 1.0).max()))
        return rows

    class AnchorCheckingDenoiser(MarginalDenoiser):
        """Checks every chain's graph the engine asks about, one per reverse step."""

        scaffold = None

        def denoise(self, t, nodes, pairs, sizes):
            nonlocal steps, anchor_failures, size_failures
            anchor_nodes, anchor_pairs = encode_molecule(self.scaffold, marginals)
            n_scaffold = len(anchor_nodes)
            for chain_nodes, chain_pairs in split_stack(nodes, pairs, sizes):
                steps += 1
                _, ju = np.triu_indices(len(chain_nodes), k=1)
                if not (
                    (chain_nodes[:n_scaffold] == anchor_nodes).all()
                    and (chain_pairs[ju < n_scaffold] == anchor_pairs).all()
                ):
                    anchor_failures += 1
                if not len(chain_nodes) > n_scaffold:
                    size_failures += 1
            return super().denoise(t, nodes, pairs, sizes)

    monkeypatch.setattr(sampler, "posterior_distributions", record_rows)
    denoiser = AnchorCheckingDenoiser(marginals)
    for call in range(1000):
        scaffold = denoiser.scaffold = scaffolds[call % len(scaffolds)]
        n_scaffold = scaffold.n_atoms
        mol = extend_scaffold(scaffold, denoiser, marginals, schedule, seed=call)
        assert mol.subgraph(range(n_scaffold)) == scaffold
        if mol.n_atoms > n_scaffold:
            decoded_extensions += 1

    ok = (
        steps == 1000 * schedule.timesteps
        and anchor_failures == 0
        and size_failures == 0
        and max_dev <= 1e-9
        and decoded_extensions > 0
    )
    _verdict(
        "anchored-extension",
        ok,
        f"1000 calls x {schedule.timesteps} steps: scaffold atoms and pairs "
        f"intact in all {steps} graphs the denoiser saw, every graph larger "
        f"than its scaffold, "
        f"posterior rows sum to 1 within {max_dev:.1e}, "
        f"{decoded_extensions}/1000 decoded molecules kept extra atoms",
    )


# ---------------------------------------------------------------------------
# confidence threshold at one disables augmentation influence
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reduction_runs(tmp_path_factory):
    """Three reduced-size runs: threshold 1.0, augmentation off, threshold 0.5."""
    root = tmp_path_factory.mktemp("reduction")
    assay_csv = root / "assay.csv"
    write_deck_csv(make_benchmark_deck(seed=5, n_molecules=150), assay_csv)
    base = RunConfig(
        assay=str(assay_csv),
        seed=13,
        eval_seeds=1,
        timesteps=10,
        library_fraction=0.2,
        k_max=4,
        nbits=256,
        epochs=10,
        warmup_epochs=3,
        refresh_period=2,
        confidence_threshold=1.0,
        batch_size=32,
        top_k=10,
        candidate_cap=50,
        lambda_grid=(0.0, 1.0),
    )
    threshold_one = run_experiment(base, root / "threshold_one")
    no_augment = run_experiment(
        resolve_overrides(base, augment_enabled=False), root / "no_augment"
    )
    threshold_half = run_experiment(
        resolve_overrides(base, confidence_threshold=0.5), root / "threshold_half"
    )
    return base, threshold_one, no_augment, threshold_half


def test_threshold_one_reduces_to_the_unaugmented_run(reduction_runs):
    base, threshold_one, no_augment, threshold_half = reduction_runs

    invariant = [
        "splits.json",
        "quarantine.csv",
        "report/aggregate.csv",
        "report/pooled_metrics.json",
        "report/lambda_sweep.csv",
        "report/notes.json",
    ]
    for i in range(5):
        for name in ("model.json", "history.csv", "scores.csv", "metrics.json", "rerank.csv"):
            invariant.append(f"splits/split{i}/seed0/{name}")
    diffs = [
        rel
        for rel in invariant
        if (threshold_one / rel).read_bytes() != (no_augment / rel).read_bytes()
    ]
    pool_size = sum(
        json.loads(
            (threshold_one / f"splits/split{i}/generation_report.json").read_text()
        )["n_valid"]
        for i in range(5)
    )

    # The threshold must be the only gate: below the warmup epoch nothing is
    # admitted even when the threshold would let molecules through.
    admissions = 0
    warmup_violations = 0
    for i in range(5):
        rows = (threshold_half / f"splits/split{i}/seed0/history.csv").read_text()
        for row in rows.splitlines()[1:]:
            epoch, _, _, n_pseudo = row.split(",")
            if int(epoch) < base.warmup_epochs and int(n_pseudo) != 0:
                warmup_violations += 1
            admissions += int(n_pseudo)

    # Admitted sets shrink monotonically as the threshold rises, on one
    # fixed model over one fixed pool.
    model = FingerprintClassifier(radius=2, nbits=256)
    rng = np.random.default_rng(77)
    model.weights = rng.standard_normal(256) * 0.25
    model.bias = 0.8
    logits = predict(model, [parse_smiles(s) for s in RING_CORES + DECORATED + POOL_EXTRAS])
    chosen = [set(pseudo_label(logits, tau).tolist()) for tau in (0.3, 0.5, 0.7, 0.9, 1.0)]
    nested = all(later <= earlier for earlier, later in zip(chosen, chosen[1:]))
    sizes = [len(c) for c in chosen]

    ok = (
        diffs == []
        and pool_size > 0
        and warmup_violations == 0
        and admissions > 0
        and nested
        and sizes[0] > sizes[2] > 0
        and sizes[-1] == 0
    )
    _verdict(
        "threshold-one-reduction",
        ok,
        f"all {len(invariant)} score/model/report files byte-identical with a "
        f"{pool_size}-molecule pool available; 0 pseudo-labels before warmup "
        f"({admissions} admitted after it at threshold 0.5); admitted sets "
        f"nested with sizes {sizes} over rising thresholds",
    )


# ---------------------------------------------------------------------------
# analytic gradient
# ---------------------------------------------------------------------------


def test_loss_gradient_matches_central_differences():
    rng = np.random.default_rng(808)
    features = (rng.random((40, 64)) < 0.2).astype(np.float64)
    labels = rng.integers(0, 2, 40).astype(np.int64)
    labels[0], labels[1] = 1, 0
    l2 = 1e-3
    step = 1e-6

    def loss_at(packed: np.ndarray) -> float:
        return one_cell_loss_and_grad(packed[:-1], float(packed[-1]), features, labels, l2)[0]

    worst_rel = 0.0
    for _ in range(10):
        weights = rng.standard_normal(64) * 0.5
        bias = float(rng.standard_normal())
        _, grad_w, grad_b = one_cell_loss_and_grad(weights, bias, features, labels, l2)
        analytic = np.concatenate([grad_w, [grad_b]])
        packed = np.concatenate([weights, [bias]])
        numeric = np.empty_like(packed)
        for d in range(packed.size):
            bumped = packed.copy()
            bumped[d] = packed[d] + step
            hi = loss_at(bumped)
            bumped[d] = packed[d] - step
            lo = loss_at(bumped)
            numeric[d] = (hi - lo) / (2 * step)
        rel = float(
            np.linalg.norm(numeric - analytic) / max(np.linalg.norm(analytic), 1e-12)
        )
        worst_rel = max(worst_rel, rel)

    ok = worst_rel <= 1e-5
    _verdict(
        "analytic-gradient",
        ok,
        f"worst relative deviation from central differences {worst_rel:.1e} "
        "<= 1e-5 over 10 random points",
    )


# ---------------------------------------------------------------------------
# full screen on the benchmark deck
# ---------------------------------------------------------------------------


def test_deck_screen_meets_budget_and_enrichment(benchmark_deck_csv, tmp_path):
    config = RunConfig(assay=str(benchmark_deck_csv))
    start = time.perf_counter()
    run_dir = run_experiment(config, tmp_path / "deck_run")
    elapsed = time.perf_counter() - start
    pooled = json.loads((run_dir / "report" / "pooled_metrics.json").read_text())
    ef100 = pooled["mean"]["ef100"]

    # Frozen oracle: per-cluster draw counts for balanced and uniform
    # sampling over the whole deck at one pinned stage seed.
    assay = ingest(benchmark_deck_csv)
    oracle_seed = derive_seed(7, "augment", "oracle")
    balanced = augment_split(list(assay.records), config, oracle_seed)
    uniform = augment_split(
        list(assay.records), resolve_overrides(config, sampling="uniform"), oracle_seed
    )

    def entropy(counts: list[int]) -> float:
        p = np.asarray(counts, dtype=np.float64)
        p = p / p.sum()
        p = p[p > 0]
        return float(-(p * np.log(p)).sum() / np.log(len(counts)))

    counts_pinned = (
        balanced.library_counts == [18, 78, 70, 34]
        and uniform.library_counts == [124, 18, 23, 35]
    )
    h_balanced = entropy(balanced.library_counts)
    h_uniform = entropy(uniform.library_counts)
    more_uniform = h_balanced > h_uniform and entropy(balanced.valid_counts) > entropy(
        uniform.valid_counts
    )

    ok = elapsed < 300.0 and ef100 >= 10.0 and counts_pinned and more_uniform
    _verdict(
        "deck-screen",
        ok,
        f"2000-molecule run finished in {elapsed:.1f}s (budget 300s) with pooled "
        f"EF@100 = {ef100} >= 10; balanced draws {balanced.library_counts} "
        f"(entropy {h_balanced:.4f}) flatter than uniform draws "
        f"{uniform.library_counts} (entropy {h_uniform:.4f}), both matching "
        "frozen oracle counts",
    )


# ---------------------------------------------------------------------------
# split protocol
# ---------------------------------------------------------------------------


def test_split_protocol_on_deck_and_corpus(benchmark_deck_csv, split_corpus_csv):
    details = []
    ok = True
    for label, path in (("deck", benchmark_deck_csv), ("corpus", split_corpus_csv)):
        assay = ingest(path)
        all_ids = {r.record_id for r in assay.records}
        by_id = {r.record_id: r for r in assay.records}

        random_plan = make_splits(assay, "random", seed=31)
        tested = Counter()
        for split in random_plan.splits:
            folds = [set(split.train_ids), set(split.valid_ids), set(split.test_ids)]
            ok &= folds[0] | folds[1] | folds[2] == all_ids
            ok &= not (folds[0] & folds[1] or folds[0] & folds[2] or folds[1] & folds[2])
            tested.update(split.test_ids)
        ok &= set(tested) == all_ids and set(tested.values()) == {1}

        scaffold_plan = make_splits(assay, "scaffold", seed=31)
        keys = {}
        for rid, record in by_id.items():
            scaffold = murcko_scaffold(record.mol)
            keys[rid] = "" if scaffold is None else to_smiles(scaffold)
        bin_sizes = Counter(keys.values())
        dominant = {
            key for key, size in bin_sizes.items() if size > 0.1 * assay.size
        }
        leaks = 0
        for split in scaffold_plan.splits:
            folds = [set(split.train_ids), set(split.valid_ids), set(split.test_ids)]
            ok &= folds[0] | folds[1] | folds[2] == all_ids
            ok &= not (folds[0] & folds[1] or folds[0] & folds[2] or folds[1] & folds[2])
            fold_keys = [{keys[rid] for rid in fold} for fold in folds]
            leaks += len(fold_keys[0] & fold_keys[1]) + len(fold_keys[0] & fold_keys[2])
            leaks += len(fold_keys[1] & fold_keys[2])
            for key in dominant:
                ok &= all(keys[rid] != key for rid in split.valid_ids)
                ok &= all(keys[rid] != key for rid in split.test_ids)
        ok &= leaks == 0
        details.append(
            f"{label}: {assay.size} records, {len(bin_sizes)} scaffold bins, "
            f"{len(dominant)} dominant (>10%) bins all in train, 0 leaks"
        )
        if label == "deck":
            ok &= len(dominant) >= 1

    _verdict("split-protocol", ok, "; ".join(details))
