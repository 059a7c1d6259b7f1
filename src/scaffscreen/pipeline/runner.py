"""End-to-end experiment runner.

One call produces a self-describing run directory: resolved config,
quarantine sidecar, split plan, per-split augmentation products, per-seed
training and evaluation artifacts, pooled reports, and a manifest hashing
every file. Nothing in the tree depends on wall-clock time, so rerunning
the same configuration reproduces the directory byte for byte.

Every metrics.json, ``report/`` and manifest.json come from one report
pass that reads only the run directory: each split's generation note and
pool and each cell's scores.csv and rerank.csv, in split and seed index
order. ``run_experiment`` makes it once after the last cell, with the assay
and config text it holds, and ``rebuild_report`` makes the same call, so a
rebuild rewrites every file byte for byte and needs no earlier report.

Every file is read and written through ``scaffscreen.artifacts``, which
fixes the CSV and JSON text and the six-decimal report figures; only
model.json keeps the compact form ``selftrain.save_checkpoint`` gives it.

Layout::

    <run_dir>/
      config.ini
      quarantine.csv
      splits.json
      splits/split<i>/library.csv, generated.csv, generation_report.json
      splits/split<i>/seed<j>/model.json, history.csv, scores.csv,
                              metrics.json, rerank.csv
      report/aggregate.csv, pooled_metrics.json, lambda_sweep.csv,
             umap_input.csv, notes.json
      manifest.json
"""

from __future__ import annotations

import contextlib
import hashlib
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..artifacts import DECIMALS, read_csv, read_json, write_csv, write_json
from ..chem import MolGraph, murcko_scaffold, parse_smiles, to_smiles
from ..diffusion import (
    CosineSchedule,
    ExternalDenoiser,
    GeneratedEntry,
    GenerationReport,
    MarginalDenoiser,
    OneHotEchoDenoiser,
    compute_marginals,
    generate_scaffold_extensions,
)
from ..fingerprints import ecfps, fingerprint_matrix
from ..metrics import (
    DegenerateLabels,
    RankedList,
    bedroc,
    dcg_k,
    ef_k,
    log_auc,
    sd_k,
    write_metric_report,
)
from ..rerank import (
    LambdaReport,
    build_candidates,
    candidate_fingerprints,
    lambda_sweep,
    read_sweep_csv,
    write_sweep_csv,
)
from ..sampling import (
    ClusterModel,
    SamplingWeights,
    ScaffoldLibrary,
    cluster_scaffolds,
    sample_library,
    sampling_weights,
    single_cluster,
    write_library_csv,
)
from ..selftrain import (
    DegenerateData,
    EpochRecord,
    FingerprintClassifier,
    LabeledSet,
    predict,
    save_checkpoint,
    self_train_cells,
    write_history_csv,
)
from .config import RunConfig, dump_config, load_config
from .ingest import Assay, AssayRecord, ingest
from .splits import SplitPlan, make_splits

__all__ = [
    "AugmentProducts",
    "augment_split",
    "cell_metrics",
    "derive_seed",
    "open_denoiser",
    "read_generated_pool",
    "read_scores_csv",
    "rebuild_report",
    "rerank_cell",
    "run_experiment",
    "stage_seeds",
    "train_cells",
    "write_augmentation",
    "write_scores_csv",
]

_GENERATED_HEADER = ["id", "smiles", "cluster_id", "valid"]
_SCORES_HEADER = ["id", "smiles", "score", "label"]


def derive_seed(root: int, *parts: int | str) -> int:
    """A stable integer seed for a named stage of the run.

    String parts are folded through sha256 so stage names stay readable at
    call sites without leaking Python's randomized hash into the result.
    """
    key = []
    for part in parts:
        if isinstance(part, str):
            digest = hashlib.sha256(part.encode("utf-8")).digest()
            key.append(int.from_bytes(digest[:4], "little"))
        else:
            key.append(int(part))
    seq = np.random.SeedSequence(root, spawn_key=tuple(key))
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass
class AugmentProducts:
    """Everything one split's augmentation stage hands to training."""

    pool: list[MolGraph]
    entries: list[GeneratedEntry]
    report: GenerationReport | None
    model: ClusterModel | None
    library: ScaffoldLibrary | None
    library_counts: list[int]
    valid_counts: list[int]
    excluded_acyclic: int
    note: str | None = None


def open_denoiser(config: RunConfig) -> contextlib.AbstractContextManager[ExternalDenoiser | None]:
    """The run's one external denoiser, closed when the ``with`` exits; else None."""
    command = config.external_command()
    return contextlib.nullcontext() if command is None else ExternalDenoiser(command)


def _make_denoiser(spec: str, marginals):
    if spec == "marginal":
        return MarginalDenoiser(marginals)
    if spec == "echo":
        return OneHotEchoDenoiser(len(marginals.atom_types))
    raise ValueError(f"denoiser {spec!r} is opened once per run with open_denoiser")


def _uniform_instance_weights(model: ClusterModel) -> SamplingWeights:
    """Ablation weights: clusters in proportion to size, members uniform.

    Combined with the uniform member draw this makes every library entry
    equally likely, removing the balancing effect entirely.
    """
    counts = model.cluster_sizes
    weights = counts.astype(np.float64)
    return SamplingWeights(
        counts=counts, weights=weights, probabilities=weights / weights.sum()
    )


def augment_split(
    train_records: Sequence[AssayRecord],
    config: RunConfig,
    seed: int,
    external: ExternalDenoiser | None = None,
) -> AugmentProducts:
    """Cluster the training actives' scaffolds and generate extensions.

    ``external`` is the run's ``open_denoiser``, which an external spec needs.
    """
    actives = [r for r in train_records if r.label == 1]
    scaffolds: list[MolGraph] = []
    for record in actives:
        scaffold = murcko_scaffold(record.mol)
        if scaffold is not None:
            scaffolds.append(scaffold)
    excluded = len(actives) - len(scaffolds)

    if not scaffolds:
        return AugmentProducts(
            pool=[],
            entries=[],
            report=None,
            model=None,
            library=None,
            library_counts=[],
            valid_counts=[],
            excluded_acyclic=excluded,
            note="no ring-bearing actives in the training fold",
        )

    fps = ecfps(scaffolds, config.radius, config.nbits)
    # k_min is at least 2, so k-means runs on three scaffolds or more, and
    # no k above the distinct fingerprints could fill every cluster.
    k_hi = min(config.k_max, len(scaffolds) - 1, len(set(fps)))
    if k_hi >= config.k_min:
        k_range = range(config.k_min, k_hi + 1)
        model = cluster_scaffolds(fps, k_range=k_range, seed=derive_seed(seed, "kmeans"))
    else:
        model = single_cluster(fingerprint_matrix(fps))

    if config.sampling == "balanced":
        weights = sampling_weights(model)
    else:
        weights = _uniform_instance_weights(model)

    n_draws = max(1, round(config.library_fraction * len(train_records)))
    library = sample_library(
        scaffolds, model, weights, n_draws, seed=derive_seed(seed, "library")
    )

    train_mols = [r.mol for r in train_records]
    marginals = compute_marginals(train_mols)
    denoiser = external if external is not None else _make_denoiser(config.denoiser, marginals)
    entries, report = generate_scaffold_extensions(
        [e.scaffold for e in library.entries],
        [e.cluster_id for e in library.entries],
        denoiser,
        marginals,
        schedule=CosineSchedule(config.timesteps),
        seed=derive_seed(seed, "extend"),
    )

    pool = [e.molecule for e in entries if e.valid]
    valid_counts = [0] * model.k
    for entry in entries:
        if entry.valid:
            valid_counts[entry.cluster_id] += 1
    return AugmentProducts(
        pool=pool,
        entries=entries,
        report=report,
        model=model,
        library=library,
        library_counts=[int(c) for c in library.cluster_counts(model.k)],
        valid_counts=valid_counts,
        excluded_acyclic=excluded,
    )


def write_augmentation(
    out_dir: Path,
    train_records: Sequence[AssayRecord],
    config: RunConfig,
    seed: int,
    external: ExternalDenoiser | None = None,
) -> AugmentProducts:
    """Augment one split and write its library.csv, generated.csv and report.

    ``library.csv`` is left out when no library was drawn.
    """
    products = augment_split(train_records, config, seed, external)
    out_dir.mkdir(parents=True, exist_ok=True)
    if products.library is not None:
        write_library_csv(out_dir / "library.csv", products.library)
    _write_generated_csv(out_dir / "generated.csv", products.entries)
    _write_generation_report(out_dir / "generation_report.json", products)
    return products


def read_generated_pool(path: Path) -> tuple[list[str], list[MolGraph]]:
    """Ids and molecules of the valid rows of a generated.csv."""
    valid = [row for row in read_csv(path, _GENERATED_HEADER, "generated") if int(row[3])]
    return [row[0] for row in valid], [parse_smiles(row[1]) for row in valid]


def _labeled_set(records: Sequence[AssayRecord]) -> LabeledSet:
    return LabeledSet(
        molecules=tuple(r.mol for r in records),
        labels=np.array([r.label for r in records], dtype=np.int64),
    )


def train_cells(
    cell_dirs: Sequence[Path],
    train_records: Sequence[AssayRecord],
    valid_records: Sequence[AssayRecord],
    pool: Sequence[MolGraph],
    config: RunConfig,
    seeds: Sequence[int],
) -> list[tuple[FingerprintClassifier, list[EpochRecord]]]:
    """Self-train one cell of a split per seed, in lockstep, under ``config``.

    Writes cell j's model.json and history.csv into ``cell_dirs[j]``. Each
    cell's bytes are those it gets when trained alone.
    """
    cells = self_train_cells(
        _labeled_set(train_records),
        pool,
        _labeled_set(valid_records),
        [config.train_config(seed) for seed in seeds],
    )
    for out_dir, (model, history) in zip(cell_dirs, cells):
        out_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(out_dir / "model.json", model)
        write_history_csv(out_dir / "history.csv", history)
    return cells


def _write_generated_csv(path: Path, entries: Sequence[GeneratedEntry]) -> None:
    write_csv(
        path,
        _GENERATED_HEADER,
        (
            (f"gen{idx:04d}", to_smiles(e.molecule), e.cluster_id, int(e.valid))
            for idx, e in enumerate(entries)
        ),
    )


def _write_generation_report(path: Path, products: AugmentProducts) -> None:
    report = products.report
    payload = {
        "total": report.total if report else 0,
        "n_valid": report.n_valid if report else 0,
        "validity_rate": round(report.validity_rate, DECIMALS) if report else 0.0,
        "k": products.model.k if products.model else 0,
        "silhouette": (
            None
            if products.model is None or np.isnan(products.model.silhouette_score)
            else round(float(products.model.silhouette_score), DECIMALS)
        ),
        "library_per_cluster": products.library_counts,
        "valid_per_cluster": products.valid_counts,
        "excluded_acyclic_actives": products.excluded_acyclic,
        "note": products.note,
    }
    write_json(path, payload)


def write_scores_csv(path: Path, rows: Sequence[tuple[str, str, float, int]]) -> None:
    """One row per record, each score at full float precision."""
    write_csv(path, _SCORES_HEADER, ((r, smi, repr(float(s)), y) for r, smi, s, y in rows))


def read_scores_csv(path: Path) -> list[tuple[str, str, float, int]]:
    """The rows of a scores file; a ``ValueError`` names a file with none."""
    rows = read_csv(path, _SCORES_HEADER, "scores")
    if not rows:
        raise ValueError(f"{path}: no scores under the header")
    return [(r, smi, float(s), int(y)) for r, smi, s, y in rows]


def cell_metrics(
    ranked: RankedList,
    mols_by_id: dict[str, MolGraph],
    config: RunConfig,
    notes: list[str],
    where: str,
) -> dict[str, float]:
    """A ranking's metrics; those at depth ``top_k`` need ``top_k`` records, or a note says why."""
    k = config.top_k
    deep = ranked.n_records >= k
    values: dict[str, float] = {}
    try:
        values["logauc"] = log_auc(ranked, config.fpr_lo, config.fpr_hi)
        values["bedroc"] = bedroc(ranked, config.bedroc_alpha)
        if deep:
            values[f"ef{k}"] = ef_k(ranked, k)
    except DegenerateLabels as exc:
        notes.append(f"{where}: {exc}")
    if deep:
        values[f"dcg{k}"] = dcg_k(ranked, k)
        values[f"sd{k}"] = sd_k(
            [mols_by_id[i] for i in ranked.ids[:k]],
            k,
            radius=config.radius,
            nbits=config.nbits,
        )
    else:
        notes.append(f"{where}: fewer than {k} records, depth metrics skipped")
    return values


def _rerank_skip(ranked: RankedList, config: RunConfig) -> str | None:
    """Why a cell's rerank is skipped, or None when it runs.

    The rule reads only the cell's scores and labels: no positive score,
    fewer than ``top_k`` candidates kept under ``candidate_cap``, or no
    active in the baseline.
    """
    kept = min(int((ranked.scores > 0.0).sum()), config.candidate_cap)
    if kept == 0:
        reason = "no positive scores"
    elif kept < config.top_k:
        reason = f"only {kept} candidates for k={config.top_k}"
    elif ranked.n_actives == 0:
        reason = "enrichment needs at least one active in the baseline"
    else:
        return None
    return f"{reason}, rerank skipped"


def rerank_cell(
    path: Path,
    ranked: RankedList,
    mols_by_id: dict[str, MolGraph],
    config: RunConfig,
) -> tuple[list[LambdaReport] | None, str | None]:
    """Write one cell's rerank sweep to ``path``.

    Returns the sweep, or None with the reason the rerank was skipped, in
    which case the file holds only the header. The kept candidates are
    fingerprinted in one batch, and none when the cell skips.
    """
    note = _rerank_skip(ranked, config)
    if note is not None:
        write_sweep_csv(path, [], config.top_k)
        return None, note
    candidates = build_candidates(
        ranked.ids,
        [float(s) for s in ranked.scores],
        lambda kept: candidate_fingerprints(
            [mols_by_id[i] for i in kept], config.radius, config.nbits
        ),
        cap=config.candidate_cap,
    )
    sweep = lambda_sweep(ranked, candidates, config.lambda_grid, k=config.top_k)
    write_sweep_csv(path, sweep, config.top_k)
    return sweep, None


def _check_folds(plan: SplitPlan, by_id: dict[str, AssayRecord]) -> None:
    """Raise ``DegenerateData`` for a training or validation fold missing a class."""
    for i, split in enumerate(plan.splits):
        for fold, ids in (("training", split.train_ids), ("validation", split.valid_ids)):
            if {by_id[rid].label for rid in ids} != {0, 1}:
                raise DegenerateData(
                    f"split{i}: the {fold} fold needs both an active and an inactive"
                )


def stage_seeds(config: RunConfig, n_splits: int) -> dict[str, object]:
    """The root seed and, per split, its augment seed and its cells' train seeds."""
    return {
        "root": config.seed,
        "augment": {
            str(i): derive_seed(config.seed, "augment", i)
            for i in range(n_splits)
            if config.augment_enabled
        },
        "train": {
            str(i): [derive_seed(config.seed, "train", i, j) for j in range(config.eval_seeds)]
            for i in range(n_splits)
        },
    }


def _write_report(
    run_dir: Path, config: RunConfig, config_text: str, assay: Assay, n_splits: int
) -> None:
    """Write every metrics.json, ``report/`` and manifest.json of a run.

    Reads each split's generation note and pool and each cell's scores.csv
    and rerank.csv, in split and seed index order, and no earlier output of
    its own; a skipped rerank's note comes from the rule ``rerank_cell``
    applies. Notes keep their order: per split the augment note, then per
    cell the metric notes and the rerank-skip note, then the pooled notes.
    """
    k = config.top_k
    mol_of = {r.record_id: r.mol for r in assay.records}
    notes: list[str] = []
    cell_rows: list[tuple[int, int, dict[str, float]]] = []
    sweeps: list[list[LambdaReport]] = []
    pooled_rows: list[list[tuple[str, float, int]]] = [[] for _ in range(config.eval_seeds)]
    generated: list[tuple[str, MolGraph]] = []
    for i in range(n_splits):
        split_dir = run_dir / "splits" / f"split{i}"
        if config.augment_enabled:
            report = read_json(split_dir / "generation_report.json")
            if report["note"]:
                notes.append(f"split{i}: {report['note']}")
            pool_ids, pool = read_generated_pool(split_dir / "generated.csv")
            generated.extend((f"s{i}_{pid}", mol) for pid, mol in zip(pool_ids, pool))
        for j in range(config.eval_seeds):
            cell_dir, where = split_dir / f"seed{j}", f"split{i}/seed{j}"
            rows = [(r, s, y) for r, _, s, y in read_scores_csv(cell_dir / "scores.csv")]
            ranked = RankedList.from_records(rows)
            values = cell_metrics(ranked, {r: mol_of[r] for r, _, _ in rows}, config, notes, where)
            write_metric_report(cell_dir / "metrics.json", values)
            cell_rows.append((i, j, values))
            skip = _rerank_skip(ranked, config)
            if skip:
                notes.append(f"{where}: {skip}")
            sweep = read_sweep_csv(cell_dir / "rerank.csv", k)
            if sweep:
                sweeps.append(sweep)
            pooled_rows[j].extend(rows)

    report_dir = run_dir / "report"
    report_dir.mkdir(exist_ok=True)
    metric_names = ["logauc", "bedroc", f"ef{k}", f"dcg{k}", f"sd{k}"]
    aggregate: list[list[object]] = [
        [i, j, *(f"{v[name]:.{DECIMALS}f}" if name in v else "" for name in metric_names)]
        for i, j, v in cell_rows
    ]
    for stat, func in (("mean", np.mean), ("std", np.std)):
        present = [[v[name] for _, _, v in cell_rows if name in v] for name in metric_names]
        aggregate.append([stat, "", *(f"{func(p):.{DECIMALS}f}" if p else "" for p in present)])
    write_csv(report_dir / "aggregate.csv", ["split", "seed"] + metric_names, aggregate)

    pooled_payload: dict[str, object] = {"per_seed": []}
    pooled_values: dict[str, list[float]] = {name: [] for name in metric_names}
    for j, rows in enumerate(pooled_rows):
        ranked = RankedList.from_records(rows)
        mols = {rid: mol_of[rid] for rid, _, _ in rows}
        values = cell_metrics(ranked, mols, config, notes, f"pooled/seed{j}")
        pooled_payload["per_seed"].append(
            {"seed": j, **{name: round(values[name], DECIMALS) for name in values}}
        )
        for name, value in values.items():
            pooled_values[name].append(value)
    for stat, func in (("mean", np.mean), ("std", np.std)):
        pooled_payload[stat] = {
            name: round(float(func(vals)), DECIMALS) for name, vals in pooled_values.items() if vals
        }
    write_json(report_dir / "pooled_metrics.json", pooled_payload)

    figures = ("ef_before", "ef_after", "sd_before", "sd_after")
    means = [
        LambdaReport(
            lam, *(float(np.mean([getattr(s[idx], f) for s in sweeps])) for f in figures)
        )
        for idx, lam in enumerate(config.lambda_grid if sweeps else ())
    ]
    write_sweep_csv(report_dir / "lambda_sweep.csv", means, k)

    points = [(r.record_id, "assay", r.label, r.mol) for r in assay.records]
    points += [(gen_id, "generated", "", mol) for gen_id, mol in generated]
    fps = ecfps([p[3] for p in points], config.radius, config.nbits)
    write_csv(
        report_dir / "umap_input.csv",
        ["id", "origin", "label", "fp_hex"],
        ((*p[:3], fp.to_hex()) for p, fp in zip(points, fps)),
    )

    write_json(report_dir / "notes.json", {"notes": list(dict.fromkeys(notes))})

    _write_manifest(run_dir, config, config_text, assay, stage_seeds(config, n_splits))


def run_experiment(config: RunConfig, run_dir: str | Path | None = None) -> Path:
    """Execute the full pipeline under ``config``; returns the run directory."""
    run_dir = Path(run_dir if run_dir is not None else config.output_dir)
    run_dir.mkdir(parents=True, exist_ok=True)

    config_text = dump_config(config)
    (run_dir / "config.ini").write_text(config_text, encoding="utf-8")

    assay = ingest(config.assay, quarantine_path=run_dir / "quarantine.csv")
    by_id = {r.record_id: r for r in assay.records}
    plan = make_splits(assay, scheme=config.scheme, seed=config.seed)
    # Every split trains, so check them all before the first one writes.
    _check_folds(plan, by_id)
    plan.to_json(run_dir / "splits.json")
    seeds = stage_seeds(config, len(plan.splits))

    with open_denoiser(config) as external:
        for i, split in enumerate(plan.splits):
            split_dir = run_dir / "splits" / f"split{i}"
            train_records = [by_id[rid] for rid in split.train_ids]
            valid_records = [by_id[rid] for rid in split.valid_ids]
            test_records = [by_id[rid] for rid in split.test_ids]
            mols_by_id = {r.record_id: r.mol for r in test_records}

            pool: list[MolGraph] = []
            if config.augment_enabled:
                aug_seed = seeds["augment"][str(i)]
                pool = write_augmentation(split_dir, train_records, config, aug_seed, external).pool

            cell_dirs = [split_dir / f"seed{j}" for j in range(config.eval_seeds)]
            cells = train_cells(
                cell_dirs, train_records, valid_records, pool, config, seeds["train"][str(i)]
            )
            for cell_dir, (model, _) in zip(cell_dirs, cells):
                test_scores = predict(model, [r.mol for r in test_records])
                rows = [
                    (r.record_id, r.smiles, float(s), r.label)
                    for r, s in zip(test_records, test_scores)
                ]
                write_scores_csv(cell_dir / "scores.csv", rows)
                ranked = RankedList.from_records((r, s, y) for r, _, s, y in rows)
                rerank_cell(cell_dir / "rerank.csv", ranked, mols_by_id, config)

    _write_report(run_dir, config, config_text, assay, len(plan.splits))
    return run_dir


def rebuild_report(run_dir: str | Path) -> Path:
    """Rewrite every metrics.json, ``report/`` and manifest.json of a run.

    Makes the run's own report pass over its config, assay and cell files
    and reads no earlier output, so an untouched run, or one whose report/
    and manifest.json are gone, comes back byte for byte. No model is
    retrained.
    """
    run_dir = Path(run_dir)
    config = load_config(run_dir / "config.ini")
    config_text = (run_dir / "config.ini").read_text(encoding="utf-8")
    n_splits = len(SplitPlan.from_json(run_dir / "splits.json").splits)
    _write_report(run_dir, config, config_text, ingest(config.assay), n_splits)
    return run_dir


def _write_manifest(
    run_dir: Path, config: RunConfig, config_text: str, assay: Assay, seeds: dict[str, object]
) -> None:
    from .. import __version__

    files: dict[str, str] = {}
    for path in sorted(run_dir.rglob("*")):
        if not path.is_file() or path.name == "manifest.json":
            continue
        files[path.relative_to(run_dir).as_posix()] = hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
    manifest = {
        "config_sha256": hashlib.sha256(config_text.encode("utf-8")).hexdigest(),
        "assay_sha256": hashlib.sha256(Path(config.assay).read_bytes()).hexdigest(),
        "deck": {
            "n_records": assay.size,
            "n_actives": assay.n_actives,
            "n_quarantined": len(assay.quarantined),
        },
        "files": files,
        "package": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seeds": seeds,
    }
    write_json(run_dir / "manifest.json", manifest)
