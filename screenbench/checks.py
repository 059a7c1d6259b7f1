"""Output checks for a finished screening run, computed apart from the program.

Nothing here imports ``scaffscreen``: the metrics are recomputed from
``scores.csv`` with the formulas in the ``scaffscreen.metrics`` docstring,
and the other checks read the run's files and the benchmark's own layout.
``run_checks`` returns the failures of every check by name; an empty list
means the check passed.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from decks import Workload

TOLERANCE = 1.5e-6  # the run reports six decimals
SWEEP = "report/lambda_sweep.csv"


@dataclass
class RunContext:
    """What the checks need to know about one finished run."""

    run_dir: Path
    assay: Path
    workload: Workload
    # The text of manifest.json and lambda_sweep.csv after run_experiment
    # and after each rebuild_report, as the worker's ``_snapshot`` records
    # them.
    snapshots: list[dict]
    echo_dir: Path | None = None
    children_exited: bool | None = None

    def to_json(self) -> dict:
        return {
            "run_dir": str(self.run_dir),
            "assay": str(self.assay),
            "workload": self.workload.name,
            "snapshots": self.snapshots,
            "echo_dir": str(self.echo_dir) if self.echo_dir else None,
            "children_exited": self.children_exited,
        }


@dataclass
class Evaluation:
    """The run's evaluation settings, read from its config.ini."""

    scheme: str
    eval_seeds: int
    library_fraction: float
    top_k: int
    fpr_lo: float
    fpr_hi: float
    alpha: float
    lambdas: list[float] = field(default_factory=list)

    @classmethod
    def read(cls, path: Path) -> "Evaluation":
        ini = configparser.ConfigParser()
        ini.read(path)
        return cls(
            scheme=ini["run"]["scheme"],
            eval_seeds=int(ini["run"]["eval_seeds"]),
            library_fraction=float(ini["augment"]["library_fraction"]),
            top_k=int(ini["evaluate"]["top_k"]),
            fpr_lo=float(ini["evaluate"]["fpr_lo"]),
            fpr_hi=float(ini["evaluate"]["fpr_hi"]),
            alpha=float(ini["evaluate"]["bedroc_alpha"]),
            lambdas=[float(v) for v in ini["evaluate"]["lambda_grid"].split(",")],
        )


# --- metric formulas -------------------------------------------------------


def ranked_labels(rows: list[tuple[str, float, int]]) -> list[int]:
    """Labels by descending score, ties kept in input order."""
    order = sorted(range(len(rows)), key=lambda i: -rows[i][1])
    return [rows[i][2] for i in order]


def log_auc(labels: list[int], lo: float, hi: float) -> float:
    n = sum(labels)
    negatives = len(labels) - n
    tp = fp = 0
    points = [(0.0, 0.0)]
    for y in labels:
        tp += y
        fp += 1 - y
        points.append((fp / negatives, tp / n))
    envelope: list[tuple[float, float]] = []
    for f, t in points:  # the highest TPR reached at each FPR
        if envelope and envelope[-1][0] == f:
            envelope[-1] = (f, t)
        else:
            envelope.append((f, t))
    xs = [f for f, _ in envelope]

    def height(x: float) -> float:
        j = bisect_right(xs, x) - 1
        if j >= len(xs) - 1:
            return envelope[-1][1]
        (x0, y0), (x1, y1) = envelope[j], envelope[j + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    grid = [lo] + [x for x in xs if lo < x < hi] + [hi]
    area = sum(
        (height(a) + height(b)) / 2.0 * (math.log10(b) - math.log10(a))
        for a, b in zip(grid, grid[1:])
    )
    return area / (math.log10(hi) - math.log10(lo))


def bedroc(labels: list[int], alpha: float) -> float:
    total = len(labels)
    n = sum(labels)
    ratio = n / total
    observed = sum(math.exp(-alpha * (r + 1) / total) for r, y in enumerate(labels) if y) / n
    expected = (1.0 - math.exp(-alpha)) / (total * (math.exp(alpha / total) - 1.0))
    rie = observed / expected
    rie_max = (1.0 - math.exp(-alpha * ratio)) / (ratio * (1.0 - math.exp(-alpha)))
    rie_min = (1.0 - math.exp(alpha * ratio)) / (ratio * (1.0 - math.exp(alpha)))
    return (rie - rie_min) / (rie_max - rie_min)


def ef_k(labels: list[int], k: int) -> float:
    return (sum(labels[:k]) / k) / (sum(labels) / len(labels))


def dcg_k(labels: list[int], k: int) -> float:
    return sum(1.0 / math.log2(rank + 2) for rank, y in enumerate(labels[:k]) if y)


def recompute(rows: list[tuple[str, float, int]], ev: Evaluation) -> dict[str, float]:
    labels = ranked_labels(rows)
    k = ev.top_k
    values = {
        "logauc": log_auc(labels, ev.fpr_lo, ev.fpr_hi),
        "bedroc": bedroc(labels, ev.alpha),
        f"ef{k}": ef_k(labels, k),
    }
    if len(labels) >= k:
        values[f"dcg{k}"] = dcg_k(labels, k)
    return values


# --- readers ---------------------------------------------------------------


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def read_scores(path: Path) -> list[tuple[str, float, int]]:
    return [(r["id"], float(r["score"]), int(r["label"])) for r in read_csv(path)]


def cells(run_dir: Path) -> list[tuple[int, int, Path]]:
    found = []
    for cell in run_dir.glob("splits/split*/seed*"):
        found.append((int(cell.parent.name[5:]), int(cell.name[4:]), cell))
    return sorted(found)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE


# --- checks ----------------------------------------------------------------


def check_metrics(ctx: RunContext, ev: Evaluation) -> list[str]:
    errors = []
    names = ["logauc", "bedroc", f"ef{ev.top_k}", f"dcg{ev.top_k}"]
    aggregate = {(r["split"], r["seed"]): r for r in read_csv(ctx.run_dir / "report/aggregate.csv")}
    per_cell: dict[str, list[float]] = {name: [] for name in names}
    pooled: dict[int, list[tuple[str, float, int]]] = {}
    for i, j, cell in cells(ctx.run_dir):
        rows = read_scores(cell / "scores.csv")
        pooled.setdefault(j, []).extend(rows)
        mine = recompute(rows, ev)
        reported = json.loads((cell / "metrics.json").read_text())
        row = aggregate.get((str(i), str(j)), {})
        for name, value in mine.items():
            per_cell[name].append(value)
            if name not in reported or not _close(value, reported[name]):
                errors.append(f"split{i}/seed{j} {name}: {value:.6f} vs metrics.json {reported.get(name)}")
            if not row.get(name) or not _close(value, float(row[name])):
                errors.append(f"split{i}/seed{j} {name}: {value:.6f} vs aggregate.csv {row.get(name)}")
    mean_row = aggregate.get(("mean", ""), {})
    for name, values in per_cell.items():
        if values and not (mean_row.get(name) and _close(sum(values) / len(values), float(mean_row[name]))):
            errors.append(f"mean {name}: {sum(values) / len(values):.6f} vs aggregate.csv {mean_row.get(name)}")
    report = json.loads((ctx.run_dir / "report/pooled_metrics.json").read_text())
    per_seed = {entry["seed"]: entry for entry in report["per_seed"]}
    for j, rows in sorted(pooled.items()):
        for name, value in recompute(rows, ev).items():
            reported = per_seed.get(j, {}).get(name)
            if reported is None or not _close(value, reported):
                errors.append(f"pooled seed{j} {name}: {value:.6f} vs pooled_metrics.json {reported}")
    if not pooled:
        errors.append("no scored cells")
    return errors


def check_splits(ctx: RunContext, ev: Evaluation) -> list[str]:
    errors = []
    assay = {r["id"]: r for r in read_csv(ctx.assay)}
    ids = set(assay)
    plan = json.loads((ctx.run_dir / "splits.json").read_text())
    if plan["scheme"] != ev.scheme:
        errors.append(f"splits.json scheme {plan['scheme']!r}, config {ev.scheme!r}")
    layout = ctx.workload.layout()
    core_of = dict(zip(layout.ids, layout.cores))
    tested: list[str] = []
    for i, split in enumerate(plan["splits"]):
        folds = [split["train"], split["valid"], split["test"]]
        if sum(len(f) for f in folds) != len(ids) or set().union(*map(set, folds)) != ids:
            errors.append(f"split{i} does not partition the assay")
        tested.extend(split["test"])
        if ev.scheme == "scaffold":
            fold_of_core: dict[str, set[str]] = {}
            for name, fold in zip(("train", "valid", "test"), folds):
                for record_id in fold:
                    fold_of_core.setdefault(core_of[record_id], set()).add(name)
            straddling = sorted(c or "<acyclic>" for c, f in fold_of_core.items() if len(f) > 1)
            if straddling:
                errors.append(f"split{i}: cores in two folds: {straddling[:3]}")
        for j in range(ev.eval_seeds):
            path = ctx.run_dir / f"splits/split{i}/seed{j}/scores.csv"
            if not path.exists():
                errors.append(f"split{i}/seed{j}: no scores.csv")
                continue
            rows = read_csv(path)
            if sorted(r["id"] for r in rows) != sorted(split["test"]):
                errors.append(f"split{i}/seed{j}: scored ids differ from the test fold")
            for r in rows:
                if r["id"] not in assay or r["label"] != assay[r["id"]]["label"]:
                    errors.append(f"split{i}/seed{j}: label of {r['id']} differs from the assay")
                    break
    if ev.scheme == "random" and sorted(tested) != sorted(ids):
        errors.append("random folds do not test every record exactly once")
    return errors


def check_generation(ctx: RunContext, ev: Evaluation) -> list[str]:
    errors = []
    plan = json.loads((ctx.run_dir / "splits.json").read_text())
    for i, split in enumerate(plan["splits"]):
        split_dir = ctx.run_dir / f"splits/split{i}"
        report = json.loads((split_dir / "generation_report.json").read_text())
        library = read_csv(split_dir / "library.csv")
        generated = read_csv(split_dir / "generated.csv")
        expected = max(1, round(ev.library_fraction * len(split["train"])))
        valid = [r for r in generated if r["valid"] == "1"]
        if not report["total"] == len(library) == len(generated) == expected:
            errors.append(
                f"split{i}: total {report['total']}, library rows {len(library)}, generated "
                f"rows {len(generated)}, library_fraction x train size {expected}"
            )
        if report["n_valid"] != len(valid):
            errors.append(f"split{i}: n_valid {report['n_valid']} but {len(valid)} valid flags")
        by_cluster = [0] * report["k"]
        valid_by_cluster = [0] * report["k"]
        for r in library:
            by_cluster[int(r["cluster_id"])] += 1
        for r in valid:
            valid_by_cluster[int(r["cluster_id"])] += 1
        if report["library_per_cluster"] != by_cluster or sum(by_cluster) != report["total"]:
            errors.append(f"split{i}: library_per_cluster {report['library_per_cluster']} vs {by_cluster}")
        if report["valid_per_cluster"] != valid_by_cluster or sum(valid_by_cluster) != report["n_valid"]:
            errors.append(f"split{i}: valid_per_cluster {report['valid_per_cluster']} vs {valid_by_cluster}")
    return errors


def check_rerank(ctx: RunContext, ev: Evaluation) -> list[str]:
    errors = []
    k = ev.top_k
    reranked = 0
    all_cells = cells(ctx.run_dir)
    for i, j, cell in all_cells:
        rows = read_csv(cell / "rerank.csv")
        if not rows:
            continue
        reranked += 1
        ef_cell = json.loads((cell / "metrics.json").read_text())[f"ef{k}"]
        if [float(r["lambda"]) for r in rows] != ev.lambdas:
            errors.append(f"split{i}/seed{j}: lambda column differs from the grid")
        for r in rows:
            values = list(r.values())
            lam, ef_before, ef_after, sd_before, sd_after = (float(v) for v in values)
            if not _close(ef_before, ef_cell):
                errors.append(f"split{i}/seed{j} lambda {lam:g}: ef_before {ef_before} vs EF@{k} {ef_cell}")
            if lam == 1.0 and (ef_after != ef_before or sd_after != sd_before):
                errors.append(f"split{i}/seed{j}: lambda 1 changed the ranking")
    if ctx.workload.rerank_every_cell and reranked != len(all_cells):
        errors.append(f"only {reranked} of {len(all_cells)} cells reranked")
    return errors


def check_enrichment(ctx: RunContext, ev: Evaluation) -> list[str]:
    report = json.loads((ctx.run_dir / "report/pooled_metrics.json").read_text())
    value = report["mean"].get(f"ef{ev.top_k}")
    if value is None or value < ctx.workload.ef_floor:
        return [f"pooled EF@{ev.top_k} {value} below the deck's floor {ctx.workload.ef_floor}"]
    return []


def manifest_files(run_dir: Path) -> dict[str, str]:
    return json.loads((run_dir / "manifest.json").read_text())["files"]


def check_manifest(ctx: RunContext, ev: Evaluation) -> list[str]:
    """Hashes match the files; rebuild_report leaves manifest.json as it was.

    Every rebuild must write a manifest byte-identical to the first
    rebuild's, and the first rebuild's must be byte-identical to the one
    ``run_experiment`` wrote. The one exception is the fault in
    ``rebuild_report`` that ``_sweep_drift`` describes; it is allowed only
    where it can arise and only as far as it can reach, and is reported on
    standard error whenever it shows.
    """
    errors = []
    on_disk = {
        p.relative_to(ctx.run_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in ctx.run_dir.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    }
    listed = manifest_files(ctx.run_dir)
    for name in sorted(set(on_disk) | set(listed)):
        if on_disk.get(name) != listed.get(name):
            errors.append(f"{name}: manifest {listed.get(name)} vs file {on_disk.get(name)}")

    now = {
        "manifest": (ctx.run_dir / "manifest.json").read_text(),
        "lambda_sweep": (ctx.run_dir / SWEEP).read_text(),
    }
    run, rebuilds = ctx.snapshots[0], ctx.snapshots[1:] + [now]
    first = rebuilds[0]
    for k, later in enumerate(rebuilds[1:], 2):
        if later["manifest"] != first["manifest"]:
            errors.append(f"rebuild {k} wrote another manifest.json than rebuild 1")
            break
    expected = expected_sweep(ctx.run_dir, ev)
    if first["lambda_sweep"] != expected:
        errors.append(f"{SWEEP} after rebuild_report is not the mean of the cells' rerank.csv")
    if run["manifest"] != first["manifest"]:
        changed = _changed_files(run["manifest"], first["manifest"])
        if changed != [SWEEP]:
            errors.append(f"rebuild_report changed manifest.json: {changed[:5]}")
        else:
            drift = _sweep_drift(run["lambda_sweep"], first["lambda_sweep"], _reranked(ctx.run_dir))
            if drift is None:
                errors.append(f"rebuild_report changed {SWEEP} beyond the rounding of rerank.csv")
            else:
                sys.stderr.write(
                    f"known fault: rebuild_report moved {drift} value(s) of {SWEEP} by "
                    "one in the sixth decimal, since it averages the rounded rerank.csv\n"
                )
    return errors


def expected_sweep(run_dir: Path, ev: Evaluation) -> str:
    """lambda_sweep.csv as the mean of every reranked cell's rerank.csv.

    Cells are taken in the order the program reads them, and the mean is
    numpy's, so the figures match to the last bit, not just the last digit.
    """
    sweeps = []
    for split_dir in sorted((run_dir / "splits").glob("split*")):
        for cell in sorted(split_dir.glob("seed*")):
            rows = read_csv(cell / "rerank.csv")
            if rows:
                sweeps.append([[float(v) for v in list(r.values())[1:]] for r in rows])
    lines = [f"lambda,ef{ev.top_k}_before,ef{ev.top_k}_after,sd{ev.top_k}_before,sd{ev.top_k}_after"]
    if sweeps:
        for idx, lam in enumerate(ev.lambdas):
            columns = zip(*(sweep[idx] for sweep in sweeps))
            lines.append(",".join([f"{lam:g}"] + [f"{np.mean(list(c)):.6f}" for c in columns]))
    return "\n".join(lines) + "\n"


def _reranked(run_dir: Path) -> int:
    return sum(1 for _, _, cell in cells(run_dir) if read_csv(cell / "rerank.csv"))


def _changed_files(a: str, b: str) -> list[str]:
    """Entries of ``files`` that differ, or the top-level keys if those do."""
    ma, mb = json.loads(a), json.loads(b)
    top = sorted(k for k in set(ma) | set(mb) if k != "files" and ma.get(k) != mb.get(k))
    fa, fb = ma.get("files", {}), mb.get("files", {})
    return top + sorted(k for k in set(fa) | set(fb) if fa.get(k) != fb.get(k))


def _sweep_drift(run_text: str, rebuilt_text: str, reranked: int) -> int | None:
    """How many values the known rounding fault moved, or None if it cannot explain the change.

    ``run_experiment`` writes each mean of the sweep from the unrounded
    per-cell values, ``rebuild_report`` from the six-decimal ones in
    rerank.csv. The two means differ by at most the largest rounding error,
    half a unit of the sixth decimal, so once each is rounded to six
    decimals they differ by at most one unit there. With fewer than two
    reranked cells a mean is a single value and they cannot differ at all.
    """
    a, b = run_text.splitlines(), rebuilt_text.splitlines()
    if reranked < 2 or len(a) != len(b) or a[:1] != b[:1]:
        return None
    moved = 0
    for row_a, row_b in zip(a[1:], b[1:]):
        cells_a, cells_b = row_a.split(","), row_b.split(",")
        if len(cells_a) != len(cells_b) or cells_a[0] != cells_b[0]:
            return None
        for x, y in zip(cells_a[1:], cells_b[1:]):
            step = abs(_millionths(x) - _millionths(y))
            if step > 1:
                return None
            moved += step
    return moved


def _millionths(text: str) -> int:
    """A six-decimal figure as an integer count of millionths."""
    whole, _, fraction = text.partition(".")
    if len(fraction) != 6:
        raise ValueError(f"not a six-decimal figure: {text!r}")
    return int(whole + fraction)


def check_external(ctx: RunContext, ev: Evaluation) -> list[str]:
    if not ctx.workload.external_denoiser:
        return []
    errors = []
    if ctx.children_exited is not True:
        errors.append("a denoiser child process was still running after the run")
    ours = ctx.run_dir / "splits/split0/generated.csv"
    echo = ctx.echo_dir / "generated.csv" if ctx.echo_dir else None
    if echo is None or not echo.exists() or echo.read_bytes() != ours.read_bytes():
        errors.append("split0 generated.csv differs from the in-process echo denoiser's")
    return errors


CHECKS = {
    "metrics": check_metrics,
    "splits": check_splits,
    "generation": check_generation,
    "rerank": check_rerank,
    "enrichment": check_enrichment,
    "manifest": check_manifest,
    "external": check_external,
}


def run_checks(ctx: RunContext) -> dict[str, list[str]]:
    """Failures per check name; a check that raises fails with the exception."""
    ev = Evaluation.read(ctx.run_dir / "config.ini")
    failures = {}
    for name, check in CHECKS.items():
        try:
            failures[name] = check(ctx, ev)
        except (OSError, KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
            failures[name] = [f"{type(exc).__name__}: {exc}"]
    return failures
