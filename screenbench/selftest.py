"""Self-test of the output checks on tampered copies of a finished run.

    python3 screenbench/selftest.py

Uses the last plain scaffold-rich run (run ``run.py`` for that workload
first): its cells rerank, so the lambda = 1 case has a row to change. Each
case copies that run, changes one thing, and must fail the check named for
it; the untouched copy must pass every check. Exits 0 when every case
behaves.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import RunContext, read_csv, run_checks  # noqa: E402
from decks import WORKLOADS  # noqa: E402

SOURCE = HERE / "out" / "scaffold-rich-trace0" / "work"


def _write_csv(path: Path, rows: list[dict[str, str]], header: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _cell(run: Path) -> Path:
    return run / "splits/split0/seed0"


def flip_score(run: Path, ctx: RunContext) -> None:
    """Send the best-scored active to the bottom of its cell."""
    path = _cell(run) / "scores.csv"
    rows = read_csv(path)
    top = max((r for r in rows if r["label"] == "1"), key=lambda r: float(r["score"]))
    top["score"] = repr(min(float(r["score"]) for r in rows) - 1.0)
    _write_csv(path, rows, ["id", "smiles", "score", "label"])


def edit_metric(run: Path, ctx: RunContext) -> None:
    path = _cell(run) / "metrics.json"
    values = json.loads(path.read_text())
    values["bedroc"] = round(values["bedroc"] + 0.01, 6)
    path.write_text(json.dumps(values, indent=2, sort_keys=True) + "\n")


def drop_test_id(run: Path, ctx: RunContext) -> None:
    path = _cell(run) / "scores.csv"
    rows = read_csv(path)
    _write_csv(path, rows[:-1], ["id", "smiles", "score", "label"])


def change_lambda_one(run: Path, ctx: RunContext) -> None:
    for path in sorted(run.glob("splits/split*/seed*/rerank.csv")):
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            if float(row[0]) == 1.0:
                row[2] = f"{float(row[2]) + 1.0:.6f}"
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    csv.writer(fh, lineterminator="\n").writerows(rows)
                return
    raise SystemExit("the run has no rerank rows")


def change_generated_row(run: Path, ctx: RunContext) -> None:
    """Flip one validity flag and rewrite the manifest to match."""
    path = run / "splits/split0/generated.csv"
    rows = read_csv(path)
    rows[0]["valid"] = "0" if rows[0]["valid"] == "1" else "1"
    _write_csv(path, rows, ["id", "smiles", "cluster_id", "valid"])
    manifest_path = run / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["files"]["splits/split0/generated.csv"] = hashlib.sha256(path.read_bytes()).hexdigest()
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    manifest_path.write_text(text)
    ctx.snapshots = [{**snap, "manifest": text} for snap in ctx.snapshots]


def change_sweep_digit(run: Path, ctx: RunContext) -> None:
    """Move one figure of lambda_sweep.csv by two in its sixth decimal.

    The manifest is kept in step, as if every rebuild_report had written
    both, so only the sweep's content can give it away.
    """
    path = run / "report/lambda_sweep.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[1] = f"{float(cells[1]) + 2e-6:.6f}"
    lines[1] = ",".join(cells)
    sweep = "\n".join(lines) + "\n"
    path.write_text(sweep)
    manifest_path = run / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["files"]["report/lambda_sweep.csv"] = hashlib.sha256(path.read_bytes()).hexdigest()
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    manifest_path.write_text(text)
    rebuilt = {"manifest": text, "lambda_sweep": sweep}
    ctx.snapshots = ctx.snapshots[:1] + [rebuilt] * (len(ctx.snapshots) - 1)


CASES = (
    ("untouched", None, None),
    ("flipped score", flip_score, "metrics"),
    ("edited metric", edit_metric, "metrics"),
    ("dropped test id", drop_test_id, "splits"),
    ("lambda 1 row that differs", change_lambda_one, "rerank"),
    ("changed generated row, manifest in step", change_generated_row, "generation"),
    ("lambda_sweep.csv figure off by two digits, manifest in step", change_sweep_digit, "manifest"),
)


def main() -> int:
    context = SOURCE / "context.json"
    if not context.exists():
        sys.stderr.write("no finished scaffold-rich run; run run.py for that workload first\n")
        return 2
    saved = json.loads(context.read_text())
    scratch = HERE / "out" / "selftest"
    ok = True
    for label, tamper, expected in CASES:
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(SOURCE, scratch)
        ctx = RunContext(
            run_dir=scratch / "run",
            assay=Path(saved["assay"]),
            workload=WORKLOADS[saved["workload"]],
            snapshots=saved["snapshots"],
            echo_dir=scratch / "echo" if saved["echo_dir"] else None,
            children_exited=saved["children_exited"],
        )
        if tamper is not None:
            tamper(ctx.run_dir, ctx)
        failed = sorted(name for name, errors in run_checks(ctx).items() if errors)
        good = failed == [] if expected is None else expected in failed
        ok &= good
        verdict = "ok" if good else "WRONG"
        print(f"{verdict}: {label}: failed checks {failed or 'none'}")
    shutil.rmtree(scratch, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
