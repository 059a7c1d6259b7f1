"""Screening benchmark: one workload, one seed, one JSON result line.

    python3 screenbench/run.py --workload deck-2k --seed 1 --seconds 8 --trace 0

Plain mode (``--trace 0``) generates the assay five times in fresh
interpreters (set-up), then starts one worker process that runs
``run_experiment`` once and then rebuilds the report with
``rebuild_report`` until it has done so for ``--seconds`` seconds and at
least five times. The run directory goes through
the output checks. The last line of standard output is the result, with
the end-to-end metrics.

Traced mode (``--trace 1``) generates the assay once, runs one plain worker
and one worker under the layer trace, each with a single report rebuild,
checks both, requires the two manifests to list the same files with the
same hashes, and reports the per-layer metrics plus ``trace.overhead_s``.

Every process the benchmark starts must end within ``RUN_BUDGET_S`` of its
start; one that does not is killed with its process group and counted as a
failed operation, and the result line is still printed.

Output goes to ``screenbench/out/<workload>-trace<0|1>/``, which each run
of that workload and mode replaces, so such runs must not overlap. The run
directory stays there for ``selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import cpuclock  # noqa: E402
from checks import RunContext, manifest_files, run_checks  # noqa: E402
from decks import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
MIN_REPORTS = 5
RUN_BUDGET_S = 165
DEADLINE = time.monotonic() + RUN_BUDGET_S


class Tally:
    """Operations attempted and failed in this run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def _run(cmd: list[str], env: dict | None = None) -> subprocess.CompletedProcess:
    """Run ``cmd`` in its own process group; kill the group at the deadline."""
    with subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=max(DEADLINE - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            err += f"{Path(cmd[1]).name} killed: the run's {RUN_BUDGET_S} s budget ran out\n"
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def set_up(
    workload: str, seed: int, out: Path, repeats: int, tally: Tally
) -> tuple[list[float], dict, bool]:
    """Generate the assay in fresh interpreters.

    Returns the times, the assay's facts, and whether every attempt wrote
    the same bytes.
    """
    times, facts, texts = [], {}, set()
    for k in range(repeats):
        path = out / f"assay{k}.csv"
        start = cpuclock.now()
        proc = _run(
            [sys.executable, str(HERE / "decks.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(path)]
        )
        elapsed = cpuclock.now() - start
        tally.record(1, int(proc.returncode != 0))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            continue
        times.append(elapsed)
        facts = json.loads(proc.stdout.splitlines()[-1])
        texts.add(path.read_bytes())
        path.replace(out / "assay.csv")
    if len(texts) > 1:
        sys.stderr.write("set-up is not deterministic: one seed gave different assays\n")
    return times, facts, len(texts) == 1


def run_worker(
    workload, assay: Path, facts: dict, work_dir: Path, min_reports: int,
    report_seconds: float, traced: bool, tally: Tally,
) -> dict | None:
    """One worker process: the experiment, report rebuilds, then the checks.

    A worker that fails counts as one failed operation, since how far it
    got is unknown; one that succeeds counts the experiment and each
    rebuild.
    """
    work_dir.mkdir(parents=True)
    config = dict(workload.config)
    env = dict(os.environ)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--assay", str(assay),
        "--run-dir", str(work_dir / "run"),
        "--min-reports", str(min_reports),
        "--report-seconds", str(report_seconds),
        "--result", str(work_dir / "result.json"),
    ]
    if workload.external_denoiser:
        child = [sys.executable, str(HERE / "echo_child.py"), str(facts["n_atom_types"])]
        config["denoiser"] = "external:" + shlex.join(child)
        env["SCREENBENCH_CHILD_PIDS"] = str(work_dir / "child_pids.txt")
        cmd += ["--echo-dir", str(work_dir / "echo")]
    if traced:
        cmd += ["--trace", str(work_dir / "spans.npz")]
    cmd += ["--config", json.dumps(config)]
    proc = _run(cmd, env=env)
    if proc.returncode != 0:
        tally.record(1, 1)
        sys.stderr.write(proc.stderr)
        return None
    result = json.loads((work_dir / "result.json").read_text())
    tally.record(1 + len(result["report_s"]), 0)
    ctx = RunContext(
        run_dir=work_dir / "run",
        assay=assay,
        workload=workload,
        snapshots=result["snapshots"],
        echo_dir=work_dir / "echo" if workload.external_denoiser else None,
        children_exited=result.get("children_exited"),
    )
    (work_dir / "context.json").write_text(json.dumps(ctx.to_json()))
    failures = {name: errs for name, errs in run_checks(ctx).items() if errs}
    for name, errs in failures.items():
        for err in errs[:5]:
            sys.stderr.write(f"check {name} failed: {err}\n")
    result["correct"] = not failures
    result["files"] = manifest_files(ctx.run_dir)
    return result


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def plain(workload, seed: int, seconds: float, out: Path, tally: Tally):
    setup_times, facts, same = set_up(workload.name, seed, out, SETUP_REPEATS, tally)
    if not setup_times:
        return False, {}
    result = run_worker(
        workload, out / "assay.csv", facts, out / "work", MIN_REPORTS, seconds, False, tally
    )
    if result is None:
        return False, {}
    metrics = {
        "experiment_s": metric(result["experiment_s"], "s"),
        "report_s": metric(statistics.median(result["report_s"]), "s"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        "setup_s": metric(statistics.median(setup_times), "s"),
    }
    return same and result["correct"], metrics


def traced(workload, seed: int, out: Path, tally: Tally):
    setup_times, facts, _ = set_up(workload.name, seed, out, 1, tally)
    if not setup_times:
        return False, {}
    assay = out / "assay.csv"
    base = run_worker(workload, assay, facts, out / "plain", 1, 0, False, tally)
    if base is None:
        return False, {}
    shutil.rmtree(out / "plain" / "run")
    result = run_worker(workload, assay, facts, out / "traced", 1, 0, True, tally)
    if result is None:
        return False, {}
    correct = base["correct"] and result["correct"]
    if base["files"] != result["files"]:
        sys.stderr.write("traced run's manifest files map differs from the plain run's\n")
        correct = False
    metrics = {name: metric(value, unit) for name, (value, unit) in result["per_layer"].items()}
    metrics["trace.overhead_s"] = metric(result["experiment_s"] - base["experiment_s"], "s")
    return correct, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "scaffscreen" / "__init__.py").is_file():
        sys.stderr.write(f"no scaffscreen sources under {ROOT / 'src'}; run from a checkout\n")
        return 2

    # One CPU for this process and every process it starts: a round trip to
    # the denoiser child then costs a context switch rather than a wake-up
    # on the other CPU, whose latency on a shared machine doubled the
    # external-denoiser's experiment_s from run to run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    out = HERE / "out" / f"{workload.name}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tally = Tally()
    if args.trace:
        correct, metrics = traced(workload, args.seed, out, tally)
    else:
        correct, metrics = plain(workload, args.seed, args.seconds, out, tally)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if metrics else 1


if __name__ == "__main__":
    raise SystemExit(main())
