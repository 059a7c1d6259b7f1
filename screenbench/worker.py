"""One measured screening experiment in a fresh interpreter.

``run.py`` starts this script once per measured run, so the peak resident
memory it reports belongs to the process that ran the experiment. It runs
``run_experiment`` once through the program's public API, then
``rebuild_report`` until it has done so for ``--report-seconds`` seconds and
at least ``--min-reports`` times, and writes a JSON result file. With
``--trace`` it first installs the layer trace, times the same calls under
it, and writes the spans and per-layer metrics as well.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import cpuclock  # noqa: E402


def _snapshot(run_dir: Path) -> dict:
    """The text of manifest.json and lambda_sweep.csv, to compare across rebuilds."""
    return {
        "manifest": (run_dir / "manifest.json").read_text(),
        "lambda_sweep": (run_dir / "report/lambda_sweep.csv").read_text(),
    }


def _children_exited(pid_file: Path) -> bool:
    """True when every denoiser child listed in ``pid_file`` has exited."""
    if not pid_file.exists():
        return False
    for line in pid_file.read_text().split():
        stat = Path(f"/proc/{line}/stat")
        try:
            state = stat.read_text().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            continue
        if state != "Z":
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--assay", required=True)
    parser.add_argument("--config", required=True, help="JSON object of RunConfig fields")
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--min-reports", type=int, required=True)
    parser.add_argument("--report-seconds", type=float, required=True)
    parser.add_argument("--trace", help="write spans here and report per-layer metrics")
    parser.add_argument("--echo-dir", help="rerun split 0's augmentation with the echo denoiser")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.install()
    from scaffscreen.pipeline import cli
    from scaffscreen.pipeline.config import RunConfig
    from scaffscreen.pipeline.runner import rebuild_report, run_experiment

    run_dir = Path(args.run_dir)
    # A fixed output_dir keeps config.ini, and so the manifest, the same for
    # the plain and the traced run whatever directory each runs in.
    config = RunConfig(assay=args.assay, output_dir="run", **json.loads(args.config))
    start = cpuclock.now()
    run_experiment(config, run_dir)
    experiment_s = cpuclock.now() - start
    snapshots = [_snapshot(run_dir)]
    report_s = []
    window = time.perf_counter()
    while len(report_s) < args.min_reports or time.perf_counter() - window < args.report_seconds:
        start = cpuclock.now()
        rebuild_report(run_dir)
        report_s.append(cpuclock.now() - start)
        snapshots.append(_snapshot(run_dir))
    result = {
        "experiment_s": experiment_s,
        "report_s": report_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "snapshots": snapshots,
    }
    if tracer is not None:
        tracer.save(args.trace)
        result["per_layer"] = {name: list(pair) for name, pair in tracer.metrics().items()}

    if args.echo_dir:
        pid_file = os.environ.get("SCREENBENCH_CHILD_PIDS")
        result["children_exited"] = bool(pid_file) and _children_exited(Path(pid_file))
        code = cli.main(
            [
                "augment",
                "--config", str(run_dir / "config.ini"),
                "--splits", str(run_dir / "splits.json"),
                "--split-index", "0",
                "--denoiser", "echo",
                "--out", args.echo_dir,
            ]
        )
        if code != 0:
            raise SystemExit(f"echo augmentation failed with exit code {code}")

    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
