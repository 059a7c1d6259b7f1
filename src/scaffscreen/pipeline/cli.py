"""Command-line front end.

``run`` drives the whole experiment; the other subcommands expose the
individual stages so partial pipelines can be scripted and artifacts can
be regenerated without retraining. Every command accepts ``--config`` for
an INI file; explicit flags win over file values.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..artifacts import DECIMALS
from ..chem import MolGraph, ParseError, parse_smiles
from ..diffusion import ProtocolError
from ..metrics import RankedList, write_metric_report
from ..selftrain import load_checkpoint, predict
from .config import ConfigError, RunConfig, load_config, parse_lambda_grid, resolve_overrides
from .ingest import AssayRecord, HeaderError, ingest
from .runner import (
    cell_metrics,
    derive_seed,
    open_denoiser,
    read_generated_pool,
    read_scores_csv,
    rebuild_report,
    rerank_cell,
    run_experiment,
    train_cells,
    write_augmentation,
    write_scores_csv,
)
from .splits import SplitPlan, TooFewScaffolds, make_splits

_KNOWN_ERRORS = (
    ConfigError,
    HeaderError,
    ParseError,
    ProtocolError,
    TooFewScaffolds,
    FileNotFoundError,
    ValueError,
)


def _resolve(args: argparse.Namespace) -> RunConfig:
    config = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    overrides = {
        "assay": getattr(args, "assay", None),
        "seed": getattr(args, "seed", None),
        "scheme": getattr(args, "scheme", None),
        "denoiser": getattr(args, "denoiser", None),
        "output_dir": getattr(args, "out", None),
    }
    if getattr(args, "no_augment", False):
        overrides["augment_enabled"] = False
    sweep = getattr(args, "lambda_sweep", None)
    if sweep:
        overrides["lambda_grid"] = parse_lambda_grid(sweep)
    return resolve_overrides(config, **overrides)


def cmd_ingest(args: argparse.Namespace) -> int:
    assay = ingest(args.assay, quarantine_path=args.quarantine)
    summary = {
        "records": assay.size,
        "actives": assay.n_actives,
        "active_fraction": round(assay.active_fraction, DECIMALS),
        "quarantined": len(assay.quarantined),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    config = _resolve(args)
    assay = ingest(config.assay)
    plan = make_splits(assay, scheme=config.scheme, seed=config.seed)
    plan.to_json(args.out)
    print(f"wrote {args.out}")
    return 0


def _folds(config: RunConfig, args: argparse.Namespace) -> dict[str, list[AssayRecord]]:
    """Records of each fold of the split named by --splits and --split-index."""
    by_id = {r.record_id: r for r in ingest(config.assay).records}
    split = SplitPlan.from_json(args.splits).splits[args.split_index]
    return {
        "train": [by_id[i] for i in split.train_ids],
        "valid": [by_id[i] for i in split.valid_ids],
        "test": [by_id[i] for i in split.test_ids],
    }


def _read_cell(path: Path) -> tuple[RankedList, dict[str, MolGraph]]:
    """The ranking of a scores file and its molecules by record id."""
    rows = read_scores_csv(path)
    ranked = RankedList.from_records((r, s, y) for r, _, s, y in rows)
    return ranked, {r: parse_smiles(smi) for r, smi, _, _ in rows}


def cmd_augment(args: argparse.Namespace) -> int:
    config = _resolve(args)
    seed = derive_seed(config.seed, "augment", args.split_index)
    out = Path(args.out)
    with open_denoiser(config) as external:
        products = write_augmentation(out, _folds(config, args)["train"], config, seed, external)
    total = products.report.total if products.report else 0
    n_valid = products.report.n_valid if products.report else 0
    print(f"generated {total} molecules, {n_valid} valid; artifacts in {out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _resolve(args)
    folds = _folds(config, args)
    pool = read_generated_pool(Path(args.generated))[1] if args.generated else []
    seed = derive_seed(config.seed, "train", args.split_index, args.eval_index)
    ((_, history),) = train_cells(
        [Path(args.out)], folds["train"], folds["valid"], pool, config, [seed]
    )
    best = max(history, key=lambda h: h.val_bedroc)
    print(f"trained {len(history)} epochs, best validation bedroc {best.val_bedroc:.4f}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    config = _resolve(args)
    model = load_checkpoint(args.model)
    if args.splits:
        records = _folds(config, args)[args.fold]
    else:
        records = list(ingest(config.assay).records)
    scores = predict(model, [r.mol for r in records])
    write_scores_csv(
        args.out,
        [(r.record_id, r.smiles, float(s), r.label) for r, s in zip(records, scores)],
    )
    print(f"scored {len(records)} records into {args.out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _resolve(args)
    ranked, mols_by_id = _read_cell(Path(args.scores))
    notes: list[str] = []
    values = cell_metrics(ranked, mols_by_id, config, notes, args.scores)
    write_metric_report(args.out, values)
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    print(json.dumps({k: round(v, DECIMALS) for k, v in sorted(values.items())}, indent=2))
    return 0


def cmd_rerank(args: argparse.Namespace) -> int:
    config = _resolve(args)
    ranked, mols_by_id = _read_cell(Path(args.scores))
    _, note = rerank_cell(Path(args.out), ranked, mols_by_id, config)
    if note is not None:
        print(f"note: {args.scores}: {note}", file=sys.stderr)
    print(f"wrote {args.out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = _resolve(args)
    run_dir = run_experiment(config)
    print(f"run complete: {run_dir}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    run_dir = rebuild_report(args.run)
    print(f"report rebuilt under {run_dir / 'report'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scaffscreen",
        description="Scaffold-aware virtual screening pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, assay: bool = False) -> None:
        p.add_argument("--config", help="INI configuration file")
        p.add_argument("--seed", type=int, help="override the root seed")
        if assay:
            p.add_argument("--assay", help="assay CSV (id,smiles,label)")

    p = sub.add_parser("ingest", help="validate an assay CSV")
    p.add_argument("--assay", required=True)
    p.add_argument("--quarantine", help="write rejected rows here")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("split", help="build the split plan")
    common(p, assay=True)
    p.add_argument("--scheme", choices=["random", "scaffold"])
    p.add_argument("--out", required=True, help="output splits.json")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("augment", help="cluster scaffolds and generate extensions")
    common(p, assay=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--split-index", type=int, default=0)
    p.add_argument("--denoiser", help="marginal, echo, or external:<command>")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("train", help="self-train a classifier on one split")
    common(p, assay=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--split-index", type=int, default=0)
    p.add_argument("--eval-index", type=int, default=0, help="evaluation seed index")
    p.add_argument("--generated", help="generated.csv pool from the augment stage")
    p.add_argument("--no-augment", action="store_true", help="ignore any pool")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score records with a trained model")
    common(p, assay=True)
    p.add_argument("--model", required=True)
    p.add_argument("--splits")
    p.add_argument("--split-index", type=int, default=0)
    p.add_argument("--fold", choices=["train", "valid", "test"], default="test")
    p.add_argument("--out", required=True, help="output scores.csv")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", help="early-recognition metrics for a scores file")
    common(p)
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True, help="output metrics.json")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rerank", help="diversity rerank sweep for a scores file")
    common(p)
    p.add_argument("--scores", required=True)
    p.add_argument("--lambda-sweep", help="comma-separated lambda grid")
    p.add_argument("--out", required=True, help="output rerank.csv")
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("run", help="full experiment into a run directory")
    common(p, assay=True)
    p.add_argument("--scheme", choices=["random", "scaffold"])
    p.add_argument("--no-augment", action="store_true")
    p.add_argument("--denoiser", help="marginal, echo, or external:<command>")
    p.add_argument("--lambda-sweep", help="comma-separated lambda grid")
    p.add_argument("--out", help="run directory (overrides output_dir)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="rebuild the report tables of a run")
    p.add_argument("--run", required=True, help="existing run directory")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "no_augment", False) and getattr(args, "generated", None):
        parser.error("--no-augment and --generated are mutually exclusive")
    try:
        return args.func(args)
    except _KNOWN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
