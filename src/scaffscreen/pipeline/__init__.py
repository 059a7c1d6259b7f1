"""Batch pipeline: ingestion, splits, configuration, runner, CLI."""

from .config import ConfigError, RunConfig, dump_config, load_config, resolve_overrides
from .ingest import Assay, AssayRecord, HeaderError, QuarantinedRow, ingest
from .runner import AugmentProducts, derive_seed, rebuild_report, run_experiment
from .splits import Split, SplitPlan, TooFewScaffolds, make_splits

__all__ = [
    "Assay",
    "AssayRecord",
    "AugmentProducts",
    "ConfigError",
    "HeaderError",
    "QuarantinedRow",
    "RunConfig",
    "Split",
    "SplitPlan",
    "TooFewScaffolds",
    "derive_seed",
    "dump_config",
    "ingest",
    "load_config",
    "make_splits",
    "rebuild_report",
    "resolve_overrides",
    "run_experiment",
]
