"""Run configuration: flat key-value INI with one section per stage.

Unknown sections or keys are rejected so typos fail loudly. Command-line
flags override file values; the fully resolved configuration is written
into the run directory for the manifest to hash.
"""

from __future__ import annotations

import configparser
import io
import shlex
from dataclasses import dataclass, fields
from pathlib import Path

from ..fingerprints import check_nbits
from ..metrics import check_fpr_window
from ..rerank import check_lambda
from ..selftrain import SelfTrainConfig

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "parse_lambda_grid",
    "resolve_overrides",
    "dump_config",
]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    # [run]
    assay: str = ""
    output_dir: str = "runs/latest"
    seed: int = 7
    scheme: str = "random"
    eval_seeds: int = 3
    # [augment]
    augment_enabled: bool = True
    sampling: str = "balanced"  # "balanced" (inverse cluster size) or "uniform"
    denoiser: str = "marginal"  # "marginal", "echo", or "external:<command>"
    timesteps: int = 50
    library_fraction: float = 0.1
    k_min: int = 2
    k_max: int = 20
    # [features]
    radius: int = 2
    nbits: int = 1024
    # [train]
    epochs: int = 100
    warmup_epochs: int = 20
    refresh_period: int = 5
    confidence_threshold: float = 0.9
    learning_rate: float = 0.1
    l2_penalty: float = 1e-4
    batch_size: int = 128
    lr_decay_power: float = 0.9
    # [evaluate]
    fpr_lo: float = 0.001
    fpr_hi: float = 0.1
    bedroc_alpha: float = 20.0
    top_k: int = 100
    candidate_cap: int = 500
    lambda_grid: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)

    def __post_init__(self) -> None:
        if self.scheme not in ("random", "scaffold"):
            raise ConfigError(f"unknown split scheme {self.scheme!r}")
        if self.sampling not in ("balanced", "uniform"):
            raise ConfigError(f"unknown sampling mode {self.sampling!r}")
        if not (self.denoiser in ("marginal", "echo") or self.denoiser.startswith("external:")):
            raise ConfigError(f"unknown denoiser {self.denoiser!r}")
        if not 0.0 < self.library_fraction <= 1.0:
            raise ConfigError("library_fraction must lie in (0, 1]")
        lows = dict(eval_seeds=1, timesteps=1, batch_size=1, candidate_cap=1, top_k=2, radius=0)
        for name, low in lows.items():  # top_k >= 2: sd@k compares pairs
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be at least {low}")
        if not 2 <= self.k_min <= self.k_max:
            raise ConfigError("need 2 <= k_min <= k_max")
        if not self.bedroc_alpha > 0.0:
            raise ConfigError("bedroc_alpha must be positive")
        if not self.lambda_grid:
            raise ConfigError("lambda_grid must not be empty")
        try:
            check_nbits(self.nbits)
            check_fpr_window(self.fpr_lo, self.fpr_hi)
            for lam in self.lambda_grid:
                check_lambda(lam)
            self.train_config()
            if self.denoiser.startswith("external:") and not self.external_command():
                raise ValueError(f"denoiser {self.denoiser!r} names no command")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def external_command(self) -> list[str] | None:
        """The argv of an ``external:<command>`` denoiser; None for any other spec."""
        if not self.denoiser.startswith("external:"):
            return None
        return shlex.split(self.denoiser[len("external:"):]) or None  # ValueError: open quote

    def train_config(self, seed: int = 0) -> SelfTrainConfig:
        """The self-training settings of one cell, drawing from ``seed``."""
        names = (f.name for f in fields(SelfTrainConfig) if f.name != "seed")
        return SelfTrainConfig(**{name: getattr(self, name) for name in names}, seed=seed)


_SECTIONS: dict[str, tuple[str, ...]] = {
    "run": ("assay", "output_dir", "seed", "scheme", "eval_seeds"),
    "augment": (
        "augment_enabled",
        "sampling",
        "denoiser",
        "timesteps",
        "library_fraction",
        "k_min",
        "k_max",
    ),
    "features": ("radius", "nbits"),
    "train": (
        "epochs",
        "warmup_epochs",
        "refresh_period",
        "confidence_threshold",
        "learning_rate",
        "l2_penalty",
        "batch_size",
        "lr_decay_power",
    ),
    "evaluate": (
        "fpr_lo",
        "fpr_hi",
        "bedroc_alpha",
        "top_k",
        "candidate_cap",
        "lambda_grid",
    ),
}

_INI_NAMES = {
    "augment_enabled": "enabled",
}


_DEFAULTS = RunConfig()


def parse_lambda_grid(text: str) -> tuple[float, ...]:
    """The lambdas of a comma-separated grid, as ``lambda_grid`` and ``--lambda-sweep`` give it."""
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad lambda grid {text!r}") from exc


def _coerce(name: str, raw: str):
    raw = raw.strip()
    if name == "lambda_grid":
        return parse_lambda_grid(raw)
    default = getattr(_DEFAULTS, name)
    if isinstance(default, bool):
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"bad boolean for {name}: {raw!r}")
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"bad integer for {name}: {raw!r}") from exc
    if isinstance(default, float):
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"bad float for {name}: {raw!r}") from exc
    return raw


def load_config(path: str | Path) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    values: dict[str, object] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        allowed = _SECTIONS[section]
        ini_to_field = {_INI_NAMES.get(name, name): name for name in allowed}
        for key, raw in parser.items(section):
            if key not in ini_to_field:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            name = ini_to_field[key]
            values[name] = _coerce(name, raw)
    return RunConfig(**values)


def resolve_overrides(config: RunConfig, **overrides) -> RunConfig:
    """New config with non-None overrides applied."""
    updates = {k: v for k, v in overrides.items() if v is not None}
    if not updates:
        return config
    current = {f.name: getattr(config, f.name) for f in fields(RunConfig)}
    current.update(updates)
    return RunConfig(**current)


def dump_config(config: RunConfig) -> str:
    """Render the resolved configuration back to INI text."""
    parser = configparser.ConfigParser()
    for section, names in _SECTIONS.items():
        parser[section] = {}
        for name in names:
            value = getattr(config, name)
            if name == "lambda_grid":
                text = ",".join(f"{v:g}" for v in value)
            elif isinstance(value, bool):
                text = "true" if value else "false"
            else:
                text = str(value)
            parser[section][_INI_NAMES.get(name, name)] = text
    buffer = io.StringIO()
    parser.write(buffer)
    return buffer.getvalue()
