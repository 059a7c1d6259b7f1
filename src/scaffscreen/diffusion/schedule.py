"""Cosine noise schedule and categorical transition matrices.

The cumulative retention follows the squared-cosine curve normalized so
that step zero keeps the data exactly and step T has fully mixed into the
marginal prior:

    f(t) = cos^2( ((t / T + s) / (1 + s)) * pi / 2 ),   s = 0.008
    alpha_bar(t) = f(t) / f(0)

A cumulative transition at step t mixes identity with the prior row:

    Qbar_t = alpha_bar(t) * I + (1 - alpha_bar(t)) * 1 prior^T

Because this family is closed under composition, the per-step matrix is
the same shape with ratio alpha_bar(t) / alpha_bar(t - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["CosineSchedule", "mixing_matrix"]

DEFAULT_TIMESTEPS = 50
_SHIFT = 0.008


@dataclass(frozen=True)
class CosineSchedule:
    timesteps: int = DEFAULT_TIMESTEPS

    def __post_init__(self) -> None:
        if self.timesteps < 1:
            raise ValueError("need at least one timestep")

    def _raw(self, t: float) -> float:
        angle = ((t / self.timesteps + _SHIFT) / (1.0 + _SHIFT)) * math.pi / 2.0
        return math.cos(angle) ** 2

    def alpha_bar(self, t: int) -> float:
        """Cumulative retention in [0, 1]; exactly 1 at t = 0."""
        if not 0 <= t <= self.timesteps:
            raise ValueError(f"t must lie in [0, {self.timesteps}]")
        return self._raw(t) / self._raw(0)

    def step_ratio(self, t: int) -> float:
        """Single-step retention alpha_bar(t) / alpha_bar(t - 1) for t >= 1."""
        if t < 1:
            raise ValueError("step ratio is defined for t >= 1")
        return self.alpha_bar(t) / self.alpha_bar(t - 1)


def mixing_matrix(retention: float, prior: np.ndarray) -> np.ndarray:
    """retention * I + (1 - retention) * ones prior^T; rows sum to one."""
    k = len(prior)
    return retention * np.eye(k) + (1.0 - retention) * np.tile(prior, (k, 1))
