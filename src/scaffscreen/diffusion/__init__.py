"""Discrete graph diffusion for scaffold-conditioned molecule generation."""

from .denoisers import (
    Denoiser,
    ExternalDenoiser,
    MarginalDenoiser,
    OneHotEchoDenoiser,
    ProtocolError,
)
from .marginals import (
    EDGE_CATEGORIES,
    EDGE_NONE,
    Marginals,
    compute_marginals,
    decode_graph,
    encode_molecule,
)
from .sampler import (
    GeneratedEntry,
    GenerationReport,
    extend_scaffold,
    generate_scaffold_extensions,
    posterior_distributions,
)
from .schedule import CosineSchedule, mixing_matrix

__all__ = [
    "CosineSchedule",
    "Denoiser",
    "EDGE_CATEGORIES",
    "EDGE_NONE",
    "ExternalDenoiser",
    "GeneratedEntry",
    "GenerationReport",
    "Marginals",
    "MarginalDenoiser",
    "OneHotEchoDenoiser",
    "ProtocolError",
    "compute_marginals",
    "decode_graph",
    "encode_molecule",
    "extend_scaffold",
    "generate_scaffold_extensions",
    "mixing_matrix",
    "posterior_distributions",
]
