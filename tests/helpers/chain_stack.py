"""Split a denoiser's chain stack into each chain's graph."""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np


def split_stack(
    nodes: np.ndarray, pairs: np.ndarray, sizes: Sequence[int]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each chain's (nodes, pairs), in stack order; checks that the stack is used up."""
    node_start = pair_start = 0
    for n in sizes:
        m = n * (n - 1) // 2
        yield nodes[node_start : node_start + n], pairs[pair_start : pair_start + m]
        node_start += n
        pair_start += m
    assert (node_start, pair_start) == (len(nodes), len(pairs)), "stack and sizes disagree"
