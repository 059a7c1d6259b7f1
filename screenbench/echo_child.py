"""Dense one-hot denoiser child for the external-denoiser workload.

Speaks the line-JSON protocol of ``scaffscreen.diffusion.denoisers``: one
request per line on stdin, one response per line on stdout. A trained
network answers for every node and every node pair, so this child does
too, instead of the protocol's sparse form. Each row is the one-hot of the
current category, which makes the reverse step draw exactly what the
in-process ``echo`` denoiser draws.

Usage: ``python3 echo_child.py <n_atom_types>``. When the environment names
a file in ``SCREENBENCH_CHILD_PIDS``, the child appends its process id there
so the benchmark can check that the program stopped it.
"""

from __future__ import annotations

import json
import os
import sys

N_EDGE_CATEGORIES = 5


def _one_hot_rows(width: int) -> list[str]:
    return [json.dumps([1.0 if k == c else 0.0 for k in range(width)]) for c in range(width)]


def main() -> int:
    n_atom_types = int(sys.argv[1])
    pid_file = os.environ.get("SCREENBENCH_CHILD_PIDS")
    if pid_file:
        with open(pid_file, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
    node_rows = _one_hot_rows(n_atom_types)
    edge_rows = _one_hot_rows(N_EDGE_CATEGORIES)
    for line in sys.stdin:
        if not line.strip():
            continue
        request = json.loads(line)
        nodes = request["nodes"]
        n = len(nodes)
        present = {(i, j): c for i, j, c in request["edges"]}
        pairs = ", ".join(
            f"[{i}, {j}, {edge_rows[present.get((i, j), 0)]}]"
            for i in range(n)
            for j in range(i + 1, n)
        )
        sys.stdout.write(
            '{"node_probs": [' + ", ".join(node_rows[c] for c in nodes) + '], '
            '"edge_probs": [' + pairs + "]}\n"
        )
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
