"""Line-JSON denoiser child process used by the external-denoiser tests.

Reads one request per line from stdin and answers with one JSON line.
Modes, chosen by argv[1]:
  echo      one-hot on the current graph categories (default)
  garbage   reply with a non-JSON line
  badrow    node probability rows that do not sum to one
  pair      an edge entry that is a pair, not an [i, j, row] triple
  wide      an edge row six categories wide
  outside   an edge entry whose index is the node count
  negative  a node row [1.5, -0.5, 0, ...] that sums to one
  linger    echo, but stay alive for a minute after stdin closes
  once      echo one request, then exit 0
argv[2] is the atom-type count. When the environment names a file in
``ECHO_DENOISER_PIDS``, the child appends its process id there, so a test
can count the children a run starts and check that they have exited.
"""

from __future__ import annotations

import json
import os
import sys
import time

N_EDGE_CATEGORIES = 5


def _respond(request: dict, mode: str, n_atom_types: int) -> str:
    nodes = request["nodes"]
    if mode == "garbage":
        return "not json at all"
    if mode == "badrow":
        node_probs = [[0.7] * n_atom_types for _ in nodes]
        return json.dumps({"node_probs": node_probs, "edge_probs": []})
    node_probs = []
    for category in nodes:
        row = [0.0] * n_atom_types
        row[category] = 1.0
        node_probs.append(row)
    if mode == "negative":
        node_probs[0] = [1.5, -0.5] + [0.0] * (n_atom_types - 2)
    edge_probs = []
    for i, j, category in request["edges"]:
        row = [0.0] * N_EDGE_CATEGORIES
        row[category] = 1.0
        edge_probs.append([i, j, row])
    no_edge = [1.0] + [0.0] * (N_EDGE_CATEGORIES - 1)
    if mode == "pair":
        edge_probs.append([0, no_edge])
    elif mode == "wide":
        edge_probs.append([0, 1, no_edge + [0.0]])
    elif mode == "outside":
        edge_probs.append([0, len(nodes), no_edge])
    return json.dumps({"node_probs": node_probs, "edge_probs": edge_probs})


def main() -> int:
    mode = sys.argv[1] if len(sys.argv) > 1 else "echo"
    n_atom_types = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    pid_file = os.environ.get("ECHO_DENOISER_PIDS")
    if pid_file:
        with open(pid_file, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        request = json.loads(line)
        sys.stdout.write(_respond(request, mode, n_atom_types) + "\n")
        sys.stdout.flush()
        if mode == "once":
            break
    if mode == "linger":
        time.sleep(60)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
