"""Set-up probe: import `bundlesup` and load a workload's files, then report the clock.

Usage: python3 perfbench/probe.py <src dir> [<edges> <embeddings> <nodes> <class names, comma-separated>]

Prints `time.monotonic()` (a clock shared by every process on the machine)
after the last load, so the caller can subtract the moment it started
this process.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

import bundlesup.pipeline  # noqa: E402,F401  (imports every module but theorems and cli)
import bundlesup.theorems  # noqa: E402,F401
from bundlesup import graphs  # noqa: E402

files = sys.argv[2:]
if files:
    edges, embeddings, nodes, names = files
    graphs.load_edge_list(edges)
    graphs.load_embeddings(embeddings)
    graphs.load_node_table(nodes, names.split(","))
print(repr(time.monotonic()))
