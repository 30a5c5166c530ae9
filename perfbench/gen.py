"""Seeded input generators for the benchmark, with memory linear in the edge count.

A planted partition: nodes split into equal class blocks; every class is
first closed into a random ring (so no node is isolated), then random
edges are added, each joining two nodes of one class with probability
`p_intra` and two nodes of different classes otherwise, until the graph
holds `n * avg_degree / 2` distinct edges. Embeddings are Gaussian around
`separation * e_class`, as in the program's own SBM. No n-by-n array is
ever formed.

The files use the program's documented formats (edge list with an
"n <count>" header, "n d" embedding matrix, JSON-lines node table), so the
program reads them through its own loaders.
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import dataclass

import numpy as np

# Item texts carry their class after this word; the chat stub reads it back.
TOPIC_WORD = "topic"
# A core node whose text carries this tag gets an ambiguous first reply.
DISPUTED_TAG = "(disputed)"
TEXT_LIMIT = 2000   # the client's default per-item character limit

_FILLER = (
    "graph node signal weak label bundle nearby annotate class mode "
    "member refine train loss entropy rank neighbor embed sample core"
).split()


@dataclass(frozen=True)
class PartitionSpec:
    n: int
    n_classes: int = 20
    avg_degree: float = 10.0
    p_intra: float = 0.6
    dim: int = 24
    separation: float = 2.5
    sigma: float = 1.0
    texts: bool = False


@dataclass
class Dataset:
    """Paths of the written files plus the generator's own ground truth."""

    edges_path: str
    embeddings_path: str
    nodes_path: str
    class_names: tuple
    labels: np.ndarray   # (n,) class index per node
    edges: np.ndarray    # (m, 2) with u < v, sorted


# the file-backed inputs of each workload that has them
SPECS = {
    "large": PartitionSpec(n=20000),
    "llm": PartitionSpec(n=400, texts=True),
}


def mode_class(member_labels) -> int:
    """Most frequent class index; ties go to the lowest index."""
    counts = {}
    for c in member_labels:
        counts[int(c)] = counts.get(int(c), 0) + 1
    best = max(counts.values())
    return min(c for c, k in counts.items() if k == best)


def class_names(n_classes: int) -> tuple:
    return tuple(f"class_{c}" for c in range(n_classes))


def planted_edges(spec: PartitionSpec, labels: np.ndarray, rng) -> np.ndarray:
    """Distinct undirected edges (u < v), sorted; see the module docstring."""
    n, per = spec.n, spec.n // spec.n_classes
    target = int(round(n * spec.avg_degree / 2))
    # ring through each class block in a random order
    order = np.concatenate([c * per + rng.permutation(per) for c in range(spec.n_classes)])
    ring = order.reshape(spec.n_classes, per)
    u, v = ring.ravel(), np.roll(ring, -1, axis=1).ravel()
    keys = np.unique(np.minimum(u, v) * n + np.maximum(u, v))
    while keys.size < target:
        draw = max(1024, int(1.2 * (target - keys.size)))
        u = rng.integers(0, n, size=draw)
        intra = rng.random(draw) < spec.p_intra
        # intra: a uniform node of u's block; inter: a uniform node of another block
        v_intra = labels[u] * per + rng.integers(0, per, size=draw)
        shift = rng.integers(1, spec.n_classes, size=draw)
        v_inter = ((labels[u] + shift) % spec.n_classes) * per + rng.integers(0, per, size=draw)
        v = np.where(intra, v_intra, v_inter)
        ok = u != v
        new = np.minimum(u, v)[ok] * n + np.maximum(u, v)[ok]
        new = new[~np.isin(new, keys)]
        _, first = np.unique(new, return_index=True)
        new = new[np.sort(first)][: target - keys.size]
        keys = np.union1d(keys, new)
    return np.stack([keys // n, keys % n], axis=1)


def node_text(node: int, class_name: str, rng) -> str:
    """Item text naming the node's class; one in ten runs past TEXT_LIMIT."""
    length = TEXT_LIMIT + 500 if rng.random() < 0.1 else int(rng.integers(80, 600))
    head = f"node {node} {TOPIC_WORD} {class_name}"
    if node % 10 == 0:
        head += f" {DISPUTED_TAG}"
    words = [_FILLER[i] for i in rng.integers(0, len(_FILLER), size=length // 4)]
    return (head + ". " + " ".join(words))[:length]


def write_partition(out_dir: str, spec: PartitionSpec, seed: int) -> Dataset:
    """Generate one planted partition from `seed` and write its three files."""
    if spec.n % spec.n_classes:
        raise ValueError("n must be a multiple of n_classes")
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, spec.n])
    per = spec.n // spec.n_classes
    labels = np.repeat(np.arange(spec.n_classes), per)
    names = class_names(spec.n_classes)
    edges = planted_edges(spec, labels, rng)

    paths = [os.path.join(out_dir, f) for f in ("edges.txt", "embeddings.txt", "nodes.jsonl")]
    with open(paths[0], "w", encoding="utf-8") as fh:
        fh.write(f"n {spec.n}\n")
        for lo in range(0, edges.shape[0], 65536):
            np.savetxt(fh, edges[lo:lo + 65536], fmt="%d")
    with open(paths[1], "w", encoding="utf-8") as fh:
        fh.write(f"{spec.n} {spec.dim}\n")
        for lo in range(0, spec.n, 4096):
            block = labels[lo:lo + 4096]
            x = rng.normal(0.0, spec.sigma, size=(block.size, spec.dim))
            x[np.arange(block.size), block] += spec.separation
            np.savetxt(fh, x, fmt="%.10g")
    with open(paths[2], "w", encoding="utf-8") as fh:
        for i in range(spec.n):
            rec = {"id": i, "label": names[labels[i]]}
            if spec.texts:
                rec["text"] = node_text(i, names[labels[i]], rng)
            fh.write(json.dumps(rec) + "\n")
    return Dataset(*paths, class_names=names, labels=labels, edges=edges)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description="Write a workload's input files for one seed.")
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    data = write_partition(args.out, SPECS[args.workload], args.seed)
    print(f"wrote {args.out}: n={data.labels.size} edges={data.edges.shape[0]}")


if __name__ == "__main__":
    main()
