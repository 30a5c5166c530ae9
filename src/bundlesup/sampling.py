"""Construction of node bundles around randomly drawn core nodes.

Three member-selection criteria:

  topological  sample within the smallest BFS radius k whose neighborhood
               holds at least bundle_size - 1 candidates (adaptive hop)
  semantic     take the bundle_size - 1 nearest other nodes by Euclidean
               distance in the embedding space (ties -> lower index)
  random       uniform over all other nodes, ignoring proximity

Per-bundle randomness is derived from (seed, bundle id) so results do not
depend on evaluation order. The topological criterion walks the CSR rows
of a `graphs.Csr`: the graph itself or its Â, which give the same bundles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .graphs import FormatError, hop_distances, open_text

CRITERIA = ("topological", "semantic", "random")

# rng stream tags so the same user seed never aliases across purposes
_STREAM_CORES = 0
_STREAM_MEMBERS = 1


class IsolatedCoreError(RuntimeError):
    """The chosen core node has no neighbors to sample from."""


class SamplingBudgetError(RuntimeError):
    """Core redraws ran out before all bundles were built."""

    def __init__(self, succeeded: int, requested: int, attempts: int):
        self.succeeded = succeeded
        super().__init__(
            f"exhausted {attempts} core redraws with {succeeded}/{requested} bundles built"
        )


@dataclass
class Bundle:
    """A core node plus proximate members, annotated with one class label."""

    id: int
    core: int
    members: list
    label: int | None = None
    evicted: list = field(default_factory=list)

    def __post_init__(self):
        evicted_nodes = {node for _, node in self.evicted}
        if self.core not in self.members and self.core not in evicted_nodes:
            raise ValueError("core must be a member of its own bundle")
        if len(set(self.members)) != len(self.members):
            raise ValueError("bundle members must be distinct")
        if len(self.members) < 2:
            raise ValueError("a bundle needs at least two members")


@dataclass(frozen=True)
class SamplingConfig:
    criterion: str = "topological"
    bundle_size: int = 5
    num_bundles: int = 100
    seed: int = 0
    max_resample_attempts: int = 100

    def __post_init__(self):
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}")
        if self.bundle_size < 2:
            raise ValueError("bundle_size must be >= 2")
        if self.num_bundles < 1:
            raise ValueError("num_bundles must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def sample_topological(
    graph, core: int, bundle_size: int, rng: np.random.Generator, bundle_id: int = 0
) -> Bundle:
    """Core plus a uniform sample from its adaptive-hop neighborhood in a
    graph or its Â, whose self-connections change no BFS level."""
    # the search stops at the adaptive radius, so the pool is every node it
    # reached but the core, which comes first
    reached = hop_distances(graph, core, bundle_size - 1)[0][1:]
    if reached.size == 0:
        raise IsolatedCoreError(f"node {core} has no neighbors")
    pool = np.sort(reached)   # ascending node order, the draw's pool order
    take = min(bundle_size - 1, pool.size)
    chosen = rng.choice(pool, size=take, replace=False)
    return Bundle(id=bundle_id, core=int(core), members=[int(core)] + [int(v) for v in chosen])


def sample_semantic(x: np.ndarray, core: int, bundle_size: int, bundle_id: int = 0) -> Bundle:
    """Core plus its bundle_size - 1 nearest other nodes in embedding space."""
    n = x.shape[0]
    if n < bundle_size:
        raise ValueError(f"cannot build a bundle of {bundle_size} from {n} nodes")
    diff = x - x[core]
    dist2 = np.einsum("ij,ij->i", diff, diff)
    dist2[core] = np.inf
    order = np.lexsort((np.arange(n), dist2))
    chosen = order[: bundle_size - 1]
    return Bundle(id=bundle_id, core=int(core), members=[int(core)] + [int(v) for v in chosen])


def sample_uniform(
    n: int, core: int, bundle_size: int, rng: np.random.Generator, bundle_id: int = 0
) -> Bundle:
    """Proximity-blind variant: members drawn uniformly from all other nodes."""
    if n < 2:
        raise ValueError("need at least two nodes")
    pool = np.delete(np.arange(n), core)
    take = min(bundle_size - 1, pool.size)
    chosen = rng.choice(pool, size=take, replace=False)
    return Bundle(id=bundle_id, core=int(core), members=[int(core)] + [int(v) for v in chosen])


def _member_rng(seed: int, bundle_id: int) -> np.random.Generator:
    return np.random.default_rng((seed, _STREAM_MEMBERS, bundle_id))


def sample_bundles(graph, embeddings: np.ndarray, cfg: SamplingConfig) -> list:
    """Draw cfg.num_bundles bundles with ids 0..num_bundles-1.

    `graph` is a graph `Csr` or its Â; both give the same bundles. Cores
    are drawn without replacement while the node count allows it.
    Isolated cores under the topological criterion are redrawn, up to
    cfg.max_resample_attempts redraws in total. The node count is the
    graph's, except under the semantic criterion, which reads only the
    (n, d) embeddings; random sampling takes either.
    """
    if graph is not None and cfg.criterion != "semantic":
        n = graph.n
    elif embeddings is not None and cfg.criterion != "topological":
        n = embeddings.shape[0]
    else:
        needs = {"topological": "a graph", "semantic": "embeddings", "random": "a graph or embeddings"}
        raise ValueError(f"{cfg.criterion} sampling needs {needs[cfg.criterion]}")

    master = np.random.default_rng((cfg.seed, _STREAM_CORES))
    if cfg.num_bundles <= n:
        cores = master.permutation(n)[: cfg.num_bundles]
    else:
        cores = master.integers(0, n, size=cfg.num_bundles)

    bundles = []
    redraws = 0
    for bid in range(cfg.num_bundles):
        core = int(cores[bid])
        while True:
            try:
                bundles.append(_sample_one(graph, embeddings, n, cfg, core, bid))
                break
            except IsolatedCoreError:
                redraws += 1
                if redraws > cfg.max_resample_attempts:
                    raise SamplingBudgetError(
                        succeeded=len(bundles),
                        requested=cfg.num_bundles,
                        attempts=cfg.max_resample_attempts,
                    ) from None
                core = int(master.integers(0, n))
    return bundles


def _sample_one(graph, embeddings, n: int, cfg: SamplingConfig, core: int, bid: int) -> Bundle:
    if cfg.criterion == "topological":
        return sample_topological(graph, core, cfg.bundle_size, _member_rng(cfg.seed, bid), bid)
    if cfg.criterion == "semantic":
        return sample_semantic(embeddings, core, cfg.bundle_size, bid)
    return sample_uniform(n, core, cfg.bundle_size, _member_rng(cfg.seed, bid), bid)


def save_bundles(path, bundles) -> None:
    """Write bundles as JSON lines; unlabeled bundles omit the label key."""
    with open(path, "w", encoding="utf-8") as fh:
        for b in bundles:
            rec = {"id": b.id, "core": b.core, "members": list(b.members)}
            if b.label is not None:
                rec["label"] = int(b.label)
            rec["evicted"] = [[int(e), int(v)] for e, v in b.evicted]
            fh.write(json.dumps(rec) + "\n")


def apply_refinements(bundles, refinements) -> list:
    """Copies of `bundles` with a training report's (epoch, bundle id, node)
    evictions applied: members keep their order, and each copy's `evicted`
    gains its own events in report order."""
    by_id = {}
    for epoch, bundle_id, node in refinements:
        by_id.setdefault(bundle_id, []).append((epoch, node))
    out = []
    for b in bundles:
        gone = by_id.get(b.id, [])
        dropped = {node for _, node in gone}
        out.append(replace(b, members=[m for m in b.members if m not in dropped], evicted=b.evicted + gone))
    return out


def _json_int(value, what: str, where: str) -> int:
    """`value` if it is a JSON integer; 1.7, true or "1" raises, not cast."""
    if type(value) is not int:   # bool is an int subclass
        raise FormatError(f"{where}: {what} {value!r} is not an integer")
    return value


def _json_list(value, what: str, where: str) -> list:
    if type(value) is not list:
        raise FormatError(f"{where}: {what} {value!r} is not a list")
    return value


def load_bundles(path) -> list:
    """Read bundles as `save_bundles` writes them; a line that is not a
    bundle, or repeats an earlier bundle's id, raises a FormatError naming
    the path and the line. Ids, nodes, labels and epochs must be JSON
    integers, and members and evicted JSON lists."""
    bundles = []
    seen = set()
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{where}: invalid record: {exc}") from None
            if not isinstance(rec, dict):
                raise FormatError(f"{where}: record is not a JSON object")
            for key in ("id", "core", "members"):
                if key not in rec:
                    raise FormatError(f"{where}: record has no {key}")
            fields = dict(
                id=_json_int(rec["id"], "id", where),
                core=_json_int(rec["core"], "core", where),
                members=[_json_int(v, "member", where) for v in _json_list(rec["members"], "members", where)],
                label=None if rec.get("label") is None else _json_int(rec["label"], "label", where),
                evicted=[tuple(_json_int(v, "evicted entry", where) for v in _json_list(pair, "eviction", where))
                         for pair in _json_list(rec.get("evicted", []), "evicted", where)],
            )
            if any(len(pair) != 2 for pair in fields["evicted"]):
                raise FormatError(f"{where}: an eviction is not an [epoch, node] pair")
            try:
                bundles.append(Bundle(**fields))
            except ValueError as exc:
                raise FormatError(f"{where}: invalid bundle: {exc}") from None
            if bundles[-1].id in seen:
                raise FormatError(f"{where}: bundle id {bundles[-1].id} repeats an earlier bundle's")
            seen.add(bundles[-1].id)
    return bundles
