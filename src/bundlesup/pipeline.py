"""End-to-end experiment runner: sample, annotate, train, evaluate.

`MODES` holds the ablation lattice: each mode's training objective and
what it changes in sampling or refinement. Every mode trains through one
`train` call on one `FlatBundles`; only annotation differs by mode.

  bundle            the full method: proximity sampling, group losses,
                    refinement
  random_sampling   members drawn uniformly instead of by proximity
  individual_query  every distinct member annotated on its own by the
                    oracle and supervised as a group of one, plain
                    node-level cross-entropy, no bundles in the loss
  r_only            ranking loss only (entropy term dropped)
  be_only           entropy loss only (ranking term dropped)
  individual        per-member cross-entropy against the bundle label
  no_refine         full losses, refinement disabled

`run_replicate` is the only code that runs an arm, and `run_arms` the
only loop over replicate seeds: it runs named arms, each a full
`ExperimentConfig`, on their common seeds, seed by seed. `run_pipeline`
is its one-arm case. Replicates derive all component seeds from one
replicate seed, so a run is reproducible end to end and the order of the
loop moves no number. Arms of one seed share the kept dataset, and arms
whose dataset and sampling config are equal share one `sample_bundles`
call; `paired_difference` compares two reports seed by seed.

`materialize_dataset` returns one read-only `Dataset` per (source, seed)
and keeps the last one, so later replicates and arms reuse it. The graph
is dropped once Â is built: sampling walks Â's pattern, the same
neighbours plus a self-connection that changes no BFS level. Training
and evaluation read the features only as the dataset's [ÂX | 1].
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import gnn
from .annotate import AnnotationCache, OracleConfig, annotate_all, annotate_nodes_oracle, mode_label
from .graphs import (
    Csr,
    NodeTable,
    load_edge_list,
    load_embeddings,
    load_node_table,
    normalized_adjacency,
)
from .llm import LlmEndpointConfig
from .losses import FlatBundles
from .sampling import SamplingConfig, sample_bundles
from .synth import SbmConfig, gen_sbm
from .train import TrainConfig, train


class Mode(NamedTuple):
    objective: str              # `train`'s objective; "node_ce" annotates each node on its own
    criterion: str | None = None  # sampling criterion in place of the config's
    refine: bool = True


MODES = {
    "bundle": Mode("full"),
    "random_sampling": Mode("full", criterion="random"),
    "individual_query": Mode("node_ce", refine=False),
    "r_only": Mode("rank_only"),
    "be_only": Mode("be_only"),
    "individual": Mode("member_ce"),
    "no_refine": Mode("full", refine=False),
}


def accuracy(params: gnn.GcnParams, a_hat, ax, labels) -> float:
    """Fraction of nodes whose argmax logit matches the true label, from Â
    and [ÂX | 1] (`gnn.ax_ones`).

    The logits are `gnn.logits`: those of `gnn.forward` on Â, with H W2
    formed a block of rows at a time, so evaluation holds no (n, h)
    array. Ties resolve to the smallest class index.
    """
    truth = np.asarray(labels)
    if truth.shape[0] != a_hat.n:
        raise ValueError("labels must cover all nodes")
    pred = np.argmax(gnn.logits(params, a_hat, ax), axis=1)
    return float((pred == truth).mean())


@dataclass(frozen=True)
class DatasetPaths:
    """File-backed dataset: edge list, embedding matrix, node table."""

    edges: str
    embeddings: str
    nodes: str
    class_names: tuple[str, ...]

    def __post_init__(self):   # a tuple, so that the paths can key a dict
        object.__setattr__(self, "class_names", tuple(self.class_names))


class Dataset(NamedTuple):
    """One replicate's inputs, all read-only: Â, the (n, d) features X,
    which only sampling reads, [ÂX | 1] (`gnn.ax_ones`, built once per
    dataset; the model reads no other features) and the node table."""

    a_hat: Csr
    x: np.ndarray
    ax: np.ndarray
    table: NodeTable


# the last dataset `materialize_dataset` built: {key: Dataset}
_kept = {}


def _identity(path) -> tuple:
    st = os.stat(path)
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def materialize_dataset(dataset, seed: int) -> Dataset:
    """The `Dataset` of either source: a synthetic one drawn with `seed`, or
    the files, which are the same for every seed.

    The last dataset built is kept and returned again while its key holds:
    the synthetic config with `seed` filled in, or a file dataset's three
    paths, class names and each file's (device, inode, size, modification
    time). Another key builds anew and replaces it. A rewrite that keeps a
    file's inode, size and modification time is not seen.
    """
    if isinstance(dataset, SbmConfig):
        key = replace(dataset, seed=seed)
    else:
        paths = (dataset.edges, dataset.embeddings, dataset.nodes)
        key = (paths, dataset.class_names, tuple(_identity(p) for p in paths))
    kept = _kept.get(key)
    if kept is not None:
        return kept
    _kept.clear()
    if isinstance(dataset, SbmConfig):
        graph, x, table = gen_sbm(key)
        a_hat = normalized_adjacency(graph)
    else:   # the graph is freed once Â is built, before the other files load
        a_hat = normalized_adjacency(load_edge_list(dataset.edges))
        x = load_embeddings(dataset.embeddings)
        table = load_node_table(dataset.nodes, list(dataset.class_names))
    ax = gnn.ax_ones(a_hat, x)
    for array in (x, a_hat.indptr, a_hat.indices, a_hat.data, ax):
        array.flags.writeable = False
    _kept[key] = Dataset(a_hat, x, ax, table)
    return _kept[key]


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: SbmConfig | DatasetPaths = field(default_factory=SbmConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    oracle: OracleConfig = field(default_factory=OracleConfig)
    llm: LlmEndpointConfig | None = None
    train: TrainConfig = field(default_factory=TrainConfig)
    mode: str = "bundle"
    replicate_seeds: tuple[int, ...] = tuple(range(10))
    dataset_description: str = ""
    cache_path: str | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {tuple(MODES)}")
        if not self.replicate_seeds:
            raise ValueError("need at least one replicate seed")
        if self.mode == "individual_query" and self.llm is not None:
            raise ValueError("mode individual_query labels every member with the oracle; remove 'llm' "
                             "from the config")


def standard_experiment(mode="bundle", noise_rate=0.0, replicate_seeds=tuple(range(10))):
    """The reference configuration used by the acceptance suite: every
    config at its defaults, the calibrated standard benchmark."""
    return ExperimentConfig(
        oracle=OracleConfig(noise_rate=noise_rate), mode=mode, replicate_seeds=tuple(replicate_seeds)
    )


@dataclass
class ReplicateResult:
    seed: int
    accuracy: float
    n_labeled: int
    n_failed: int
    refinement_events: int
    final_loss: float
    final_grad_norm: float
    # share of annotated labels equal to the truth they ask for: the members'
    # true mode before refinement, or in individual_query the node's label
    agreement: float


@dataclass
class PipelineReport:
    mode: str
    replicates: list

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean([r.accuracy for r in self.replicates]))

    @property
    def std_accuracy(self) -> float:   # ddof=1; 0.0 for a single replicate
        accs = [r.accuracy for r in self.replicates]
        return float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0

    def rows(self) -> list:   # per replicate: the mode, then every result field but agreement
        return [{"mode": self.mode, **{k: v for k, v in vars(r).items() if k != "agreement"}}
                for r in self.replicates]


def _component_seeds(replicate_seed: int) -> tuple:
    ss = np.random.SeedSequence(replicate_seed)
    return tuple(int(s) for s in ss.generate_state(4))


def run_replicate(cfg: ExperimentConfig, replicate_seed: int, *, sampled: dict | None = None
                  ) -> ReplicateResult:
    """One full pass of `cfg.mode`: dataset, bundles, annotation, training,
    evaluation.

    `sampled`, kept by `run_arms` for one seed, holds the bundles drawn for
    each (dataset, sampling config) so far; an arm with an equal pair draws
    none and annotates its own copies. Without it every call samples.
    """
    mode = MODES[cfg.mode]
    sbm_seed, samp_seed, ann_seed, train_seed = _component_seeds(replicate_seed)
    a_hat, x, ax, table = materialize_dataset(cfg.dataset, sbm_seed)
    if table.labels is None:
        raise ValueError("the node table has no labels; a replicate scores its accuracy against them")

    scfg = replace(cfg.sampling, seed=samp_seed, criterion=mode.criterion or cfg.sampling.criterion)
    if sampled is None:
        bundles = sample_bundles(a_hat, x, scfg)
    else:   # annotation labels bundles in place
        key = (cfg.dataset, scfg)
        if key not in sampled:
            sampled[key] = sample_bundles(a_hat, x, scfg)
        bundles = copy.deepcopy(sampled[key])
    oracle = replace(cfg.oracle, seed=ann_seed)
    tcfg = replace(cfg.train, seed=train_seed)
    if not mode.refine:
        tcfg = replace(tcfg, refine_every=tcfg.epochs + 1)
    if mode.objective == "node_ce":
        nodes = np.unique(np.concatenate([b.members for b in bundles]))
        labels = annotate_nodes_oracle(nodes, table, oracle)
        truth = table.labels[nodes]
        n_labeled, n_failed = nodes.size, 0
        groups = FlatBundles.from_nodes(nodes, labels)
    else:
        annotator = {"oracle": oracle} if cfg.llm is None else {
            "llm": cfg.llm, "cache": AnnotationCache(cfg.cache_path),
            "dataset_description": cfg.dataset_description}
        summary = annotate_all(bundles, table, **annotator)
        labels = [b.label for b in bundles]
        truth = [mode_label(table.labels[b.members]) for b in bundles]
        n_labeled, n_failed = summary.n_labeled, summary.n_failed
        groups = FlatBundles.from_bundles(bundles)
    params, report = train(a_hat, ax, groups, tcfg, table.num_classes, objective=mode.objective)

    return ReplicateResult(
        seed=replicate_seed,
        accuracy=accuracy(params, a_hat, ax, table.labels),
        n_labeled=n_labeled,
        n_failed=n_failed,
        refinement_events=len(report.refinements),
        final_loss=report.final_loss,
        final_grad_norm=report.final_grad_norm,
        agreement=float(np.mean([a == t for a, t in zip(labels, truth)])),
    )


def run_arms(arms: dict) -> dict:
    """A `PipelineReport` for each named arm, a full `ExperimentConfig`.

    The arms must share their replicate seeds, so that any two reports pair
    up in `paired_difference`. Each seed runs every arm in turn, so they
    share its kept dataset and, where their dataset and sampling config
    (after the mode's criterion) are equal, its sampled bundles.
    """
    seeds = {cfg.replicate_seeds for cfg in arms.values()}
    if len(seeds) != 1:
        listed = "; ".join(f"{name}: {list(cfg.replicate_seeds)}" for name, cfg in arms.items())
        raise ValueError(f"arms need the same replicate seeds, got {listed or 'no arm'}")
    replicates = {name: [] for name in arms}
    for seed in seeds.pop():
        sampled = {}
        for name, cfg in arms.items():
            replicates[name].append(run_replicate(cfg, seed, sampled=sampled))
    return {name: PipelineReport(cfg.mode, replicates[name]) for name, cfg in arms.items()}


def run_pipeline(cfg: ExperimentConfig) -> PipelineReport:
    return run_arms({cfg.mode: cfg})[cfg.mode]


@dataclass(frozen=True)
class PairedDifference:
    """Per-seed accuracy differences a - b between two reports on the same seeds."""

    mean: float
    sd: float     # ddof=1; 0.0 for a single seed, as `PipelineReport.std_accuracy`
    wins: int     # seeds where a is more accurate than b
    ties: int
    losses: int

    def describe(self) -> str:
        return (f"paired {self.mean:+.4f} (sd {self.sd:.4f}), "
                f"wins/ties/losses {self.wins}/{self.ties}/{self.losses}")


def paired_difference(a: PipelineReport, b: PipelineReport) -> PairedDifference:
    """Compare two reports seed by seed; their seed lists must be equal."""
    seeds_a = [r.seed for r in a.replicates]
    seeds_b = [r.seed for r in b.replicates]
    if seeds_a != seeds_b:
        raise ValueError(f"paired reports need the same seeds, got {seeds_a} and {seeds_b}")
    diff = np.array([x.accuracy - y.accuracy for x, y in zip(a.replicates, b.replicates)])
    return PairedDifference(
        mean=float(diff.mean()),
        sd=float(diff.std(ddof=1)) if diff.size > 1 else 0.0,
        wins=int((diff > 0).sum()),
        ties=int((diff == 0).sum()),
        losses=int((diff < 0).sum()),
    )


def save_report_json(path, report: PipelineReport) -> None:
    payload = {
        "mode": report.mode,
        "mean_accuracy": report.mean_accuracy,
        "std_accuracy": report.std_accuracy,
        "replicates": report.rows(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
