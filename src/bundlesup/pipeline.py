"""End-to-end experiment runner: sample, annotate, train, evaluate.

`MODES` holds the ablation lattice: each mode's training objective and
what it changes in sampling or refinement.

  bundle            the full method: proximity sampling, group losses,
                    refinement
  random_sampling   members drawn uniformly instead of by proximity
  individual_query  every distinct member annotated on its own by the
                    oracle, plain node-level cross-entropy, no bundles in
                    the loss
  r_only            ranking loss only (entropy term dropped)
  be_only           entropy loss only (ranking term dropped)
  individual        per-member cross-entropy against the bundle label
  no_refine         full losses, refinement disabled

`run_replicate` is the only code that runs an arm, and `run_pipeline`
the only loop over replicate seeds: `sweep` calls it once per axis value,
`compare_queries` once per query kind. Replicates derive all component
seeds from one replicate seed, so a run is reproducible end to end and
arms on one seed share the dataset and, unless one samples at random,
the bundles; `paired_difference` compares two reports seed by seed.

A file dataset is loaded once per process: `materialize_dataset` keeps
the last one it read (graph, features, node table, Â and Â·X), keyed on
the paths, the class names and each file's identity, and returns it
read-only to every later replicate, arm and sweep value. Training and
evaluation take Â·X from it instead of propagating the features again.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import gnn
from .annotate import AnnotationCache, OracleConfig, annotate_all, annotate_nodes_oracle, mode_label
from .graphs import (
    load_edge_list,
    load_embeddings,
    load_node_table,
    normalized_adjacency,
)
from .llm import LlmEndpointConfig
from .sampling import SamplingConfig, sample_bundles
from .synth import SbmConfig, gen_sbm
from .train import TrainConfig, train, train_on_nodes


class Mode(NamedTuple):
    objective: str | None       # `train`'s objective; None: oracle node labels, node CE
    criterion: str | None = None  # sampling criterion in place of the config's
    refine: bool = True


MODES = {
    "bundle": Mode("full"),
    "random_sampling": Mode("full", criterion="random"),
    "individual_query": Mode(None),
    "r_only": Mode("rank_only"),
    "be_only": Mode("be_only"),
    "individual": Mode("member_ce"),
    "no_refine": Mode("full", refine=False),
}


def accuracy(params: gnn.GcnParams, a_hat, x, labels, ax=None) -> float:
    """Fraction of nodes whose argmax logit (`gnn.logits`) matches the true
    label; `ax` may carry a precomputed Â @ X.

    Ties resolve to the smallest class index.
    """
    truth = np.asarray(labels)
    if truth.shape[0] != a_hat.n:
        raise ValueError("labels must cover all nodes")
    pred = np.argmax(gnn.logits(params, a_hat, x, ax=ax), axis=1)
    return float((pred == truth).mean())


@dataclass(frozen=True)
class DatasetPaths:
    """File-backed dataset: edge list, embedding matrix, node table."""

    edges: str
    embeddings: str
    nodes: str
    class_names: tuple


# the last file dataset `materialize_dataset` loaded: {key: (graph, emb, table, Â, Â·X)}
_loaded_files = {}


def _identity(path) -> tuple:
    st = os.stat(path)
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def materialize_dataset(dataset, seed: int):
    """Return (graph, embeddings, table, Â, Â·X) for either dataset source.

    Synthetic datasets are regenerated with the replicate-derived seed.
    File datasets are fixed across replicates, so they are loaded once per
    process: the last one loaded is kept, keyed on its three paths, its
    class names and each file's (device, inode, size, modification time),
    and returned again while that key holds; a changed or different file
    loads anew and replaces it. The kept arrays are read-only, so an
    in-place write raises instead of reaching the next replicate. A
    rewrite that keeps a file's inode, size and modification time is not
    seen.
    """
    if isinstance(dataset, SbmConfig):
        graph, emb, table = gen_sbm(replace(dataset, seed=seed))
        a_hat = normalized_adjacency(graph)
        return graph, emb, table, a_hat, a_hat @ emb
    paths = (dataset.edges, dataset.embeddings, dataset.nodes)
    key = (paths, tuple(dataset.class_names), tuple(_identity(p) for p in paths))
    loaded = _loaded_files.get(key)
    if loaded is None:
        graph = load_edge_list(dataset.edges)
        emb = load_embeddings(dataset.embeddings)
        table = load_node_table(dataset.nodes, list(dataset.class_names))
        a_hat = normalized_adjacency(graph)
        ax = a_hat @ emb
        for array in (graph.indptr, graph.indices, emb, a_hat.indptr, a_hat.indices, a_hat.data, ax):
            array.flags.writeable = False
        _loaded_files.clear()
        loaded = _loaded_files[key] = (graph, emb, table, a_hat, ax)
    return loaded


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: SbmConfig | DatasetPaths = field(default_factory=SbmConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    oracle: OracleConfig = field(default_factory=OracleConfig)
    llm: LlmEndpointConfig | None = None
    train: TrainConfig = field(default_factory=TrainConfig)
    mode: str = "bundle"
    replicate_seeds: tuple = tuple(range(10))
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
    mean_accuracy: float
    std_accuracy: float

    def rows(self) -> list:
        out = []
        for r in self.replicates:
            out.append(
                {
                    "mode": self.mode,
                    "seed": r.seed,
                    "accuracy": r.accuracy,
                    "n_labeled": r.n_labeled,
                    "n_failed": r.n_failed,
                    "refinement_events": r.refinement_events,
                    "final_loss": r.final_loss,
                    "final_grad_norm": r.final_grad_norm,
                }
            )
        return out


def _component_seeds(replicate_seed: int) -> tuple:
    ss = np.random.SeedSequence(replicate_seed)
    return tuple(int(s) for s in ss.generate_state(4))


def _prepare(cfg: ExperimentConfig, replicate_seed: int) -> tuple:
    """(emb, table, a_hat, ax, bundles, oracle config, train config) of one
    replicate of `cfg.mode`."""
    mode = MODES[cfg.mode]
    sbm_seed, samp_seed, ann_seed, train_seed = _component_seeds(replicate_seed)
    graph, emb, table, a_hat, ax = materialize_dataset(cfg.dataset, sbm_seed)
    if table.labels is None:
        raise ValueError("the node table has no labels; a replicate scores its accuracy against them")

    scfg = replace(cfg.sampling, seed=samp_seed, criterion=mode.criterion or cfg.sampling.criterion)
    bundles = sample_bundles(graph, emb, scfg)
    tcfg = replace(cfg.train, seed=train_seed)
    if not mode.refine:
        tcfg = replace(tcfg, refine_every=tcfg.epochs + 1)
    return emb, table, a_hat, ax, bundles, replace(cfg.oracle, seed=ann_seed), tcfg


def run_replicate(cfg: ExperimentConfig, replicate_seed: int) -> ReplicateResult:
    """One full pass of `cfg.mode`: dataset, bundles, annotation, training,
    evaluation."""
    emb, table, a_hat, ax, bundles, oracle, tcfg = _prepare(cfg, replicate_seed)
    objective = MODES[cfg.mode].objective
    if objective is None:
        nodes = sorted({m for b in bundles for m in b.members})
        labels = annotate_nodes_oracle(nodes, table, oracle)
        truth = [table.labels[v] for v in nodes]
        n_labeled, n_failed = len(nodes), 0
        params, report = train_on_nodes(a_hat, emb, np.asarray(nodes), labels, tcfg, table.num_classes,
                                        ax=ax)
    else:
        annotator = {"oracle": oracle} if cfg.llm is None else {
            "llm": cfg.llm, "cache": AnnotationCache(cfg.cache_path),
            "dataset_description": cfg.dataset_description}
        summary = annotate_all(bundles, table, **annotator)
        labels = [b.label for b in bundles]
        truth = [mode_label([table.labels[m] for m in b.members]) for b in bundles]
        n_labeled, n_failed = summary.n_labeled, summary.n_failed
        params, report = train(a_hat, emb, bundles, tcfg, table.num_classes, objective=objective, ax=ax)

    acc = accuracy(params, a_hat, emb, table.labels, ax=ax)
    return ReplicateResult(
        seed=replicate_seed,
        accuracy=acc,
        n_labeled=n_labeled,
        n_failed=n_failed,
        refinement_events=len(report.refinements),
        final_loss=report.final_loss,
        final_grad_norm=report.final_grad_norm,
        agreement=float(np.mean([a == t for a, t in zip(labels, truth)])),
    )


def run_pipeline(cfg: ExperimentConfig) -> PipelineReport:
    replicates = [run_replicate(cfg, s) for s in cfg.replicate_seeds]
    accs = np.array([r.accuracy for r in replicates])
    return PipelineReport(
        mode=cfg.mode,
        replicates=replicates,
        mean_accuracy=float(accs.mean()),
        std_accuracy=float(accs.std(ddof=1)) if accs.size > 1 else 0.0,
    )


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


# axis -> (config section holding it, value type)
_SWEEP_FIELDS = {"bundle_size": ("sampling", int), "num_bundles": ("sampling", int),
                 "noise_rate": ("oracle", float)}
SWEEP_AXES = tuple(_SWEEP_FIELDS)


@dataclass
class SweepTable:
    axis: str
    runs: list        # dicts: value, seed, accuracy
    summary: list     # dicts: value, mean, std, n

    def save_csv(self, runs_path, summary_path) -> None:
        with open(runs_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=[self.axis, "seed", "accuracy"])
            writer.writeheader()
            for row in self.runs:
                writer.writerow({self.axis: row["value"], "seed": row["seed"], "accuracy": row["accuracy"]})
        with open(summary_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=[self.axis, "mean", "std", "n"])
            writer.writeheader()
            for row in self.summary:
                writer.writerow({self.axis: row["value"], "mean": row["mean"], "std": row["std"], "n": row["n"]})


def sweep(base: ExperimentConfig, axis: str, values) -> SweepTable:
    """Run the pipeline once per axis value with shared replicate seeds."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}")
    if not values:
        raise ValueError("axis values must be non-empty")
    section, kind = _SWEEP_FIELDS[axis]
    runs, summary = [], []
    for value in values:
        edited = replace(getattr(base, section), **{axis: kind(value)})
        report = run_pipeline(replace(base, **{section: edited}))
        for rep in report.replicates:
            runs.append({"value": value, "seed": rep.seed, "accuracy": rep.accuracy})
        summary.append(
            {
                "value": value,
                "mean": report.mean_accuracy,
                "std": report.std_accuracy,
                "n": len(report.replicates),
            }
        )
    return SweepTable(axis=axis, runs=runs, summary=summary)


@dataclass
class QueryComparison:
    """The bundle-query and individual-query arms on the same seeds.

    `rows` has one row per arm with three metric columns: label agreement
    with the ground truth the query asks for, and downstream accuracy
    mean/std.
    """

    bundle: PipelineReport
    individual: PipelineReport

    @property
    def rows(self) -> list:   # dicts: arm, agreement, accuracy_mean, accuracy_std
        return [
            {"arm": arm, "agreement": float(np.mean([r.agreement for r in report.replicates])),
             "accuracy_mean": report.mean_accuracy, "accuracy_std": report.std_accuracy}
            for arm, report in (("bundle_query", self.bundle), ("individual_query", self.individual))
        ]

    def save_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["arm", "agreement", "accuracy_mean", "accuracy_std"]
            )
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)


def compare_queries(cfg: ExperimentConfig) -> QueryComparison:
    """Quantify aggregation robustness: bundle labels vs per-node labels.

    Runs the pipeline in mode `bundle` and in mode `individual_query` on
    the config's seeds. Both arms are labelled by the oracle: the
    individual-query config, built first, refuses an LLM endpoint before
    either arm runs.
    """
    individual = replace(cfg, mode="individual_query")
    return QueryComparison(bundle=run_pipeline(replace(cfg, mode="bundle")),
                           individual=run_pipeline(individual))


def save_report_json(path, report: PipelineReport) -> None:
    payload = {
        "mode": report.mode,
        "mean_accuracy": report.mean_accuracy,
        "std_accuracy": report.std_accuracy,
        "replicates": report.rows(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
