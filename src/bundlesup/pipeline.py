"""End-to-end experiment runner: sample, annotate, train, evaluate.

Supervision modes mirror the ablation lattice:

  bundle            the full method: proximity sampling, group losses,
                    refinement
  random_sampling   members drawn uniformly instead of by proximity
  individual_query  every distinct member annotated on its own, plain
                    node-level cross-entropy, no bundles in the loss
  r_only            ranking loss only (entropy term dropped)
  be_only           entropy loss only (ranking term dropped)
  individual        per-member cross-entropy against the bundle label
  no_refine         full losses, refinement disabled

Replicates derive all component seeds from one replicate seed, so a run
is reproducible end to end.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import gnn
from .annotate import AnnotationCache, OracleConfig, annotate_all, annotate_nodes_oracle
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

MODES = (
    "bundle",
    "random_sampling",
    "individual_query",
    "r_only",
    "be_only",
    "individual",
    "no_refine",
)

_MODE_OBJECTIVE = {
    "bundle": "full",
    "random_sampling": "full",
    "r_only": "rank_only",
    "be_only": "be_only",
    "individual": "member_ce",
    "no_refine": "full",
}


def accuracy(params: gnn.GcnParams, a_hat, x, labels) -> float:
    """Fraction of nodes whose argmax logit matches the true label.

    Ties resolve to the smallest class index.
    """
    trace = gnn.forward(params, a_hat, x)
    pred = np.argmax(trace.z, axis=1)
    truth = np.asarray(labels)
    if truth.shape[0] != trace.z.shape[0]:
        raise ValueError("labels must cover all nodes")
    return float((pred == truth).mean())


@dataclass(frozen=True)
class DatasetPaths:
    """File-backed dataset: edge list, embedding matrix, node table."""

    edges: str
    embeddings: str
    nodes: str
    class_names: tuple


def materialize_dataset(dataset, seed: int):
    """Return (graph, embeddings, table) for either dataset source.

    Synthetic datasets are regenerated with the replicate-derived seed;
    file datasets are fixed across replicates.
    """
    if isinstance(dataset, SbmConfig):
        return gen_sbm(replace(dataset, seed=seed))
    graph = load_edge_list(dataset.edges)
    emb = load_embeddings(dataset.embeddings)
    table = load_node_table(dataset.nodes, list(dataset.class_names))
    return graph, emb, table


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
            raise ValueError(f"mode must be one of {MODES}")
        if not self.replicate_seeds:
            raise ValueError("need at least one replicate seed")
        if self.mode == "individual_query" and self.llm is not None:
            raise ValueError(
                "mode individual_query labels every member with the oracle; remove 'llm' "
                "from the config or choose a bundle mode"
            )


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


def _prepare(cfg: ExperimentConfig, replicate_seed: int, mode: str) -> tuple:
    """(emb, table, a_hat, bundles, oracle config, train config) of one
    replicate, shared by every arm that trains on it."""
    sbm_seed, samp_seed, ann_seed, train_seed = _component_seeds(replicate_seed)
    graph, emb, table = materialize_dataset(cfg.dataset, sbm_seed)
    a_hat = normalized_adjacency(graph)

    scfg = replace(cfg.sampling, seed=samp_seed)
    if mode == "random_sampling":
        scfg = replace(scfg, criterion="random")
    bundles = sample_bundles(graph, emb, scfg)
    tcfg = replace(cfg.train, seed=train_seed)
    if mode == "no_refine":
        tcfg = replace(tcfg, refine_every=tcfg.epochs + 1)
    return emb, table, a_hat, bundles, replace(cfg.oracle, seed=ann_seed), tcfg


def _train_individual(emb, table, a_hat, bundles, oracle, tcfg) -> tuple:
    """Annotate each distinct member on its own and train on those labels.

    Returns (nodes, node labels, params, report). Call it before bundle
    training, which refines the bundles in place.
    """
    nodes = sorted({m for b in bundles for m in b.members})
    if table.labels is None:
        raise ValueError("individual_query needs ground-truth labels for the oracle")
    node_labels = annotate_nodes_oracle(nodes, table, oracle)
    params, report = train_on_nodes(
        a_hat, emb, np.asarray(nodes), node_labels, tcfg, table.num_classes
    )
    return nodes, node_labels, params, report


def run_replicate(cfg: ExperimentConfig, replicate_seed: int) -> ReplicateResult:
    """One full pass: dataset, bundles, annotation, training, evaluation."""
    setup = _prepare(cfg, replicate_seed, cfg.mode)
    emb, table, a_hat, bundles, oracle, tcfg = setup
    if cfg.mode == "individual_query":
        nodes, _, params, report = _train_individual(*setup)
        n_labeled, n_failed = len(nodes), 0
    else:
        if cfg.llm is not None:
            summary = annotate_all(
                bundles,
                table,
                llm=cfg.llm,
                cache=AnnotationCache(cfg.cache_path),
                dataset_description=cfg.dataset_description,
            )
        else:
            summary = annotate_all(bundles, table, oracle=oracle)
        n_labeled, n_failed = summary.n_labeled, summary.n_failed
        params, report = train(
            a_hat, emb, bundles, tcfg, table.num_classes, objective=_MODE_OBJECTIVE[cfg.mode]
        )

    acc = accuracy(params, a_hat, emb, table.labels)
    report.final_accuracy = acc
    return ReplicateResult(
        seed=replicate_seed,
        accuracy=acc,
        n_labeled=n_labeled,
        n_failed=n_failed,
        refinement_events=len(report.refinements),
        final_loss=report.final_loss,
        final_grad_norm=report.final_grad_norm,
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


SWEEP_AXES = ("bundle_size", "num_bundles", "noise_rate")


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
    runs, summary = [], []
    for value in values:
        if axis == "bundle_size":
            cfg = replace(base, sampling=replace(base.sampling, bundle_size=int(value)))
        elif axis == "num_bundles":
            cfg = replace(base, sampling=replace(base.sampling, num_bundles=int(value)))
        else:
            cfg = replace(base, oracle=replace(base.oracle, noise_rate=float(value)))
        report = run_pipeline(cfg)
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
    """Aggregated bundle-query vs individual-query arms.

    One row per arm with three metric columns: label agreement with the
    ground truth target of the query, and downstream accuracy mean/std.
    """

    rows: list   # dicts: arm, agreement, accuracy_mean, accuracy_std
    per_seed: list

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

    The bundle arm measures how often the annotated bundle label equals
    the true member mode; the individual arm measures per-node agreement
    with ground truth. Both arms then train and report accuracy. Both arms
    are labelled by the oracle, so a config with an LLM endpoint is
    rejected rather than reported as if the endpoint had labelled them.
    """
    from .annotate import mode_label

    if cfg.llm is not None:
        raise ValueError(
            "compare_queries labels both arms with the oracle; remove 'llm' from the "
            "config to compare query kinds"
        )

    bundle_rows, indiv_rows = [], []
    for s in cfg.replicate_seeds:
        setup = _prepare(cfg, s, "bundle")
        emb, table, a_hat, bundles, oracle, tcfg = setup

        nodes, node_labels, params, _ = _train_individual(*setup)
        agree_i = float(np.mean([node_labels[i] == table.labels[v] for i, v in enumerate(nodes)]))
        acc_i = accuracy(params, a_hat, emb, table.labels)
        indiv_rows.append({"seed": s, "agreement": agree_i, "accuracy": acc_i})

        annotate_all(bundles, table, oracle=oracle)
        true_modes = [mode_label([table.labels[m] for m in b.members]) for b in bundles]
        agree_b = float(np.mean([b.label == t for b, t in zip(bundles, true_modes)]))
        params, _ = train(a_hat, emb, bundles, tcfg, table.num_classes)
        acc_b = accuracy(params, a_hat, emb, table.labels)
        bundle_rows.append({"seed": s, "agreement": agree_b, "accuracy": acc_b})

    def _aggregate(arm, rows):
        accs = np.array([r["accuracy"] for r in rows])
        return {
            "arm": arm,
            "agreement": float(np.mean([r["agreement"] for r in rows])),
            "accuracy_mean": float(accs.mean()),
            "accuracy_std": float(accs.std(ddof=1)) if accs.size > 1 else 0.0,
        }

    per_seed = [dict(r, arm="bundle_query") for r in bundle_rows] + [
        dict(r, arm="individual_query") for r in indiv_rows
    ]
    return QueryComparison(
        rows=[_aggregate("bundle_query", bundle_rows), _aggregate("individual_query", indiv_rows)],
        per_seed=per_seed,
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
