"""Command-line interface.

Subcommands: gen-synth, sample-bundles, annotate, train, eval, pipeline,
sweep, verify. Run `bundlesup <cmd> --help` for flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import typing
from dataclasses import MISSING, fields, replace

import numpy as np

from . import gnn
from .annotate import AnnotationCache, AnnotationConfigError, OracleConfig, annotate_all, save_records
from .graphs import (
    FormatError,
    load_edge_list,
    load_embeddings,
    load_node_table,
    normalized_adjacency,
    open_text,
    save_embeddings,
)
from .llm import LlmEndpointConfig
from .losses import FlatBundles
from .pipeline import (
    DatasetPaths,
    ExperimentConfig,
    MODES,
    accuracy,
    paired_difference,
    run_arms,
    run_pipeline,
    save_report_json,
    standard_experiment,
)
from .sampling import (
    CRITERIA,
    SamplingBudgetError,
    SamplingConfig,
    apply_refinements,
    load_bundles,
    sample_bundles,
    save_bundles,
)
from .synth import SbmConfig, gen_sbm, homophily
from .train import TrainConfig, TrainingDivergedError, train
from .theorems import (
    GRAD_TOL,
    HESS_TOL,
    default_theorem2_instance,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
)


def _write_dataset(out_dir, graph, emb, table, seed):
    os.makedirs(out_dir, exist_ok=True)
    edges_path = os.path.join(out_dir, "edges.txt")
    np.savetxt(edges_path, graph.edge_array(), fmt="%d", header=f"n {graph.n}", comments="")
    emb_path = os.path.join(out_dir, "embeddings.txt")
    save_embeddings(emb_path, emb)
    nodes_path = os.path.join(out_dir, "nodes.jsonl")
    with open(nodes_path, "w", encoding="utf-8") as fh:
        for i in range(graph.n):
            rec = {"id": i}
            if table.texts is not None:
                rec["text"] = table.texts[i]
            if table.labels is not None:
                rec["label"] = table.class_names[table.labels[i]]
            fh.write(json.dumps(rec) + "\n")
    manifest = {
        "n": graph.n,
        "num_edges": graph.num_edges,
        "class_names": table.class_names,
        "seed": seed,
        "homophily": homophily(graph, table.labels) if table.labels is not None else None,
        "files": {"edges": "edges.txt", "embeddings": "embeddings.txt", "nodes": "nodes.jsonl"},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest


def cmd_gen_synth(args):
    cfg = _flags_config(SbmConfig, args)
    graph, emb, table = gen_sbm(cfg)
    manifest = _write_dataset(args.out, graph, emb, table, cfg.seed)
    print(
        f"wrote {args.out}: n={manifest['n']} edges={manifest['num_edges']} "
        f"classes={len(manifest['class_names'])} homophily={manifest['homophily']:.3f}"
    )
    return 0


def _class_names(args):
    if getattr(args, "manifest", None):
        return _manifest_class_names(args.manifest)
    if getattr(args, "class_names", None):
        return [s.strip() for s in args.class_names.split(",")]
    raise ValueError("pass --manifest or --class-names")


def _manifest_class_names(path) -> list:
    """The class names a dataset manifest lists; a FormatError names the path,
    and the line of a JSON error."""
    with open_text(path) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    names = manifest.get("class_names") if isinstance(manifest, dict) else None
    if not (isinstance(names, list) and names and all(isinstance(name, str) for name in names)):
        raise FormatError(f"{path}: manifest has no class_names, a list of names")
    return names


def cmd_sample_bundles(args):
    cfg = _flags_config(SamplingConfig, args)
    graph = load_edge_list(args.edges) if args.edges else None
    emb = load_embeddings(args.embeddings) if args.embeddings else None
    bundles = sample_bundles(graph, emb, cfg)
    save_bundles(args.out, bundles)
    sizes = [len(b.members) for b in bundles]
    print(f"wrote {len(bundles)} bundles to {args.out} (sizes {min(sizes)}..{max(sizes)})")
    return 0


def cmd_annotate(args):
    if args.annotator == "oracle":
        annotator = {"oracle": _flags_config(OracleConfig, args)}
    else:
        annotator = {
            "llm": _flags_config(LlmEndpointConfig, args),
            "cache": AnnotationCache(args.cache),
            "dataset_description": args.description,
        }
    bundles = load_bundles(args.bundles)
    table = load_node_table(args.nodes, _class_names(args))
    summary = annotate_all(bundles, table, **annotator)
    save_bundles(args.out, bundles)
    if args.records:
        save_records(args.records, summary.records)
    print(f"labeled {summary.n_labeled}/{len(bundles)} bundles ({summary.n_failed} failed)")
    return 0


def cmd_train(args):
    cfg = _flags_config(TrainConfig, args)
    graph = load_edge_list(args.edges)
    emb = load_embeddings(args.embeddings)
    bundles = load_bundles(args.bundles)
    n_classes = args.classes if args.classes else len(_class_names(args))
    a_hat = normalized_adjacency(graph)
    params, report = train(a_hat, gnn.ax_ones(a_hat, emb), FlatBundles.from_bundles(bundles), cfg, n_classes)
    os.makedirs(args.out, exist_ok=True)
    gnn.save_params(os.path.join(args.out, "params"), params, seed=cfg.seed)
    report.save_jsonl(os.path.join(args.out, "report.jsonl"))
    refined = apply_refinements(bundles, report.refinements)
    save_bundles(os.path.join(args.out, "bundles_refined.jsonl"), refined)
    s = report.summary()
    print(
        f"trained {s['epochs']} epochs (eta={s['eta']:.4g}): final loss {s['final_loss']:.5f}, "
        f"grad norm {s['final_grad_norm']:.3e}, {s['refinement_events']} evictions"
    )
    return 0


def cmd_eval(args):
    graph = load_edge_list(args.edges)
    emb = load_embeddings(args.embeddings)
    class_names = _class_names(args)
    table = load_node_table(args.nodes, class_names)
    if table.labels is None:
        raise ValueError("node table has no labels; nothing to evaluate against")
    params = gnn.load_params(args.params)
    a_hat = normalized_adjacency(graph)
    acc = accuracy(params, a_hat, gnn.ax_ones(a_hat, emb), table.labels)
    print(f"accuracy: {acc:.4f}")
    return 0


def _check_keys(values: dict, known, where: str) -> None:
    if type(values) is not dict:
        raise ValueError(f"{where} must be a JSON object, got {values!r}")
    for key in values:
        if key not in known:
            raise ValueError(f"unknown key {key!r} in {where}; known keys: {', '.join(sorted(known))}")


# the JSON values that fill a config field of each type: an int is a float too, and a bool is no int
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"), str: ((str,), "a string"),
               bool: ((bool,), "true or false"), type(None): ((type(None),), "null")}


def _check_value(value, kind, key: str, where: str) -> None:
    """A ValueError naming `key`, `where` and the type unless the JSON `value` fills
    a field annotated `kind`: a `_JSON_TYPES` key, a union of them, or `tuple[T, ...]`."""
    if typing.get_origin(kind) is tuple:
        item = _JSON_TYPES[typing.get_args(kind)[0]]
        if type(value) is not list or not all(type(v) in item[0] for v in value):
            raise ValueError(f"key {key!r} in {where} must be a list, each item {item[1]}, got {value!r}")
        return
    kinds = typing.get_args(kind) or (kind,)
    if not any(type(value) in _JSON_TYPES[k][0] for k in kinds):
        expected = " or ".join(_JSON_TYPES[k][1] for k in kinds)
        raise ValueError(f"key {key!r} in {where} must be {expected}, got {value!r}")


def _section(cls, name: str, values):
    """`cls(**values)` for the config section `name`; a ValueError names a
    section that is not a JSON object, any key `cls` does not have, the first
    one it needs that is missing, or the first value of the wrong type."""
    where = f"section {name!r}"
    _check_keys(values, {f.name for f in fields(cls)}, where)
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        if f.name in values:
            _check_value(values[f.name], hints[f.name], f.name, where)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"missing key {f.name!r} in {where}")
    if name != "flags" and "seed" in values:   # every config section's seed is the replicate's
        raise ValueError(f"key 'seed' in {where} is set from each replicate seed; choose the runs with "
                         f"'replicate_seeds'")
    return cls(**values)


def _given(args, names) -> dict:
    """The flags among the dests `names` that the command line gave, by dest."""
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def _flags_config(cls, args):
    """`cls` from the flags named after its fields; an omitted flag keeps the
    field's default, and a value `cls` refuses raises its ValueError."""
    return _section(cls, "flags", _given(args, (f.name for f in fields(cls))))


def _json_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _config_from_json(path) -> ExperimentConfig:
    raw = _json_file(path)
    _check_keys(raw, {f.name for f in fields(ExperimentConfig)}, "the config")
    hints = typing.get_type_hints(ExperimentConfig)
    for key in ("mode", "replicate_seeds", "dataset_description", "cache_path"):
        if key in raw:
            _check_value(raw[key], hints[key], key, "the config")
    dataset = raw.get("dataset", {})
    if type(dataset) is dict and {"edges", "embeddings", "nodes"} <= set(dataset):
        ds = _section(DatasetPaths, "dataset", dataset)
    else:
        ds = _section(SbmConfig, "dataset", dataset)
    llm = _section(LlmEndpointConfig, "llm", raw["llm"]) if "llm" in raw else None
    return ExperimentConfig(
        dataset=ds,
        sampling=_section(SamplingConfig, "sampling", raw.get("sampling", {})),
        oracle=_section(OracleConfig, "oracle", raw.get("oracle", {})),
        llm=llm,
        train=_section(TrainConfig, "train", raw.get("train", {})),
        mode=raw.get("mode", "bundle"),
        replicate_seeds=tuple(raw.get("replicate_seeds", range(10))),
        dataset_description=raw.get("dataset_description", ""),
        cache_path=raw.get("cache_path"),
    )


def _experiment(args) -> ExperimentConfig:
    """The experiment config the flags give."""
    cfg = _config_from_json(args.config) if args.config else standard_experiment()
    if args.mode:
        cfg = replace(cfg, mode=args.mode)
    if args.noise is not None:
        cfg = replace(cfg, oracle=replace(cfg.oracle, noise_rate=args.noise))
    if args.seeds is not None:
        try:
            seeds = tuple(int(item) for item in args.seeds.split(","))
        except ValueError:
            raise ValueError(f"--seeds takes comma-separated integers, got {args.seeds!r}") from None
        cfg = replace(cfg, replicate_seeds=seeds)
    return cfg


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_pipeline(args):
    cfg = _experiment(args)
    if args.compare_queries and args.config and "mode" in _json_file(args.config):
        raise ValueError("--compare-queries runs modes bundle and individual_query; remove 'mode' from the config")
    if args.compare_queries:
        # both arms are labelled by the oracle: the individual-query config refuses an LLM endpoint
        reports = run_arms({"bundle_query": replace(cfg, mode="bundle"),
                            "individual_query": replace(cfg, mode="individual_query")})
        rows = [(arm, float(np.mean([r.agreement for r in report.replicates])), report.mean_accuracy,
                 report.std_accuracy) for arm, report in reports.items()]
        os.makedirs(args.out, exist_ok=True)
        _write_csv(os.path.join(args.out, "query_comparison.csv"),
                   ["arm", "agreement", "accuracy_mean", "accuracy_std"], rows)
        for arm, agreement, mean, std in rows:
            print(f"{arm}: agreement={agreement:.3f} accuracy={mean:.4f}±{std:.4f}")
        paired = paired_difference(reports["bundle_query"], reports["individual_query"])
        print(f"bundle_query - individual_query accuracy: {paired.describe()}")
        return 0
    report = run_pipeline(cfg)
    os.makedirs(args.out, exist_ok=True)
    save_report_json(os.path.join(args.out, "pipeline_report.json"), report)
    for row in report.rows():
        print(f"seed {row['seed']}: accuracy {row['accuracy']:.4f}")
    print(f"mode={report.mode}: mean {report.mean_accuracy:.4f} ± {report.std_accuracy:.4f}")
    return 0


# sweep axis -> (the config section holding it, its value type)
SWEEP_AXES = {"bundle_size": ("sampling", int), "num_bundles": ("sampling", int),
              "noise_rate": ("oracle", float)}


def cmd_sweep(args):
    if args.axis == "noise_rate" and args.noise is not None:
        raise ValueError("--noise sets noise_rate, the axis this sweep varies; give the rates in --values")
    base = _experiment(args)
    section, kind = SWEEP_AXES[args.axis]
    values = [kind(v) for v in args.values.split(",")]
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{args.axis} value {value} is given twice")
    # every arm's config is built, and checked, before the first replicate runs
    reports = run_arms({value: replace(base, **{section: replace(getattr(base, section), **{args.axis: value})})
                        for value in values})
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "sweep_runs.csv"), [args.axis, "seed", "accuracy"],
               [(value, r.seed, r.accuracy) for value, report in reports.items() for r in report.replicates])
    _write_csv(os.path.join(args.out, "sweep_summary.csv"), [args.axis, "mean", "std", "n"],
               [(value, report.mean_accuracy, report.std_accuracy, len(report.replicates))
                for value, report in reports.items()])
    for value, report in reports.items():
        print(f"{args.axis}={value}: mean {report.mean_accuracy:.4f} ± {report.std_accuracy:.4f} "
              f"(n={len(report.replicates)})")
    return 0


def cmd_verify(args):
    if args.theorem == 1:
        rep = verify_theorem1(args.trials, n_classes=5, bundle_size=5, seed=args.seed)
        print(
            f"outlier-tolerance check: {rep.passed}/{rep.kept} trials passed "
            f"(fraction {rep.pass_fraction:.6f}, drawn {rep.drawn})"
        )
        print(
            f"  min lower margin {rep.min_lower_margin:.3e}, "
            f"max upper violation {rep.max_upper_violation:.3e}"
        )
        return 0 if rep.pass_fraction == 1.0 else 1
    if args.theorem == 2:
        instance = default_theorem2_instance(args.seed, **_given(args, ["n_points"]))
        rep = verify_theorem2(instance, args.seed)
        print("bounds: derived 2(1-q_y)G and 2(1-q_y)M+G^2; discounted 2G/|B| and 2(M+G^2)/|B|")
        for i, pt in enumerate(rep.points):
            disc_grad = pt.grad_inf <= pt.grad_bound_discounted + GRAD_TOL
            disc_hess = pt.hess_max <= pt.hess_bound_discounted + HESS_TOL
            print(
                f"point {i}: q_y={pt.q_label:.3f}  |grad|_inf={pt.grad_inf:.4f} vs derived "
                f"{pt.grad_bound:.4f} [{'ok' if pt.grad_ok else 'VIOLATED'}], discounted "
                f"{pt.grad_bound_discounted:.4f} [{'ok' if disc_grad else 'violated'}]  "
                f"|hess|_max={pt.hess_max:.4f} vs derived {pt.hess_bound:.4f} "
                f"[{'ok' if pt.hess_ok else 'VIOLATED'}], discounted "
                f"{pt.hess_bound_discounted:.4f} [{'ok' if disc_hess else 'violated'}]  "
                f"(per-member {pt.grad_inf_per_member:.4f})"
            )
        print(
            f"gradient bound: {'pass' if rep.all_grad_ok else 'FAIL'}; "
            f"hessian bound: {'pass' if rep.all_hess_ok else 'FAIL'}"
        )
        return 0 if rep.all_ok else 1
    rep = verify_theorem3(seed=args.seed, refinement=args.refinement, **_given(args, ["epochs"]))
    print(
        f"descent check: eta={rep.eta:.5g}, monotone={rep.monotone}, "
        f"max step increase {rep.max_step_increase:.3e}, "
        f"final grad norm {rep.final_grad_norm:.4e}, "
        f"{rep.refinement_events} evictions, "
        f"{rep.increases_between_refinements} increases between refinements"
    )
    print(
        f"  sufficient decrease: worst ratio {rep.min_decrease_ratio:.4f} vs floor "
        f"1-eta*L/2={rep.decrease_floor:.4f}: {'pass' if rep.sufficient_decrease else 'FAIL'}; "
        f"rate: min |g|^2 {rep.min_grad_sq:.4e} <= {rep.rate_bound:.4e}: "
        f"{'pass' if rep.rate_ok else 'FAIL'}"
    )
    return 0 if rep.monotone and rep.sufficient_decrease and rep.rate_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bundlesup",
        description="Bundle-level weak supervision for graph neural networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags that set a config field carry its name as dest and no default:
    # an omitted one keeps the field's default (see _flags_config); metavar
    # keeps the flag's spelling in --help where the two differ
    p = sub.add_parser("gen-synth", help="generate a synthetic benchmark dataset")
    p.add_argument("--n", type=int)
    p.add_argument("--classes", dest="n_classes", metavar="CLASSES", type=int)
    p.add_argument("--p-in", type=float)
    p.add_argument("--p-out", type=float)
    p.add_argument("--dim", type=int)
    p.add_argument("--separation", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("sample-bundles", help="draw node bundles by proximity")
    p.add_argument("--edges")
    p.add_argument("--embeddings")
    p.add_argument("--criterion", choices=CRITERIA)
    p.add_argument("--bundle-size", type=int)
    p.add_argument("--num-bundles", type=int)
    p.add_argument("--max-resample-attempts", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample_bundles)

    p = sub.add_parser("annotate", help="label bundles with an oracle or LLM endpoint")
    p.add_argument("--bundles", required=True)
    p.add_argument("--nodes", required=True)
    p.add_argument("--manifest")
    p.add_argument("--class-names")
    p.add_argument("--annotator", choices=("oracle", "llm"), default="oracle")
    p.add_argument("--noise", dest="noise_rate", metavar="NOISE", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--model")
    p.add_argument("--base-url")
    p.add_argument("--api-key-env", dest="api_key_env_var", metavar="API_KEY_ENV")
    p.add_argument("--max-retries", type=int)
    p.add_argument("--timeout", type=float)
    p.add_argument("--max-chars-per-item", type=int)
    p.add_argument("--parallelism", type=int)
    p.add_argument("--cache")
    p.add_argument("--description", default="")
    p.add_argument("--records", help="also write one annotation record per bundle")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("train", help="train the GCN on labeled bundles")
    p.add_argument("--graph", dest="edges", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--bundles", required=True)
    p.add_argument("--classes", type=int)
    p.add_argument("--manifest")
    p.add_argument("--class-names")
    p.add_argument("--eta", dest="learning_rate", metavar="ETA", type=float)
    p.add_argument("--eta-auto", action="store_const", const=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--warmup", dest="warmup_epochs", metavar="WARMUP", type=int)
    p.add_argument("--refine-every", type=int)
    p.add_argument("--floor", dest="bundle_floor", metavar="FLOOR", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate saved parameters against node labels")
    p.add_argument("--params", required=True)
    p.add_argument("--graph", dest="edges", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--nodes", required=True)
    p.add_argument("--manifest")
    p.add_argument("--class-names")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", help="run sample/annotate/train/eval end to end")
    p.add_argument("--config", help="JSON experiment config")
    arms = p.add_mutually_exclusive_group()   # --compare-queries runs both query modes
    arms.add_argument("--mode", choices=MODES)
    p.add_argument("--noise", type=float)
    p.add_argument("--seeds", help="comma-separated replicate seeds")
    arms.add_argument("--compare-queries", action="store_true")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("sweep", help="run the pipeline along one config axis")
    p.add_argument("--config")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--noise", type=float)
    p.add_argument("--seeds")
    p.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run a numerical verification suite")
    p.add_argument("--theorem", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--points", dest="n_points", metavar="POINTS", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--refinement", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    # inputs that do not fit, or fit but cannot be run, end in one line
    try:
        return args.func(args)
    except (ValueError, OSError, AnnotationConfigError, SamplingBudgetError, TrainingDivergedError) as exc:
        raise SystemExit(f"bundlesup {args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
