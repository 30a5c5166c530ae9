"""Alternating benchmark pairs of a base revision and the working tree.

    python3 tools/bench_pairs.py --base 51abb11 --workload large --pairs 10 \
        --seed 2401 --out BENCH_24.json

Exports the base revision with `git archive` into a scratch directory and
runs `python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0`
there and in the working tree, in pairs on the same seed: the base runs
first in odd pairs, the working tree first in even ones. Each run's last
output line, the JSON result, is kept as it is. The output file holds
both revisions, the Python, NumPy and SciPy versions, the CPUs this
process may use, every run, and per workload and end-to-end metric the
medians and quartiles of both sides and the pairs each side won. Runs of
another workload already in the file are kept when its base and working
tree are the ones of this call; the workload's own are replaced. The
export is kept in `--scratch` for the next call; without it, it goes into
a new temporary directory, which is removed when the call ends, on error
too.

Run it from the root of the repository.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

# the end-to-end metrics of BENCHMARK.json; every one is better lower
METRICS = ("op_s", "setup_s", "peak_rss_mb")
# the benchmark's own run: 30 s per workload, untraced (BENCHMARK.json run_seconds)
COMMAND = "python3 perfbench/run.py --workload {workload} --seed {seed} --seconds 30 --trace 0"


def git(*args) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def revisions(base: str) -> dict:
    """The base commit and the working tree: HEAD, whether tracked files
    differ from it, and the tree of src/ as it is on disk."""
    stash = git("stash", "create")   # a commit of the changed tracked files; nothing is touched
    return {
        "base": {"commit": git("rev-parse", base), "src_tree": git("rev-parse", f"{base}:src")},
        "change": {"head": git("rev-parse", "HEAD"), "dirty": bool(stash),
                   "src_tree": git("rev-parse", f"{stash or 'HEAD'}:src")},
    }


def export(commit: str, scratch: str) -> str:
    """A checkout of `commit` made with `git archive`, reused when present."""
    path = os.path.join(scratch, f"base-{commit[:12]}")
    if not os.path.isdir(path):
        os.makedirs(path)
        archive = subprocess.run(["git", "archive", commit], check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", path], input=archive, check=True)
    return path


def run_once(checkout: str, workload: str, seed: int) -> dict:
    cmd = [sys.executable, *COMMAND.format(workload=workload, seed=seed).split()[1:]]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summarize(runs: list) -> dict:
    """Per workload and metric: each side's median and quartiles [Q1, Q3]
    (`statistics.quantiles`, inclusive method), the median of the per-pair
    ratios change / base, and the pairs each side won."""
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        complete = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        entry = {"pairs": len(complete),
                 "all_correct": all(p[s]["correct"] for p in complete for s in p),
                 "failed": sum(p[s]["failed"] for p in complete for s in p)}
        for metric in METRICS:
            base = [p["base"]["metrics"][metric]["value"] for p in complete]
            change = [p["change"]["metrics"][metric]["value"] for p in complete]
            entry[metric] = {
                "base_median": statistics.median(base),
                "change_median": statistics.median(change),
                "base_quartiles": statistics.quantiles(base, n=4, method="inclusive")[::2],
                "change_quartiles": statistics.quantiles(change, n=4, method="inclusive")[::2],
                "median_ratio": statistics.median(c / b for b, c in zip(base, change)),
                "change_won": sum(c < b for b, c in zip(base, change)),
                "base_won": sum(b < c for b, c in zip(base, change)),
            }
        out[workload] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the revision to compare against")
    ap.add_argument("--workload", required=True, choices=("large", "llm", "descent"))
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True, help="the first pair's seed; pair k runs seed + k - 1")
    ap.add_argument("--out", required=True, help="the JSON file to write, e.g. BENCH_24.json")
    ap.add_argument("--scratch", help="where the base checkout goes and is kept (default: a new temporary "
                                      "directory, removed at the end)")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2: quartiles need two values")

    revs = revisions(args.base)
    record = {"base": revs["base"], "change": revs["change"], "runs": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            old = json.load(fh)
        if (old["base"], old["change"]) == (revs["base"], revs["change"]):
            record["runs"] = [r for r in old["runs"] if r["workload"] != args.workload]
    import numpy
    import scipy

    record["environment"] = {"python": platform.python_version(), "numpy": numpy.__version__,
                             "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0))}
    record["command"] = COMMAND.format(workload="W", seed="S")

    scratch = contextlib.nullcontext(args.scratch) if args.scratch else tempfile.TemporaryDirectory()
    with scratch as where:
        checkouts = {"base": export(revs["base"]["commit"], where), "change": os.getcwd()}
        for pair in range(1, args.pairs + 1):
            seed = args.seed + pair - 1
            for order, side in enumerate(("base", "change") if pair % 2 else ("change", "base")):
                result = run_once(checkouts[side], args.workload, seed)
                record["runs"].append({"workload": args.workload, "pair": pair, "seed": seed, "side": side,
                                       "order": order, "result": result})
                print(f"{args.workload} pair {pair} {side}: op_s {result['metrics']['op_s']['value']:.4f}",
                      file=sys.stderr)
    record["summary"] = summarize(record["runs"])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps(record["summary"][args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
