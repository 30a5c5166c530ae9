"""The outputs a change must keep, recorded once and checked again.

    python3 tools/outputs.py --out OUTPUTS.json     # record
    python3 tools/outputs.py --check OUTPUTS.json   # rerun and compare

Records the 140 standard runs (`pipeline.run_replicate` of
`standard_experiment(mode, noise)`, 7 modes x seeds 0-9 x noise {0, 0.3})
and `theorems.verify_theorem3` on the `descent` SBM
(`SbmConfig(n=100, n_classes=5, dim=8, seed=0)`, 300 epochs) at seeds 11
and 12, with and without refinement. Each record holds every field of its
`ReplicateResult` or `Theorem3Report`, floats written as `float.hex`, so
a record reads back bitwise. Beside them it holds three sha256 digests of
the run's training, taken by wrapping the `train` that `pipeline` and
`theorems` call: `params`, of the trained parameter vector's bytes;
`evictions`, of the eviction list (epoch, bundle id, node) as JSON; and
`curves`, of the bytes of the four per-epoch curves (loss, loss_be,
loss_rank, grad_norm). So a change that moves the parameters alone shows.
The file also holds the Python, NumPy and SciPy versions and the CPUs
this process may use.

`--check` reruns every recorded run on this tree and prints each field
that moved, with its relative size |a - b| / max(|a|, |b|), and each
digest that moved; it exits non-zero on any difference. Run it from the
root of a checkout: the package is imported from that checkout's src/.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import sys
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from bundlesup import pipeline, theorems  # noqa: E402
from bundlesup.pipeline import MODES, run_replicate, standard_experiment  # noqa: E402
from bundlesup.synth import SbmConfig  # noqa: E402
from bundlesup.theorems import verify_theorem3  # noqa: E402

NOISES = (0.0, 0.3)
SEEDS = tuple(range(10))
DESCENT_SBM = SbmConfig(n=100, n_classes=5, dim=8, seed=0)
DESCENT_SEEDS = (11, 12)
DESCENT_EPOCHS = 300


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0))}


def encode(result) -> dict:
    """Every field of a result dataclass, floats as `float.hex`."""
    return {k: v.hex() if type(v) is float else v for k, v in dataclasses.asdict(result).items()}


def digests(params, report) -> dict:
    """The digests of one training run's parameters, evictions and curves."""
    curves = (report.loss, report.loss_be, report.loss_rank, report.grad_norm)
    data = {"params": params.to_vector().tobytes(), "evictions": json.dumps(report.refinements).encode(),
            "curves": b"".join(curve.tobytes() for curve in curves)}
    return {key: hashlib.sha256(value).hexdigest() for key, value in data.items()}


@contextmanager
def training_digests():
    """A list that receives `digests` of each training run `pipeline` or
    `theorems` makes inside the block."""
    runs = []
    originals = {module: module.train for module in (pipeline, theorems)}

    def wrapping(train):
        def digested(*args, **kwargs):
            params, report = train(*args, **kwargs)
            runs.append(digests(params, report))
            return params, report
        return digested

    for module, train in originals.items():
        module.train = wrapping(train)
    try:
        yield runs
    finally:
        for module, train in originals.items():
            module.train = train


def replicate(mode: str, noise_rate: float, seed: int) -> dict:
    """The record of one standard run."""
    with training_digests() as runs:
        result = run_replicate(standard_experiment(mode, noise_rate, replicate_seeds=(seed,)), seed)
    (trained,) = runs
    return {"mode": mode, "noise_rate": noise_rate, "seed": seed, "result": encode(result), "digests": trained}


def descent(seed: int, refinement: bool) -> dict:
    """The record of one `verify_theorem3` run on the `descent` SBM."""
    with training_digests() as runs:
        report = verify_theorem3(seed=seed, epochs=DESCENT_EPOCHS, refinement=refinement, sbm=DESCENT_SBM)
    (trained,) = runs
    return {"seed": seed, "refinement": refinement, "report": encode(report), "digests": trained}


def rerun(record: dict) -> dict:
    """The record of the run that `record` describes, made again on this tree."""
    if "report" in record:
        return descent(record["seed"], record["refinement"])
    return replicate(record["mode"], record["noise_rate"], record["seed"])


def record_all() -> dict:
    # seed-major, so the modes of a seed share its kept dataset
    replicates = [replicate(mode, noise, seed) for noise in NOISES for seed in SEEDS for mode in MODES]
    descents = [descent(seed, refinement) for seed in DESCENT_SEEDS for refinement in (False, True)]
    return {"environment": environment(), "replicates": replicates, "descent": descents}


def moved(want: dict, got: dict) -> list:
    """(field, recorded, rerun, relative size) for each field that differs;
    the size is None where either value is not a number."""
    out = []
    for key, a in want.items():
        b = got.get(key)
        if a == b:
            continue
        if isinstance(a, str) and isinstance(b, str):
            a, b = float.fromhex(a), float.fromhex(b)
        if type(a) in (int, float) and type(b) in (int, float):
            scale = max(abs(a), abs(b))
            out.append((key, a, b, abs(a - b) / scale if scale else 0.0))
        else:
            out.append((key, a, b, None))
    return out


def moved_digests(want: dict, got: dict) -> list:
    """(digest, recorded, rerun, None) for each digest that differs."""
    return [(f"{key} digest", a, got.get(key), None) for key, a in want.items() if got.get(key) != a]


def label(record: dict) -> str:
    if "report" in record:
        return f"verify_theorem3 seed {record['seed']} refinement={record['refinement']}"
    return f"{record['mode']} noise {record['noise_rate']} seed {record['seed']}"


def check(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        recorded = json.load(fh)
    env = environment()
    if env != recorded["environment"]:
        print(f"environment differs: recorded {recorded['environment']}, here {env}")
    changed = 0
    for record in recorded["replicates"] + recorded["descent"]:
        fields = "report" if "report" in record else "result"
        again = rerun(record)
        diffs = moved(record[fields], again[fields]) + moved_digests(record["digests"], again["digests"])
        changed += bool(diffs)
        for key, a, b, size in diffs:
            rel = "" if size is None else f" (relative {size:.2e})"
            print(f"{label(record)}: {key} {a!r} -> {b!r}{rel}")
    total = len(recorded["replicates"]) + len(recorded["descent"])
    print(f"{total - changed} of {total} runs unchanged")
    return 1 if changed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--out", help="write the records to this JSON file")
    what.add_argument("--check", help="rerun the records of this JSON file and compare")
    args = ap.parse_args(argv)
    if args.check:
        return check(args.check)
    records = record_all()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(records['replicates'])} replicates and {len(records['descent'])} descent runs "
          f"to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
