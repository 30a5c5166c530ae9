"""Benchmark of bundlesup: one named workload from a seed, timed through the public API.

    python3 perfbench/run.py --workload descent --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports the package from ./src and
writes inputs, spans and results under ./.perfbench/. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. With --trace 0 the metrics are the end-to-end ones
(op_s, setup_s, peak_rss_mb); with --trace 1 the run alternates an
untraced and a traced operation and reports the per-layer figures of
tracing.py instead. See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import urllib.request

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 5
STUB_KEY_VAR = "PERFBENCH_STUB_KEY"
MIN_ACCURACY = 0.25   # five times the 1/20 chance level


def _derive(seed: int, tag: int) -> int:
    """A non-negative 31-bit program seed drawn from the benchmark seed."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0] >> 1)


def import_program():
    """Import bundlesup from ./src only; exit non-zero when it is not there."""
    init = os.path.join(SRC, "bundlesup", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"run.py: no {init}; run from the root of a bundlesup checkout")
    sys.path.insert(0, SRC)
    import bundlesup

    if os.path.realpath(bundlesup.__file__) != os.path.realpath(init):
        sys.exit(f"run.py: imported bundlesup from {bundlesup.__file__}, not {SRC}")


def setup_seconds(files) -> float:
    """Median time from process start to bundlesup imported and files loaded."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), SRC, *files],
                             check=True, capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout.strip()) - t0)
    return statistics.median(times)


class Workload:
    """One operation repeated: before_op (untimed), op (timed), check (untimed)."""

    attempts = 1   # operations of the kind `attempted` counts, per op()
    files = []     # what the set-up probe loads: edges, embeddings, nodes, class names

    def before_op(self):
        pass

    def close(self):
        pass


class Replicates(Workload):
    """large: `pipeline.run_replicate` on the generated files with the oracle, one seed repeated."""

    def __init__(self, name, seed, workdir):
        from bundlesup import pipeline
        from bundlesup.annotate import OracleConfig
        from bundlesup.sampling import SamplingConfig
        from bundlesup.train import TrainConfig

        self.pipeline = pipeline
        self.seed = _derive(seed, 1)
        self.first = None
        self.params = None
        data = gen.write_partition(workdir, gen.SPECS[name], seed)
        self.files = [data.edges_path, data.embeddings_path, data.nodes_path,
                      ",".join(data.class_names)]
        x = np.loadtxt(data.embeddings_path, skiprows=1, ndmin=2)
        self.own = (check.normalized_adjacency(x.shape[0], data.edges), x, data.labels)
        self.cfg = pipeline.ExperimentConfig(
            dataset=pipeline.DatasetPaths(data.edges_path, data.embeddings_path,
                                          data.nodes_path, data.class_names),
            sampling=SamplingConfig(num_bundles=100),
            oracle=OracleConfig(noise_rate=0.3),
            train=TrainConfig(learning_rate=0.5, epochs=20, warmup_epochs=10, refine_every=5),
            replicate_seeds=(self.seed,),
        )
        # keep the trained parameters the program passes to pipeline.accuracy
        accuracy = pipeline.accuracy

        def keep_params(params, *args, **kwargs):
            self.params = params
            return accuracy(params, *args, **kwargs)

        pipeline.accuracy = keep_params

    def op(self):
        return self.pipeline.run_replicate(self.cfg, self.seed)

    def check(self, result) -> int:
        """Raise CheckFailed on a wrong output; return 1 if the replicate failed."""
        if result.n_failed:   # a bundle left unlabelled fails the replicate
            return 1
        check.require(result.n_labeled == self.cfg.sampling.num_bundles,
                      f"{result.n_labeled} bundles labelled")
        a_hat, x, labels = self.own
        p = self.params
        z = check.gcn_logits(a_hat, x, p.w1, p.b1, p.w2, p.b2)
        check.require(check.accuracy_matches(z, labels, result.accuracy),
                      f"reported accuracy {result.accuracy} differs from the recomputed one")
        check.require(result.accuracy >= MIN_ACCURACY, f"accuracy {result.accuracy} near chance")
        if self.first is None:
            self.first = result
        check.require(result == self.first, f"replicate not reproduced: {result} != {self.first}")
        return 0


class Annotation(Workload):
    """llm: a cold `annotate_all` against the chat stub, then a warm one from its cache file."""

    attempts = 800   # bundle annotations per operation: 400 cold, then 400 warm

    def __init__(self, name, seed, workdir):
        from bundlesup import annotate, graphs
        from bundlesup.llm import LlmEndpointConfig
        from bundlesup.sampling import SamplingConfig, sample_bundles

        self.annotate = annotate
        data = gen.write_partition(workdir, gen.SPECS[name], seed)
        self.files = [data.edges_path, data.embeddings_path, data.nodes_path,
                      ",".join(data.class_names)]
        graph = graphs.load_edge_list(data.edges_path)
        self.table = graphs.load_node_table(data.nodes_path, list(data.class_names))
        # 400 cores out of 400 nodes: every core once, so every prompt differs
        self.bundles = sample_bundles(graph, None, SamplingConfig(num_bundles=graph.n,
                                                                  seed=_derive(seed, 2)))
        self.expected = [gen.mode_class(data.labels[b.members]) for b in self.bundles]
        self.reasks = sum(1 for b in self.bundles if b.core % 10 == 0)
        self.cache_path = os.path.join(workdir, "annotations.jsonl")
        # the stub also exits when its stdin closes, should this process die first
        self.stub = subprocess.Popen([sys.executable, os.path.join(HERE, "stub.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            port = int(self.stub.stdout.readline().split()[1])
        except BaseException:
            self.close()
            raise
        self.stats_url = f"http://127.0.0.1:{port}/stats"
        os.environ[STUB_KEY_VAR] = "local"
        self.llm = LlmEndpointConfig(base_url=f"http://127.0.0.1:{port}", model="stub",
                                     api_key_env_var=STUB_KEY_VAR, parallelism=2, timeout=30.0)

    def _requests(self) -> int:
        with urllib.request.urlopen(self.stats_url, timeout=30) as resp:
            return int(json.loads(resp.read())["requests"])

    def before_op(self):
        self.before = self._requests()
        if os.path.exists(self.cache_path):
            os.remove(self.cache_path)

    def _pass(self) -> list:
        for b in self.bundles:
            b.label = None
        cache = self.annotate.AnnotationCache(self.cache_path)
        self.annotate.annotate_all(self.bundles, self.table, llm=self.llm, cache=cache)
        return [b.label for b in self.bundles]

    def op(self):
        return self._pass(), self._pass()

    def check(self, passes) -> int:
        """Raise CheckFailed on a wrong output; return the bundles left unlabelled."""
        cold, warm = passes
        # a cold pass that labels every bundle needs one request per bundle and
        # one per re-ask, so this count also shows that the warm pass sent none
        sent = self._requests() - self.before
        want = len(self.bundles) + self.reasks
        check.require(sent == want, f"the two passes sent {sent} requests, expected {want}")
        for labels in passes:
            check.require(all(got == want for got, want in zip(labels, self.expected)
                              if got is not None),
                          "a label differs from the true mode of its members")
        check.require(warm == cold, "warm labels differ from cold labels")
        return sum(1 for labels in passes for y in labels if y is None)

    def close(self):
        self.stub.terminate()
        try:
            self.stub.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.stub.kill()
            self.stub.wait()
        self.stub.stdin.close()
        self.stub.stdout.close()


class Descent(Workload):
    """descent: `theorems.verify_theorem3` with the derived step, without and with refinement.

    The graph is the same for every seed (SBM seed 0): at n=100 the NumPy
    spmm's time per call changes by up to 1.5x between SBM draws whose edge
    counts differ by an eighth, which would split op_s in two across seeds.
    The seed drives the bundles, the annotation, the initial parameters
    and the probe nodes.
    """

    attempts = 2   # descent checks per operation

    def __init__(self, name, seed, workdir):
        from bundlesup import theorems
        from bundlesup.synth import SbmConfig

        self.theorems = theorems
        self.seed = _derive(seed, 3)
        self.sbm = SbmConfig(n=100, n_classes=5, dim=8, seed=0)
        self.first = None

    def op(self):
        return [self.theorems.verify_theorem3(seed=self.seed, epochs=300, refinement=r, sbm=self.sbm)
                for r in (False, True)]

    def check(self, reports) -> int:
        for report in reports:
            check.descent_report_ok(report, check.n_params(8, 64, 5))
        if self.first is None:
            self.first = reports
        check.require(reports == self.first, "descent check not reproduced")
        return 0


WORKLOADS = {"large": Replicates, "llm": Annotation, "descent": Descent}


def run(args) -> dict:
    workdir = os.path.join(OUT, "inputs", args.workload)
    wl = WORKLOADS[args.workload](args.workload, args.seed, workdir)
    try:
        setup_s = None if args.trace else setup_seconds(wl.files)
        tracer = tracing.Tracer()
        untraced, traced = [], []
        attempted = failed = 0
        correct = True
        start = time.perf_counter()
        while correct:
            # with --trace 1, operations alternate: untraced, traced, untraced, ...
            traced_op = bool(args.trace) and len(untraced) > len(traced)
            wl.before_op()
            if traced_op:
                tracer.install()
            t0 = time.perf_counter()
            try:
                result = wl.op()
            finally:
                (traced if traced_op else untraced).append(time.perf_counter() - t0)
                if traced_op:
                    tracer.uninstall()
            attempted += wl.attempts
            try:
                failed += wl.check(result)
            except check.CheckFailed as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                correct = False
            whole = len(untraced) + len(traced) >= 2 and (traced_op or not args.trace)
            if whole and time.perf_counter() - start >= args.seconds:
                break
    finally:
        wl.close()

    if args.trace:
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        tracer.write(os.path.join(OUT, "spans", f"{args.workload}.jsonl"))
        metrics = tracing.layer_metrics(tracer.spans, max(len(traced), 1),
                                        statistics.median(untraced),
                                        statistics.median(traced or untraced))
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "op_s": {"value": statistics.median(untraced), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(f"{args.workload}: untraced operations (s) {[round(t, 4) for t in untraced]}, "
          f"traced {[round(t, 4) for t in traced]}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    # turn a termination request into SystemExit, so `finally` stops the stub
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import_program()
    result = run(args)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, "results", name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
