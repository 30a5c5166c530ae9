"""The package's side of the benchmark tracer's contract
(perfbench/tracing.py): every name the tracer hooks exists, is wrapped
while it is installed and is restored after, and the spans of traced calls
carry the attributes the tracer reads off their arguments and results."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bundlesup import theorems
from bundlesup.graphs import Csr, normalized_adjacency
from bundlesup.synth import SbmConfig

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hooked(tracing) -> list:
    """(owner, attribute, its value now) for each of the tracer's hooks."""
    out = []
    for mod_name, attr, _, _ in tracing._HOOKS:
        owner = importlib.import_module(f"bundlesup.{mod_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        out.append((owner, leaf, getattr(owner, leaf)))
    return out


def traced(tracing, call):
    """(the tracer's spans, the result) of `call()` run with the tracer installed."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = call()
    finally:
        tracer.uninstall()
    return tracer.spans, result


def test_install_wraps_every_hooked_name_and_uninstall_restores_it(tracing):
    originals = hooked(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, leaf, original), (_, _, wrapper) in zip(originals, hooked(tracing)):
            assert wrapper is not original and wrapper.__wrapped__ is original, (owner, leaf)
    finally:
        tracer.uninstall()
    assert [value for _, _, value in hooked(tracing)] == [value for _, _, value in originals]


def test_a_traced_product_records_its_operands(tracing):
    a = normalized_adjacency(Csr.from_edges(5, [(0, 1), (1, 2), (2, 4)]))
    y = np.random.default_rng(0).normal(size=(5, 3))
    spans, product = traced(tracing, lambda: a @ y)
    assert product.tobytes() == (a @ y).tobytes()
    assert [(s[0], s[4]) for s in spans] == [
        ("kernels.spmm", {"rows": 5, "nnz": a.indices.size, "in_rows": 5, "cols": 3})]
    metrics = tracing.layer_metrics(spans, 1, 1.0, 1.0)
    assert metrics["kernels.spmm_calls"]["value"] == 1
    assert metrics["kernels.spmm_gflop"]["value"] == 2 * a.indices.size * 3 / 1e9


def test_a_traced_descent_run_fills_every_attribute_the_tracer_reads(tracing):
    """The `descent` workload's call, cut short: training, refinement and
    annotation spans carry the figures their extractors take."""
    sbm = SbmConfig(n=100, n_classes=5, dim=8, seed=0)

    def run():   # looked up at call time, so the installed wrapper is the one called
        return theorems.verify_theorem3(seed=11, epochs=40, refinement=True, sbm=sbm)

    spans, report = traced(tracing, run)
    assert report == run()
    names = {s[0] for s in spans}
    assert {"theorems.verify_theorem3", "synth.gen_sbm", "graphs.normalized_adjacency", "kernels.spmm",
            "sampling.sample_bundles", "annotate.annotate_all", "train.train", "train.refine",
            "train.estimate_logit_bounds", "gnn.forward", "gnn.backward", "losses.objective"} <= names
    metrics = tracing.layer_metrics(spans, 1, 1.0, 1.0)
    assert metrics["train.evictions"]["value"] == report.refinement_events > 0
    assert metrics["train.epochs_per_s"]["value"] > 0
