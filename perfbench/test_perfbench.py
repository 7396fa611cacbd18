"""Self-tests of the benchmark, run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py

They check that the output schema matches BENCHMARK.json on every run, that
the MAC reconciliation holds, that a perturbed backward trips the sweep gates
(the negative control), and that a checkout without the library fails
cleanly.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from elakit import kernels  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(workload, seed, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_run_prints_the_declared_metrics_with_units(trace, section):
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload, seed in (("ca_sweep", 1), ("toy_train", 2)):
        proc = run_bench(workload, seed, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == RESULT_KEYS
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, metric in result["metrics"].items():
            assert set(metric) == {"value", "unit"}, name
            assert isinstance(metric["value"], (int, float)), name


def test_mac_reconciliation_is_exact():
    tracer = tracing.Tracer(span_cap=0)
    tracer.install()
    try:
        rows = tracing.reconcile_macs(tracer, workloads.stage_shapes(), 2, seed=5)
    finally:
        tracer.uninstall()
    assert len(rows) == 8
    for kind, shape, traced, expected in rows:
        assert traced == expected, (kind, shape)
    assert not hasattr(kernels.conv1d_grouped, "__wrapped__")


def test_traced_self_times_cover_the_op():
    sweep = workloads.make("ca_sweep")
    sweep.setup(4)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        timing, _ = run.measure(sweep, 0.0, 0, tracer)
    finally:
        tracer.uninstall()
    metrics = tracing.per_layer_metrics(tracer, len(timing.times), 1.0, 1.0)
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics)
    assert metrics["trace.accounted_pct"]["value"] > 95.0
    assert metrics["kernels.batch_norm.calls"]["value"] == 4
    root = [s for s in tracer.spans if s[1] == "op"]
    assert len(root) == 1 and all(s[5] == 0 for s in tracer.spans)


def test_perturbed_backward_trips_the_sweep_gates(monkeypatch):
    sweep = workloads.make("ela_sweep")
    sweep.setup(3)
    clean, next_op = run.measure(sweep, 0.0, 0)
    assert clean.failures == []
    assert sweep.gates() == [("pinned_digests", None)]

    original = kernels.group_norm_backward

    def perturbed(dy, cache):
        dx, dgamma, dbeta = original(dy, cache)
        return dx * (1.0 + 1e-6), dgamma, dbeta

    monkeypatch.setattr(kernels, "group_norm_backward", perturbed)
    broken, _ = run.measure(sweep, 0.0, next_op)
    assert len(broken.failures) == len(broken.times) >= 1
    [(name, error)] = sweep.gates()
    assert name == "pinned_digests" and error is not None


def test_checkout_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("toy_train", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
