"""Schema of the committed benchmark records, BENCH_*.json at the repo root.

A record holds one untraced perfbench report per workload of BENCHMARK.json,
the environment it was taken in, and optionally the parent -> change runs
behind a claimed gain.
"""

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def test_a_record_is_committed():
    assert RECORDS


@pytest.fixture(params=RECORDS, ids=[p.name for p in RECORDS])
def record(request):
    return json.loads(request.param.read_text())


def test_environment(record):
    env = record["environment"]
    assert isinstance(env["cores"], int) and env["cores"] >= 1
    for key in ("cpu", "python", "numpy", "dtype"):
        assert isinstance(env[key], str) and env[key]
    assert set(env["blas"]) == {"name", "version"}
    assert set(env["thread_variables"]) == set(THREAD_VARIABLES)


def test_one_untraced_report_per_workload(record):
    env = record["environment"]
    assert set(record["workloads"]) == set(WORKLOADS)
    for name, run in record["workloads"].items():
        seed, seconds = run["seed"], run["seconds"]
        assert isinstance(seed, int) and is_number(seconds) and seconds > 0
        assert run["command"].split() == [
            "python3", "perfbench/run.py", "--workload", name, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0",
        ]
        report = run["report"]
        ran = report["environment"]
        assert (ran["workload"], ran["seed"], ran["seconds"], ran["trace"]) == (
            name, seed, seconds, 0)
        assert (ran["numpy"], ran["dtype_computed"], ran["nproc"]) == (
            env["numpy"], env["dtype"], env["cores"])
        assert 0.0 <= report["ops_failed_frac"] <= 1.0
        for metric, spec in END_TO_END.items():
            assert report["metrics"][metric]["unit"] == spec["unit"]
            assert is_number(report["metrics"][metric]["value"])


def test_claim_is_consistent_with_its_runs(record):
    claim = record.get("claim")
    if claim is None:
        return
    assert claim["workload"] in WORKLOADS
    spec = END_TO_END[claim["metric"]]
    assert claim["better"] == spec["better"]
    parent, change = claim["parent"], claim["change"]
    assert len(parent) == len(change) == claim["pairs"] >= 1
    assert all(is_number(v) for v in parent + change)
    assert claim["parent_median"] == statistics.median(parent)
    assert claim["change_median"] == statistics.median(change)
    if len(parent) >= 2:
        q1, _, q3 = statistics.quantiles(parent, n=4)
        assert claim["parent_quartiles"] == [q1, q3]
    sign = 1 if spec["better"] == "lower" else -1
    assert claim["pairs_won"] == sum(sign * (p - c) > 0 for p, c in zip(parent, change))
