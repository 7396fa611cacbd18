"""elakit benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload ela_sweep --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ./src. With
--trace 0 the last line of standard output is a JSON object carrying the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run. Lines before it give the environment, the metric names the
workloads are usually discussed by, and the gates. Reports and traced spans
are also written under perfbench/out/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("ela_sweep", "ca_sweep", "toy_train", "gradcheck_small")
THREAD_CAP = "1"
SETUP_REPEATS = 3
TRACED_SHARE = 2 / 3  # of --seconds; a traced run spends the rest untraced

# End-to-end metric names, and the names each workload's op goes by.
ALIASES = {
    "ela_sweep": {"op_ms_p50": "sweep_ms_p50", "op_ms_p90": "sweep_ms_p90",
                  "ops_per_s": "sweeps_per_s"},
    "ca_sweep": {"op_ms_p50": "sweep_ms_p50", "op_ms_p90": "sweep_ms_p90",
                 "ops_per_s": "sweeps_per_s"},
    "toy_train": {"op_ms_p50": "step_ms_p50", "op_ms_p90": "step_ms_p90",
                  "ops_per_s": "steps_per_s"},
    "gradcheck_small": {"op_ms_p50": "check_ms_p50", "op_ms_p90": "check_ms_p90",
                        "ops_per_s": "checks_per_s"},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="elakit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def cap_threads():
    """Pin the numeric backend to one thread; must run before numpy loads."""
    for var in ("ELA_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = THREAD_CAP


def import_library():
    """Import elakit from ./src and the benchmark's modules; exit 2 if the
    checkout has no library to benchmark."""
    src = ROOT / "src"
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(src))
    try:
        import elakit
    except ImportError as exc:
        sys.exit(f"error: cannot import elakit from {src}: {exc}")
    if not Path(elakit.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: elakit was imported from {elakit.__file__}, not from {src}")
    import tracing
    import workloads
    return tracing, workloads


def read_first(path, prefix):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cache_sizes():
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment(args, dtype):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    caches = cache_sizes()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": read_first("/proc/cpuinfo", "model name"),
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_cap": THREAD_CAP,
        "dtype_computed": dtype,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "notes": [
            "bytes are computed from array sizes, not measured",
            "L3 is shared with other tenants, so no bandwidth ratios are computed",
        ],
    }


class Timing:
    """Op times, strata and failures of one measured phase."""

    def __init__(self):
        self.times = []
        self.strata = []
        self.failures = []


def measure(workload, seconds, first_op, tracer=None):
    """Run timed ops until `seconds` have passed and a round is complete."""
    timing = Timing()
    perf = time.perf_counter
    start = perf()
    i = first_op
    while True:
        error = None
        t0 = perf()
        try:
            if tracer is None:
                result = workload.op(i)
            else:
                result = tracer.run_op(i, lambda: workload.op(i))
        except Exception as exc:  # counted as a failed op; the run goes on
            dt = perf() - t0
            error = f"{type(exc).__name__}: {exc}"
        else:
            dt = perf() - t0
            error = workload.check(i, result)
        timing.times.append(dt)
        timing.strata.append(workload.stratum(i))
        if error:
            timing.failures.append(f"op {i}: {error}")
        i += 1
        if perf() - start >= seconds and i % workload.round_len == 0:
            return timing, i


def stratified_percentile(timing, q):
    """Mean over strata (block kinds) of each stratum's q-th percentile."""
    import numpy as np

    groups = {}
    for t, s in zip(timing.times, timing.strata):
        groups.setdefault(s, []).append(t)
    return float(np.mean([np.percentile(g, q) for g in groups.values()]))


def run_gates(workload):
    results = []
    for name, error in workload.gates():
        results.append({"gate": name, "ok": error is None, "error": error})
    return results


def sweep_gap_line():
    """Median op_ms_p50 of the untraced sweep reports present in OUT_DIR."""
    medians = {}
    for name in ("ela_sweep", "ca_sweep"):
        values = []
        for path in OUT_DIR.glob(f"{name}-seed*-trace0.json"):
            try:
                values.append(json.loads(path.read_text())["metrics"]["op_ms_p50"]["value"])
            except (OSError, ValueError, KeyError):
                continue
        if values:
            medians[name] = (statistics.median(values), len(values))
    if len(medians) < 2:
        return None
    (ela, n_ela), (ca, n_ca) = medians["ela_sweep"], medians["ca_sweep"]
    return (f"sweep_ms_p50 gap: ELA-B {ela:.1f} ms (median of {n_ela} runs) vs "
            f"CA-BN {ca:.1f} ms (median of {n_ca} runs): ELA-B - CA-BN = {ela - ca:+.1f} ms, "
            f"ratio {ela / ca:.3f}. A measurement of the gap, not a claimed gain.")


def main(argv=None):
    args = parse_args(argv)
    cap_threads()
    tracing, workloads = import_library()
    import_s = time.perf_counter() - T_START

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = workloads.make(args.workload)
        workload.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    tracer = None
    if args.trace:
        untraced, next_op = measure(workload, args.seconds * (1 - TRACED_SHARE), 0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            timing, _ = measure(workload, args.seconds * TRACED_SHARE, next_op, tracer)
        finally:
            tracer.uninstall()
        failures = untraced.failures + timing.failures
        n_timed = len(untraced.times) + len(timing.times)
    else:
        timing, _ = measure(workload, args.seconds, 0)
        failures = timing.failures
        n_timed = len(timing.times)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the gates
    gates = run_gates(workload)
    if args.trace:
        recon_tracer = tracing.Tracer(span_cap=0)
        recon_tracer.install()
        try:
            rows = tracing.reconcile_macs(recon_tracer, workloads.stage_shapes(),
                                          workloads.SWEEP_N, args.seed)
        finally:
            recon_tracer.uninstall()
        bad = [r for r in rows if r[2] != r[3]]
        gates.append({
            "gate": "mac_reconciliation",
            "ok": not bad,
            "error": f"traced vs flop_count MACs differ: {bad}" if bad else None,
            "rows": [{"kind": k, "shape": list(s), "traced_macs": t, "n_flop_count": e}
                     for k, s, t, e in rows],
        })
    failed = len(failures) + sum(not g["ok"] for g in gates)
    attempted = n_timed + len(gates)

    self_ms = {}
    if args.trace:
        metrics = tracing.per_layer_metrics(
            tracer, len(timing.times),
            untraced_ops_per_s=len(untraced.times) / sum(untraced.times),
            traced_ops_per_s=len(timing.times) / sum(timing.times),
        )
        self_ms = tracing.self_ms_table(tracer, len(timing.times))
    else:
        metrics = {
            "op_ms_p50": {"value": 1e3 * stratified_percentile(timing, 50), "unit": "ms"},
            "op_ms_p90": {"value": 1e3 * stratified_percentile(timing, 90), "unit": "ms"},
            "ops_per_s": {"value": len(timing.times) / sum(timing.times), "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    env = environment(args, getattr(workload, "dtype", "unknown"))
    report = {
        "environment": env,
        "ops_timed": len(timing.times),
        "ops_per_stratum": {s: timing.strata.count(s) for s in dict.fromkeys(timing.strata)},
        "ops_failed_frac": failed / attempted,
        "failures": failures[:20],
        "gates": gates,
        "setup_runs_s": setup_times,
        "import_s": import_s,
        "metrics": metrics,
        "self_ms_per_op": self_ms,
        "notes": [
            "MAC counts come from the formula sheet in elakit.accounting; "
            "backward counts are stated in perfbench/tracing.py",
            "elakit.cli is not called",
        ],
    }
    aliases = {}
    if not args.trace:
        aliases = {ALIASES[args.workload].get(k, k): v["value"] for k, v in metrics.items()}
        if args.workload == "gradcheck_small":
            evals = sum(workload.fd_evals(i) for i in range(len(timing.times)))
            aliases["fd_evals_per_s"] = evals / sum(timing.times)
        report["workload_metrics"] = aliases

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if tracer is not None:
        tracer.dump_spans(OUT_DIR / f"{stem}.spans.jsonl")

    print("environment " + json.dumps(env))
    print(f"{args.workload}: {len(timing.times)} ops timed "
          f"({report['ops_per_stratum']}), setup runs {[round(t, 3) for t in setup_times]} s "
          f"after {import_s:.3f} s of imports")
    for name, value in aliases.items():
        print(f"  {name} = {value:.6g}")
    for gate in gates:
        print(f"gate {gate['gate']}: {'ok' if gate['ok'] else 'FAILED: ' + gate['error']}")
    for failure in failures[:5]:
        print(f"failed {failure}")
    print(f"ops_failed_frac = {failed}/{attempted}")
    for name, ms in list(self_ms.items())[:8]:
        print(f"  self time {name}: {ms:.3f} ms/op")
    if args.trace:
        print(f"spans kept {len(tracer.spans)}, dropped {tracer.spans_dropped}; "
              f"written to {OUT_DIR / (stem + '.spans.jsonl')}")
    elif args.workload in ("ela_sweep", "ca_sweep"):
        gap = sweep_gap_line()
        if gap:
            print(gap)
    for note in report["notes"]:
        print("note: " + note)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
