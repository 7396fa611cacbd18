"""Command-line entry point: audit, gradcheck, bench, train-toy, gradcam.

Exit codes: 0 success, 1 check failure, 2 usage/parse error or a size
that cannot be allocated, 3 numeric divergence. Commands return 0 or 1 and
raise on bad input; `main` alone turns an error into its exit code and one
`error:` line. Each command puts its outputs on disk in one
`atomic_write_files` call, after all of them are computed, so a command that
fails writes nothing.
"""

import argparse
import glob
import json
import math
import os
import sys
import time

import numpy as np

from elakit.accounting import PlacementSpec, audit_network
from elakit.gradcheck import DEFAULT_TOL, check_module_gradients
from elakit.modules import MODULE_CHOICES, build_attention
from elakit.params import atomic_write_files
from elakit.toy import (
    DivergenceError,
    MiniCnn,
    evaluate,
    gradcam,
    history_csv,
    make_toy_batch,
    pgm_bytes,
    train_toy,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3


def _parse_shape(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4 or not all(p.isdecimal() and int(p) >= 1 for p in parts):
        raise argparse.ArgumentTypeError("shape must be N,C,H,W with integers >= 1")
    return tuple(int(p) for p in parts)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="elakit",
        description="Directional attention kernels: audits, gradient checks, "
        "benchmarks, toy training, and Grad-CAM heatmaps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="parameter/FLOP audit of a placement file")
    p_audit.add_argument("--config", required=True, help="placement JSON file")
    p_audit.add_argument("--out", required=True, help="output CSV path")
    p_audit.add_argument("--json-out", help="optional JSON report path")

    p_gc = sub.add_parser("gradcheck", help="finite-difference check of one module")
    p_gc.add_argument("--module", required=True, type=str.lower, choices=MODULE_CHOICES)
    p_gc.add_argument("--shape", type=_parse_shape, default=(2, 16, 5, 7), metavar="N,C,H,W")
    p_gc.add_argument("--seed", type=int, default=0)

    p_bench = sub.add_parser("bench", help="forward/backward wall-time statistics")
    p_bench.add_argument("--module", required=True, type=str.lower, choices=MODULE_CHOICES)
    p_bench.add_argument("--shape", type=_parse_shape, default=(1, 256, 14, 14), metavar="N,C,H,W")
    p_bench.add_argument("--reps", type=int, default=20)
    p_bench.add_argument("--out", required=True, help="output CSV path")

    p_train = sub.add_parser("train-toy", help="train the mini CNN on the quadrant task")
    p_train.add_argument("--attention", default="ela-b", help="module kind or 'none'")
    p_train.add_argument("--steps", type=int, default=500)
    p_train.add_argument("--seed", type=int, default=7)
    p_train.add_argument("--lr", type=float, default=0.05)
    p_train.add_argument("--out", required=True, help="output directory")

    p_cam = sub.add_parser("gradcam", help="emit PGM heatmaps from a trained model")
    p_cam.add_argument("--model", required=True, help="model file from train-toy")
    p_cam.add_argument("--samples", type=int, default=8)
    p_cam.add_argument("--seed", type=int, default=3)
    p_cam.add_argument("--out", required=True, help="output directory")
    return parser


def cmd_audit(args):
    if args.json_out and os.path.realpath(args.json_out) == os.path.realpath(args.out):
        raise ValueError(f"--out and --json-out name the same file: {args.out}")
    spec = PlacementSpec.from_json_file(args.config)
    try:
        report = audit_network(spec)
    except (MemoryError, ValueError) as exc:  # a site too large for the enumeration oracle
        raise type(exc)(f"{args.config}: {exc}") from None
    outputs = {args.out: report.to_csv().encode("utf-8")}
    if args.json_out:
        outputs[args.json_out] = report.to_json().encode("utf-8")
    atomic_write_files(outputs)
    print(f"{report.network} + {report.module}: delta {report.total_params} params, "
          f"{report.total_flops} MACs/sample over {len(report.rows)} sites")
    if report.reconciliation:
        rec = report.reconciliation
        print(
            f"reconciliation: audit {rec['audit_delta_params_m']}M vs published "
            f"{rec['published_delta_params_m']}M (ratio {rec['ratio']}, "
            f"within_2x={rec['within_2x']})"
        )
    if not report.enumeration_ok:
        print("error: closed-form count disagrees with parameter enumeration",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_gradcheck(args):
    n, c, h, w = args.shape
    module = build_attention(args.module, c, seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    x = rng.standard_normal((n, c, h, w))
    errors = check_module_gradients(module, x, direction_seed=args.seed + 2)
    width = max(len(k) for k in errors)
    ok = True
    for name, err in errors.items():
        status = "ok" if err < DEFAULT_TOL else "FAIL"
        ok &= err < DEFAULT_TOL
        print(f"{name:<{width}}  max rel err {err:.3e}  {status}")
    print(f"gradcheck {args.module} shape={args.shape}: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_bench(args):
    if args.reps < 10:
        raise ValueError("--reps must be >= 10")
    n, c, h, w = args.shape
    module = build_attention(args.module, c, seed=0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, c, h, w))
    y, _ = module.forward(x, keep_intermediates=True)
    dy = rng.standard_normal(y.shape)

    def timed(fn):
        for _ in range(3):  # warm-up, excluded
            fn()
        samples = []
        for _ in range(args.reps):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        return np.percentile(samples, [50, 10, 90])

    fwd = timed(lambda: module.forward(x, keep_intermediates=True))
    bwd = timed(lambda: module.backward(dy))
    lines = ["module,pass,reps,median_s,p10_s,p90_s"]
    for label, stats in (("forward", fwd), ("backward", bwd)):
        lines.append(
            f"{args.module},{label},{args.reps},{stats[0]:.6e},{stats[1]:.6e},{stats[2]:.6e}"
        )
    atomic_write_files({args.out: ("\n".join(lines) + "\n").encode("utf-8")})
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_train_toy(args):
    if args.steps < 0:
        raise ValueError("--steps must be >= 0")
    if not math.isfinite(args.lr):
        raise ValueError(f"--lr must be finite, got {args.lr}")
    model, state, data = train_toy(args.attention, args.steps, args.seed, lr=args.lr)
    try:
        with np.errstate(over="raise", invalid="raise"):  # a model trained into overflow
            acc = evaluate(model, data.images, data.labels)
    except FloatingPointError as exc:
        raise DivergenceError(f"{exc} after step {args.steps - 1}") from None
    final = json.dumps({"steps": args.steps, "train_accuracy": acc}, indent=2) + "\n"
    os.makedirs(args.out, exist_ok=True)
    atomic_write_files({
        os.path.join(args.out, "loss.csv"): history_csv(state.history).encode("utf-8"),
        os.path.join(args.out, "model.elak"): model.params.to_bytes(),
        os.path.join(args.out, "final.json"): final.encode("utf-8"),
    })
    print(f"final train accuracy {acc:.4f} after {args.steps} steps")
    return EXIT_OK


def cmd_gradcam(args):
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    # a run with fewer samples would leave the older heatmaps beside its own
    older = glob.glob(os.path.join(glob.escape(args.out), "heatmap_*.pgm"))
    if any(map(os.path.isfile, older)):
        raise ValueError(f"{args.out} already holds heatmaps; choose a new --out")
    model = MiniCnn.load(args.model)
    batch = make_toy_batch(args.samples, seed=args.seed, size=model.cfg.input_shape[1])
    try:
        with np.errstate(over="raise", invalid="raise"):  # finite weights too large to use
            maps = gradcam(model, batch.images, batch.labels)
    except FloatingPointError as exc:
        raise ValueError(f"{args.model}: the model's values overflow: {exc}") from None
    os.makedirs(args.out, exist_ok=True)
    atomic_write_files({
        os.path.join(args.out, f"heatmap_{i:03d}.pgm"): pgm_bytes(m) for i, m in enumerate(maps)
    })
    print(f"wrote {args.samples} heatmaps to {args.out}")
    return EXIT_OK


COMMANDS = {
    "audit": cmd_audit,
    "gradcheck": cmd_gradcheck,
    "bench": cmd_bench,
    "train-toy": cmd_train_toy,
    "gradcam": cmd_gradcam,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except DivergenceError as exc:
        message, code = f"training diverged: {exc}", EXIT_DIVERGED
    except OSError as exc:  # a missing file, a directory, an unwritable output
        message = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        code = EXIT_USAGE
    except (ValueError, MemoryError) as exc:  # bad options, shapes, files; sizes beyond memory
        message, code = exc, EXIT_USAGE
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
