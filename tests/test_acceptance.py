"""Acceptance suite: one test per exit criterion, each printing a status line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Tolerances are fixed here, not calibrated elsewhere.
"""

import json
import time
from importlib import resources

import numpy as np

from elakit import gradcheck
from elakit import kernels as K
from elakit.accounting import PlacementSpec, audit_network, param_count, param_count_enumerated
from elakit.cli import main
from elakit.gradcheck import check_module_gradients
from elakit.modules import build_attention
from elakit.modules import MODULE_CHOICES as ALL_KINDS
from elakit.toy import evaluate, localization_hit_rate, make_toy_batch, train_toy


def report(criterion, detail):
    print(f"[PASS] criterion {criterion}: {detail}")


def test_criterion_1_gradient_fidelity():
    # max rel error < 1e-5, double precision, step 1e-5, all modules at
    # N=2, C=16, H=5, W=7; total runtime under 60 s
    assert gradcheck.DEFAULT_STEP == 1e-5
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 16, 5, 7))
    t0 = time.perf_counter()
    worst = {}
    for kind in ALL_KINDS:
        module = build_attention(kind, 16, seed=1)
        errors = check_module_gradients(module, x, direction_seed=2)
        worst[kind] = max(errors.values())
        assert worst[kind] < 1e-5, f"{kind}: {errors}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    report(1, f"all {len(ALL_KINDS)} modules, worst rel err "
              f"{max(worst.values()):.2e}, {elapsed:.1f}s")


def test_criterion_2_gating_oracle_bitwise():
    # vectorized gating vs quadruple loop, bitwise, 100 random shapes, < 5 s
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    for trial in range(100):
        n, c = int(rng.integers(1, 3)), int(rng.integers(1, 5))
        h, w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        x = rng.standard_normal((n, c, h, w))
        ah = rng.standard_normal((n, c, h))
        aw = rng.standard_normal((n, c, w))
        y = K.broadcast_mul_hw(x, ah, aw)
        for ni in range(n):
            for ci in range(c):
                for i in range(h):
                    for j in range(w):
                        assert y[ni, ci, i, j] == x[ni, ci, i, j] * ah[ni, ci, i] * aw[ni, ci, j]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.1f}s"
    report(2, f"100 shapes bitwise identical, {elapsed:.2f}s")


def test_criterion_3_zero_weight_fixed_points():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 16, 4, 6))
    for kind in ("ela-t", "ela-b", "ela-s", "ela-l"):
        m = build_attention(kind, 16, seed=0)
        for name in ("conv_h.weight", "conv_w.weight"):
            m.params.set_value(name, np.zeros_like(m.params.value(name)))
        y, maps = m.forward(x)
        assert np.all(maps.ah == 0.5) and np.all(maps.aw == 0.5), kind
        assert np.max(np.abs(y - 0.25 * x)) < 1e-12, kind
    for kind in ("ca", "ca-gn"):
        m = build_attention(kind, 16, seed=5)  # F1 left random on purpose
        for name in ("fh.weight", "fw.weight", "fh.bias", "fw.bias"):
            m.params.set_value(name, np.zeros_like(m.params.value(name)))
        y, maps = m.forward(x)
        assert np.all(maps.ah == 0.5) and np.all(maps.aw == 0.5), kind
        assert np.max(np.abs(y - 0.25 * x)) < 1e-12, kind
    se = build_attention("se", 16, seed=0)
    for name in se.params.names():
        se.params.set_value(name, np.zeros_like(se.params.value(name)))
    y, gate = se.forward(x)
    assert np.all(gate.gate == 0.5)
    assert np.max(np.abs(y - 0.5 * x)) < 1e-12
    report(3, "every gate exactly 0.5 at zero weights: ELA/CA -> 0.25x and SE -> 0.5x "
              "within 1e-12")


def test_criterion_4_normalization_contracts():
    rng = np.random.default_rng(6)
    # group statistics: mean < 1e-8 and variance within 1e-6 of 1 once the
    # input variance dominates eps (input variance here >> the 1e-3 floor)
    x = 50.0 * rng.standard_normal((2, 8, 9))
    out, _ = K.group_norm(x, 4, np.ones(8), np.zeros(8))
    grouped = out.reshape(2, 4, -1)
    assert np.max(np.abs(grouped.mean(axis=2))) < 1e-8
    assert np.max(np.abs(grouped.var(axis=2) - 1.0)) < 1e-6

    # per-sample independence, bit exact: GN and eval BN
    gamma, beta = rng.standard_normal(8), rng.standard_normal(8)
    base = rng.standard_normal((3, 8, 5))
    edited = base.copy()
    edited[1:] = rng.standard_normal((2, 8, 5))
    gn_a, _ = K.group_norm(base, 2, gamma, beta)
    gn_b, _ = K.group_norm(edited, 2, gamma, beta)
    assert np.array_equal(gn_a[0], gn_b[0])

    state = K.NormState(8)
    K.batch_norm(base, state, gamma, beta)  # populate running stats
    state.mode = "eval"
    ev_a, _ = K.batch_norm(base, state, gamma, beta)
    ev_b, _ = K.batch_norm(edited, state, gamma, beta)
    assert np.array_equal(ev_a[0], ev_b[0])

    # train-mode BN demonstrably depends on the rest of the batch
    tr_state_a, tr_state_b = K.NormState(8), K.NormState(8)
    tr_a, _ = K.batch_norm(base, tr_state_a, gamma, beta)
    tr_b, _ = K.batch_norm(edited, tr_state_b, gamma, beta)
    assert np.max(np.abs(tr_a[0] - tr_b[0])) > 1e-3
    report(4, "GN stats contract holds; GN/eval-BN per-sample independent "
              "bit-exactly; train-BN batch-dependent")


def test_criterion_5_parameter_accounting():
    for kind in ALL_KINDS:
        for channels in (16, 64, 256, 512):
            assert param_count(kind, channels) == param_count_enumerated(kind, channels), (
                kind, channels)
    assert param_count("ela-b", 512) == 9216
    assert param_count("se", 512) == 16384
    assert 9216 < 16384
    report(5, "closed form == enumeration on full grid; "
              "ELA-B(512)=9216 < SE-r32(512)=16384")


def test_criterion_6_published_table_reconciliation():
    results = {}
    for name in ("resnet18-ela-b.json", "resnet18-ca-r32.json"):
        ref = resources.files("elakit") / "data" / name
        report_obj = audit_network(PlacementSpec.from_dict(json.loads(ref.read_text())))
        rec = report_obj.reconciliation
        assert rec is not None and rec["within_2x"], (name, rec)
        assert report_obj.assumptions, "assumption log must be emitted"
        results[name] = rec["ratio"]
    report(6, f"ResNet-18 deltas within x2 of published tables "
              f"(ratios: ELA-B {results['resnet18-ela-b.json']}, "
              f"CA {results['resnet18-ca-r32.json']}); assumption logs emitted")


def test_criterion_7_toy_training_and_localization():
    t0 = time.perf_counter()
    model, state, data = train_toy("ela-b", 500, seed=7, batch_size=32, lr=0.05)
    acc = evaluate(model, data.images, data.labels)
    assert acc >= 0.95, f"train accuracy {acc}"
    held_out = make_toy_batch(100, seed=12345)
    rate, dist = localization_hit_rate(model, held_out)
    assert rate >= 0.80, f"localization hit rate {rate}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"toy run took {elapsed:.0f}s"
    report(7, f"train acc {acc:.3f} at 500 steps; Grad-CAM within 6px on "
              f"{rate:.0%} of 100 held-out samples; {elapsed:.0f}s")


def test_criterion_8_cli_determinism(tmp_path, capsys):
    bundled = str(resources.files("elakit") / "data" / "resnet18-ela-b.json")
    artifacts = []
    for i in range(2):
        blob = b""
        out = tmp_path / f"audit{i}.csv"
        jout = tmp_path / f"audit{i}.json"
        assert main(["audit", "--config", bundled, "--out", str(out),
                     "--json-out", str(jout)]) == 0
        blob += out.read_bytes() + jout.read_bytes()

        assert main(["gradcheck", "--module", "eca", "--shape", "1,8,3,3",
                     "--seed", "9"]) == 0
        blob += capsys.readouterr().out.encode()

        run = tmp_path / f"run{i}"
        assert main(["train-toy", "--attention", "ela-t", "--steps", "6",
                     "--seed", "11", "--out", str(run)]) == 0
        capsys.readouterr()
        blob += (run / "loss.csv").read_bytes()
        blob += (run / "model.elak").read_bytes()
        blob += (run / "final.json").read_bytes()

        cam = tmp_path / f"cam{i}"
        assert main(["gradcam", "--model", str(run / "model.elak"),
                     "--samples", "2", "--seed", "13", "--out", str(cam)]) == 0
        capsys.readouterr()
        for p in sorted(cam.glob("*.pgm")):
            blob += p.read_bytes()

        # bench: wall times vary by machine, so determinism covers the schema
        bench = tmp_path / f"bench{i}.csv"
        assert main(["bench", "--module", "se", "--shape", "1,8,3,3",
                     "--reps", "10", "--out", str(bench)]) == 0
        capsys.readouterr()
        blob += "|".join(
            ",".join(line.split(",")[:3]) for line in bench.read_text().splitlines()
        ).encode()
        artifacts.append(blob)
    assert artifacts[0] == artifacts[1]
    report(8, "audit/gradcheck/train-toy/gradcam byte-identical across runs "
              "(bench compared on schema; wall times are machine-dependent)")
