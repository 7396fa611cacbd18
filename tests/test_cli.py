"""CLI contracts: exit codes, artifact formats, determinism."""

import json
import os
import re
import stat
import struct
import subprocess
import sys
from importlib import resources

import pytest

from elakit import kernels
from elakit.cli import main
from elakit.modules import MODULE_CHOICES

BUNDLED_ELA = str(resources.files("elakit") / "data" / "resnet18-ela-b.json")


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "elakit.cli", *args], capture_output=True, text=True,
    )


class TestAudit:
    def test_bundled_resnet18_ela_b(self, tmp_path):
        out = tmp_path / "report.csv"
        jout = tmp_path / "report.json"
        code = main(["audit", "--config", BUNDLED_ELA, "--out", str(out),
                     "--json-out", str(jout)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[-2].split(",")[:3] == ["TOTAL", "ela-b", "34560"]
        data = json.loads(jout.read_text())
        assert data["delta_params"] == 34560
        assert data["reconciliation"]["within_2x"]

    def test_empty_placement(self, tmp_path):
        cfg = tmp_path / "empty.json"
        cfg.write_text(json.dumps({"network": "none", "module": "se", "sites": []}))
        out = tmp_path / "r.csv"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[-2] == "TOTAL,se,0,0"

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["audit", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "r.csv")]) == 2

    def test_invalid_placement_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "module": "ela-s",
            "sites": [{"name": "a", "channels": 10, "height": 4, "width": 4}],
        }))
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2

    def test_published_total_below_baseline_gives_strict_json(self, tmp_path):
        cfg = tmp_path / "shrunk.json"
        cfg.write_text(json.dumps({
            "module": "se", "sites": [{"name": "a", "channels": 64, "height": 4, "width": 4}],
            "baseline_params_m": 11.7, "published_total_params_m": 11.0,
        }))
        jout = tmp_path / "r.json"
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
                     "--json-out", str(jout)]) == 0

        def refuse(token):
            raise AssertionError(f"{token} is not a JSON token")

        rec = json.loads(jout.read_text(), parse_constant=refuse)["reconciliation"]
        assert rec["ratio"] is None and rec["within_2x"] is False


PLACEMENT_DEFECTS = {
    "top-level-list": [{"module": "se", "sites": []}],
    "sites-not-a-list": {"module": "se", "sites": 5},
    "site-is-a-string": {"module": "se", "sites": ["layer1"]},
    "baseline-not-a-number": {
        "module": "se", "sites": [], "baseline_params_m": "x", "published_total_params_m": 11.7,
    },
    "unknown-module": {"module": "bogus", "sites": []},
    # json.dumps writes these as the tokens NaN and Infinity, which json.loads reads
    "baseline-nan": {
        "module": "se", "sites": [], "baseline_params_m": float("nan"),
        "published_total_params_m": 11.7,
    },
    "published-infinity": {
        "module": "se", "sites": [], "baseline_params_m": 11.7,
        "published_total_params_m": float("inf"),
    },
    # past the float range, so no delta can be formed from it
    "baseline-huge-int": {
        "module": "se", "sites": [], "baseline_params_m": 10**400,
        "published_total_params_m": 11.7,
    },
    # two finite figures whose difference, the published delta, overflows
    "delta-overflows": {
        "module": "se", "sites": [], "baseline_params_m": -1.7e308,
        "published_total_params_m": 1.7e308,
    },
    # the same as JSON integers, whose exact difference no float can hold
    "delta-overflows-int": {
        "module": "se", "sites": [], "baseline_params_m": -17 * 10**307,
        "published_total_params_m": 17 * 10**307,
    },
    "network-not-a-string": {"network": ["resnet"], "module": "se", "sites": []},
    "fractional-dim": {
        "module": "se", "sites": [{"name": "a", "channels": 64.7, "height": 4, "width": 4}],
    },
    # a well-formed site that the module's config rejects: ela-s needs C % 8 == 0
    "site-rejected-by-module": {
        "module": "ela-s", "sites": [
            {"name": "layer1.0", "channels": 64, "height": 56, "width": 56},
            {"name": "layer2.0", "channels": 10, "height": 28, "width": 28},
        ],
    },
}


@pytest.mark.parametrize("placement", PLACEMENT_DEFECTS.values(), ids=PLACEMENT_DEFECTS)
def test_malformed_placement_exits_2_with_one_line(tmp_path, placement):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(placement))
    result = run_cli(["audit", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
    assert result.returncode == 2
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
    assert str(cfg) in lines[0]
    assert not (tmp_path / "r.csv").exists()


def test_overflowing_delta_names_both_figures(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(PLACEMENT_DEFECTS["delta-overflows"]))
    result = run_cli(["audit", "--config", str(cfg), "--out", str(tmp_path / "r.csv"),
                      "--json-out", str(tmp_path / "r.json")])
    assert result.returncode == 2
    assert "'published_total_params_m'" in result.stderr
    assert "'baseline_params_m'" in result.stderr
    assert not any(p.name.startswith("r.") for p in tmp_path.iterdir())


def test_site_rejected_by_module_names_the_file_and_the_site(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(PLACEMENT_DEFECTS["site-rejected-by-module"]))
    result = run_cli(["audit", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
    assert result.returncode == 2
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1, result.stderr
    assert lines[0].startswith(f"error: {cfg}: site 'layer2.0': ")
    assert "C=10" in lines[0]


def _replace_header(blob, raw):
    """The model file `blob` with its JSON header bytes replaced by `raw`."""
    n = int.from_bytes(blob[8:16], "little")
    return blob[:8] + len(raw).to_bytes(8, "little") + raw + blob[16 + n:]


def _edit_header(edit):
    """A defect that rewrites the JSON header of a model file with `edit`."""
    def defect(blob):
        n = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16:16 + n])
        edit(header)
        return _replace_header(blob, json.dumps(header).encode())
    return defect


def _first_value(value):
    """A defect that sets the first element of the first (float64) tensor to `value`."""
    def defect(blob):
        n = int.from_bytes(blob[8:16], "little")
        at = 16 + n + json.loads(blob[16:16 + n])["tensors"][0]["offset"]
        return blob[:at] + struct.pack("<d", value) + blob[at + 8:]
    return defect


MODEL_DEFECTS = {
    "bad-magic": lambda blob: b"NOTELAKT" + blob[8:],
    "truncated-header": lambda blob: blob[:40],
    "header-not-an-object": lambda blob: _replace_header(blob, b"[]"),
    "dtype-foo": _edit_header(lambda h: h["tensors"][0].update(dtype="foo")),
    "shape-not-a-list": _edit_header(lambda h: h["tensors"][0].update(shape="ab")),
    "tensors-not-a-list": _edit_header(lambda h: h.update(tensors=5)),
    "meta-not-an-object": _edit_header(lambda h: h.update(meta=[1])),
    "entry-without-offset": _edit_header(lambda h: h["tensors"][1].pop("offset")),
    "repeated-name": _edit_header(lambda h: h["tensors"][1].update(name=h["tensors"][0]["name"])),
    "role-not-a-string": _edit_header(lambda h: h["tensors"][0].update(role=[1])),
    "nbytes-past-payload": _edit_header(lambda h: h["tensors"][-1].update(nbytes=40)),
    "stage-channels-abc": _edit_header(lambda h: h["meta"].update(stage_channels="abc")),
    "unknown-attention": _edit_header(lambda h: h["meta"].update(attention="bogus")),
    "missing-tensor": _edit_header(lambda h: h["tensors"].pop()),
    "misshapen-tensor": _edit_header(lambda h: h["tensors"][-1].update(shape=[2], nbytes=16)),
    # a well-formed store holding one tensor more than the model has
    "extra-tensor": _edit_header(lambda h: h["tensors"].append({**h["tensors"][0], "name": "extra"})),
    # the head is sized from H alone, so H != W would feed it H x H images
    "non-square-input": _edit_header(lambda h: h["meta"].update(input_shape=[1, 8, 4])),
    # the stage's 2x2 pool needs an even H; the head's tensor shapes still fit
    "input-not-divisible": _edit_header(lambda h: h["meta"].update(input_shape=[1, 9, 9])),
    # Grad-CAM weighs the last stage, so a model needs one; the head's shape
    # fits either way, and the stage tensors go with the stages
    "no-stages": _edit_header(lambda h: (
        h["meta"].update(stage_channels=[]),
        h.update(tensors=[t for t in h["tensors"] if t["name"].startswith("head.")]))),
    # well formed, but the heatmaps it gives are all zeros
    "non-finite-tensor": _first_value(float("nan")),
    # finite, but the activations overflow
    "overflowing-tensor": _first_value(1e300),
    # the first conv weight alone would take 6.4 PiB, beyond any address space
    "stage-channels-beyond-memory": _edit_header(
        lambda h: h["meta"].update(stage_channels=[10**14])),
}


@pytest.mark.parametrize("defect", MODEL_DEFECTS.values(), ids=MODEL_DEFECTS)
def test_malformed_model_exits_2_with_one_line_naming_it(tmp_path, defect):
    from elakit.toy import MiniCnn, MiniCnnConfig

    good = tmp_path / "good.elak"
    cfg = MiniCnnConfig(stage_channels=(4,), attention="ela-b", input_shape=(1, 8, 8))
    MiniCnn(cfg).params.save(good)
    bad = tmp_path / "bad.elak"
    bad.write_bytes(defect(good.read_bytes()))
    result = run_cli(["gradcam", "--model", str(bad), "--out", str(tmp_path / "cam")])
    assert result.returncode == 2
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
    assert str(bad) in lines[0]
    assert not (tmp_path / "cam").exists()


def _made_dir(path):
    path.mkdir()
    return path


def _small_model(d):
    from elakit.toy import MiniCnn, MiniCnnConfig

    path = d / "small.elak"
    MiniCnn(MiniCnnConfig(stage_channels=(4,), input_shape=(1, 8, 8))).params.save(path)
    return path


# each case maps tmp_path, where `dir` exists, to (argv, the path the error names)
OS_ERROR_CASES = {
    "gradcam-model-is-a-directory": lambda d: (
        ["gradcam", "--model", d / "dir", "--out", d / "cam"], d / "dir"),
    "audit-config-is-a-directory": lambda d: (
        ["audit", "--config", d / "dir", "--out", d / "r.csv"], d / "dir"),
    "audit-out-in-missing-directory": lambda d: (
        ["audit", "--config", BUNDLED_ELA, "--out", d / "missing" / "r.csv"],
        d / "missing" / "r.csv"),
    "audit-out-is-a-directory": lambda d: (
        ["audit", "--config", BUNDLED_ELA, "--out", d / "dir"], d / "dir"),
    # the CSV could be written, but neither file is unless both can be
    "audit-json-out-in-missing-directory": lambda d: (
        ["audit", "--config", BUNDLED_ELA, "--out", d / "r.csv",
         "--json-out", d / "missing" / "r.json"],
        d / "missing" / "r.json"),
    "audit-json-out-is-a-directory": lambda d: (
        ["audit", "--config", BUNDLED_ELA, "--out", d / "r.csv", "--json-out", d / "dir"],
        d / "dir"),
    # the outputs before the blocked one are not written either
    "train-toy-model-is-a-directory": lambda d: (
        ["train-toy", "--attention", "none", "--steps", "1", "--out", d / "dir"],
        _made_dir(d / "dir" / "model.elak")),
    "gradcam-third-heatmap-is-a-directory": lambda d: (
        ["gradcam", "--model", _small_model(d), "--samples", "4", "--out", d / "dir"],
        _made_dir(d / "dir" / "heatmap_002.pgm")),
}


@pytest.mark.parametrize("case", OS_ERROR_CASES.values(), ids=OS_ERROR_CASES)
def test_os_error_exits_2_with_one_line_naming_the_path(tmp_path, case):
    (tmp_path / "dir").mkdir()
    argv, named = case(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    result = run_cli(argv)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
    assert str(named) in lines[0]
    assert sorted(tmp_path.rglob("*")) == before


def _placement_with_channels(d, channels):
    path = d / "huge.json"
    site = {"name": "a", "channels": channels, "height": 1, "width": 1}
    path.write_text(json.dumps({"module": "ela-b", "sites": [site]}))
    return path


# 10**14 channels: the first array alone is 4.9 PiB, beyond any address space,
# so the allocation fails at once; 2**63 is past any size numpy can represent.
# Each case gives (argv, start of the error line).
BEYOND_MEMORY = {
    "audit-site-channels": lambda d: (
        ["audit", "--config", _placement_with_channels(d, 10**14), "--out", d / "r.csv"],
        f"error: {d / 'huge.json'}: site 'a': "),
    "audit-site-channels-unrepresentable": lambda d: (
        ["audit", "--config", _placement_with_channels(d, 2**63), "--out", d / "r.csv"],
        f"error: {d / 'huge.json'}: site 'a': "),
    "gradcheck-shape": lambda d: (
        ["gradcheck", "--module", "ela-b", "--shape", f"1,{10**14},1,1"], "error:"),
}


@pytest.mark.parametrize("case", BEYOND_MEMORY.values(), ids=BEYOND_MEMORY)
def test_size_beyond_memory_exits_2_with_one_line(tmp_path, case):
    argv, start = case(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    result = run_cli(argv)
    assert result.returncode == 2
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(start), result.stderr
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("alias", ["same-string", "through-a-symlink"])
def test_audit_out_and_json_out_naming_one_file_exit_2(tmp_path, alias):
    out = tmp_path / "r.csv"
    json_out = out
    if alias == "through-a-symlink":
        (tmp_path / "link").symlink_to(tmp_path)
        json_out = tmp_path / "link" / "r.csv"
    result = run_cli(["audit", "--config", BUNDLED_ELA, "--out", out, "--json-out", json_out])
    assert result.returncode == 2
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
    assert "--out" in lines[0] and "--json-out" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_outputs_take_their_mode_from_the_umask(tmp_path, umask, mode):
    # the mode open(path, "wb") would give: 0o666 less the umask
    run, cam = tmp_path / "run", tmp_path / "cam"
    old = os.umask(umask)
    try:
        assert main(["audit", "--config", BUNDLED_ELA, "--out", str(tmp_path / "r.csv"),
                     "--json-out", str(tmp_path / "r.json")]) == 0
        assert main(["bench", "--module", "se", "--shape", "1,8,3,3", "--reps", "10",
                     "--out", str(tmp_path / "b.csv")]) == 0
        assert main(["train-toy", "--attention", "none", "--steps", "1",
                     "--out", str(run)]) == 0
        assert main(["gradcam", "--model", str(run / "model.elak"), "--samples", "1",
                     "--out", str(cam)]) == 0
    finally:
        os.umask(old)
    files = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert len(files) == 2 + 1 + 3 + 1
    assert {stat.S_IMODE(p.stat().st_mode) for p in files} == {mode}


# options that no caller passed; argparse rejects each as a usage error
@pytest.mark.parametrize("option, argv", [
    ("--tol", lambda d: ["gradcheck", "--module", "se", "--tol", "1"]),
    ("--seed", lambda d: ["bench", "--module", "se", "--seed", "1", "--out", d / "b.csv"]),
    ("--batch-size", lambda d: ["train-toy", "--batch-size", "8", "--out", d / "run"]),
], ids=["gradcheck-tol", "bench-seed", "train-toy-batch-size"])
def test_removed_options_are_usage_errors(tmp_path, option, argv):
    result = run_cli(argv(tmp_path))
    assert result.returncode == 2
    assert f"error: unrecognized arguments: {option} " in result.stderr
    assert not any(tmp_path.iterdir())


class TestGradcheck:
    @pytest.mark.parametrize("kind", MODULE_CHOICES)
    def test_passes_for_each_kind(self, capsys, kind):
        code = main(["gradcheck", "--module", kind, "--shape", "2,16,5,7",
                     "--seed", "1"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_corrupted_backward_exits_1(self, monkeypatch, capsys):
        # a genuinely wrong gradient: sigmoid's backward without its (1 - s) factor
        monkeypatch.setattr(kernels, "sigmoid_backward", lambda dy, s: dy * s)
        code = main(["gradcheck", "--module", "se", "--shape", "1,8,3,3", "--seed", "1"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_precondition_error_before_compute(self, capsys):
        # ela-s needs C divisible by 8
        code = main(["gradcheck", "--module", "ela-s", "--shape", "1,10,3,3"])
        assert code == 2
        assert "divisible" in capsys.readouterr().err

    def test_unknown_module_usage_error(self):
        result = run_cli(["gradcheck", "--module", "bogus"])
        assert result.returncode == 2

    def test_module_name_ignores_case(self, capsys):
        # the same names build_attention accepts through modules.lookup
        code = main(["gradcheck", "--module", "ELA-B", "--shape", "1,8,3,4"])
        assert code == 0
        assert "gradcheck ela-b" in capsys.readouterr().out


class TestBench:
    def test_csv_schema(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--module", "se", "--shape", "1,16,4,4",
                     "--reps", "10", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "module,pass,reps,median_s,p10_s,p90_s"
        assert len(lines) == 3
        assert lines[1].startswith("se,forward,10,")
        assert lines[2].startswith("se,backward,10,")

    def test_reps_floor(self, tmp_path):
        assert main(["bench", "--module", "se", "--reps", "5",
                     "--out", str(tmp_path / "b.csv")]) == 2

    def test_bad_config_exits_2_with_one_line(self, tmp_path):
        # ela-s needs C divisible by 8
        result = run_cli(["bench", "--module", "ela-s", "--shape", "1,12,5,5",
                          "--out", str(tmp_path / "b.csv")])
        assert result.returncode == 2
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
        assert not (tmp_path / "b.csv").exists()

    def test_module_name_ignores_case(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--module", "ELA-B", "--shape", "1,16,4,4",
                     "--reps", "10", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].startswith("ela-b,forward,10,")

    def test_two_modules_side_by_side(self, tmp_path):
        for module in ("ela-b", "se"):
            out = tmp_path / f"{module}.csv"
            assert main(["bench", "--module", module, "--shape", "1,16,6,6",
                         "--reps", "10", "--out", str(out)]) == 0
            assert len(out.read_text().strip().splitlines()) == 3


class TestTrainAndCam:
    def test_zero_steps_header_only(self, tmp_path):
        out = tmp_path / "run"
        assert main(["train-toy", "--attention", "none", "--steps", "0",
                     "--seed", "1", "--out", str(out)]) == 0
        assert (out / "loss.csv").read_bytes() == b"step,loss,accuracy\r\n"
        # the untrained model's accuracy, like any other run's
        final = json.loads((out / "final.json").read_text())
        assert final["steps"] == 0 and 0.0 <= final["train_accuracy"] <= 1.0

    def test_short_train_then_gradcam(self, tmp_path):
        out = tmp_path / "run"
        assert main(["train-toy", "--attention", "eca", "--steps", "5",
                     "--seed", "2", "--out", str(out)]) == 0
        lines = (out / "loss.csv").read_text().strip().splitlines()
        assert len(lines) == 6
        assert json.loads((out / "final.json").read_text())["steps"] == 5

        cam = tmp_path / "cam"
        assert main(["gradcam", "--model", str(out / "model.elak"),
                     "--samples", "3", "--seed", "3", "--out", str(cam)]) == 0
        pgms = sorted(cam.glob("*.pgm"))
        assert len(pgms) == 3
        for p in pgms:
            blob = p.read_bytes()
            assert blob.startswith(b"P5\n32 32\n255\n")
            assert len(blob.split(b"255\n", 1)[1]) == 32 * 32

    @pytest.mark.parametrize("attention", ["NONE", "Ela-B"])
    def test_attention_name_ignores_case(self, tmp_path, attention):
        from elakit.toy import MiniCnn

        out = tmp_path / "run"
        assert main(["train-toy", "--attention", attention, "--steps", "1",
                     "--out", str(out)]) == 0
        meta = MiniCnn.load(out / "model.elak").params.meta
        assert meta["attention"] == (None if attention == "NONE" else "ela-b")

    @pytest.mark.parametrize("attention, steps, lr", [
        ("none", "-1", "0.05"), ("bogus", "1", "0.05"),
        ("none", "1", "nan"), ("none", "1", "inf"), ("none", "1", "-inf"),
    ], ids=["negative-steps", "bogus-attention", "lr-nan", "lr-inf", "lr-minus-inf"])
    def test_negative_steps_exit_2_with_one_line(self, tmp_path, attention, steps, lr):
        out = tmp_path / "run"
        result = run_cli(["train-toy", "--attention", attention, "--steps", steps,
                          f"--lr={lr}", "--out", str(out)])
        assert result.returncode == 2
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_gradcam_samples_below_one_exit_2_with_one_line(self, tmp_path, samples):
        run = tmp_path / "run"
        assert main(["train-toy", "--attention", "none", "--steps", "0",
                     "--seed", "1", "--out", str(run)]) == 0
        cam = tmp_path / "cam"
        result = run_cli(["gradcam", "--model", str(run / "model.elak"),
                          "--samples", samples, "--out", str(cam)])
        assert result.returncode == 2
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
        assert not cam.exists()

    def test_gradcam_uses_the_models_input_size(self, tmp_path):
        from elakit.toy import MiniCnn, MiniCnnConfig

        model = tmp_path / "small.elak"
        cfg = MiniCnnConfig(stage_channels=(4,), attention="ela-b", input_shape=(1, 8, 8))
        MiniCnn(cfg, seed=1).params.save(model)
        cam = tmp_path / "cam"
        assert main(["gradcam", "--model", str(model), "--samples", "2",
                     "--out", str(cam)]) == 0
        pgms = sorted(cam.glob("*.pgm"))
        assert len(pgms) == 2
        for p in pgms:
            blob = p.read_bytes()
            assert blob.startswith(b"P5\n8 8\n255\n")
            assert len(blob.split(b"255\n", 1)[1]) == 8 * 8

    def test_gradcam_refuses_an_out_that_holds_heatmaps(self, tmp_path, capsys):
        # a second run with fewer samples would leave the first run's later heatmaps
        run, cam = tmp_path / "run", tmp_path / "cam"
        assert main(["train-toy", "--attention", "none", "--steps", "0",
                     "--seed", "1", "--out", str(run)]) == 0
        assert main(["gradcam", "--model", str(run / "model.elak"), "--samples", "3",
                     "--out", str(cam)]) == 0
        before = {p.name: p.read_bytes() for p in cam.iterdir()}
        capsys.readouterr()
        assert main(["gradcam", "--model", str(run / "model.elak"), "--samples", "1",
                     "--seed", "9", "--out", str(cam)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and str(cam) in lines[0]
        assert {p.name: p.read_bytes() for p in cam.iterdir()} == before

    def test_gradcam_missing_model_exits_2(self, tmp_path):
        assert main(["gradcam", "--model", str(tmp_path / "nope.elak"),
                     "--out", str(tmp_path / "cam")]) == 2

    # one run overflows during training; the other's one update overflows
    # only in the final evaluation
    DIVERGING = {
        "lr-1e9": ["--attention", "none", "--steps", "40", "--seed", "15", "--lr", "1e9"],
        "last-step": ["--steps", "1", "--lr", "1e308"],
    }

    @pytest.mark.parametrize("args", DIVERGING.values(), ids=list(DIVERGING))
    def test_divergence_exit_3(self, tmp_path, args):
        code = main(["train-toy", *args, "--out", str(tmp_path / "run")])
        assert code == 3
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("args", DIVERGING.values(), ids=list(DIVERGING))
    def test_divergence_prints_one_error_line(self, tmp_path, capsys, args):
        main(["train-toy", *args, "--out", str(tmp_path / "run")])
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: training diverged:"), lines
        assert re.search(r" (at|after) step \d+$", lines[0]), lines
