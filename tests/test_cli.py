"""CLI contracts: exit codes, artifact formats, determinism."""

import json
import os
import subprocess
import sys
from importlib import resources

import pytest

from elakit.cli import main

BUNDLED_ELA = str(resources.files("elakit") / "data" / "resnet18-ela-b.json")


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "elakit.cli", *args],
        capture_output=True, text=True, env=env,
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


PLACEMENT_DEFECTS = {
    "top-level-list": [{"module": "se", "sites": []}],
    "sites-not-a-list": {"module": "se", "sites": 5},
    "site-is-a-string": {"module": "se", "sites": ["layer1"]},
    "baseline-not-a-number": {
        "module": "se", "sites": [], "baseline_params_m": "x", "published_total_params_m": 11.7,
    },
    "unknown-module": {"module": "bogus", "sites": []},
    "fractional-dim": {
        "module": "se", "sites": [{"name": "a", "channels": 64.7, "height": 4, "width": 4}],
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
    assert not (tmp_path / "r.csv").exists()


def _edit_header(edit):
    """A defect that rewrites the JSON header of a model file with `edit`."""
    def defect(blob):
        n = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16:16 + n])
        edit(header)
        raw = json.dumps(header).encode()
        return blob[:8] + len(raw).to_bytes(8, "little") + raw + blob[16 + n:]
    return defect


MODEL_DEFECTS = {
    "bad-magic": lambda blob: b"NOTELAKT" + blob[8:],
    "truncated-header": lambda blob: blob[:40],
    "dtype-foo": _edit_header(lambda h: h["tensors"][0].update(dtype="foo")),
    "tensors-not-a-list": _edit_header(lambda h: h.update(tensors=5)),
    "meta-not-an-object": _edit_header(lambda h: h.update(meta=[1])),
    "entry-without-offset": _edit_header(lambda h: h["tensors"][1].pop("offset")),
    "repeated-name": _edit_header(lambda h: h["tensors"][1].update(name=h["tensors"][0]["name"])),
    "nbytes-past-payload": _edit_header(lambda h: h["tensors"][-1].update(nbytes=40)),
    "stage-channels-abc": _edit_header(lambda h: h["meta"].update(stage_channels="abc")),
    "unknown-attention": _edit_header(lambda h: h["meta"].update(attention="bogus")),
    "missing-tensor": _edit_header(lambda h: h["tensors"].pop()),
    "misshapen-tensor": _edit_header(lambda h: h["tensors"][-1].update(shape=[2], nbytes=16)),
    # the head is sized from H alone, so H != W would feed it H x H images
    "non-square-input": _edit_header(lambda h: h["meta"].update(input_shape=[1, 8, 4])),
}


@pytest.mark.parametrize("defect", MODEL_DEFECTS.values(), ids=MODEL_DEFECTS)
def test_malformed_model_exits_2_with_one_line_naming_it(tmp_path, defect):
    from elakit.toy import MiniCnn, MiniCnnConfig

    good = tmp_path / "good.elak"
    cfg = MiniCnnConfig(stage_channels=(4,), attention="ela-b", input_shape=(1, 8, 8))
    MiniCnn(cfg).save(good)
    bad = tmp_path / "bad.elak"
    bad.write_bytes(defect(good.read_bytes()))
    result = run_cli(["gradcam", "--model", str(bad), "--out", str(tmp_path / "cam")])
    assert result.returncode == 2
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
    assert str(bad) in lines[0]
    assert not (tmp_path / "cam").exists()


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
}


@pytest.mark.parametrize("case", OS_ERROR_CASES.values(), ids=OS_ERROR_CASES)
def test_os_error_exits_2_with_one_line_naming_the_path(tmp_path, case):
    (tmp_path / "dir").mkdir()
    argv, named = case(tmp_path)
    result = run_cli(argv)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
    assert str(named) in lines[0]
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]


class TestGradcheck:
    def test_passes_for_ela_b(self, capsys):
        code = main(["gradcheck", "--module", "ela-b", "--shape", "2,16,5,7",
                     "--seed", "1"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_corrupted_backward_exits_1(self):
        result = run_cli(
            ["gradcheck", "--module", "se", "--shape", "1,8,3,3", "--seed", "1"],
            env_extra={"ELAKIT_CORRUPT_BACKWARD": "1"},
        )
        assert result.returncode == 1
        assert "FAIL" in result.stdout

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
                         "--reps", "10", "--precision", "f32", "--out", str(out)]) == 0
            assert len(out.read_text().strip().splitlines()) == 3


class TestTrainAndCam:
    def test_zero_steps_header_only(self, tmp_path):
        out = tmp_path / "run"
        assert main(["train-toy", "--attention", "none", "--steps", "0",
                     "--seed", "1", "--out", str(out)]) == 0
        assert (out / "loss.csv").read_bytes() == b"step,loss,accuracy\r\n"

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

    @pytest.mark.parametrize("attention, steps", [("none", "-1"), ("bogus", "1")],
                             ids=["negative-steps", "bogus-attention"])
    def test_negative_steps_exit_2_with_one_line(self, tmp_path, attention, steps):
        out = tmp_path / "run"
        result = run_cli(["train-toy", "--attention", attention, "--steps", steps,
                          "--out", str(out)])
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
        MiniCnn(cfg, seed=1).save(model)
        cam = tmp_path / "cam"
        assert main(["gradcam", "--model", str(model), "--samples", "2",
                     "--out", str(cam)]) == 0
        pgms = sorted(cam.glob("*.pgm"))
        assert len(pgms) == 2
        for p in pgms:
            blob = p.read_bytes()
            assert blob.startswith(b"P5\n8 8\n255\n")
            assert len(blob.split(b"255\n", 1)[1]) == 8 * 8

    def test_gradcam_missing_model_exits_2(self, tmp_path):
        assert main(["gradcam", "--model", str(tmp_path / "nope.elak"),
                     "--out", str(tmp_path / "cam")]) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_3(self, tmp_path):
        import numpy as np

        with np.errstate(all="ignore"):
            code = main(["train-toy", "--attention", "none", "--steps", "40",
                         "--seed", "15", "--lr", "1e9", "--out", str(tmp_path / "run")])
        assert code == 3
        assert not (tmp_path / "run").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_prints_one_error_line(self, tmp_path, capsys):
        import numpy as np

        with np.errstate(all="ignore"):
            main(["train-toy", "--attention", "none", "--steps", "40",
                  "--seed", "15", "--lr", "1e9", "--out", str(tmp_path / "run")])
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: training diverged:"), lines


class TestDeterminism:
    def test_audit_bit_reproducible(self, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"r{i}.csv"
            jout = tmp_path / f"r{i}.json"
            assert main(["audit", "--config", BUNDLED_ELA, "--out", str(out),
                         "--json-out", str(jout)]) == 0
            outs.append(out.read_bytes() + jout.read_bytes())
        assert outs[0] == outs[1]

    def test_train_and_cam_bit_reproducible(self, tmp_path):
        blobs = []
        for i in range(2):
            out = tmp_path / f"run{i}"
            assert main(["train-toy", "--attention", "ela-t", "--steps", "8",
                         "--seed", "5", "--out", str(out)]) == 0
            cam = tmp_path / f"cam{i}"
            assert main(["gradcam", "--model", str(out / "model.elak"),
                         "--samples", "2", "--seed", "6", "--out", str(cam)]) == 0
            blob = (out / "loss.csv").read_bytes() + (out / "model.elak").read_bytes()
            for p in sorted(cam.glob("*.pgm")):
                blob += p.read_bytes()
            blobs.append(blob)
        assert blobs[0] == blobs[1]
