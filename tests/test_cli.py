"""CLI contracts: exit codes, artifact formats, determinism."""

import functools
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
from elakit.toy import MiniCnn, MiniCnnConfig

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


def _made_dir(path):
    path.mkdir()
    return path


def _small_model(d):
    path = d / "small.elak"
    MiniCnn(MiniCnnConfig(stage_channels=(4,), input_shape=(1, 8, 8))).params.save(path)
    return path


# each case maps tmp_path, where `dir` exists, to (argv, the path the error names)
OS_ERROR_CASES = {
    "gradcam-missing-model": lambda d: (
        ["gradcam", "--model", d / "nope.elak", "--out", d / "cam"], d / "nope.elak"),
    "gradcam-model-is-a-directory": lambda d: (
        ["gradcam", "--model", d / "dir", "--out", d / "cam"], d / "dir"),
    "audit-missing-config": lambda d: (
        ["audit", "--config", d / "nope.json", "--out", d / "r.csv"], d / "nope.json"),
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


def _placement_with_channels(d, channels):
    path = d / "huge.json"
    site = {"name": "a", "channels": channels, "height": 1, "width": 1}
    path.write_text(json.dumps({"module": "ela-b", "sites": [site]}))
    return path


# 10**14 channels: the first array alone is 4.9 PiB, beyond any address space,
# so the allocation fails at once; 2**63 is past any size numpy can represent.
# Each case is a row of REFUSALS.
BEYOND_MEMORY = {
    "audit-site-channels": lambda d: (
        ["audit", "--config", _placement_with_channels(d, 10**14), "--out", d / "r.csv"],
        2, f"error: {d / 'huge.json'}: site 'a': "),
    "audit-site-channels-unrepresentable": lambda d: (
        ["audit", "--config", _placement_with_channels(d, 2**63), "--out", d / "r.csv"],
        2, f"error: {d / 'huge.json'}: site 'a': "),
    "gradcheck-shape": lambda d: (
        ["gradcheck", "--module", "ela-b", "--shape", f"1,{10**14},1,1"], 2, "error: "),
}


def _audit(d, placement, *options):
    """audit's argv for `placement`, written to bad.json as JSON unless it is text."""
    cfg = d / "bad.json"
    cfg.write_text(placement if isinstance(placement, str) else json.dumps(placement))
    return ["audit", "--config", cfg, "--out", d / "r.csv", *options]


def _model_row(defect, d):
    bad = d / "bad.elak"
    cfg = MiniCnnConfig(stage_channels=(4,), attention="ela-b", input_shape=(1, 8, 8))
    bad.write_bytes(defect(MiniCnn(cfg).params.to_bytes()))
    return ["gradcam", "--model", bad, "--out", d / "cam"], 2, f"error: {bad}: "


def _os_error_row(case, d):
    argv, named = case(_made_dir(d / "dir").parent)
    return argv, 2, f"error: {named}: "


def _rows(prefix, cases, row):
    return {f"{prefix}-{name}": functools.partial(row, case) for name, case in cases.items()}


def _linked(d):
    (d / "link").symlink_to(d)
    return d / "link"


def _gradcam(d, *options):
    return ["gradcam", "--model", _small_model(d), *options, "--out", d / "cam"]


def _heatmaps(cam):  # an earlier run's three heatmaps
    cam.mkdir()
    for i in range(3):
        (cam / f"heatmap_{i:03d}.pgm").write_bytes(bytes([i]))
    return cam


BAD_TRAIN_OPTIONS = {  # each with the start of its error line
    "negative-steps": (["--attention", "none", "--steps", "-1"], "error: --steps must be >= 0"),
    "bogus-attention": (["--attention", "bogus"], "error: unknown attention module 'bogus'"),
    "lr-nan": (["--attention", "none", "--lr=nan"], "error: --lr must be finite, got nan"),
    "lr-inf": (["--attention", "none", "--lr=inf"], "error: --lr must be finite, got inf"),
    "lr-minus-inf": (["--attention", "none", "--lr=-inf"], "error: --lr must be finite, got -inf"),
}

# Each row maps tmp_path to (argv, exit code, the start of the one error line,
# then any patterns that re.search must find in the line).
REFUSALS = {
    **_rows("placement", PLACEMENT_DEFECTS, lambda placement, d: (
        _audit(d, placement), 2, f"error: {d / 'bad.json'}: ")),
    "placement-delta-overflows-names-both-figures": lambda d: (
        _audit(d, PLACEMENT_DEFECTS["delta-overflows"], "--json-out", d / "r.json"), 2,
        f"error: {d / 'bad.json'}: ", "'published_total_params_m'", "'baseline_params_m'"),
    "placement-site-rejected-by-module-names-the-site": lambda d: (
        _audit(d, PLACEMENT_DEFECTS["site-rejected-by-module"]), 2,
        f"error: {d / 'bad.json'}: site 'layer2.0': ", "C=10"),
    "audit-config-not-json": lambda d: (
        _audit(d, "{not json"), 2, f"error: {d / 'bad.json'}: line 1: "),
    # --json-out naming --out's file, by the same string or through a symlink
    "audit-json-out-is-out": lambda d: (
        ["audit", "--config", BUNDLED_ELA, "--out", d / "r.csv", "--json-out", d / "r.csv"], 2,
        "error: --out and --json-out name the same file: "),
    "audit-json-out-is-out-through-a-symlink": lambda d: (
        ["audit", "--config", BUNDLED_ELA, "--out", d / "r.csv",
         "--json-out", _linked(d) / "r.csv"], 2,
        "error: --out and --json-out name the same file: "),
    **_rows("model", MODEL_DEFECTS, _model_row),
    **_rows("os-error", OS_ERROR_CASES, _os_error_row),
    **{f"beyond-memory-{name}": case for name, case in BEYOND_MEMORY.items()},
    # ela-s needs C divisible by 8; both commands refuse before they compute
    "gradcheck-channels-not-divisible": lambda d: (
        ["gradcheck", "--module", "ela-s", "--shape", "1,10,3,3"], 2, "error: ", "divisible"),
    "bench-channels-not-divisible": lambda d: (
        ["bench", "--module", "ela-s", "--shape", "1,12,5,5", "--out", d / "b.csv"], 2,
        "error: ", "divisible"),
    "bench-reps-below-10": lambda d: (
        ["bench", "--module", "se", "--reps", "5", "--out", d / "b.csv"], 2,
        "error: --reps must be >= 10"),
    **_rows("train-toy", BAD_TRAIN_OPTIONS, lambda case, d: (
        ["train-toy", *case[0], "--out", d / "run"], 2, case[1])),
    # one run overflows during training; the other's one update overflows
    # only in the final evaluation
    "train-toy-diverges": lambda d: (
        ["train-toy", "--attention", "none", "--steps", "40", "--seed", "15", "--lr", "1e9",
         "--out", d / "run"], 3, "error: training diverged: ", r" at step \d+$"),
    "train-toy-diverges-after-the-last-step": lambda d: (
        ["train-toy", "--steps", "1", "--lr", "1e308", "--out", d / "run"], 3,
        "error: training diverged: ", " after step 0$"),
    **{f"gradcam-samples-{n}": lambda d, n=n: (
        _gradcam(d, "--samples", n), 2, "error: --samples must be >= 1") for n in ("0", "-2")},
    # a second run with fewer samples would leave the first run's later heatmaps
    "gradcam-out-holds-heatmaps": lambda d: (
        _gradcam(d, "--samples", "1", "--seed", "9"), 2,
        f"error: {_heatmaps(d / 'cam')} already holds heatmaps"),
}


def _tree(root):  # every path under root, with the bytes of each file
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", REFUSALS.values(), ids=REFUSALS)
def test_refusal_prints_one_error_line_and_writes_nothing(tmp_path, capfd, case):
    argv, code, start, *patterns = case(tmp_path)
    before = _tree(tmp_path)
    assert main([str(a) for a in argv]) == code
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == 1 and start.startswith("error: ") and lines[0].startswith(start), lines
    assert all(re.search(pattern, lines[0]) for pattern in patterns), (patterns, lines)
    assert _tree(tmp_path) == before


# argparse's own refusals, each with its message: argparse prints its usage
# text, then one `error:` line; the test runs in tmp_path, so outputs land there
USAGE_ERRORS = {
    # options that no caller passed
    "gradcheck-tol": (["gradcheck", "--module", "se", "--tol", "1"],
                      "unrecognized arguments: --tol 1"),
    "bench-seed": (["bench", "--module", "se", "--seed", "1", "--out", "b.csv"],
                   "unrecognized arguments: --seed 1"),
    "train-toy-batch-size": (["train-toy", "--batch-size", "8", "--out", "run"],
                             "unrecognized arguments: --batch-size 8"),
    "unknown-module": (["gradcheck", "--module", "bogus"],
                       "argument --module: invalid choice: 'bogus'"),
    **{f"shape-{name}": (["gradcheck", "--module", "se", "--shape", shape],
                         "argument --shape: shape must be N,C,H,W with integers >= 1")
       for name, shape in [("three-axes", "1,2,3"), ("zero-axis", "0,16,5,7"),
                           ("signed-axis", "+1,16,5,7"), ("non-integer-axis", "1,16,5,x")]},
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_exits_2_after_the_usage_text(tmp_path, monkeypatch, capfd, argv, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    lines = capfd.readouterr().err.splitlines()
    assert lines[0].startswith("usage: elakit ") and f": error: {message}" in lines[-1], lines
    assert [line for line in lines if "error:" in line] == lines[-1:], lines
    assert not any(tmp_path.iterdir())


def test_the_module_runs_as_a_program(tmp_path):
    done = run_cli(["audit", "--config", BUNDLED_ELA, "--out", tmp_path / "r.csv"])
    assert done.returncode == 0 and done.stderr == "", done.stderr
    refused = run_cli(["gradcheck", "--module", "ela-s", "--shape", "1,10,3,3"])
    assert refused.returncode == 2
    lines = refused.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "divisible" in lines[0], lines


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
        out = tmp_path / "run"
        assert main(["train-toy", "--attention", attention, "--steps", "1",
                     "--out", str(out)]) == 0
        meta = MiniCnn.load(out / "model.elak").params.meta
        assert meta["attention"] == (None if attention == "NONE" else "ela-b")

    def test_gradcam_uses_the_models_input_size(self, tmp_path):
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
