"""Print one sha256 per artifact family of elakit, to compare two builds bitwise.

Run from the repository root against the `src/` tree to fingerprint:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tools/fingerprint.py

Two checkouts that print the same listing produce bitwise the same:

    blocks     y, dx and every parameter gradient of each registered kind at
               the four ResNet-18 stage shapes (N=8) and at 2,16,5,7
    gradcheck  check_module_gradients' error dict of each kind at 2,16,5,7
    train-toy  loss.csv and model.elak of 20-step train-toy runs (ELA-B, CA)
    gradcam    the float heatmaps and the PGM files of those models
    audit      the CSV and JSON reports of both bundled placement files

Only the public API is used (build_attention, MODULE_CHOICES,
check_module_gradients, toy.gradcam, cli.main), so the script runs against
older trees too. BLAS threads are read from the environment; the listing is
compared across thread counts by running it twice.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

from elakit import cli
from elakit.gradcheck import check_module_gradients
from elakit.modules import MODULE_CHOICES, build_attention
from elakit.toy import MiniCnn, gradcam, make_toy_batch

STAGE_SHAPES = ((8, 64, 56, 56), (8, 128, 28, 28), (8, 256, 14, 14), (8, 512, 7, 7))
SMALL_SHAPE = (2, 16, 5, 7)
TOY_ATTENTIONS = ("ela-b", "ca")
TOY_STEPS = 20
CAM_SAMPLES = 4


def _update(digest, array):
    array = np.ascontiguousarray(array)
    digest.update(f"{array.dtype.str}{array.shape}".encode())
    digest.update(array.tobytes())


def blocks():
    digest = hashlib.sha256()
    for kind in MODULE_CHOICES:
        for shape in (*STAGE_SHAPES, SMALL_SHAPE):
            block = build_attention(kind, shape[1], seed=0)
            rng = np.random.default_rng(1)
            x = rng.standard_normal(shape)
            y, _ = block.forward(x, keep_intermediates=True)
            dx = block.backward(rng.standard_normal(y.shape))
            digest.update(f"{kind}{shape}".encode())
            for array in (y, dx, *(block.params.grad(n) for n in block.params.names())):
                _update(digest, array)
    return digest.hexdigest()


def gradcheck():
    digest = hashlib.sha256()
    for seed, kind in enumerate(MODULE_CHOICES):
        block = build_attention(kind, SMALL_SHAPE[1], seed=seed)
        x = np.random.default_rng(seed + 1).standard_normal(SMALL_SHAPE)
        errors = check_module_gradients(block, x, direction_seed=seed + 2)
        digest.update(f"{kind}{json.dumps(errors)}".encode())
    return digest.hexdigest()


def _run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"elakit {' '.join(argv)} exited {code}")


def toy_runs(tmp):
    """The train-toy and gradcam families, from one run per attention kind."""
    train, cam = hashlib.sha256(), hashlib.sha256()
    for kind in TOY_ATTENTIONS:
        run, out = tmp / f"run-{kind}", tmp / f"cam-{kind}"
        _run("train-toy", "--attention", kind, "--steps", str(TOY_STEPS), "--out", str(run))
        for name in ("loss.csv", "model.elak"):
            train.update((run / name).read_bytes())
        _run("gradcam", "--model", str(run / "model.elak"), "--samples", str(CAM_SAMPLES),
             "--out", str(out))
        for path in sorted(out.iterdir()):
            cam.update(path.read_bytes())
        model = MiniCnn.load(run / "model.elak")
        batch = make_toy_batch(CAM_SAMPLES, seed=3, size=model.cfg.input_shape[1])
        _update(cam, gradcam(model, batch.images, batch.labels))
    return train.hexdigest(), cam.hexdigest()


def audit(tmp):
    digest = hashlib.sha256()
    for name in ("resnet18-ela-b.json", "resnet18-ca-r32.json"):
        config = resources.files("elakit") / "data" / name
        csv_path, json_path = tmp / f"{name}.csv", tmp / f"{name}.report.json"
        _run("audit", "--config", str(config), "--out", str(csv_path),
             "--json-out", str(json_path))
        digest.update(csv_path.read_bytes())
        digest.update(json_path.read_bytes())
    return digest.hexdigest()


def main():
    print(f"blocks     {blocks()}")
    print(f"gradcheck  {gradcheck()}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        train, cam = toy_runs(tmp)
        print(f"train-toy  {train}")
        print(f"gradcam    {cam}")
        print(f"audit      {audit(tmp)}")


if __name__ == "__main__":
    main()
