"""Seeded mutations of the files the CLI reads: a model file for `gradcam` and a
placement for `audit`. Each run exits 0 or 2 and raises or warns nothing; an
exit 2 prints one `error:` line and writes no output."""

import json
import struct
import warnings
from importlib import resources

import numpy as np
import pytest

from elakit.cli import main
from elakit.toy import MiniCnn, MiniCnnConfig

MUTATIONS = 100  # per file kind

# the values a mutated field takes: wrong types, non-finite numbers, sizes
# below 1, small sizes, and sizes beyond memory or past any numpy can represent
JUNK = (None, True, "x", "float32", [], [3], [2, 2], {}, -1, 0, 1, 3, 16, 0.5,
        float("nan"), float("inf"), 10**14, 2**63)


def _pick(rng, items):
    return items[rng.integers(len(items))]


def _flip_byte(rng, blob):
    at = rng.integers(len(blob))
    return blob[:at] + bytes([rng.integers(256)]) + blob[at + 1:]


def _mutate_model(rng, blob):
    n = int.from_bytes(blob[8:16], "little")
    header, payload = json.loads(blob[16:16 + n]), blob[16 + n:]
    entry = _pick(rng, header["tensors"])
    kind = rng.integers(5)
    if kind == 0:  # a tensor-entry field
        entry[_pick(rng, list(entry))] = _pick(rng, JUNK)
    elif kind == 1:  # a meta field
        header["meta"][_pick(rng, list(header["meta"]))] = _pick(rng, JUNK)
    elif kind == 2:  # one axis of a tensor, its byte count kept consistent
        entry["shape"][rng.integers(len(entry["shape"]))] = int(rng.integers(1, 17))
        entry["nbytes"] = 8 * int(np.prod(entry["shape"]))
    elif kind == 3:  # one float64 of the payload made non-finite
        at = 8 * rng.integers(len(payload) // 8)
        value = _pick(rng, (float("nan"), float("inf"), -float("inf")))
        payload = payload[:at] + struct.pack("<d", value) + payload[at + 8:]
    else:
        return _flip_byte(rng, blob)
    raw = json.dumps(header).encode()
    return blob[:8] + len(raw).to_bytes(8, "little") + raw + payload


def _mutate_placement(rng, text):
    spec = json.loads(text)
    kind = rng.integers(3)
    if kind == 0:  # a top-level field
        spec[_pick(rng, list(spec))] = _pick(rng, JUNK)
    elif kind == 1:  # a site field
        site = _pick(rng, spec["sites"])
        site[_pick(rng, list(site))] = _pick(rng, JUNK)
    else:
        return _flip_byte(rng, text.encode())
    return json.dumps(spec).encode()


@pytest.mark.parametrize("kind", ["model", "placement"])
def test_mutated_files_exit_0_or_2_with_one_error_line(tmp_path, capfd, kind):
    rng = np.random.default_rng(0 if kind == "model" else 1)
    if kind == "model":
        cfg = MiniCnnConfig(stage_channels=(4,), attention="ca", input_shape=(1, 8, 8))
        good = MiniCnn(cfg).params.to_bytes()
    else:
        good = (resources.files("elakit") / "data" / "resnet18-ela-b.json").read_text()
    codes = []
    for i in range(MUTATIONS):
        path, out = tmp_path / f"{i}.in", tmp_path / f"{i}.out"
        if kind == "model":
            path.write_bytes(_mutate_model(rng, good))
            argv = ["gradcam", "--model", str(path), "--samples", "1", "--out", str(out)]
        else:
            path.write_bytes(_mutate_placement(rng, good))
            argv = ["audit", "--config", str(path), "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        err = capfd.readouterr().err.splitlines()
        assert code in (0, 2)
        if code == 2:
            assert len(err) == 1 and err[0].startswith("error:"), err
        assert out.exists() == (code == 0)
        codes.append(code)
    assert 0 < codes.count(2) < MUTATIONS  # both paths are taken
