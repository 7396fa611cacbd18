"""Parameter store semantics and binary round-trip serialization."""

import numpy as np
import pytest

from elakit.params import ParamStore


def make_store():
    rng = np.random.default_rng(0)
    store = ParamStore()
    store.add("conv.weight", rng.standard_normal((4, 1, 7)))
    store.add("gn.gamma", np.ones(4), role="norm")
    store.add("gn.beta", np.zeros(4), role="norm")
    store.meta = {"kind": "unit-test", "channels": 4}
    return store


def test_duplicate_name_rejected():
    store = make_store()
    with pytest.raises(KeyError):
        store.add("conv.weight", np.zeros(3))


def test_missing_name_rejected():
    with pytest.raises(KeyError):
        make_store().value("nope")


def test_grads_match_shapes_and_zero(tmp_path):
    store = make_store()
    for name in store.names():
        assert store.grad(name).shape == store.value(name).shape
        assert not store.grad(name).any()
    store.accumulate_grad("gn.gamma", np.full(4, 2.0))
    store.accumulate_grad("gn.gamma", np.full(4, 0.5))
    assert np.allclose(store.grad("gn.gamma"), 2.5)
    store.zero_grads()
    assert not store.grad("gn.gamma").any()


def test_shape_mismatch_rejected():
    store = make_store()
    with pytest.raises(ValueError):
        store.set_value("gn.gamma", np.ones(5))
    with pytest.raises(ValueError):
        store.accumulate_grad("gn.gamma", np.ones(5))


def test_enumeration_order_deterministic():
    assert make_store().names() == ["conv.weight", "gn.gamma", "gn.beta"]


def test_total_params():
    assert make_store().total_params() == 4 * 7 + 4 + 4


def test_round_trip_bit_exact(tmp_path):
    store = make_store()
    path = tmp_path / "store.elak"
    store.save(path)
    loaded = ParamStore.load(path)
    assert loaded.names() == store.names()
    assert loaded.meta == store.meta
    for name in store.names():
        a, b = store.value(name), loaded.value(name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))  # bit exact
        assert loaded.role(name) == store.role(name)


def test_save_is_atomic(tmp_path):
    # two saves leave exactly one file, never a partial temp
    store = make_store()
    path = tmp_path / "store.elak"
    store.save(path)
    store.save(path)
    assert [p.name for p in tmp_path.iterdir()] == ["store.elak"]


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.elak"
    path.write_bytes(b"not a store at all")
    with pytest.raises(ValueError):
        ParamStore.load(path)


def test_header_length_past_the_end_named_with_both_sizes(tmp_path):
    path = tmp_path / "short.elak"
    make_store().save(path)
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[8:16], "little")
    path.write_bytes(blob[:40])
    with pytest.raises(ValueError) as info:
        ParamStore.load(path)
    assert str(info.value) == (
        f"{path}: header length {header_len} runs past the end of the 40-byte file"
    )


def test_adopt_shares_entries_under_prefix():
    inner = make_store()
    outer = ParamStore()
    outer.add("head.weight", np.ones(2))
    outer.adopt("stage0.attn.", inner)
    assert outer.names() == ["head.weight"] + [f"stage0.attn.{n}" for n in inner.names()]
    assert outer.value("stage0.attn.conv.weight") is inner.value("conv.weight")
    assert outer.role("stage0.attn.gn.gamma") == "norm"
    outer.accumulate_grad("stage0.attn.gn.beta", np.full(4, 3.0))
    assert np.array_equal(inner.grad("gn.beta"), np.full(4, 3.0))
    outer.set_value("stage0.attn.gn.gamma", np.full(4, 2.0))
    assert np.array_equal(inner.value("gn.gamma"), np.full(4, 2.0))


def test_adopt_duplicate_name_rejected_and_store_unchanged():
    outer = ParamStore()
    outer.add("a.gn.gamma", np.zeros(4))
    with pytest.raises(KeyError, match="a.gn.gamma"):
        outer.adopt("a.", make_store())
    assert outer.names() == ["a.gn.gamma"]
