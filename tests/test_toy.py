"""Toy dataset, mini CNN training, and Grad-CAM behavior."""

import weakref

import numpy as np
import pytest

from elakit import kernels as K
from elakit.gradcheck import fd_gradient, max_rel_error
from elakit.params import ParamStore
from elakit.toy import (
    DivergenceError,
    MiniCnn,
    MiniCnnConfig,
    TrainState,
    bilinear_upsample,
    cross_entropy,
    gradcam,
    make_toy_batch,
    sgd_step,
    pgm_bytes,
    train_toy,
)


def quadrant_of(row, col, size):
    half = size // 2  # where make_toy_batch splits its quadrants
    return (2 if row >= half else 0) + (1 if col >= half else 0)


class TestToyBatch:
    def test_deterministic_per_seed(self):
        a = make_toy_batch(16, seed=3)
        b = make_toy_batch(16, seed=3)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_pixel_range(self):
        batch = make_toy_batch(32, seed=4)
        assert batch.images.min() >= 0.0 and batch.images.max() <= 1.0
        assert batch.images.shape == (32, 1, 32, 32)

    def test_quadrant_labeling(self):
        assert quadrant_of(8, 8, 32) == 0  # top-left
        assert quadrant_of(8, 24, 32) == 1
        assert quadrant_of(24, 8, 32) == 2
        assert quadrant_of(24, 24, 32) == 3
        batch = make_toy_batch(64, seed=5)
        for img_label, (row, col) in zip(batch.labels, batch.centers):
            assert img_label == quadrant_of(row, col, 32)

    def test_quadrant_labeling_at_odd_size(self):
        # make_toy_batch splits at size // 2, so quadrant_of must too
        batch = make_toy_batch(200, seed=0, size=33)
        assert [quadrant_of(row, col, 33) for row, col in batch.centers] == batch.labels.tolist()

    def test_odd_size_centers_cover_the_wider_quadrants(self):
        # the bottom and right quadrants of a 33-pixel image span [16, 33)
        batch = make_toy_batch(2000, seed=0, size=33)
        assert batch.centers.max(axis=0).min() > 32.0
        assert [quadrant_of(row, col, 33) for row, col in batch.centers] == batch.labels.tolist()

    def test_even_size_draws_are_unchanged(self):
        # one uniform draw over [0, size // 2) per coordinate, as before the
        # quadrants were sized separately
        batch = make_toy_batch(512, seed=1)
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 4, size=512)
        rows = rng.uniform(0, 16, size=512) + 16 * (labels // 2)
        cols = rng.uniform(0, 16, size=512) + 16 * (labels % 2)
        np.testing.assert_array_equal(batch.labels, labels)
        np.testing.assert_array_equal(batch.centers, np.stack([rows, cols], axis=1))

    def test_blob_peak_near_center(self):
        batch = make_toy_batch(8, seed=6)
        for img, (row, col) in zip(batch.images[:, 0], batch.centers):
            peak = np.unravel_index(img.argmax(), img.shape)
            assert np.hypot(peak[0] - row, peak[1] - col) < 2.0

    def test_label_distribution_uniform(self):
        batch = make_toy_batch(10_000, seed=7)
        freqs = np.bincount(batch.labels, minlength=4) / 10_000
        assert np.max(np.abs(freqs - 0.25)) < 0.03

    def test_n_precondition(self):
        with pytest.raises(ValueError):
            make_toy_batch(0, seed=0)


class TestCrossEntropy:
    def test_matches_log_softmax_oracle(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal((6, 4)) * 3
        labels = rng.integers(0, 4, 6)
        loss, _, _ = cross_entropy(logits.copy(), labels)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        expected = -np.log(probs[np.arange(6), labels]).mean()
        assert np.isclose(loss, expected, rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        logits = rng.standard_normal((4, 4))
        labels = rng.integers(0, 4, 4)
        _, dlogits, _ = cross_entropy(logits.copy(), labels)
        numeric = fd_gradient(lambda v: cross_entropy(v.copy(), labels)[0], logits)
        assert max_rel_error(dlogits, numeric) < 1e-7

    def test_stability_at_large_logits(self):
        logits = np.array([[1000.0, 0.0, 0.0, 0.0]])
        loss, _, acc = cross_entropy(logits, np.array([0]))
        assert np.isfinite(loss) and loss < 1e-6 and acc == 1.0


class TestMiniCnn:
    def tiny_model(self, attention="ela-b"):
        cfg = MiniCnnConfig(
            stage_channels=(4,), attention=attention, input_shape=(1, 8, 8)
        )
        return MiniCnn(cfg, seed=10)

    @pytest.mark.parametrize("input_shape", [(1, 8, 4), (1, 4, 8)])
    def test_config_rejects_non_square_input(self, input_shape):
        # the head is sized from H alone
        with pytest.raises(ValueError, match="H == W"):
            MiniCnnConfig(stage_channels=(4,), input_shape=input_shape)

    @pytest.mark.parametrize("side", [9, 12])
    def test_config_rejects_input_that_stages_cannot_halve(self, side):
        # 12 >= 2**3, but the third 2x2 pool would meet a 3x3 map
        with pytest.raises(ValueError, match="divisible by 2\\*\\*stages"):
            MiniCnnConfig(stage_channels=(4, 4, 4), input_shape=(1, side, side))

    def test_config_rejects_no_stages(self):
        # Grad-CAM weighs the last stage's map
        with pytest.raises(ValueError, match="at least one stage"):
            MiniCnnConfig(stage_channels=(), input_shape=(1, 8, 8))

    def test_full_model_gradient_check(self):
        model = self.tiny_model()
        batch = make_toy_batch(2, seed=11, size=8)
        x, labels = batch.images, batch.labels

        def loss_fn():
            return cross_entropy(model.forward(x), labels)[0]

        logits = model.forward(x, keep_intermediates=True)
        _, dlogits, _ = cross_entropy(logits, labels)
        model.zero_grads()
        model.backward(dlogits)
        for name in model.params.names():
            value = model.params.value(name)

            def loss_of(v, _name=name, _orig=value):
                model.params.set_value(_name, v)
                out = loss_fn()
                model.params.set_value(_name, _orig)
                return out

            numeric = fd_gradient(loss_of, value.copy())
            err = max_rel_error(model.params.grad(name), numeric)
            assert err < 1e-4, f"{name}: {err}"

    def test_backward_after_a_forward_that_kept_nothing_raises(self):
        model = self.tiny_model()
        model.forward(make_toy_batch(2, seed=14, size=8).images, keep_intermediates=True)
        model.forward(make_toy_batch(2, seed=15, size=8).images)
        with pytest.raises(RuntimeError):
            model.backward(np.ones((2, 4)))

    @pytest.mark.parametrize("attention", ["none", "se", "ela-b"])
    def test_each_record_carries_the_blocks_maps(self, attention):
        cfg = MiniCnnConfig(stage_channels=(4, 6), attention=attention, input_shape=(1, 8, 8))
        model = MiniCnn(cfg, seed=23)
        returned = []

        def recording(forward):
            def wrapped(h, **kwargs):
                y, maps = forward(h, **kwargs)
                returned.append(maps)
                return y, maps
            return wrapped

        for block in filter(None, model.attn):
            block.forward = recording(block.forward)
        logits = model.forward(make_toy_batch(2, seed=24, size=8).images, keep_intermediates=True)
        records = model.backward(np.ones_like(logits))
        expected = returned if model.cfg.attention else [None, None]
        assert len(records) == len(expected) == 2
        assert all(record.maps is maps for record, maps in zip(records, expected))

    def test_no_gradient_outlives_the_returned_records(self):
        # the model keeps its forward cache until the next forward, so a
        # gradient it held would stay alive through the next training step
        model = MiniCnn(MiniCnnConfig(stage_channels=(4, 6), attention="ela-b",
                                      input_shape=(1, 8, 8)), seed=25)
        batch = make_toy_batch(2, seed=26, size=8)
        logits = model.forward(batch.images, keep_intermediates=True)
        records = model.backward(cross_entropy(logits, batch.labels)[1])
        grads = [weakref.ref(record.grad) for record in records]
        del records
        assert [ref() for ref in grads] == [None, None]

    def test_zero_lr_leaves_params_unchanged(self):
        model = self.tiny_model()
        before = {name: model.params.value(name).copy() for name in model.params.names()}
        batch = make_toy_batch(4, seed=12, size=8)
        logits = model.forward(batch.images, keep_intermediates=True)
        _, dlogits, _ = cross_entropy(logits, batch.labels)
        model.zero_grads()
        model.backward(dlogits)
        state = TrainState(lr=0.0)
        sgd_step(model, state)
        for name in model.params.names():
            assert np.array_equal(model.params.value(name), before[name])

    def test_single_sample_overfit(self):
        model = self.tiny_model()
        batch = make_toy_batch(1, seed=13, size=8)
        state = TrainState(lr=0.05)
        loss = np.inf
        for _ in range(200):
            logits = model.forward(batch.images, keep_intermediates=True)
            loss, dlogits, _ = cross_entropy(logits, batch.labels)
            if loss < 0.01:
                break
            model.zero_grads()
            model.backward(dlogits)
            sgd_step(model, state)
        assert loss < 0.01

    def test_none_ignores_case(self):
        # the no-attention control ignores case, as the registered kinds do
        model, state, _ = train_toy("NONE", 2, seed=14, train_size=64)
        _, reference, _ = train_toy("none", 2, seed=14, train_size=64)
        assert model.cfg.attention is None and model.attn == [None] * 3
        assert state.history == reference.history

    def test_config_takes_none_in_any_case_as_no_attention(self):
        for name in ("none", "None", "NONE"):
            cfg = MiniCnnConfig(attention=name)
            assert cfg.attention is None
            assert MiniCnn(cfg, seed=0).attn == [None] * 3

    def test_model_file_records_the_kind_in_lower_case(self, tmp_path):
        model, _, _ = train_toy("ELA-B", 0, seed=14, train_size=64)
        model.params.save(tmp_path / "model.elak")
        assert ParamStore.load(tmp_path / "model.elak").meta["attention"] == "ela-b"
        assert MiniCnn.load(tmp_path / "model.elak").cfg.attention == "ela-b"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_guard(self):
        with pytest.raises(DivergenceError), np.errstate(all="ignore"):
            train_toy("none", 40, seed=15, lr=1e9)

    def test_sgd_step_moves_the_attention_blocks_params(self):
        # the model store holds the blocks' own entries, not copies
        model = self.tiny_model()
        block = model.attn[0].params
        before = block.value("conv_h.weight").copy()
        batch = make_toy_batch(4, seed=21, size=8)
        logits = model.forward(batch.images, keep_intermediates=True)
        model.zero_grads()
        model.backward(cross_entropy(logits, batch.labels)[1])
        assert model.params.grad("stage0.attn.conv_h.weight") is block.grad("conv_h.weight")
        sgd_step(model, TrainState(lr=0.1))
        assert not np.array_equal(block.value("conv_h.weight"), before)
        assert model.params.value("stage0.attn.conv_h.weight") is block.value("conv_h.weight")

    def test_loads_file_in_the_two_store_layout(self, tmp_path):
        # that layout lists the model's names before the attention names,
        # gives every tensor role "weight", and carries two meta keys that
        # MiniCnnConfig does not read
        model, _, data = train_toy("ela-b", 3, seed=22, train_size=64)
        old = ParamStore()
        for name in sorted(model.params.names(), key=lambda n: ".attn." in n):
            old.add(name, model.params.value(name).copy())
        old.meta = {
            "kind": "mini_cnn", "stage_channels": [16, 32, 64], "blocks_per_stage": 1,
            "attention": "ela-b", "input_shape": [1, 32, 32], "num_classes": 4,
        }
        path = tmp_path / "old.elak"
        old.save(path)
        loaded = MiniCnn.load(path)
        x = data.images[:4]
        assert np.array_equal(loaded.forward(x), model.forward(x))

    def test_saved_file_keeps_each_role(self, tmp_path):
        model = self.tiny_model("ca")
        path = tmp_path / "model.elak"
        model.params.save(path)
        store = ParamStore.load(path)
        assert store.names() == model.params.names()
        roles = {name: store.role(name) for name in store.names()}
        assert roles == {name: model.params.role(name) for name in store.names()}
        assert roles["stage0.block0.conv.bias"] == "bias"
        assert roles["stage0.attn.norm.gamma"] == "norm"

    def test_save_load_round_trip(self, tmp_path):
        model, _, data = train_toy("eca", 3, seed=16)
        path = tmp_path / "model.elak"
        model.params.save(path)
        loaded = MiniCnn.load(path)
        x = data.images[:4]
        assert np.array_equal(model.forward(x), loaded.forward(x))


class TestGradCam:
    def test_bilinear_upsample_constant_and_corners(self):
        a = np.full((1, 4, 4), 2.0)
        up = bilinear_upsample(a, 8, 8)
        assert np.allclose(up, 2.0)
        b = np.arange(4.0).reshape(1, 2, 2)
        up = bilinear_upsample(b, 5, 5)
        assert up[0, 0, 0] == 0.0 and up[0, -1, -1] == 3.0

    def test_constant_activations_give_zero_map(self):
        cfg = MiniCnnConfig(stage_channels=(4,), input_shape=(1, 8, 8))
        model = MiniCnn(cfg, seed=17)
        # zero conv weights with constant bias force a constant activation map
        model.params.set_value(
            "stage0.block0.conv.weight", np.zeros((4, 1, 3, 3))
        )
        model.params.set_value("stage0.block0.conv.bias", np.ones(4))
        x = np.zeros((2, 1, 8, 8))
        maps = gradcam(model, x, class_indices=np.array([0, 1]))
        assert not maps.any()

    def test_heatmap_range_contract(self):
        model, _, data = train_toy("ela-b", 10, seed=18)
        maps = gradcam(model, data.images[:6], data.labels[:6])
        assert maps.shape == (6, 32, 32)
        assert maps.min() >= 0.0 and maps.max() <= 1.0
        # a scalar class index broadcasts over the batch
        np.testing.assert_array_equal(
            gradcam(model, data.images[:6], 1), gradcam(model, data.images[:6], np.ones(6, int))
        )

    def test_invalid_class_and_stage(self):
        model, _, data = train_toy("none", 1, seed=19)
        with pytest.raises(ValueError):
            gradcam(model, data.images[:1], np.array([9]))

    def test_invariant_to_head_rescaling(self):
        # positive rescaling of the final linear layer must not move the peak
        model, _, data = train_toy("ela-b", 20, seed=20)
        x, labels = data.images[:4], data.labels[:4]
        maps_a = gradcam(model, x, labels)
        model.params.set_value("head.weight", 3.0 * model.params.value("head.weight"))
        maps_b = gradcam(model, x, labels)
        for a, b in zip(maps_a, maps_b):
            assert a.argmax() == b.argmax()

    @pytest.mark.parametrize("attention", ["ca", "ela-b"])
    def test_stage_gradients_match_finite_differences(self, attention, monkeypatch):
        # each record's act and grad are what Grad-CAM weighs: act must be
        # the map relu receives, grad the class score's gradient at it
        cfg = MiniCnnConfig(stage_channels=(4, 6), attention=attention, input_shape=(1, 8, 8))
        model = MiniCnn(cfg, seed=21)
        batch = make_toy_batch(2, seed=22, size=8)
        x, labels = batch.images, batch.labels
        relu_inputs = []
        real_relu = K.relu
        monkeypatch.setattr(K, "relu", lambda h: relu_inputs.append(h) or real_relu(h))
        logits = model.forward(x, keep_intermediates=True)
        dlogits = np.zeros_like(logits)
        dlogits[np.arange(len(labels)), labels] = 1.0
        model.zero_grads()
        records = model.backward(dlogits)

        def score_with(stage, index, delta):
            calls = iter(range(len(cfg.stage_channels)))

            def relu(h):
                if next(calls) == stage:
                    h = h.copy()
                    h[index] += delta
                return real_relu(h)

            monkeypatch.setattr(K, "relu", relu)
            return model.forward(x)[np.arange(len(labels)), labels].sum()

        step = 1e-6
        for stage, record in enumerate(records):
            act = record.act
            assert np.array_equal(act, relu_inputs[stage])
            # a difference that straddles relu's kink measures neither side
            smooth = np.abs(act) > step
            assert smooth.mean() > 0.9
            numeric = np.zeros_like(act)
            for index in zip(*np.nonzero(smooth)):
                up, down = score_with(stage, index, step), score_with(stage, index, -step)
                numeric[index] = (up - down) / (2.0 * step)
            assert max_rel_error(record.grad[smooth], numeric[smooth]) < 1e-6

    def test_pgm_output(self):
        heat = np.linspace(0, 1, 32 * 32).reshape(32, 32)
        blob = pgm_bytes(heat)
        assert blob.startswith(b"P5\n32 32\n255\n")
        pixels = blob.split(b"255\n", 1)[1]
        assert len(pixels) == 32 * 32
        assert max(pixels) <= 255
