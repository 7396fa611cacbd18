"""Attention module contracts: registry, fixed points, oracles, gradients, structure."""

import argparse
import warnings

import numpy as np
import pytest

from elakit import kernels as K
from elakit.accounting import flop_count, param_count, param_count_enumerated
from elakit.cli import build_parser
from elakit.gradcheck import check_module_gradients, fd_gradient, max_rel_error
from elakit.modules import (
    MODULE_CHOICES,
    REGISTRY,
    CaConfig,
    CoordinateAttention,
    EcaConfig,
    EfficientChannelAttention,
    EfficientLocalAttention,
    ElaConfig,
    SeConfig,
    SqueezeExcitation,
    build_attention,
    intermediate_channels,
)


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def zero_weights(module):
    """Zero every parameter but the norm scales."""
    for name in module.params.names():
        if not name.endswith("gamma"):
            module.params.set_value(name, np.zeros_like(module.params.value(name)))
    return module


class TestConfigs:
    def test_presets_match_published_grid(self):
        assert REGISTRY["ela-t"] == (EfficientLocalAttention, ElaConfig(5, "depthwise", 32))
        assert REGISTRY["ela-b"] == (EfficientLocalAttention, ElaConfig(7, "depthwise", 16))
        assert REGISTRY["ela-s"] == (EfficientLocalAttention, ElaConfig(5, "channels_over_8", 16))
        assert REGISTRY["ela-l"] == (EfficientLocalAttention, ElaConfig(7, "channels_over_8", 16))

    def test_group_resolution(self):
        cfg = REGISTRY["ela-s"][1]
        assert cfg.sizes(64) == (8, 16)
        with pytest.raises(ValueError):
            cfg.sizes(10)

    def test_gn_groups_clamped_to_channels(self):
        assert REGISTRY["ela-t"][1].sizes(16) == (16, 16)
        assert REGISTRY["ela-t"][1].sizes(512) == (512, 32)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            ElaConfig(kernel_size=4)

    def test_ca_intermediate_channels(self):
        assert intermediate_channels(64) == 8
        assert intermediate_channels(512) == 16


class TestRegistry:
    def test_cli_module_choices_are_the_registry(self):
        subcommands = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        for command in ("gradcheck", "bench"):
            (module,) = [a for a in subcommands[command]._actions if a.dest == "module"]
            assert tuple(module.choices) == MODULE_CHOICES == tuple(REGISTRY)
        # the order is part of the contract: the gradcheck benchmark seeds by position
        assert MODULE_CHOICES == ("se", "eca", "ca", "ca-gn", "ela-t", "ela-b", "ela-s", "ela-l")

    def test_new_kind_is_one_registry_entry(self, monkeypatch):
        monkeypatch.setitem(
            REGISTRY, "ela-k3", (EfficientLocalAttention, ElaConfig(3, "depthwise", 16))
        )
        module = build_attention("ela-k3", 16, seed=19)
        assert module.cfg.kernel_size == 3
        errors = check_module_gradients(module, rand((2, 16, 5, 7), 18), direction_seed=20)
        assert max(errors.values()) < 1e-5, errors
        for channels in (16, 64):
            assert param_count("ela-k3", channels) == param_count_enumerated("ela-k3", channels)
        # k=3 instead of ELA-B's k=7: four fewer conv taps per strip position
        assert flop_count("ela-b", 16, 5, 7) - flop_count("ela-k3", 16, 5, 7) == 16 * 4 * 12

    def test_one_lookup_error_and_case_insensitive_names(self):
        calls = (
            (build_attention, (16,)),
            (param_count, (16,)),
            (flop_count, (16, 5, 7)),
        )
        messages = set()
        for fn, args in calls:
            with pytest.raises(ValueError) as err:
                fn("nonsense", *args)
            messages.add(str(err.value))
        assert len(messages) == 1
        assert build_attention("ELA-B", 16).cfg == REGISTRY["ela-b"][1]
        assert param_count("ELA-B", 16) == param_count("ela-b", 16)
        assert flop_count("ELA-B", 16, 5, 7) == flop_count("ela-b", 16, 5, 7)


class TestInitParams:
    def test_deterministic_per_seed(self):
        a = EfficientLocalAttention(32, REGISTRY["ela-b"][1], seed=5).params
        b = EfficientLocalAttention(32, REGISTRY["ela-b"][1], seed=5).params
        assert a.names() == b.names()
        for name in a.names():
            assert np.array_equal(a.value(name), b.value(name))

    def test_ela_b_store_contents_at_512(self):
        m = EfficientLocalAttention(512, REGISTRY["ela-b"][1], seed=0)
        shapes = {name: m.params.value(name).shape for name in m.params.names()}
        assert shapes == {
            "conv_h.weight": (512, 1, 7),
            "conv_w.weight": (512, 1, 7),
            "gn_h.gamma": (512,),
            "gn_h.beta": (512,),
            "gn_w.gamma": (512,),
            "gn_w.beta": (512,),
        }

    def test_norm_params_start_at_identity(self):
        m = EfficientLocalAttention(16, REGISTRY["ela-b"][1], seed=0)
        assert np.all(m.params.value("gn_h.gamma") == 1.0)
        assert np.all(m.params.value("gn_h.beta") == 0.0)


class TestReferenceComposition:
    def test_ela_matches_straight_line_pipeline(self):
        # independent recomposition of the forward map, no module code shared
        x = rand((2, 16, 5, 7), 6)
        m = EfficientLocalAttention(16, REGISTRY["ela-b"][1], seed=7)
        y, maps = m.forward(x)
        p = m.params
        zh = x.mean(axis=3)
        zw = x.mean(axis=2)

        def pipeline(z, w, gamma, beta):
            conv = K.conv1d_grouped(z, w)
            gg = conv.reshape(2, 16, 1, -1)  # 16 groups of one channel
            mu = gg.mean(axis=(2, 3), keepdims=True)
            var = gg.var(axis=(2, 3), keepdims=True)
            xhat = ((gg - mu) / np.sqrt(var + 1e-5)).reshape(conv.shape)
            normed = gamma[None, :, None] * xhat + beta[None, :, None]
            return 1.0 / (1.0 + np.exp(-normed))

        ah = pipeline(zh, p.value("conv_h.weight"), p.value("gn_h.gamma"), p.value("gn_h.beta"))
        aw = pipeline(zw, p.value("conv_w.weight"), p.value("gn_w.gamma"), p.value("gn_w.beta"))
        expected = x * ah[:, :, :, None] * aw[:, :, None, :]
        assert np.max(np.abs(maps.ah - ah)) < 1e-10
        assert np.max(np.abs(y - expected)) < 1e-10

    def test_ca_gn_matches_straight_line_pipeline(self):
        x = rand((1, 16, 3, 5), 8)
        m = CoordinateAttention(16, CaConfig(norm_flavor="gn"), seed=9)
        y, _ = m.forward(x)
        p = m.params
        mip, groups = m.mip, m.gn_groups
        f_in = np.concatenate([x.mean(axis=3), x.mean(axis=2)], axis=2)
        u = np.einsum("oc,ncl->nol", p.value("f1.weight"), f_in)
        g = u.reshape(1, groups, -1)
        xhat = ((g - g.mean(axis=2, keepdims=True))
                / np.sqrt(g.var(axis=2, keepdims=True) + 1e-5)).reshape(u.shape)
        nu = p.value("norm.gamma")[None, :, None] * xhat + p.value("norm.beta")[None, :, None]
        v = nu * np.clip(nu + 3.0, 0.0, 6.0) / 6.0
        fh, fw = v[:, :, :3], v[:, :, 3:]
        gh = 1.0 / (1.0 + np.exp(-(np.einsum("oc,ncl->nol", p.value("fh.weight"), fh)
                                   + p.value("fh.bias")[None, :, None])))
        gw = 1.0 / (1.0 + np.exp(-(np.einsum("oc,ncl->nol", p.value("fw.weight"), fw)
                                   + p.value("fw.bias")[None, :, None])))
        expected = x * gh[:, :, :, None] * gw[:, :, None, :]
        assert np.max(np.abs(y - expected)) < 1e-10

    def test_eca_identity_kernel_gate(self):
        x = rand((1, 8, 2, 2), 10)
        m = EfficientChannelAttention(8, EcaConfig(), seed=0)
        w = np.zeros((1, 1, 3))
        w[0, 0, 1] = 1.0
        m.params.set_value("conv.weight", w)
        _, gate = m.forward(x)
        pooled = x.mean(axis=(2, 3))
        assert np.allclose(gate.gate, 1.0 / (1.0 + np.exp(-pooled)))


class TestStructuralInvariants:
    @pytest.mark.parametrize("kind", MODULE_CHOICES)
    @pytest.mark.parametrize("shape", [(1, 16, 3, 3), (2, 32, 4, 6), (1, 64, 7, 5)])
    def test_shape_preservation(self, kind, shape):
        x = rand(shape, 11)
        y, _ = build_attention(kind, shape[1], seed=0).forward(x)
        assert y.shape == x.shape

    @pytest.mark.parametrize("kind", MODULE_CHOICES)
    def test_gate_range_and_contraction(self, kind):
        x = rand((2, 16, 4, 4), 12)
        y, aux = build_attention(kind, 16, seed=1).forward(x)
        gates = np.concatenate(
            [aux.ah.ravel(), aux.aw.ravel()] if hasattr(aux, "ah") else [aux.gate.ravel()]
        )
        assert np.all((gates > 0.0) & (gates < 1.0))
        assert np.all(np.abs(y) <= np.abs(x))

    def test_ela_keeps_full_channel_width(self):
        # no channel dimensionality reduction: every intermediate carries C
        m = EfficientLocalAttention(32, REGISTRY["ela-b"][1], seed=0)
        x = rand((1, 32, 4, 4), 13)
        m.forward(x, keep_intermediates=True)
        _, zh, zw, cache_h, cache_w, *_ = m._cache
        for t in (zh, zw, cache_h[0], cache_w[0]):  # the strips and GN's xhat
            assert t.shape[1] == 32

    def test_ca_bottleneck_narrower_than_input(self):
        m = CoordinateAttention(512, CaConfig(), seed=0)
        assert m.mip == 16 < 512
        x = rand((1, 512, 2, 2), 14)
        m.forward(x, keep_intermediates=True)
        nu = m._cache[2]
        assert nu.shape[1] == m.mip

    def test_determinism(self):
        x = rand((2, 16, 4, 5), 15)
        for kind in MODULE_CHOICES:
            y1, _ = build_attention(kind, 16, seed=3).forward(x)
            y2, _ = build_attention(kind, 16, seed=3).forward(x)
            assert np.array_equal(y1, y2)

    def test_degenerate_1x1_spatial(self):
        x = rand((2, 16, 1, 1), 16)
        for kind in MODULE_CHOICES:
            y, _ = build_attention(kind, 16, seed=0).forward(x)
            assert y.shape == x.shape
            assert np.all(np.isfinite(y))

    @pytest.mark.parametrize("kind", ["se", "eca"])
    def test_channel_gates_stay_finite_and_silent_at_large_inputs(self, kind):
        # no norm precedes their sigmoid, so its logits grow with the input
        m = build_attention(kind, 16, seed=0)
        x = 1e4 * rand((2, 16, 5, 7), 18)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, aux = m.forward(x, keep_intermediates=True)
            dx = m.backward(rand(y.shape, 19))
        assert np.any(aux.gate == 0.0)
        assert np.all(np.isfinite(y)) and np.all(np.isfinite(dx))
        assert all(np.all(np.isfinite(m.params.grad(n))) for n in m.params.names())

    @pytest.mark.parametrize("kind", MODULE_CHOICES)
    def test_nan_passes_through_silently_and_stays_in_its_sample(self, kind):
        # blocks do not reject non-finite values: a NaN reaches the output and
        # dx of its own sample, and train-mode BN alone carries it to others
        m = build_attention(kind, 16, seed=3)
        x = rand((2, 16, 5, 7), 1)
        x[0, 3, 2, 4] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, _ = m.forward(x, keep_intermediates=True)
            dx = m.backward(rand(y.shape, 2))
        assert np.isnan(y[0]).any() and np.isnan(dx[0]).any()
        assert np.isfinite(y[1]).all() == (not m.couples_samples)
        assert np.isfinite(dx[1]).all() == (not m.couples_samples)

    def test_long_range_vs_channel_only_response(self):
        # a point perturbation must spread along the pierced row/column for
        # ELA, while SE rescales each channel uniformly
        x = rand((1, 16, 5, 7), 17)
        i0, j0 = 2, 3
        eps = 1e-3

        ela = EfficientLocalAttention(16, REGISTRY["ela-b"][1], seed=4)
        y0, _ = ela.forward(x)
        xp = x.copy()
        xp[0, 0, i0, j0] += eps
        y1, _ = ela.forward(xp)
        delta = np.abs(y1 - y0)[0, 0]
        assert delta[i0, (j0 + 2) % 7] > 1e-9  # same row, different column
        assert delta[(i0 + 2) % 5, j0] > 1e-9  # same column, different row

        se = SqueezeExcitation(16, SeConfig(), seed=4)
        _, g0 = se.forward(x)
        _, g1 = se.forward(xp)
        # the SE gate is a scalar per channel: its change carries no spatial
        # structure at all
        assert g0.gate.shape == (1, 16)
        assert np.max(np.abs(g1.gate - g0.gate)) > 0.0


class TestGradients:
    def test_check_leaves_the_block_as_it_found_it(self):
        # every finite-difference forward of a train-mode BN moves its running stats
        x = rand((2, 16, 5, 7), 18)
        module = build_attention("ca", 16, seed=19)
        module.forward(x)
        state = module.norm_state
        before = [state.running_mean.tobytes(), state.running_var.tobytes()]
        before += [module.params.value(name).tobytes() for name in module.params.names()]
        check_module_gradients(module, x, direction_seed=20)
        after = [state.running_mean.tobytes(), state.running_var.tobytes()]
        after += [module.params.value(name).tobytes() for name in module.params.names()]
        assert after == before

    def test_zero_dy_gives_zero_grads(self):
        x = rand((1, 16, 3, 4), 21)
        m = build_attention("ela-b", 16, seed=0)
        m.forward(x, keep_intermediates=True)
        m.params.zero_grads()
        dx = m.backward(np.zeros_like(x))
        assert not dx.any()
        for name in m.params.names():
            assert not m.params.grad(name).any()

    @pytest.mark.parametrize("kind", MODULE_CHOICES)
    def test_backward_does_not_alias_inputs(self, kind):
        x = rand((2, 16, 5, 7), 24)
        dy = rand(x.shape, 25)
        x0, dy0 = x.copy(), dy.copy()
        m = build_attention(kind, 16, seed=0)
        m.forward(x, keep_intermediates=True)
        dx = m.backward(dy)
        assert np.array_equal(x, x0) and np.array_equal(dy, dy0)
        assert dx.flags.writeable and dx.flags.owndata

    @pytest.mark.parametrize("kind", MODULE_CHOICES)
    def test_backward_requires_cache(self, kind):
        m = build_attention(kind, 16, seed=0)
        with pytest.raises(RuntimeError):
            m.backward(rand((1, 16, 2, 2)))
        # a forward that keeps nothing drops the cache of an earlier input
        m.forward(rand((2, 16, 5, 7), 28), keep_intermediates=True)
        m.forward(rand((2, 16, 5, 7), 29))
        with pytest.raises(RuntimeError):
            m.backward(rand((2, 16, 5, 7), 30))

    @pytest.mark.parametrize("kind", MODULE_CHOICES)
    def test_backward_rejects_dy_of_another_shape(self, kind):
        # numpy would broadcast each of these against the (2,16,5,7) output
        m = build_attention(kind, 16, seed=0)
        m.forward(rand((2, 16, 5, 7), 26), keep_intermediates=True)
        for shape in ((1, 16, 5, 7), (16, 5, 7), (5, 7)):
            with pytest.raises(K.ShapeError) as err:
                m.backward(rand(shape, 27))
            assert str(shape) in str(err.value) and "(2, 16, 5, 7)" in str(err.value)

    def test_zero_conv_weight_ela_dx_against_fd(self):
        x = rand((1, 8, 3, 3), 22)
        m = zero_weights(build_attention("ela-b", 8, seed=0))
        dy = rand((1, 8, 3, 3), 23)
        m.forward(x, keep_intermediates=True)
        m.params.zero_grads()
        dx = m.backward(dy.copy())

        def loss(v):
            y, _ = m.forward(v)
            return float(np.sum(y * dy))

        assert max_rel_error(dx, fd_gradient(loss, x)) < 1e-5
