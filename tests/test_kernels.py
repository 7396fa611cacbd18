"""Kernel-level forward oracles and finite-difference backward checks."""

import math
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from elakit import kernels as K
from elakit.gradcheck import fd_gradient, max_rel_error


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestStripPool:
    def test_h_matches_row_mean_oracle(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        assert np.allclose(K.strip_pool_h(x), [[[1.5, 3.5]]])

    def test_w_matches_column_mean_oracle(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        assert np.allclose(K.strip_pool_w(x), [[[2.0, 3.0]]])

    def test_constant_input(self):
        x = np.full((2, 3, 4, 5), 2.5)
        assert np.allclose(K.strip_pool_h(x), 2.5)
        assert np.allclose(K.strip_pool_w(x), 2.5)

    def test_unit_extent_is_identity(self):
        x = rand((1, 2, 3, 1))
        assert np.array_equal(K.strip_pool_h(x), x[:, :, :, 0])
        y = rand((1, 2, 1, 4))
        assert np.array_equal(K.strip_pool_w(y), y[:, :, 0, :])

    def test_transpose_symmetry(self):
        x = rand((2, 3, 4, 5))
        assert np.array_equal(K.strip_pool_w(x.transpose(0, 1, 3, 2)), K.strip_pool_h(x))

    def test_linearity(self):
        x, y = rand((2, 3, 4, 5), 1), rand((2, 3, 4, 5), 2)
        for pool in (K.strip_pool_h, K.strip_pool_w):
            lhs = pool(0.3 * x + 1.7 * y)
            rhs = 0.3 * pool(x) + 1.7 * pool(y)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_backward_mean_adjoint(self):
        dz = np.ones((1, 1, 1))
        dx = K.strip_pool_backward(dz, (1, 1, 1, 4), pooled_axis=3)
        assert np.allclose(dx, 0.25)
        assert np.allclose(K.strip_pool_backward(np.zeros((1, 1, 3)), (1, 1, 3, 4), 3), 0.0)

    def test_backward_is_read_only_view(self):
        dz = rand((1, 2, 3), 5)
        for dx in (K.strip_pool_backward(dz, (1, 2, 3, 4), pooled_axis=3),
                   K.strip_pool_backward(dz, (1, 2, 4, 3), pooled_axis=2)):
            assert not dx.flags.writeable

    def test_shape_errors(self):
        with pytest.raises(K.ShapeError):
            K.strip_pool_h(rand((2, 3, 4)))
        with pytest.raises(K.ShapeError):
            K.strip_pool_backward(rand((1, 1, 5)), (1, 1, 3, 4), pooled_axis=3)


def reference_conv1d_grouped(x, weight, groups):
    """The per-group loop the vectorized kernel replaced, kept as an oracle."""
    n, c_in, length = x.shape
    c_out, cpg, k = weight.shape
    pad = k // 2
    win = sliding_window_view(np.pad(x, ((0, 0), (0, 0), (pad, pad))), k, axis=2)
    opg = c_out // groups
    out = np.empty((n, c_out, length))
    for g in range(groups):
        wg = weight[g * opg:(g + 1) * opg]
        xg = win[:, g * cpg:(g + 1) * cpg]
        out[:, g * opg:(g + 1) * opg] = np.einsum("nclk,ock->nol", xg, wg)
    return out


def reference_conv1d_grouped_backward(dy, x, weight, groups):
    """Per-group loop adjoint: scatter each tap, then k shifted adds."""
    n, c_in, length = x.shape
    c_out, cpg, k = weight.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    win = sliding_window_view(xp, k, axis=2)
    opg = c_out // groups
    dweight = np.empty_like(weight)
    dxp = np.zeros_like(xp)
    for g in range(groups):
        sl_o = slice(g * opg, (g + 1) * opg)
        sl_i = slice(g * cpg, (g + 1) * cpg)
        dweight[sl_o] = np.einsum("nol,nclk->ock", dy[:, sl_o], win[:, sl_i])
        scatter = np.einsum("nol,ock->nclk", dy[:, sl_o], weight[sl_o])
        for kk in range(k):
            dxp[:, sl_i, kk:kk + length] += scatter[:, :, :, kk]
    return dxp[:, :, pad:pad + length], dweight


# (x shape, weight shape, groups)
CONV1D_CASES = {
    "depthwise": ((2, 8, 9), (8, 1, 5), 8),
    "channels_over_8": ((2, 16, 11), (16, 8, 7), 2),
    "groups1_cout_ne_cin": ((3, 1, 12), (2, 1, 3), 1),
    "k1": ((2, 6, 5), (6, 3, 1), 2),
    "length_below_k": ((2, 4, 1), (4, 1, 7), 4),
}


class TestConv1dGrouped:
    def test_identity_kernel_depthwise(self):
        x = rand((2, 4, 6))
        w = np.zeros((4, 1, 3))
        w[:, 0, 1] = 1.0
        assert np.allclose(K.conv1d_grouped(x, w), x)

    def test_zero_weights(self):
        x = rand((1, 4, 5))
        assert np.allclose(K.conv1d_grouped(x, np.zeros((4, 2, 3))), 0.0)

    def test_matches_triple_loop_oracle(self):
        x = rand((1, 2, 4), 5)
        w = rand((2, 2, 3), 6)
        out = K.conv1d_grouped(x, w)
        expected = np.zeros((1, 2, 4))
        pad = 1
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
        for o in range(2):
            for pos in range(4):
                for ci in range(2):
                    for kk in range(3):
                        expected[0, o, pos] += w[o, ci, kk] * xp[0, ci, pos + kk]
        # summation order differs from the loop, so allow rounding-level slack
        assert np.allclose(out, expected, atol=1e-12, rtol=1e-12)

    def test_backward_zero_dy(self):
        x, w = rand((1, 4, 5)), rand((4, 1, 3))
        dx, dw = K.conv1d_grouped_backward(np.zeros((1, 4, 5)), x, w)
        assert not dx.any() and not dw.any()

    def test_dweight_center_loop_oracle(self):
        x = rand((1, 3, 5), 7)
        dy = rand((1, 3, 5), 8)
        w = np.zeros((3, 1, 3))
        w[:, 0, 1] = 1.0
        _, dw = K.conv1d_grouped_backward(dy, x, w)
        for c in range(3):
            assert np.isclose(dw[c, 0, 1], np.sum(dy[0, c] * x[0, c]))

    @pytest.mark.parametrize("case", CONV1D_CASES)
    def test_matches_per_group_loop_reference(self, case):
        x_shape, w_shape, groups = CONV1D_CASES[case]
        x, w = rand(x_shape, 12), rand(w_shape, 13)
        out = K.conv1d_grouped(x, w)
        np.testing.assert_allclose(out, reference_conv1d_grouped(x, w, groups),
                                   rtol=1e-12, atol=1e-12)
        dy = rand(out.shape, 14)
        dx, dw = K.conv1d_grouped_backward(dy, x, w)
        ref_dx, ref_dw = reference_conv1d_grouped_backward(dy, x, w, groups)
        np.testing.assert_allclose(dx, ref_dx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(dw, ref_dw, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("w_dtype", [np.float32, np.float64])
    def test_float32_input_keeps_float32(self, w_dtype):
        x = rand((2, 8, 6), 15).astype(np.float32)
        w = rand((8, 2, 3), 16).astype(w_dtype)
        out = K.conv1d_grouped(x, w)
        assert out.dtype == np.float32
        dx, dw = K.conv1d_grouped_backward(out, x, w)
        assert dx.dtype == np.float32
        assert dw.dtype == w_dtype

    def test_preconditions(self):
        # the weight fixes groups = C_in / its channels per group
        for w_shape in ((4, 1, 4),   # even k
                        (4, 3, 3),   # 3 channels per group do not split C_in=4
                        (4, 8, 3),   # nor do 8
                        (4, 0, 3),   # nor do 0
                        (3, 2, 3)):  # 2 groups do not split C_out=3
            with pytest.raises(K.ShapeError):
                K.conv1d_grouped(rand((1, 4, 5)), rand(w_shape))


class TestConv1x1:
    def test_identity_weight(self):
        x = rand((2, 3, 5))
        assert np.allclose(K.conv2d_1x1(x, np.eye(3)), x)

    def test_channel_sum(self):
        x = rand((1, 2, 4))
        out = K.conv2d_1x1(x, np.array([[1.0, 1.0]]))
        assert np.allclose(out[0, 0], x[0, 0] + x[0, 1])

    def test_channel_mismatch(self):
        with pytest.raises(K.ShapeError):
            K.conv2d_1x1(rand((1, 3, 4)), rand((2, 4)))

    def test_takes_only_ncl(self):
        # its callers pass CA's (N,C,H+W) strips and SE's (N,C,1) pool
        with pytest.raises(K.ShapeError):
            K.conv2d_1x1(rand((1, 3, 2, 2)), rand((2, 3)))


class TestBatchNorm:
    def test_eval_identity_stats(self):
        state = K.NormState(3, mode="eval")
        state.initialized = True
        x = rand((2, 3, 4))
        out, _ = K.batch_norm(x, state, np.ones(3), np.zeros(3))
        assert np.allclose(out, x / np.sqrt(1.0 + K.BN_EPS))

    def test_train_constant_input_centers(self):
        state = K.NormState(2)
        x = np.full((3, 2, 5), 7.0)
        out, _ = K.batch_norm(x, state, np.ones(2), np.zeros(2))
        assert np.max(np.abs(out)) < 1e-6

    def test_eval_before_init_raises(self):
        state = K.NormState(2, mode="eval")
        with pytest.raises(K.UninitializedNormError):
            K.batch_norm(rand((1, 2, 3)), state, np.ones(2), np.zeros(2))

    def test_takes_only_ncl(self):
        # its one caller normalizes CA's (N,mip,H+W) strips
        with pytest.raises(K.ShapeError):
            K.batch_norm(rand((2, 3, 2, 2)), K.NormState(3), np.ones(3), np.zeros(3))

    @pytest.mark.parametrize("mode", ["Eval", "TRAIN", "", None])
    def test_unknown_mode_raises_and_leaves_the_state(self, mode):
        # checked where the mode is read: it is also set after construction
        constructed, changed = K.NormState(2, mode=mode), K.NormState(2)
        changed.mode = mode
        for state in (constructed, changed):
            with pytest.raises(ValueError, match="mode"):
                K.batch_norm(rand((2, 2, 3)), state, np.ones(2), np.zeros(2))
            np.testing.assert_array_equal(state.running_mean, np.zeros(2))
            assert not state.initialized

    def test_running_stats_update(self):
        assert K.BN_MOMENTUM == 0.1
        state = K.NormState(1)
        x = np.arange(8.0).reshape(2, 1, 4)
        K.batch_norm(x, state, np.ones(1), np.zeros(1))
        assert np.isclose(state.running_mean[0], 0.9 * 0.0 + 0.1 * x.mean())
        assert state.initialized

    def test_eval_backward_scales_dy_by_gamma_over_running_std(self):
        # eval mode reads the running statistics as constants: a per-channel
        # affine map whose adjoint scales dy by gamma / sqrt(running_var + eps)
        x = rand((3, 2, 4), 21)
        gamma, beta = rand((2,), 22), rand((2,), 23)
        dy = rand((3, 2, 4), 24)
        state = eval_state(2, 25)
        _, cache = K.batch_norm(x, state, gamma, beta)
        dx, _, _ = K.batch_norm_backward(dy, cache)
        inv_std = 1.0 / np.sqrt(state.running_var + K.BN_EPS)
        np.testing.assert_array_equal(dx, dy * (gamma * inv_std)[None, :, None])


class TestGroupNorm:
    def test_constant_input_centers(self):
        x = np.full((2, 4, 3), -1.25)
        out, _ = K.group_norm(x, 2, np.ones(4), np.zeros(4))
        assert np.max(np.abs(out)) < 1e-6

    def test_hand_computed_two_points(self):
        x = np.array([[[1.0, 3.0]]])
        out, _ = K.group_norm(x, 1, np.ones(1), np.zeros(1))
        assert np.allclose(out, [[[-1.0, 1.0]]], atol=1e-4)

    def test_variance_contract_at_low_variance_with_tight_eps(self, monkeypatch):
        monkeypatch.setattr(K, "GN_EPS", 1e-12)
        x = np.sqrt(1e-3) * rand((1, 4, 8), 26)
        out, _ = K.group_norm(x, 2, np.ones(4), np.zeros(4))
        grouped = out.reshape(1, 2, -1)
        assert np.max(np.abs(grouped.var(axis=2) - 1.0)) < 1e-6

    def test_positive_scale_near_invariance(self):
        x = 10.0 * rand((1, 4, 8), 27)  # per-group std well above 1
        out_a, _ = K.group_norm(x, 2, np.ones(4), np.zeros(4))
        out_b, _ = K.group_norm(3.0 * x, 2, np.ones(4), np.zeros(4))
        assert np.max(np.abs(out_a - out_b)) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(8, 64, 112), (8, 512, 14), (2, 16, 12), (8, 256, 56)])
    def test_forward_bitwise_equal_to_np_var_form(self, shape, dtype):
        # reference: the np.var form, which subtracts the mean in a pass of its own
        x = (3.0 * rand(shape, 32) + 1.5).astype(dtype)
        gamma, beta = rand((shape[1],), 33), rand((shape[1],), 34)
        ref_out, xhat, inv_std = reference_group_norm(x, 16, gamma, beta)
        out, (got_xhat, got_inv_std, _, _) = K.group_norm(x, 16, gamma, beta)
        assert np.array_equal(got_inv_std, inv_std) and np.array_equal(got_xhat, xhat)
        assert np.array_equal(out, ref_out)

    def test_divisibility_error(self):
        with pytest.raises(K.ShapeError):
            K.group_norm(rand((1, 4, 3)), 3, np.ones(4), np.zeros(4))


# the forms batch_norm and group_norm had before they shared one standardize
# core and one adjoint; the shapes are CA-BN's and ELA's sites plus a small one
NORM_SHAPES = [(8, 8, 112), (8, 16, 14), (8, 64, 56), (8, 512, 7), (2, 16, 12)]


def reference_batch_norm(x, state, gamma, beta):
    """Train-mode batch norm in the np.var form: (out, xhat, inv_std)."""
    axes = (0,) + tuple(range(2, x.ndim))
    bshape = (1, -1) + (1,) * (x.ndim - 2)
    mean = x.mean(axis=axes)
    var = x.var(axis=axes)
    m = K.BN_MOMENTUM
    state.running_mean = (1.0 - m) * state.running_mean + m * mean
    state.running_var = (1.0 - m) * state.running_var + m * var
    inv_std = 1.0 / np.sqrt(var + K.BN_EPS)
    xhat = (x - mean.reshape(bshape)) * inv_std.reshape(bshape)
    return gamma.reshape(bshape) * xhat + beta.reshape(bshape), xhat, inv_std


def reference_batch_norm_backward(dy, xhat, inv_std, gamma):
    axes = (0,) + tuple(range(2, dy.ndim))
    bshape = (1, -1) + (1,) * (dy.ndim - 2)
    count = dy.shape[0] * int(np.prod(dy.shape[2:]))
    dgamma = (dy * xhat).sum(axis=axes)
    dbeta = dy.sum(axis=axes)
    dxhat = dy * gamma.reshape(bshape)
    dx = (inv_std.reshape(bshape) / count) * (
        count * dxhat
        - dxhat.sum(axis=axes).reshape(bshape)
        - xhat * (dxhat * xhat).sum(axis=axes).reshape(bshape)
    )
    return dx, dgamma, dbeta


def reference_group_norm(x, num_groups, gamma, beta, eps=1e-5):
    """Group norm in the np.var form: (out, xhat, inv_std)."""
    xg = x.reshape(x.shape[0], num_groups, -1)
    mean = xg.mean(axis=2, keepdims=True)
    inv_std = 1.0 / np.sqrt(xg.var(axis=2, keepdims=True) + eps)
    xhat = ((xg - mean) * inv_std).reshape(x.shape)
    return gamma[None, :, None] * xhat + beta[None, :, None], xhat, inv_std


def reference_group_norm_backward(dy, xhat, inv_std, gamma, num_groups):
    n, c, length = dy.shape
    dgamma = (dy * xhat).sum(axis=(0, 2))
    dbeta = dy.sum(axis=(0, 2))
    dxhat = (dy * gamma[None, :, None]).reshape(n, num_groups, -1)
    xh = xhat.reshape(n, num_groups, -1)
    m = dxhat.shape[2]
    dx = (inv_std / m) * (
        m * dxhat
        - dxhat.sum(axis=2, keepdims=True)
        - xh * (dxhat * xh).sum(axis=2, keepdims=True)
    )
    return dx.reshape(n, c, length), dgamma, dbeta


def norm_inputs(shape, dtype):
    c = shape[1]
    x = (3.0 * rand(shape, 40) + 1.5).astype(dtype)
    dy = rand(shape, 41).astype(dtype)
    return x, dy, rand((c,), 42), rand((c,), 43)


def assert_bitwise(got, expected):
    for g, e in zip(got, expected, strict=True):
        assert g.dtype == e.dtype and np.array_equal(g, e)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", NORM_SHAPES)
class TestNormalizationAgainstReferences:
    def test_batch_norm_forward_bitwise(self, shape, dtype):
        x, _, gamma, beta = norm_inputs(shape, dtype)
        state, ref_state = K.NormState(shape[1]), K.NormState(shape[1])
        out, (xhat, *_) = K.batch_norm(x, state, gamma, beta)
        ref_out, ref_xhat, _ = reference_batch_norm(x, ref_state, gamma, beta)
        assert_bitwise(
            (out, xhat, state.running_mean, state.running_var),
            (ref_out, ref_xhat, ref_state.running_mean, ref_state.running_var),
        )

    def test_batch_norm_backward_bitwise(self, shape, dtype):
        x, dy, gamma, beta = norm_inputs(shape, dtype)
        _, cache = K.batch_norm(x, K.NormState(shape[1]), gamma, beta)
        _, xhat, inv_std = reference_batch_norm(x, K.NormState(shape[1]), gamma, beta)
        assert_bitwise(
            K.batch_norm_backward(dy, cache),
            reference_batch_norm_backward(dy, xhat, inv_std, gamma),
        )

    def test_group_norm_backward_bitwise(self, shape, dtype):
        groups = math.gcd(shape[1], 16)
        x, dy, gamma, beta = norm_inputs(shape, dtype)
        out, cache = K.group_norm(x, groups, gamma, beta)
        ref_out, xhat, inv_std = reference_group_norm(x, groups, gamma, beta)
        assert_bitwise((out, cache[0], cache[1]), (ref_out, xhat, inv_std))
        assert_bitwise(
            K.group_norm_backward(dy, cache),
            reference_group_norm_backward(dy, xhat, inv_std, gamma, groups),
        )


class TestActivations:
    def test_sigmoid_values(self):
        assert K.sigmoid(np.array(0.0)) == 0.5
        x = rand((50,), 32)
        assert np.max(np.abs(K.sigmoid(x) + K.sigmoid(-x) - 1.0)) < 1e-12
        assert np.all((K.sigmoid(x) > 0) & (K.sigmoid(x) < 1))

    def test_sigmoid_is_silent_where_exp_overflows(self):
        # exp(1000) overflows, and 1 / (1 + inf) is the exact limit 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = K.sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert np.array_equal(s, [0.0, 0.5, 1.0])

    def test_hard_swish_values(self):
        assert K.hard_swish(np.array(-4.0)) == 0.0
        assert K.hard_swish(np.array(4.0)) == 4.0
        assert np.isclose(K.hard_swish(np.array(1.0)), 1.0 * 4.0 / 6.0)


class TestBroadcastMulHw:
    def test_all_ones_gates(self):
        x = rand((2, 3, 4, 5))
        ones_h = np.ones((2, 3, 4))
        ones_w = np.ones((2, 3, 5))
        assert np.array_equal(K.broadcast_mul_hw(x, ones_h, ones_w), x)

    def test_half_gates(self):
        x = rand((1, 2, 3, 4))
        y = K.broadcast_mul_hw(x, np.full((1, 2, 3), 0.5), np.full((1, 2, 4), 0.5))
        assert np.allclose(y, 0.25 * x)

    def test_shape_mismatch(self):
        with pytest.raises(K.ShapeError):
            K.broadcast_mul_hw(rand((1, 2, 3, 4)), rand((1, 2, 4)), rand((1, 2, 4)))


class TestGlobalAvgPool:
    def test_mean_oracle(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        assert np.allclose(K.global_avg_pool(x), 2.5)

    def test_constant(self):
        assert np.allclose(K.global_avg_pool(np.full((2, 3, 4, 5), 1.5)), 1.5)

    def test_equals_iterated_strip_pool(self):
        x = rand((2, 3, 4, 5), 42)
        via_strips = K.strip_pool_h(x).mean(axis=2)[:, :, None]
        assert np.max(np.abs(K.global_avg_pool(x) - via_strips)) < 1e-12

    def test_backward_is_read_only_view(self):
        assert not K.global_avg_pool_backward(rand((1, 2, 1)), (1, 2, 3, 4)).flags.writeable


class Test2dToyKernels:
    def test_conv2d_identity_kernel(self):
        x = rand((1, 2, 4, 4))
        w = np.zeros((2, 2, 3, 3))
        w[0, 0, 1, 1] = 1.0
        w[1, 1, 1, 1] = 1.0
        assert np.allclose(K.conv2d_same(x, w, np.zeros(2)), x)

    def test_avg_pool_2x2(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = K.avg_pool_2x2(x)
        assert np.allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])


# ---------------------------------------------------------------------------
# the BLAS forms of the channel contractions and reductions against the
# direct einsum / mean forms they replace
# ---------------------------------------------------------------------------

def reference_conv2d_1x1(x, weight):
    return np.einsum("oc,nc...->no...", weight, x)


def reference_conv2d_1x1_backward(dy, x, weight):
    dyf = dy.reshape(dy.shape[0], dy.shape[1], -1)
    xf = x.reshape(x.shape[0], x.shape[1], -1)
    dx = np.einsum("oc,nop->ncp", weight, dyf).reshape(x.shape)
    dweight = np.einsum("nop,ncp->oc", dyf, xf)
    return dx, dweight


CONV1X1_SHAPES = [
    pytest.param((2, 6, 9), 4, id="ncl"),
    pytest.param((3, 16, 1), 2, id="se-ncl1"),
]


class TestBlasFormsAgainstReferences:
    @pytest.mark.parametrize("shape,c_out", CONV1X1_SHAPES)
    def test_conv2d_1x1_matches_einsum(self, shape, c_out):
        x = rand(shape, 60)
        w = rand((c_out, shape[1]), 61)
        b = rand((c_out,), 62)
        out = K.conv2d_1x1(x, w, b)
        expected = reference_conv2d_1x1(x, w) + b.reshape((1, -1) + (1,) * (x.ndim - 2))
        assert out.shape == expected.shape
        assert np.max(np.abs(out - expected)) < 1e-12

    @pytest.mark.parametrize("shape,c_out", CONV1X1_SHAPES)
    def test_conv2d_1x1_backward_matches_einsum(self, shape, c_out):
        x = rand(shape, 63)
        w = rand((c_out, shape[1]), 64)
        dy = rand((shape[0], c_out) + shape[2:], 65)
        dx, dw, db = K.conv2d_1x1_backward(dy, x, w)
        ref_dx, ref_dw = reference_conv2d_1x1_backward(dy, x, w)
        assert dx.shape == x.shape and dw.shape == w.shape
        assert np.max(np.abs(dx - ref_dx)) < 1e-12
        assert np.max(np.abs(dw - ref_dw)) < 1e-12
        assert np.max(np.abs(db - dy.reshape(shape[0], c_out, -1).sum(axis=(0, 2)))) < 1e-12

    def test_conv2d_1x1_keeps_mixed_dtype_promotion(self):
        x = rand((2, 6, 5)).astype(np.float32)
        w = rand((4, 6), 66)
        out = K.conv2d_1x1(x, w)
        dx, dw, _ = K.conv2d_1x1_backward(out, x, w)
        assert out.dtype == dx.dtype == dw.dtype == np.float64

    @pytest.mark.parametrize("shape", [(2, 3, 4, 5), (1, 8, 7, 7), (3, 2, 11, 2)])
    def test_pools_match_mean(self, shape):
        x = rand(shape, 67) + 3.0  # keep the means away from 0 for a relative bound
        for got, expected in (
            (K.strip_pool_h(x), x.mean(axis=3)),
            (K.strip_pool_w(x), x.mean(axis=2)),
            (K.global_avg_pool(x), x.mean(axis=(2, 3))[:, :, None]),
        ):
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected) / np.abs(expected)) < 1e-14

    def test_avg_pool_2x2_matches_reshape_mean(self):
        x = rand((2, 3, 6, 4), 68)
        n, c, h, w = x.shape
        expected = x.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))
        assert np.max(np.abs(K.avg_pool_2x2(x) - expected)) < 1e-15

    def test_gate_gradients_match_einsum(self):
        rng = np.random.default_rng(69)
        x, dy = rng.standard_normal((2, 2, 3, 5, 6))
        ah = rng.standard_normal((2, 3, 5))
        aw = rng.standard_normal((2, 3, 6))
        dx, dah, daw = K.broadcast_mul_hw_backward(dy, x, ah, aw)
        assert np.max(np.abs(dah - np.einsum("nchw,ncw->nch", dy * x, aw))) < 1e-12
        assert np.max(np.abs(daw - np.einsum("nchw,nch->ncw", dy * x, ah))) < 1e-12
        assert np.array_equal(dx, dy * ah[:, :, :, None] * aw[:, :, None, :])


# ---------------------------------------------------------------------------
# the conv1d window view built from the strides against the
# sliding_window_view form it replaces
# ---------------------------------------------------------------------------

def reference_group_columns(a, groups, k):
    """The sliding_window_view form of kernels._group_columns."""
    n, c, length = a.shape
    pad = k // 2
    ap = np.zeros((n, c, length + 2 * pad), dtype=a.dtype)
    ap[:, :, pad:pad + length] = a
    win = sliding_window_view(ap, k, axis=2).reshape(n, groups, c // groups, length, k)
    return win.transpose(0, 1, 3, 2, 4).reshape(n, groups, length, (c // groups) * k)


WINDOW_C = 16


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("length", [1, 5, 56])
@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("groups", [1, WINDOW_C // 8, WINDOW_C])
class TestWindowViewAgainstReference:
    def test_conv1d_grouped_and_backward_bitwise(self, monkeypatch, groups, k, length, dtype):
        rng = np.random.default_rng(100 * groups + 10 * k + length)
        x = rng.standard_normal((2, WINDOW_C, length)).astype(dtype)
        w = rng.standard_normal((WINDOW_C, WINDOW_C // groups, k)).astype(dtype)
        dy = rng.standard_normal((2, WINDOW_C, length)).astype(dtype)
        inputs = [a.copy() for a in (x, w, dy)]

        def run():
            return (K.conv1d_grouped(x, w),
                    *K.conv1d_grouped_backward(dy, x, w))

        got = run()
        assert_bitwise((x, w, dy), inputs)
        monkeypatch.setattr(K, "_group_columns", reference_group_columns)
        assert_bitwise(got, run())

    def test_window_view_is_read_only(self, groups, k, length, dtype):
        x = rand((2, WINDOW_C, length), 101).astype(dtype)
        before = x.copy()
        cols = K._group_columns(x, groups, k)
        ref = reference_group_columns(x, groups, k)
        assert_bitwise((cols,), (ref,))
        assert cols.strides == ref.strides
        # a view of the padded strip wherever the reference is one, and then read-only
        assert cols.flags.writeable == ref.flags.writeable
        if groups == WINDOW_C or k == 1:
            assert not cols.flags.writeable
        if not cols.flags.writeable:
            with pytest.raises(ValueError):
                cols[...] = 0.0
        assert_bitwise((x,), (before,))


def eval_state(c, seed, dtype=np.float64):
    state = K.NormState(c, mode="eval")
    state.running_mean = rand(c, seed).astype(dtype)
    state.running_var = (0.5 + rand(c, seed + 1) ** 2).astype(dtype)
    state.initialized = True
    return state


# name -> (forward of (x, *params) returning the output, x, one parameter set)
PER_SAMPLE_CASES = {
    "conv1d_depthwise": (K.conv1d_grouped, rand((3, 8, 9), 1), [rand((8, 1, 5), 2)]),
    "conv1d_channels_over_8": (K.conv1d_grouped, rand((3, 16, 11), 1), [rand((16, 8, 7), 2)]),
    # ECA: one 1D conv along the channels, laid out as (N, 1, C)
    "conv1d_eca": (K.conv1d_grouped, rand((3, 1, 16), 1), [rand((1, 1, 3), 2)]),
    "conv2d_1x1_strips": (K.conv2d_1x1, rand((3, 16, 12), 1), [rand((8, 16), 2), rand(8, 3)]),
    "group_norm": (lambda x, g, b: K.group_norm(x, 4, g, b)[0],
                   rand((3, 16, 6), 1), [1.0 + rand(16, 2), rand(16, 3)]),
    "batch_norm_eval": (lambda x, g, b: K.batch_norm(x, eval_state(8, 4), g, b)[0],
                        rand((3, 8, 6), 1), [1.0 + rand(8, 2), rand(8, 3)]),
    # train mode couples samples: every plain run sees the whole batch
    "batch_norm_train": (lambda x, g, b: K.batch_norm(x, K.NormState(8), g, b)[0],
                         rand((3, 8, 6), 1), [1.0 + rand(8, 2), rand(8, 3)]),
}


@pytest.mark.parametrize("case", PER_SAMPLE_CASES)
def test_a_per_sample_parameter_stack_runs_each_sample_with_its_own_set(case):
    # forward kernels index parameters from the right, so an (N, *shape)
    # stack broadcasts against the batch: sample n sees parameter set n
    forward, x, params = PER_SAMPLE_CASES[case]
    n = x.shape[0]
    stacks = [p[None] * (1.0 + np.arange(n) / n).reshape((n,) + (1,) * p.ndim) for p in params]
    out = forward(x, *stacks)
    for i in range(n):
        np.testing.assert_array_equal(out[i], forward(x, *(s[i] for s in stacks))[i])


# the extents a strip or gating kernel meets: wider than tall, taller than
# wide, one row and one column
STRIPS = {"wide": rand((2, 4, 3, 7), 3), "tall": rand((2, 4, 7, 3), 7),
          "row": rand((1, 3, 1, 6), 8), "column": rand((1, 3, 6, 1), 11)}

# (x, weight) shapes: groups 1, 2 and 4; k = 1, whose windows are a view at
# 4 channels per group; ELA's depthwise k = 5 and a k = 7 longer than the
# strip; ECA's (N, 1, C) layout; 8 channels per group; C_out above and below C_in
CONV1D_SHAPES = {
    "g1": ((2, 4, 6), (4, 4, 3)), "g2": ((2, 4, 6), (4, 2, 3)), "g4": ((2, 4, 6), (4, 1, 3)),
    "k1": ((2, 4, 6), (4, 4, 1)), "k5-depthwise": ((2, 4, 9), (4, 1, 5)),
    "k7-beyond-length": ((2, 4, 3), (4, 1, 7)), "eca": ((2, 1, 8), (1, 1, 3)),
    "channels-over-8": ((2, 16, 5), (16, 8, 3)),
    "widening": ((2, 4, 6), (8, 2, 3)), "narrowing": ((2, 4, 6), (2, 4, 3)),
}


def norm_adjoint_inputs(shape, seed):
    return [rand(shape, seed), rand(shape[1], seed + 1), rand(shape[1], seed + 2)]


def train_bn(x, g, b):
    return K.batch_norm(x, K.NormState(x.shape[1]), g, b)


def eval_bn(x, g, b):
    return K.batch_norm(x, eval_state(x.shape[1], 25, x.dtype), g, b)


# name -> (forward of the differentiable inputs, those inputs, backward of
# (dy, *inputs) giving one gradient per input, bound on max_rel_error)
ADJOINT_CASES = {
    **{f"strip_pool_h-{tag}": (K.strip_pool_h, [x],
                               lambda dy, x: K.strip_pool_backward(dy, x.shape, 3), 1e-6)
       for tag, x in STRIPS.items()},
    **{f"strip_pool_w-{tag}": (K.strip_pool_w, [x],
                               lambda dy, x: K.strip_pool_backward(dy, x.shape, 2), 1e-6)
       for tag, x in STRIPS.items()},
    **{name: (K.global_avg_pool, [rand(shape, 43)],
              lambda dy, x: K.global_avg_pool_backward(dy, x.shape), 1e-6)
       for name, shape in [("global_avg_pool", (1, 2, 3, 4)),
                           ("global_avg_pool-unit", (2, 3, 1, 1))]},
    **{f"conv1d_grouped-{tag}": (
        K.conv1d_grouped, [rand(x_shape, 9), rand(w_shape, 10)],
        lambda dy, x, w: K.conv1d_grouped_backward(dy, x, w), 1e-6)
       for tag, (x_shape, w_shape) in CONV1D_SHAPES.items()},
    # C -> C_out: CA's and SE's bottleneck, its widening, a length of one
    **{name: (K.conv2d_1x1, [rand(x_shape, 12), rand((c_out, x_shape[1]), 13), rand(c_out, 14)],
              lambda dy, x, w, b: K.conv2d_1x1_backward(dy, x, w), 1e-6)
       for name, x_shape, c_out in [("conv2d_1x1", (2, 3, 4), 5),
                                    ("conv2d_1x1-bottleneck", (2, 16, 5), 8),
                                    ("conv2d_1x1-widening", (2, 8, 5), 16),
                                    ("conv2d_1x1-unit-length", (3, 4, 1), 5)]},
    **{name: (lambda x, g, b, bn=bn: bn(x, g, b)[0], norm_adjoint_inputs(shape, seed),
              lambda dy, x, g, b, bn=bn: K.batch_norm_backward(dy, bn(x, g, b)[1]), 1e-5)
       for name, bn, shape, seed in [("batch_norm-train", train_bn, (3, 2, 4), 17),
                                     ("batch_norm-train-one-sample", train_bn, (1, 3, 5), 17),
                                     ("batch_norm-train-unit-length", train_bn, (4, 3, 1), 17),
                                     ("batch_norm-eval", eval_bn, (3, 2, 4), 21),
                                     ("batch_norm-eval-one-position", eval_bn, (1, 2, 1), 21)]},
    # two channels per group, one per group (ELA's GN) and a single group
    **{name: (lambda x, g, b, groups=groups: K.group_norm(x, groups, g, b)[0],
              norm_adjoint_inputs(shape, 28),
              lambda dy, x, g, b, groups=groups: K.group_norm_backward(
                  dy, K.group_norm(x, groups, g, b)[1]), 1e-5)
       for name, shape, groups in [("group_norm", (2, 4, 5), 2),
                                   ("group_norm-per-channel", (2, 4, 5), 4),
                                   ("group_norm-one-group", (2, 3, 4), 1)]},
    # the wide draws reach sigmoid's saturated tails and hard_swish's flat parts
    **{f"sigmoid{tag}": (K.sigmoid, [scale * rand(40, 33)],
                         lambda dy, x: K.sigmoid_backward(dy, K.sigmoid(x)), 1e-7)
       for tag, scale in [("", 2.0), ("-wide", 8.0)]},
    **{f"hard_swish{tag}": (K.hard_swish, [scale * rand(40, 33)],
                            lambda dy, x: K.hard_swish_backward(dy, x), 1e-7)
       for tag, scale in [("", 2.0), ("-wide", 5.0)]},
    "relu": (K.relu, [2.0 * rand(40, 33)], lambda dy, x: K.relu_backward(dy, x), 1e-7),
    "broadcast_mul_hw": (
        K.broadcast_mul_hw, [rand((1, 2, 3, 4), 36), rand((1, 2, 3), 37), rand((1, 2, 4), 38)],
        lambda dy, x, ah, aw: K.broadcast_mul_hw_backward(dy, x, ah, aw), 1e-6),
    **{f"broadcast_mul_hw-{tag}": (
        K.broadcast_mul_hw, [x, rand(x.shape[:3], 37), rand(x.shape[:2] + x.shape[3:], 38)],
        lambda dy, x, ah, aw: K.broadcast_mul_hw_backward(dy, x, ah, aw), 1e-6)
       for tag, x in STRIPS.items() if tag in ("row", "column")},
    **{name: (K.conv2d_same, [rand(x_shape, 45), rand(w_shape, 46), rand(w_shape[0], 47)],
              lambda dy, x, w, b: K.conv2d_same_backward(dy, x, w, with_bias=True), 1e-6)
       for name, x_shape, w_shape in [("conv2d_same", (1, 2, 4, 4), (3, 2, 3, 3)),
                                      ("conv2d_same-1x1", (2, 2, 3, 4), (3, 2, 1, 1))]},
    # the backward's default path, which skips the bias gradient
    "conv2d_same-no-bias": (
        lambda x, w: K.conv2d_same(x, w, np.zeros(3, x.dtype)),
        [rand((1, 2, 4, 5), 45), rand((3, 2, 3, 3), 46)],
        lambda dy, x, w: K.conv2d_same_backward(dy, x, w)[:2], 1e-6),
    **{name: (K.avg_pool_2x2, [rand(shape, 49)],
              lambda dy, x: K.avg_pool_2x2_backward(dy, x.shape), 1e-6)
       for name, shape in [("avg_pool_2x2", (1, 1, 4, 4)), ("avg_pool_2x2-batch", (2, 3, 2, 6))]},
}


@pytest.mark.parametrize("case", ADJOINT_CASES)
def test_backward_matches_finite_differences(case):
    # each gradient against central differences of sum(forward(...) * dy)
    forward, inputs, backward, bound = ADJOINT_CASES[case]
    dy = rand(forward(*inputs).shape, 50)
    grads = backward(dy, *inputs)
    grads = grads if isinstance(grads, tuple) else (grads,)
    for i, (x, grad) in enumerate(zip(inputs, grads, strict=True)):
        def loss(v):
            return float(np.sum(forward(*inputs[:i], v, *inputs[i + 1:]) * dy))

        assert max_rel_error(grad, fd_gradient(loss, x)) < bound, f"gradient {i}"


@pytest.mark.parametrize("case", ADJOINT_CASES)
def test_float32_inputs_keep_float32(case):
    # the output and every gradient stay in the dtype the caller passed
    forward, inputs, backward, _ = ADJOINT_CASES[case]
    inputs = [x.astype(np.float32) for x in inputs]
    y = forward(*inputs)
    grads = backward(rand(y.shape, 50).astype(np.float32), *inputs)
    grads = grads if isinstance(grads, tuple) else (grads,)
    assert [a.dtype for a in (y, *grads)] == [np.float32] * (1 + len(inputs))


def test_every_public_backward_has_an_adjoint_case():
    # a row names a backward by calling it
    called = {name for _, _, backward, _ in ADJOINT_CASES.values()
              for name in backward.__code__.co_names}
    public = {name for name in vars(K) if name.endswith("_backward") and not name.startswith("_")}
    assert public - called == set()
