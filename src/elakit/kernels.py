"""Differentiable numpy kernels for directional attention modules.

Layout conventions:
    rank-4 tensors are (N, C, H, W), rank-3 tensors are (N, C, L), row-major.
The channel kernels (grouped 1D conv, 1x1 conv, batch and group norm) take
(N,C,L) only: their callers pass strip-pooled maps, SE's (N,C,1) pool or
ECA's (N,1,C) channel sequence.
Strip pooling averages over W to produce the height map (N, C, H) and over H
to produce the width map (N, C, W); the divisor is always the pooled extent.
All convolutions are cross-correlations (no kernel flip) with zero
same-padding of floor(k/2) on each side, so spatial lengths are preserved.
The grouped 1D convolution carries no bias: ELA follows it with GN, whose
beta absorbs one, and ECA's has none. A backward rejects, with ShapeError, any
dy or operand that its forward could not have produced or would reject.

Each forward kernel has a matching `*_backward` that is the exact adjoint;
all are pure functions except `batch_norm`, which updates running statistics
in train mode. Batch norm's momentum and epsilon are the constants
BN_MOMENTUM and BN_EPS; its backward follows the mode its forward ran in.
Group norm's epsilon is the constant GN_EPS.

Forward kernels index their parameters from the right, so a parameter may
carry a leading per-sample axis: a weight stack is (N, *shape) and a
per-channel stack is (N, C), read as (N, C, 1) against the batch, so sample n
reads parameter set n. Backward kernels take one parameter set and raise
ShapeError for a stack.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Input shapes violate a kernel precondition."""


class UninitializedNormError(RuntimeError):
    """Eval-mode batch norm requested before any running statistics exist."""


def _check(shape, layout):
    """Raise ShapeError unless `shape` has one nonzero axis per letter of `layout`; return it."""
    if len(shape) != len(layout) or 0 in shape:
        raise ShapeError(f"expected {len(layout)} nonzero axes ({','.join(layout)}), got {shape}")
    return shape


def _expect(name, a, shape):
    """Raise ShapeError unless the operand `name`, array `a`, has exactly the tuple `shape`."""
    if a.shape != shape:
        raise ShapeError(f"{name} shape {a.shape} is not {shape}")


# ---------------------------------------------------------------------------
# strip pooling and global pooling
# ---------------------------------------------------------------------------

def strip_pool_h(x):
    """Directional average over W: (N,C,H,W) -> (N,C,H)."""
    _check(x.shape, "NCHW")
    return (x @ np.ones(x.shape[3], dtype=x.dtype)) / x.shape[3]


def strip_pool_w(x):
    """Directional average over H: (N,C,H,W) -> (N,C,W)."""
    _check(x.shape, "NCHW")
    return (np.ones(x.shape[2], dtype=x.dtype) @ x) / x.shape[2]


def strip_pool_backward(dz, orig_shape, pooled_axis):
    """Adjoint of strip pooling: broadcast dz/L along the pooled axis.

    pooled_axis is 3 for strip_pool_h (W was pooled) and 2 for strip_pool_w.
    Returns a read-only broadcast view of the small tensor dz/L; callers
    accumulate it (`dx += ...`) or copy it.
    """
    _check(orig_shape, "NCHW")
    if pooled_axis not in (2, 3):
        raise ShapeError(f"pooled_axis must be 2 or 3, got {pooled_axis}")
    _expect("dz", dz, orig_shape[:pooled_axis] + orig_shape[pooled_axis + 1:])
    return np.broadcast_to(np.expand_dims(dz / orig_shape[pooled_axis], pooled_axis), orig_shape)


def global_avg_pool(x):
    """Mean over H*W per channel: (N,C,H,W) -> (N,C,1)."""
    n, c, h, w = _check(x.shape, "NCHW")
    return ((x.reshape(n, c, h * w) @ np.ones(h * w, dtype=x.dtype)) / (h * w))[:, :, None]


def global_avg_pool_backward(dz, orig_shape):
    """Adjoint of global_avg_pool: a read-only broadcast view of dz/(H*W)."""
    n, c, h, w = _check(orig_shape, "NCHW")
    _expect("dz", dz, (n, c, 1))
    return np.broadcast_to((dz / (h * w))[:, :, :, None], orig_shape)


# ---------------------------------------------------------------------------
# grouped 1D convolution (same padding)
# ---------------------------------------------------------------------------

def _group_columns(a, groups, k):
    """Same-padded length-k windows of (N,C,L), one row per position and
    group: (N, G, L, C/G * k). A read-only strided view where the windows
    allow one (C/G == 1 or k == 1, say), else a copy."""
    n, c, length = a.shape
    pad, cpg = k // 2, c // groups
    # zero-fill and copy in: a third of np.pad's cost at these small sizes
    ap = np.zeros((n, c, length + 2 * pad), dtype=a.dtype)
    ap[:, :, pad:pad + length] = a
    # the (N, G, L, C/G, k) windows straight from the strides: a fixed cost
    # well below sliding_window_view's, which dominates at small sizes
    sn, sc, sl = ap.strides
    win = np.ndarray((n, groups, length, cpg, k), ap.dtype, ap, 0, (sn, sc * cpg, sl, sc, sl))
    win.flags.writeable = False
    return win.reshape(n, groups, length, cpg * k)


def _conv1d_groups(x, weight):
    """Check conv1d_grouped's operands and return their groups, C / weight.shape[-2]."""
    _, c, _ = _check(x.shape, "NCL")
    c_out, cpg, k = _check(weight.shape[-3:], "OIK")
    if k % 2 == 0:
        raise ShapeError(f"kernel size must be odd, got {k}")
    if c_out != c or c % cpg != 0:
        raise ShapeError(f"weight {weight.shape[-3:]} is not (C, C/groups, k) for C={c}")
    return c // cpg


def conv1d_grouped(x, weight):
    """Grouped same-padded 1D cross-correlation on (N,C,L), without bias.

    weight has shape (C, C/groups, k) with odd k, so it fixes
    groups = C / weight.shape[-2]; the output has x's shape.
    """
    groups = _conv1d_groups(x, weight)
    cpg, k = weight.shape[-2:]
    wmat = weight.reshape(weight.shape[:-3] + (groups, cpg, cpg * k))
    out = _group_columns(x, groups, k) @ wmat.swapaxes(-1, -2)  # (N, G, L, C/G)
    return out.transpose(0, 1, 3, 2).reshape(x.shape).astype(x.dtype, copy=False)


def conv1d_grouped_backward(dy, x, weight):
    """Adjoint of conv1d_grouped: returns (dx, dweight).

    dx correlates the same-padded dy windows with the flipped kernel.
    """
    groups = _conv1d_groups(x, weight)
    _expect("weight", weight, weight.shape[-3:])
    _expect("dy", dy, x.shape)
    n, c, length = x.shape
    cpg, k = weight.shape[-2:]
    dweight = (dy.reshape(n, groups, cpg, length) @ _group_columns(x, groups, k)).sum(axis=0)
    dweight = dweight.reshape(weight.shape).astype(weight.dtype, copy=False)
    wflip = weight[..., ::-1].reshape(groups, cpg, cpg, k).transpose(0, 1, 3, 2)
    dx = _group_columns(dy, groups, k) @ wflip.reshape(groups, cpg * k, cpg)  # (N, G, L, cpg)
    dx = dx.transpose(0, 1, 3, 2).reshape(x.shape).astype(x.dtype, copy=False)
    return dx, dweight


# ---------------------------------------------------------------------------
# pointwise (1x1) convolution: pure channel mixing at every position
# ---------------------------------------------------------------------------

def _conv1x1_shape(x, weight):
    """Check conv2d_1x1's operands; return its output shape (N, C_out, L)."""
    n, c, length = _check(x.shape, "NCL")
    if weight.ndim < 2 or weight.shape[-1] != c:
        raise ShapeError(f"weight {weight.shape} is not (C_out, {c})")
    return n, weight.shape[-2], length


def conv2d_1x1(x, weight, bias=None):
    """Per-position channel mixing on (N,C,L)."""
    _conv1x1_shape(x, weight)
    out = weight @ x
    if bias is not None:
        out += bias[..., None]
    return out


def conv2d_1x1_backward(dy, x, weight):
    """Adjoint of conv2d_1x1: returns (dx, dweight, dbias)."""
    _expect("dy", dy, _conv1x1_shape(x, weight))
    _expect("weight", weight, weight.shape[-2:])
    dx = weight.T @ dy
    dweight = np.tensordot(dy, x, axes=([0, 2], [0, 2]))
    return dx, dweight, dy.sum(axis=(0, 2))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

# batch norm's running-statistics momentum and variance epsilon
BN_MOMENTUM = 0.1
BN_EPS = 1e-5
GN_EPS = 1e-5  # group norm's variance epsilon


@dataclass
class NormState:
    """Running statistics and mode for batch normalization."""

    num_channels: int
    mode: str = "train"  # train | eval
    running_mean: np.ndarray = field(init=False)
    running_var: np.ndarray = field(init=False)
    initialized: bool = field(default=False, init=False)

    def __post_init__(self):
        self.running_mean = np.zeros(self.num_channels)
        self.running_var = np.ones(self.num_channels)


def _standardize(x, axes, eps):
    """(x - mean) / sqrt(var + eps) over `axes`: (xhat, mean, var, inv_std),
    statistics with keepdims. numpy's own variance steps, so bitwise its var,
    but the centered copy is formed once and then normalized in place. Each
    mean is ndarray.mean's sum and in-place divide without its Python layer."""
    mean = np.add.reduce(x, axes, keepdims=True)
    m = np.intp(x.size // mean.size)  # elements behind each statistic
    mean /= m
    xhat = x - mean
    var = np.add.reduce(xhat * xhat, axes, keepdims=True)
    var /= m
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    return xhat, mean, var, inv_std


def _standardize_backward(dy, xhat, gamma, inv_std, view, axes):
    """Adjoint of gamma * xhat + beta per channel of (N,C,L), xhat being x
    standardized over `axes` of its `view`: (dx, dgamma, dbeta), dx in place."""
    dgamma = (dy * xhat).sum(axis=(0, 2))
    dbeta = dy.sum(axis=(0, 2))
    dxhat = (dy * gamma[..., None]).reshape(view)
    xhat = xhat.reshape(view)
    m = dxhat.size // inv_std.size  # elements behind each statistic
    dx = m * dxhat
    dx -= dxhat.sum(axis=axes, keepdims=True)
    dx -= xhat * (dxhat * xhat).sum(axis=axes, keepdims=True)
    dx *= inv_std / m
    return dx.reshape(dy.shape), dgamma, dbeta


def batch_norm(x, state, gamma, beta):
    """Per-channel batch normalization on (N,C,L).

    Train mode normalizes with batch statistics over (N, L) and updates
    the running estimates; eval mode uses running statistics only, a fixed
    per-channel affine map of x. Returns (out, cache).
    """
    _check(x.shape, "NCL")
    if state.mode not in ("train", "eval"):
        raise ValueError(f"batch norm mode must be 'train' or 'eval', got {state.mode!r}")
    running = state.mode == "eval"  # eval normalizes with the running statistics
    if running:
        if not state.initialized:
            raise UninitializedNormError(
                "eval-mode batch norm called before running statistics exist"
            )
        inv_std = 1.0 / np.sqrt(state.running_var + BN_EPS)
        xhat = (x - state.running_mean[:, None]) * inv_std[:, None]
    else:
        if x.shape[0] * x.shape[2] < 2:
            raise ShapeError("train-mode batch norm needs N * L >= 2")
        xhat, mean, var, inv_std = _standardize(x, (0, 2), BN_EPS)
        m = BN_MOMENTUM
        state.running_mean = (1.0 - m) * state.running_mean + m * mean.reshape(-1)
        state.running_var = (1.0 - m) * state.running_var + m * var.reshape(-1)
        state.initialized = True
    out = gamma[..., None] * xhat + beta[..., None]
    return out, (xhat, inv_std, gamma, running)


def batch_norm_backward(dy, cache):
    """Adjoint of batch_norm in the mode its forward ran in: returns
    (dx, dgamma, dbeta). In eval mode the statistics are constants, so dx is
    dy * gamma / sqrt(running_var + eps) per channel."""
    xhat, inv_std, gamma, running = cache
    _expect("dy", dy, xhat.shape)
    _expect("gamma", gamma, xhat.shape[1:2])
    if running:
        dx = dy * (gamma * inv_std)[:, None]
        return dx, (dy * xhat).sum(axis=(0, 2)), dy.sum(axis=(0, 2))
    return _standardize_backward(dy, xhat, gamma, inv_std, dy.shape, (0, 2))


def group_norm(x, num_groups, gamma, beta):
    """Per-sample group normalization on (N,C,L); returns (out, cache)."""
    n, c, _ = _check(x.shape, "NCL")
    if c % num_groups != 0:
        raise ShapeError(f"num_groups={num_groups} does not divide C={c}")
    xhat, _, _, inv_std = _standardize(x.reshape(n, num_groups, -1), 2, GN_EPS)
    xhat = xhat.reshape(x.shape)
    affine = gamma[..., None] * xhat + beta[..., None]
    return affine, (xhat, inv_std, gamma, num_groups)


def group_norm_backward(dy, cache):
    """Adjoint of group_norm: returns (dx, dgamma, dbeta)."""
    xhat, inv_std, gamma, num_groups = cache
    _expect("dy", dy, xhat.shape)
    _expect("gamma", gamma, xhat.shape[1:2])
    return _standardize_backward(dy, xhat, gamma, inv_std, (dy.shape[0], num_groups, -1), 2)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def sigmoid(x):
    # exp(-x) overflows to inf below about -709, where 1 / (1 + inf) is the exact 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid_backward(dy, s):
    """dy through sigmoid given the forward output s."""
    _expect("dy", dy, s.shape)
    return dy * s * (1.0 - s)


def hard_swish(x):
    return x * (x + 3.0).clip(0.0, 6.0) / 6.0


def hard_swish_backward(dy, x):
    _expect("dy", dy, x.shape)
    grad = np.where(x <= -3.0, 0.0, np.where(x >= 3.0, 1.0, (2.0 * x + 3.0) / 6.0))
    return dy * grad


def relu(x):
    return np.maximum(x, 0.0)


def relu_backward(dy, x):
    _expect("dy", dy, x.shape)
    return dy * (x > 0.0)


# ---------------------------------------------------------------------------
# gating and spatial concatenation
# ---------------------------------------------------------------------------

def _gates(x, ah, aw):
    """Check broadcast_mul_hw's operands: x is (N,C,H,W), ah (N,C,H) and aw (N,C,W)."""
    n, c, h, w = _check(x.shape, "NCHW")
    _expect("ah", ah, (n, c, h))
    _expect("aw", aw, (n, c, w))


def broadcast_mul_hw(x, ah, aw):
    """Y[n,c,i,j] = x[n,c,i,j] * ah[n,c,i] * aw[n,c,j]."""
    _gates(x, ah, aw)
    y = x * ah[:, :, :, None]
    y *= aw[:, :, None, :]
    return y


def broadcast_mul_hw_backward(dy, x, ah, aw):
    """Adjoint of broadcast_mul_hw: returns (dx, dah, daw).

    dx is written into the buffer of dy*x once the gate gradients are read
    from it, which saves one full-size allocation per call.
    """
    _gates(x, ah, aw)
    _expect("dy", dy, x.shape)
    dyx = dy * x
    dah = (dyx @ aw[..., None])[..., 0]
    daw = (ah[..., None, :] @ dyx)[..., 0, :]
    dx = np.multiply(dy, ah[..., None], out=dyx)
    dx *= aw[..., None, :]
    return dx, dah, daw


def _channel_gate(x, gate):
    """Check broadcast_mul_c's operands: x is (N,C,H,W) and gate (N,C,1)."""
    n, c, _, _ = _check(x.shape, "NCHW")
    _expect("gate", gate, (n, c, 1))


def broadcast_mul_c(x, gate):
    """Y[n,c,i,j] = x[n,c,i,j] * gate[n,c,0]: SE's and ECA's per-channel gating."""
    _channel_gate(x, gate)
    return x * gate[:, :, :, None]


def broadcast_mul_c_backward(dy, x, gate):
    """Adjoint of broadcast_mul_c: returns (dx, dgate)."""
    _channel_gate(x, gate)
    _expect("dy", dy, x.shape)
    return dy * gate[:, :, :, None], (dy * x).sum(axis=(2, 3))[:, :, None]


# ---------------------------------------------------------------------------
# 2D kernels for the toy CNN (invented plumbing, same conventions)
# ---------------------------------------------------------------------------

def _conv2d_windows(x, weight):
    """Check conv2d_same's operands; return x's same-padded windows, (N,C,H,W,kh,kw)."""
    _check(x.shape, "NCHW")
    _, c_in, kh, kw = _check(weight.shape, "OIHW")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"kernel dims must be odd, got {kh}x{kw}")
    if c_in != x.shape[1]:
        raise ShapeError(f"weight expects {c_in} channels, got {x.shape[1]}")
    xp = np.pad(x, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    return sliding_window_view(xp, (kh, kw), axis=(2, 3))


def conv2d_same(x, weight, bias):
    """Same-padded 2D cross-correlation on (N,C,H,W) with an odd kernel."""
    win = _conv2d_windows(x, weight)
    out = np.einsum("nchwij,ocij->nohw", win, weight, optimize=True)
    out += bias[None, :, None, None]
    return out


def conv2d_same_backward(dy, x, weight, with_bias=False):
    """Adjoint of conv2d_same: (dx, dweight, dbias), dbias None unless with_bias."""
    win = _conv2d_windows(x, weight)
    n, c_in, h, w, kh, kw = win.shape
    _expect("dy", dy, (n, weight.shape[0], h, w))
    dweight = np.einsum("nohw,nchwij->ocij", dy, win, optimize=True)
    scatter = np.einsum("nohw,ocij->nchwij", dy, weight, optimize=True)
    dxp = np.zeros((n, c_in, h + kh - 1, w + kw - 1), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + h, j:j + w] += scatter[:, :, :, :, i, j]
    dx = dxp[:, :, kh // 2:kh // 2 + h, kw // 2:kw // 2 + w]
    dbias = dy.sum(axis=(0, 2, 3)) if with_bias else None
    return dx, dweight, dbias


def _pooled_2x2(shape):
    """Check an (N,C,H,W) shape for 2x2 pooling; return the pooled (N, C, H/2, W/2)."""
    n, c, h, w = _check(shape, "NCHW")
    if h % 2 or w % 2:
        raise ShapeError(f"H and W must be even for 2x2 pooling, got {h}x{w}")
    return n, c, h // 2, w // 2


def avg_pool_2x2(x):
    """Non-overlapping 2x2 average pooling; H and W must be even."""
    _pooled_2x2(x.shape)
    out = x[:, :, 0::2, 0::2] + x[:, :, 0::2, 1::2]
    out += x[:, :, 1::2, 0::2]
    out += x[:, :, 1::2, 1::2]
    out *= 0.25
    return out


def avg_pool_2x2_backward(dy, orig_shape):
    n, c, h2, w2 = pooled = _pooled_2x2(orig_shape)
    _expect("dy", dy, pooled)
    out = np.broadcast_to(dy[:, :, :, None, :, None], (n, c, h2, 2, w2, 2)) / 4.0
    return out.reshape(orig_shape)
