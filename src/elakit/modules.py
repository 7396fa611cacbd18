"""Attention blocks: ELA (four presets), SE, ECA, and CA (BN and GN flavors).

Every block maps (N,C,H,W) -> (N,C,H,W) with explicit forward and backward
passes composed from elakit.kernels. Parameters live in a ParamStore;
backward accumulates parameter gradients into the store and returns dx.

Bias policy: ELA 1D convs carry no bias (the following GN beta absorbs it);
CA's channel-reduction conv F1 carries no bias (a norm follows), while the
expansion convs F_h/F_w carry biases because they feed sigmoid directly.
"""

import math
from dataclasses import dataclass

import numpy as np

from elakit import kernels as K
from elakit.params import ParamStore


@dataclass
class AttentionMaps:
    """Directional sigmoid gates: ah is (N,C,H), aw is (N,C,W)."""

    ah: np.ndarray
    aw: np.ndarray


@dataclass
class ChannelGate:
    """Per-channel sigmoid gate (N,C) for channel-only attention."""

    gate: np.ndarray


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElaConfig:
    kernel_size: int = 7
    conv_groups_rule: str = "depthwise"  # depthwise | channels_over_8
    gn_num_groups: int = 16
    variant_name: str = "custom"

    def __post_init__(self):
        if self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd, got {self.kernel_size}")
        if self.conv_groups_rule not in ("depthwise", "channels_over_8"):
            raise ValueError(f"unknown conv_groups_rule {self.conv_groups_rule!r}")
        if self.gn_num_groups < 1:
            raise ValueError("gn_num_groups must be >= 1")

    def resolve_conv_groups(self, channels):
        if self.conv_groups_rule == "depthwise":
            return channels
        if channels % 8 != 0:
            raise ValueError(
                f"channels_over_8 grouping needs C divisible by 8, got C={channels}"
            )
        return max(1, channels // 8)

    def resolve_gn_groups(self, channels):
        # clamp to C so small channel counts stay usable (GN with one channel
        # per group is instance norm); the clamped value must still divide C
        groups = min(self.gn_num_groups, channels)
        if channels % groups != 0:
            raise ValueError(f"GN groups={groups} does not divide C={channels}")
        return groups


ELA_PRESETS = {
    "ela-t": ElaConfig(5, "depthwise", 32, "T"),
    "ela-b": ElaConfig(7, "depthwise", 16, "B"),
    "ela-s": ElaConfig(5, "channels_over_8", 16, "S"),
    "ela-l": ElaConfig(7, "channels_over_8", 16, "L"),
}


@dataclass(frozen=True)
class CaConfig:
    reduction_r: int = 32
    norm_flavor: str = "bn"  # bn | gn
    delta_activation: str = "hard_swish"  # hard_swish | relu

    def __post_init__(self):
        if self.reduction_r < 1:
            raise ValueError("reduction_r must be positive")
        if self.norm_flavor not in ("bn", "gn"):
            raise ValueError(f"unknown norm_flavor {self.norm_flavor!r}")
        if self.delta_activation not in ("hard_swish", "relu"):
            raise ValueError(f"unknown delta_activation {self.delta_activation!r}")

    def intermediate_channels(self, channels):
        return max(8, int(round(channels / self.reduction_r)))

    def resolve_gn_groups(self, channels):
        # groups for the GN flavor over the mip-channel bottleneck; gcd with
        # 16 keeps the count close to common GN settings while dividing mip
        return math.gcd(self.intermediate_channels(channels), 16)


@dataclass(frozen=True)
class SeConfig:
    reduction_r: int = 32

    def intermediate_channels(self, channels):
        return max(8, int(round(channels / self.reduction_r)))


@dataclass(frozen=True)
class EcaConfig:
    kernel_size: int = 3

    def __post_init__(self):
        if self.kernel_size % 2 == 0:
            raise ValueError("ECA kernel size must be odd")


GN_EPS = 1e-5


def _he_normal(rng, shape, fan_in):
    return rng.normal(0.0, math.sqrt(2.0 / fan_in), size=shape)


# ---------------------------------------------------------------------------
# ELA
# ---------------------------------------------------------------------------

class EfficientLocalAttention:
    """Strip pool -> grouped 1D conv -> GN -> sigmoid per direction, then
    gate the input with the outer product of both directional maps."""

    def __init__(self, channels, cfg=None, seed=0, params=None):
        self.cfg = cfg or ELA_PRESETS["ela-b"]
        self.channels = channels
        self.groups = self.cfg.resolve_conv_groups(channels)
        self.gn_groups = self.cfg.resolve_gn_groups(channels)
        self.params = params if params is not None else self.init_params(seed)
        self._cache = None

    def init_params(self, seed):
        rng = np.random.default_rng(seed)
        c, k = self.channels, self.cfg.kernel_size
        cpg = c // self.groups
        store = ParamStore()
        store.add("conv_h.weight", _he_normal(rng, (c, cpg, k), cpg * k))
        store.add("conv_w.weight", _he_normal(rng, (c, cpg, k), cpg * k))
        for d in ("h", "w"):
            store.add(f"gn_{d}.gamma", np.ones(c), role="norm")
            store.add(f"gn_{d}.beta", np.zeros(c), role="norm")
        return store

    def forward(self, x, keep_intermediates=False):
        p = self.params
        zh = K.strip_pool_h(x)
        zw = K.strip_pool_w(x)
        ch = K.conv1d_grouped(zh, p.value("conv_h.weight"), groups=self.groups)
        cw = K.conv1d_grouped(zw, p.value("conv_w.weight"), groups=self.groups)
        nh, cache_h = K.group_norm(
            ch, self.gn_groups, p.value("gn_h.gamma"), p.value("gn_h.beta"), GN_EPS
        )
        nw, cache_w = K.group_norm(
            cw, self.gn_groups, p.value("gn_w.gamma"), p.value("gn_w.beta"), GN_EPS
        )
        ah = K.sigmoid(nh)
        aw = K.sigmoid(nw)
        y = K.broadcast_mul_hw(x, ah, aw)
        if keep_intermediates:
            self._cache = (x, zh, zw, ch, cw, cache_h, cache_w, ah, aw)
        return y, AttentionMaps(ah, aw)

    def backward(self, dy):
        if self._cache is None:
            raise RuntimeError("backward requires forward(keep_intermediates=True)")
        x, zh, zw, ch, cw, cache_h, cache_w, ah, aw = self._cache
        p = self.params
        dx, dah, daw = K.broadcast_mul_hw_backward(dy, x, ah, aw)
        for d, a, da, z, cache, grp in (
            ("h", ah, dah, zh, cache_h, 3),
            ("w", aw, daw, zw, cache_w, 2),
        ):
            dn = K.sigmoid_backward(da, a)
            dc, dgamma, dbeta = K.group_norm_backward(dn, cache)
            p.accumulate_grad(f"gn_{d}.gamma", dgamma)
            p.accumulate_grad(f"gn_{d}.beta", dbeta)
            dz, dw, _ = K.conv1d_grouped_backward(
                dc, z, p.value(f"conv_{d}.weight"), groups=self.groups
            )
            p.accumulate_grad(f"conv_{d}.weight", dw)
            dx += K.strip_pool_backward(dz, x.shape, pooled_axis=grp)
        return dx


# ---------------------------------------------------------------------------
# Coordinate Attention
# ---------------------------------------------------------------------------

class CoordinateAttention:
    """Concat both strip-pooled maps, bottleneck channels by r, normalize
    (BN or GN), apply the delta activation, split, re-expand to C channels,
    and gate with both directional sigmoid maps."""

    def __init__(self, channels, cfg=None, seed=0, params=None):
        self.cfg = cfg or CaConfig()
        self.channels = channels
        self.mip = self.cfg.intermediate_channels(channels)
        self.params = params if params is not None else self.init_params(seed)
        if self.cfg.norm_flavor == "bn":
            self.norm_state = K.NormState(self.mip)
        else:
            self.norm_state = None
            self.gn_groups = self.cfg.resolve_gn_groups(channels)
        self._cache = None

    def init_params(self, seed):
        rng = np.random.default_rng(seed)
        c, mip = self.channels, self.mip
        store = ParamStore()
        store.add("f1.weight", _he_normal(rng, (mip, c), c))
        store.add("norm.gamma", np.ones(mip), role="norm")
        store.add("norm.beta", np.zeros(mip), role="norm")
        store.add("fh.weight", _he_normal(rng, (c, mip), mip))
        store.add("fh.bias", np.zeros(c), role="bias")
        store.add("fw.weight", _he_normal(rng, (c, mip), mip))
        store.add("fw.bias", np.zeros(c), role="bias")
        return store

    def _norm(self, u):
        p = self.params
        if self.cfg.norm_flavor == "bn":
            return K.batch_norm(u, self.norm_state, p.value("norm.gamma"), p.value("norm.beta"))
        return K.group_norm(
            u, self.gn_groups, p.value("norm.gamma"), p.value("norm.beta"), GN_EPS
        )

    def forward(self, x, keep_intermediates=False):
        p = self.params
        h = x.shape[2]
        zh = K.strip_pool_h(x)
        zw = K.strip_pool_w(x)
        f_in = K.concat_spatial(zh, zw)
        u = K.conv2d_1x1(f_in, p.value("f1.weight"))
        nu, norm_cache = self._norm(u)
        if self.cfg.delta_activation == "hard_swish":
            v = K.hard_swish(nu)
        else:
            v = K.relu(nu)
        fh, fw = K.split_spatial(v, h)
        gh = K.sigmoid(K.conv2d_1x1(fh, p.value("fh.weight"), p.value("fh.bias")))
        gw = K.sigmoid(K.conv2d_1x1(fw, p.value("fw.weight"), p.value("fw.bias")))
        y = K.broadcast_mul_hw(x, gh, gw)
        if keep_intermediates:
            self._cache = (x, f_in, u, nu, norm_cache, fh, fw, gh, gw)
        return y, AttentionMaps(gh, gw)

    def backward(self, dy):
        if self._cache is None:
            raise RuntimeError("backward requires forward(keep_intermediates=True)")
        x, f_in, u, nu, norm_cache, fh, fw, gh, gw = self._cache
        p = self.params
        h = x.shape[2]
        dx, dgh, dgw = K.broadcast_mul_hw_backward(dy, x, gh, gw)
        dfh, dwh, dbh = K.conv2d_1x1_backward(
            K.sigmoid_backward(dgh, gh), fh, p.value("fh.weight"), with_bias=True
        )
        dfw, dww, dbw = K.conv2d_1x1_backward(
            K.sigmoid_backward(dgw, gw), fw, p.value("fw.weight"), with_bias=True
        )
        p.accumulate_grad("fh.weight", dwh)
        p.accumulate_grad("fh.bias", dbh)
        p.accumulate_grad("fw.weight", dww)
        p.accumulate_grad("fw.bias", dbw)
        dv = np.concatenate([dfh, dfw], axis=2)
        if self.cfg.delta_activation == "hard_swish":
            dnu = K.hard_swish_backward(dv, nu)
        else:
            dnu = K.relu_backward(dv, nu)
        if self.cfg.norm_flavor == "bn":
            du, dgamma, dbeta = K.batch_norm_backward(dnu, norm_cache)
        else:
            du, dgamma, dbeta = K.group_norm_backward(dnu, norm_cache)
        p.accumulate_grad("norm.gamma", dgamma)
        p.accumulate_grad("norm.beta", dbeta)
        df_in, dw1, _ = K.conv2d_1x1_backward(du, f_in, p.value("f1.weight"))
        p.accumulate_grad("f1.weight", dw1)
        dzh, dzw = df_in[:, :, :h], df_in[:, :, h:]
        dx += K.strip_pool_backward(dzh, x.shape, pooled_axis=3)
        dx += K.strip_pool_backward(dzw, x.shape, pooled_axis=2)
        return dx


# ---------------------------------------------------------------------------
# SE and ECA (channel-only baselines)
# ---------------------------------------------------------------------------

class SqueezeExcitation:
    """Global pool -> C->mip -> relu -> mip->C -> sigmoid channel gate."""

    def __init__(self, channels, cfg=None, seed=0, params=None):
        self.cfg = cfg or SeConfig()
        self.channels = channels
        self.mip = self.cfg.intermediate_channels(channels)
        self.params = params if params is not None else self.init_params(seed)
        self._cache = None

    def init_params(self, seed):
        rng = np.random.default_rng(seed)
        c, mip = self.channels, self.mip
        store = ParamStore()
        store.add("fc1.weight", _he_normal(rng, (mip, c), c))
        store.add("fc2.weight", _he_normal(rng, (c, mip), mip))
        return store

    def forward(self, x, keep_intermediates=False):
        p = self.params
        pooled = K.global_avg_pool(x)  # (N,C,1)
        u = K.conv2d_1x1(pooled, p.value("fc1.weight"))
        a = K.relu(u)
        v = K.conv2d_1x1(a, p.value("fc2.weight"))
        gate = K.sigmoid(v)  # (N,C,1)
        y = x * gate[:, :, :, None]
        if keep_intermediates:
            self._cache = (x, pooled, u, a, gate)
        return y, ChannelGate(gate[:, :, 0])

    def backward(self, dy):
        if self._cache is None:
            raise RuntimeError("backward requires forward(keep_intermediates=True)")
        x, pooled, u, a, gate = self._cache
        p = self.params
        dx = dy * gate[:, :, :, None]
        dgate = (dy * x).sum(axis=(2, 3))[:, :, None]
        dv = K.sigmoid_backward(dgate, gate)
        da, dw2, _ = K.conv2d_1x1_backward(dv, a, p.value("fc2.weight"))
        du = K.relu_backward(da, u)
        dpooled, dw1, _ = K.conv2d_1x1_backward(du, pooled, p.value("fc1.weight"))
        p.accumulate_grad("fc1.weight", dw1)
        p.accumulate_grad("fc2.weight", dw2)
        dx += K.global_avg_pool_backward(dpooled, x.shape)
        return dx


class EfficientChannelAttention:
    """Global pool -> 1D conv of size k across the channel axis -> sigmoid."""

    def __init__(self, channels, cfg=None, seed=0, params=None):
        self.cfg = cfg or EcaConfig()
        self.channels = channels
        self.params = params if params is not None else self.init_params(seed)
        self._cache = None

    def init_params(self, seed):
        rng = np.random.default_rng(seed)
        k = self.cfg.kernel_size
        store = ParamStore()
        store.add("conv.weight", _he_normal(rng, (1, 1, k), k))
        return store

    def forward(self, x, keep_intermediates=False):
        p = self.params
        pooled = K.global_avg_pool(x)  # (N,C,1)
        seq = pooled.transpose(0, 2, 1)  # (N,1,C): channels as the sequence
        v = K.conv1d_grouped(seq, p.value("conv.weight"), groups=1)
        gate = K.sigmoid(v.transpose(0, 2, 1))  # (N,C,1)
        y = x * gate[:, :, :, None]
        if keep_intermediates:
            self._cache = (x, seq, gate)
        return y, ChannelGate(gate[:, :, 0])

    def backward(self, dy):
        if self._cache is None:
            raise RuntimeError("backward requires forward(keep_intermediates=True)")
        x, seq, gate = self._cache
        p = self.params
        dx = dy * gate[:, :, :, None]
        dgate = (dy * x).sum(axis=(2, 3))[:, :, None]
        dv = K.sigmoid_backward(dgate, gate).transpose(0, 2, 1)
        dseq, dw, _ = K.conv1d_grouped_backward(dv, seq, p.value("conv.weight"), groups=1)
        p.accumulate_grad("conv.weight", dw)
        dpooled = dseq.transpose(0, 2, 1)
        dx += K.global_avg_pool_backward(dpooled, x.shape)
        return dx


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------

MODULE_CHOICES = ("se", "eca", "ca", "ca-gn", "ela-t", "ela-b", "ela-s", "ela-l")


def build_attention(kind, channels, seed=0):
    """Construct an attention block by CLI name; see MODULE_CHOICES."""
    kind = kind.lower()
    if kind in ELA_PRESETS:
        return EfficientLocalAttention(channels, ELA_PRESETS[kind], seed=seed)
    if kind == "se":
        return SqueezeExcitation(channels, seed=seed)
    if kind == "eca":
        return EfficientChannelAttention(channels, seed=seed)
    if kind == "ca":
        return CoordinateAttention(channels, CaConfig(norm_flavor="bn"), seed=seed)
    if kind == "ca-gn":
        return CoordinateAttention(channels, CaConfig(norm_flavor="gn"), seed=seed)
    raise ValueError(f"unknown attention module {kind!r}; choose from {MODULE_CHOICES}")
