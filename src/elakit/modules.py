"""Attention blocks: ELA (four presets), SE, ECA, and CA (BN and GN flavors).

Every block maps (N,C,H,W) -> (N,C,H,W) with explicit forward and backward
passes composed from elakit.kernels. Parameters live in a ParamStore;
backward accumulates parameter gradients into the store and returns dx.

REGISTRY names every block kind once. Each config carries its block's
closed-form parameter and MAC counts; they follow the formula sheet in
elakit.accounting, whose enumeration oracle checks them.

Non-finite input passes through unchecked: a NaN reaches the output and dx
of its own sample, and of the others only where train-mode BN couples the
samples (`couples_samples`). An infinite element also makes numpy emit its
invalid-value RuntimeWarning. Training stops on a non-finite loss.

Bias policy: ELA 1D convs carry no bias (the following GN beta absorbs it);
CA's channel-reduction conv F1 carries no bias (a norm follows), while the
expansion convs F_h/F_w carry biases because they feed sigmoid directly.
"""

import math
from dataclasses import dataclass

import numpy as np

from elakit import kernels as K
from elakit.params import ParamStore

# per-element costs of the activations on the accounting formula sheet
SIGMOID_COST = 3
HARD_SWISH_COST = 2
RELU_COST = 1

REDUCTION_R = 32  # CA's and SE's channel reduction C -> C / r, floored at 8
ECA_KERNEL_SIZE = 3  # taps of ECA's conv across the channel axis


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
# configs and their closed-form counts
# ---------------------------------------------------------------------------

def _directional_macs(c, h, w):
    """Strip pools, two sigmoid gates and the gating product of ELA and CA."""
    return 2 * c * h * w + c * (h + w) + SIGMOID_COST * c * (h + w) + 2 * c * h * w


def _channel_macs(c, h, w):
    """Global pool, one sigmoid gate and the channel product of SE and ECA."""
    return (c * h * w + c) + SIGMOID_COST * c + c * h * w


@dataclass(frozen=True)
class ElaConfig:
    kernel_size: int = 7
    conv_groups_rule: str = "depthwise"  # depthwise | channels_over_8
    gn_num_groups: int = 16

    def __post_init__(self):
        if self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd, got {self.kernel_size}")
        if self.conv_groups_rule not in ("depthwise", "channels_over_8"):
            raise ValueError(f"unknown conv_groups_rule {self.conv_groups_rule!r}")
        if self.gn_num_groups < 1:
            raise ValueError("gn_num_groups must be >= 1")

    def sizes(self, c):
        """(conv groups, GN groups) of a block at C channels; raises for a C
        that does not fit. GN groups clamp to C so small channel counts stay
        usable (one channel per group is instance norm), but must divide C."""
        if self.conv_groups_rule == "depthwise":
            groups = c
        elif c % 8 == 0:
            groups = c // 8
        else:
            raise ValueError(f"channels_over_8 grouping needs C divisible by 8, got C={c}")
        gn_groups = min(self.gn_num_groups, c)
        if c % gn_groups != 0:
            raise ValueError(f"GN groups={gn_groups} does not divide C={c}")
        return groups, gn_groups

    def param_count(self, c):
        groups, _ = self.sizes(c)
        return 2 * c * (c // groups) * self.kernel_size + 4 * c

    def flop_count(self, c, h, w):
        groups, _ = self.sizes(c)
        convs = c * (c // groups) * self.kernel_size * (h + w)
        return _directional_macs(c, h, w) + convs + 4 * c * (h + w)


def intermediate_channels(c):
    """Width of the C -> mip channel bottleneck that CA and SE share."""
    return max(8, int(round(c / REDUCTION_R)))


@dataclass(frozen=True)
class CaConfig:
    norm_flavor: str = "bn"  # bn | gn

    def __post_init__(self):
        if self.norm_flavor not in ("bn", "gn"):
            raise ValueError(f"unknown norm_flavor {self.norm_flavor!r}")

    def param_count(self, c):
        mip = intermediate_channels(c)
        # F1 (mip x C) + norm affine (2 mip) + F_h/F_w (C x mip + C bias each)
        return mip * c + 2 * mip + 2 * (c * mip + c)

    def flop_count(self, c, h, w):
        mip = intermediate_channels(c)
        # per strip position: F1, norm, hard swish, then F_h or F_w with bias
        per_position = mip * c + 4 * mip + HARD_SWISH_COST * mip + (c * mip + c)
        return _directional_macs(c, h, w) + per_position * (h + w)


@dataclass(frozen=True)
class SeConfig:
    def param_count(self, c):
        return 2 * c * intermediate_channels(c)

    def flop_count(self, c, h, w):
        mip = intermediate_channels(c)
        return _channel_macs(c, h, w) + mip * c + RELU_COST * mip + c * mip


@dataclass(frozen=True)
class EcaConfig:
    def param_count(self, c):
        return ECA_KERNEL_SIZE

    def flop_count(self, c, h, w):
        return _channel_macs(c, h, w) + ECA_KERNEL_SIZE * c


def he_normal(rng, shape, fan_in):
    """He-normal initialization: N(0, 2 / fan_in) draws of `shape` from rng."""
    return rng.normal(0.0, math.sqrt(2.0 / fan_in), size=shape)


# ---------------------------------------------------------------------------
# shared construction, heads and tails
# ---------------------------------------------------------------------------

class _Block:
    """Construction and the cache check of every block; its gate kernel checks
    dy's shape. A block is built from a registered config (see REGISTRY and
    build_attention); its `_init(rng)` derives its sizes from `cfg` and
    `channels` and adds its parameters to `params`, and it implements
    `_backward(dy, *self._cache)`."""

    def __init__(self, channels, cfg, seed=0):
        self.cfg = cfg
        self.channels = channels
        self.params = ParamStore()
        self._init(np.random.default_rng(seed))
        self._cache = None

    @property
    def couples_samples(self):
        """Whether one sample's output depends on other samples of the batch."""
        return False

    def backward(self, dy):
        if self._cache is None:
            raise RuntimeError("backward requires forward(keep_intermediates=True)")
        return self._backward(dy, *self._cache)


class _DirectionalBlock(_Block):
    """Strip-pool head and two-way sigmoid gate tail of ELA and CA.
    `_logits(zh, zw)` returns (lh, lw, intermediates) from the pooled strips;
    `_logits_backward(dlh, dlw, *intermediates)` returns (dzh, dzw)."""

    def forward(self, x, keep_intermediates=False):
        zh = K.strip_pool_h(x)
        zw = K.strip_pool_w(x)
        lh, lw, inner = self._logits(zh, zw)
        ah = K.sigmoid(lh)
        aw = K.sigmoid(lw)
        y = K.broadcast_mul_hw(x, ah, aw)
        self._cache = (x, *inner, ah, aw) if keep_intermediates else None
        return y, AttentionMaps(ah, aw)

    def _backward(self, dy, x, *rest):
        *inner, ah, aw = rest
        dx, dah, daw = K.broadcast_mul_hw_backward(dy, x, ah, aw)
        dzh, dzw = self._logits_backward(
            K.sigmoid_backward(dah, ah), K.sigmoid_backward(daw, aw), *inner
        )
        dx += K.strip_pool_backward(dzh, x.shape, pooled_axis=3)
        dx += K.strip_pool_backward(dzw, x.shape, pooled_axis=2)
        return dx


class _ChannelBlock(_Block):
    """Global-pool head and per-channel sigmoid gate tail of SE and ECA.
    `_logits(pooled)` returns (logits, intermediates) from the (N,C,1) pool;
    `_logits_backward(dlogits, *intermediates)` returns dpooled."""

    def forward(self, x, keep_intermediates=False):
        pooled = K.global_avg_pool(x)  # (N,C,1)
        logits, inner = self._logits(pooled)
        gate = K.sigmoid(logits)  # (N,C,1)
        y = K.broadcast_mul_c(x, gate)
        self._cache = (x, *inner, gate) if keep_intermediates else None
        return y, ChannelGate(gate[:, :, 0])

    def _backward(self, dy, x, *rest):
        *inner, gate = rest
        dx, dgate = K.broadcast_mul_c_backward(dy, x, gate)
        dpooled = self._logits_backward(K.sigmoid_backward(dgate, gate), *inner)
        dx += K.global_avg_pool_backward(dpooled, x.shape)
        return dx


# ---------------------------------------------------------------------------
# ELA
# ---------------------------------------------------------------------------

class EfficientLocalAttention(_DirectionalBlock):
    """Strip pool -> grouped 1D conv -> GN -> sigmoid per direction, then
    gate the input with the outer product of both directional maps."""

    def _init(self, rng):
        c, k, p = self.channels, self.cfg.kernel_size, self.params
        groups, self.gn_groups = self.cfg.sizes(c)
        cpg = c // groups
        p.add("conv_h.weight", he_normal(rng, (c, cpg, k), cpg * k))
        p.add("conv_w.weight", he_normal(rng, (c, cpg, k), cpg * k))
        for d in ("h", "w"):
            p.add(f"gn_{d}.gamma", np.ones(c), role="norm")
            p.add(f"gn_{d}.beta", np.zeros(c), role="norm")

    def _logits(self, zh, zw):
        p = self.params
        ch = K.conv1d_grouped(zh, p.value("conv_h.weight"))
        cw = K.conv1d_grouped(zw, p.value("conv_w.weight"))
        nh, cache_h = K.group_norm(ch, self.gn_groups, p.value("gn_h.gamma"), p.value("gn_h.beta"))
        nw, cache_w = K.group_norm(cw, self.gn_groups, p.value("gn_w.gamma"), p.value("gn_w.beta"))
        return nh, nw, (zh, zw, cache_h, cache_w)

    def _logits_backward(self, dnh, dnw, zh, zw, cache_h, cache_w):
        p, dz = self.params, []
        for d, dn, z, cache in (("h", dnh, zh, cache_h), ("w", dnw, zw, cache_w)):
            dc, dgamma, dbeta = K.group_norm_backward(dn, cache)
            p.accumulate_grad(f"gn_{d}.gamma", dgamma)
            p.accumulate_grad(f"gn_{d}.beta", dbeta)
            dzd, dw = K.conv1d_grouped_backward(dc, z, p.value(f"conv_{d}.weight"))
            p.accumulate_grad(f"conv_{d}.weight", dw)
            dz.append(dzd)
        return dz


# ---------------------------------------------------------------------------
# Coordinate Attention
# ---------------------------------------------------------------------------

class CoordinateAttention(_DirectionalBlock):
    """Concat both strip-pooled maps, bottleneck channels by r, normalize
    (BN or GN), apply hard swish, split, re-expand to C channels, and gate
    with both directional sigmoid maps."""

    def _init(self, rng):
        c, p = self.channels, self.params
        self.mip = mip = intermediate_channels(c)
        if self.cfg.norm_flavor == "bn":
            self.norm_state = K.NormState(mip)
        else:
            self.norm_state = None
            # groups for the GN flavor over the mip-channel bottleneck; gcd with
            # 16 keeps the count close to common GN settings while dividing mip
            self.gn_groups = math.gcd(mip, 16)
        p.add("f1.weight", he_normal(rng, (mip, c), c))
        p.add("norm.gamma", np.ones(mip), role="norm")
        p.add("norm.beta", np.zeros(mip), role="norm")
        p.add("fh.weight", he_normal(rng, (c, mip), mip))
        p.add("fh.bias", np.zeros(c), role="bias")
        p.add("fw.weight", he_normal(rng, (c, mip), mip))
        p.add("fw.bias", np.zeros(c), role="bias")

    @property
    def couples_samples(self):
        # train-mode BN normalizes with the statistics of the whole batch
        return self.norm_state is not None and self.norm_state.mode == "train"

    def _norm(self, u):
        p = self.params
        if self.cfg.norm_flavor == "bn":
            return K.batch_norm(u, self.norm_state, p.value("norm.gamma"), p.value("norm.beta"))
        return K.group_norm(u, self.gn_groups, p.value("norm.gamma"), p.value("norm.beta"))

    def _logits(self, zh, zw):
        p = self.params
        f_in = np.concatenate((zh, zw), axis=2)
        u = K.conv2d_1x1(f_in, p.value("f1.weight"))
        nu, norm_cache = self._norm(u)
        v = K.hard_swish(nu)
        h = zh.shape[2]
        fh, fw = v[:, :, :h], v[:, :, h:]
        lh = K.conv2d_1x1(fh, p.value("fh.weight"), p.value("fh.bias"))
        lw = K.conv2d_1x1(fw, p.value("fw.weight"), p.value("fw.bias"))
        return lh, lw, (f_in, nu, norm_cache, fh, fw)

    def _logits_backward(self, dlh, dlw, f_in, nu, norm_cache, fh, fw):
        p = self.params
        dv = []
        for d, dl, f in (("h", dlh, fh), ("w", dlw, fw)):
            df, dw, db = K.conv2d_1x1_backward(dl, f, p.value(f"f{d}.weight"))
            p.accumulate_grad(f"f{d}.weight", dw)
            p.accumulate_grad(f"f{d}.bias", db)
            dv.append(df)
        dv = np.concatenate(dv, axis=2)
        dnu = K.hard_swish_backward(dv, nu)
        if self.cfg.norm_flavor == "bn":
            du, dgamma, dbeta = K.batch_norm_backward(dnu, norm_cache)
        else:
            du, dgamma, dbeta = K.group_norm_backward(dnu, norm_cache)
        p.accumulate_grad("norm.gamma", dgamma)
        p.accumulate_grad("norm.beta", dbeta)
        df_in, dw1, _ = K.conv2d_1x1_backward(du, f_in, p.value("f1.weight"))
        p.accumulate_grad("f1.weight", dw1)
        h = fh.shape[2]
        return df_in[:, :, :h], df_in[:, :, h:]


# ---------------------------------------------------------------------------
# SE and ECA (channel-only baselines)
# ---------------------------------------------------------------------------

class SqueezeExcitation(_ChannelBlock):
    """Global pool -> C->mip -> relu -> mip->C -> sigmoid channel gate."""

    def _init(self, rng):
        c = self.channels
        self.mip = mip = intermediate_channels(c)
        self.params.add("fc1.weight", he_normal(rng, (mip, c), c))
        self.params.add("fc2.weight", he_normal(rng, (c, mip), mip))

    def _logits(self, pooled):
        p = self.params
        u = K.conv2d_1x1(pooled, p.value("fc1.weight"))
        a = K.relu(u)
        return K.conv2d_1x1(a, p.value("fc2.weight")), (pooled, u, a)

    def _logits_backward(self, dv, pooled, u, a):
        p = self.params
        da, dw2, _ = K.conv2d_1x1_backward(dv, a, p.value("fc2.weight"))
        du = K.relu_backward(da, u)
        dpooled, dw1, _ = K.conv2d_1x1_backward(du, pooled, p.value("fc1.weight"))
        p.accumulate_grad("fc1.weight", dw1)
        p.accumulate_grad("fc2.weight", dw2)
        return dpooled


class EfficientChannelAttention(_ChannelBlock):
    """Global pool -> 1D conv of size k across the channel axis -> sigmoid."""

    def _init(self, rng):
        k = ECA_KERNEL_SIZE
        self.params.add("conv.weight", he_normal(rng, (1, 1, k), k))

    def _logits(self, pooled):
        seq = pooled.transpose(0, 2, 1)  # (N,1,C): channels as the sequence
        v = K.conv1d_grouped(seq, self.params.value("conv.weight"))
        return v.transpose(0, 2, 1), (seq,)

    def _logits_backward(self, dv, seq):
        dseq, dw = K.conv1d_grouped_backward(
            dv.transpose(0, 2, 1), seq, self.params.value("conv.weight")
        )
        self.params.accumulate_grad("conv.weight", dw)
        return dseq.transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# name -> (block class, config); gradcheck workloads seed blocks by position,
# so the order is part of the contract
REGISTRY = {
    "se": (SqueezeExcitation, SeConfig()),
    "eca": (EfficientChannelAttention, EcaConfig()),
    "ca": (CoordinateAttention, CaConfig(norm_flavor="bn")),
    "ca-gn": (CoordinateAttention, CaConfig(norm_flavor="gn")),
    "ela-t": (EfficientLocalAttention, ElaConfig(5, "depthwise", 32)),
    "ela-b": (EfficientLocalAttention, ElaConfig(7, "depthwise", 16)),
    "ela-s": (EfficientLocalAttention, ElaConfig(5, "channels_over_8", 16)),
    "ela-l": (EfficientLocalAttention, ElaConfig(7, "channels_over_8", 16)),
}
MODULE_CHOICES = tuple(REGISTRY)


def lookup(kind):
    """(block class, config) registered under `kind`, ignoring case."""
    entry = REGISTRY.get(kind.lower()) if isinstance(kind, str) else None
    if entry is None:
        raise ValueError(f"unknown attention module {kind!r}; choose from {tuple(REGISTRY)}")
    return entry


def build_attention(kind, channels, seed=0):
    """Construct an attention block by registered name; see REGISTRY."""
    cls, cfg = lookup(kind)
    return cls(channels, cfg, seed=seed)
