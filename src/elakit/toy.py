"""Synthetic location-classification task, a mini CNN with pluggable
attention, an SGD-with-momentum trainer, and Grad-CAM heatmap generation.

The task is quadrant classification of a planted Gaussian blob, so the label
is a pure function of spatial position: spatial gating has a structural
advantage there, which makes localization claims checkable at desk scale.
"""

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from elakit import kernels as K
from elakit.modules import build_attention
from elakit.params import ParamStore, atomic_write_bytes


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""


# ---------------------------------------------------------------------------
# dataset
# ---------------------------------------------------------------------------

NUM_CLASSES = 4  # the quadrant labels below


@dataclass
class ToyBatch:
    images: np.ndarray  # (n, 1, S, S) in [0, 1]
    labels: np.ndarray  # (n,) quadrant index: 0 TL, 1 TR, 2 BL, 3 BR
    centers: np.ndarray  # (n, 2) blob centers as (row, col)


def quadrant_of(row, col, size):
    half = size / 2.0
    return (2 if row >= half else 0) + (1 if col >= half else 0)


def make_toy_batch(n, seed, size=32, noise_std=0.02, blob_sigma=2.0):
    """Noise background plus one Gaussian blob centered uniformly inside a
    uniformly chosen quadrant; the label is that quadrant."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    half = size // 2
    labels = rng.integers(0, NUM_CLASSES, size=n)
    rows = rng.uniform(0, half, size=n) + half * (labels // 2)
    cols = rng.uniform(0, half, size=n) + half * (labels % 2)
    yy, xx = np.mgrid[0:size, 0:size]
    blobs = np.exp(
        -((yy[None] - rows[:, None, None]) ** 2 + (xx[None] - cols[:, None, None]) ** 2)
        / (2.0 * blob_sigma**2)
    )
    noise = rng.normal(0.0, noise_std, size=(n, size, size))
    images = np.clip(noise + blobs, 0.0, 1.0)[:, None, :, :]
    return ToyBatch(images, labels, np.stack([rows, cols], axis=1))


# ---------------------------------------------------------------------------
# mini CNN
# ---------------------------------------------------------------------------

@dataclass
class MiniCnnConfig:
    stage_channels: tuple = (16, 32, 64)
    attention: str | None = None  # a build_attention kind, or None
    input_shape: tuple = (1, 32, 32)

    def __post_init__(self):
        dims = (*self.stage_channels, *self.input_shape)
        if not (
            all(isinstance(d, (int, np.integer)) and d > 0 for d in dims)
            and len(self.input_shape) == 3
            and self.input_shape[1] == self.input_shape[2]  # the head is sized from H
            and self.input_shape[1] >= 2 ** len(self.stage_channels)
        ):
            raise ValueError(
                f"stage_channels {self.stage_channels!r} and input_shape (C, H, W) "
                f"{self.input_shape!r} need positive ints, H == W and H >= 2**stages"
            )


class MiniCnn:
    """conv3x3 -> attention -> relu -> avgpool stages, then a linear head
    over the flattened final map. Explicit forward/backward; no tape.

    `params` holds all model state: each attention block's store is adopted
    as `stage{i}.attn.<name>`, its entries shared rather than copied."""

    def __init__(self, cfg=None, seed=0):
        self.cfg = cfg or MiniCnnConfig()
        rng = np.random.default_rng(seed)
        self.params = ParamStore()
        self.attn = []
        c_prev = self.cfg.input_shape[0]
        for i, c in enumerate(self.cfg.stage_channels):
            # one conv per stage; `block0` keeps the names of older model files
            self.params.add(
                f"stage{i}.block0.conv.weight",
                rng.normal(0.0, np.sqrt(2.0 / (c_prev * 9)), size=(c, c_prev, 3, 3)),
            )
            self.params.add(f"stage{i}.block0.conv.bias", np.zeros(c), role="bias")
            c_prev = c
            attn = None
            if self.cfg.attention:
                attn = build_attention(self.cfg.attention, c, seed=int(rng.integers(0, 2**31)))
                self.params.adopt(f"stage{i}.attn.", attn.params)
            self.attn.append(attn)
        # linear head over the flattened final map: a globally pooled head
        # would be translation-invariant and could not read out location
        side = self.cfg.input_shape[1] // 2 ** len(self.cfg.stage_channels)
        feat_dim = c_prev * side * side
        self.params.add(
            "head.weight",
            rng.normal(0.0, np.sqrt(2.0 / feat_dim), size=(NUM_CLASSES, feat_dim)),
        )
        self.params.add("head.bias", np.zeros(NUM_CLASSES), role="bias")
        self.params.meta = {
            "kind": "mini_cnn",
            "stage_channels": list(self.cfg.stage_channels),
            "attention": self.cfg.attention,
            "input_shape": list(self.cfg.input_shape),
        }
        self._cache = None
        self.stage_activations = None  # post-attention, pre-relu, per stage
        self.stage_activation_grads = None

    def zero_grads(self):
        self.params.zero_grads()

    def forward(self, x, keep_intermediates=False):
        cache = []
        self.stage_activations = []
        h = x
        for i in range(len(self.cfg.stage_channels)):
            conv = f"stage{i}.block0.conv."
            x_in = h
            w, b = self.params.value(conv + "weight"), self.params.value(conv + "bias")
            h = K.conv2d_same(h, w, b)
            if self.attn[i] is not None:
                h, _ = self.attn[i].forward(h, keep_intermediates=keep_intermediates)
            self.stage_activations.append(h)
            pre_relu = h
            h = K.relu(h)
            pooled_from = h.shape
            h = K.avg_pool_2x2(h)
            cache.append((x_in, pre_relu, pooled_from))
        feat = h.reshape(h.shape[0], -1)
        logits = feat @ self.params.value("head.weight").T + self.params.value("head.bias")
        if keep_intermediates:
            self._cache = (cache, h.shape, feat)
        return logits

    def backward(self, dlogits):
        if self._cache is None:
            raise RuntimeError("backward requires forward(keep_intermediates=True)")
        cache, last_shape, feat = self._cache
        self.stage_activation_grads = [None] * len(cache)
        w_head = self.params.value("head.weight")
        self.params.accumulate_grad("head.weight", dlogits.T @ feat)
        self.params.accumulate_grad("head.bias", dlogits.sum(axis=0))
        dfeat = dlogits @ w_head
        dh = dfeat.reshape(last_shape)
        for i in reversed(range(len(cache))):
            x_in, pre_relu, pooled_from = cache[i]
            dh = K.avg_pool_2x2_backward(dh, pooled_from)
            dh = K.relu_backward(dh, pre_relu)
            self.stage_activation_grads[i] = dh
            if self.attn[i] is not None:
                dh = self.attn[i].backward(dh)
            conv = f"stage{i}.block0.conv."
            dh, dw, db = K.conv2d_same_backward(
                dh, x_in, self.params.value(conv + "weight"), with_bias=True
            )
            self.params.accumulate_grad(conv + "weight", dw)
            self.params.accumulate_grad(conv + "bias", db)
        return dh

    def save(self, path):
        self.params.save(path)

    @classmethod
    def load(cls, path):
        store = ParamStore.load(path)
        meta = store.meta
        try:
            cfg = MiniCnnConfig(
                stage_channels=tuple(meta["stage_channels"]),
                attention=meta["attention"],
                input_shape=tuple(meta["input_shape"]),
            )
            model = cls(cfg, seed=0)
            for name in model.params.names():
                model.params.set_value(name, store.value(name))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: not a MiniCnn model file: {exc}") from None
        return model


def cross_entropy(logits, labels):
    """Stable mean cross-entropy; returns (loss, dlogits, accuracy)."""
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    loss = -logp[np.arange(n), labels].mean()
    probs = np.exp(logp)
    dlogits = probs
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    accuracy = float((logits.argmax(axis=1) == labels).mean())
    return float(loss), dlogits, accuracy


# ---------------------------------------------------------------------------
# trainer
# ---------------------------------------------------------------------------

@dataclass
class TrainState:
    lr: float = 0.05
    momentum: float = 0.9
    step: int = 0
    history: list = field(default_factory=list)  # (step, loss, accuracy)
    velocity: dict = field(default_factory=dict)


def sgd_step(model, state):
    """One SGD-with-momentum update from the accumulated gradients."""
    for name, entry in model.params.items():
        v = state.velocity.get(name)
        if v is None:
            v = np.zeros_like(entry.grad)
        v = state.momentum * v + entry.grad
        state.velocity[name] = v
        entry.value[...] -= state.lr * v
    state.step += 1


def train_toy(
    attention,
    steps,
    seed,
    batch_size=32,
    lr=0.05,
    momentum=0.9,
    train_size=512,
):
    """Train a MiniCnn on the quadrant task; returns (model, state, batch).

    Raises DivergenceError if the loss becomes non-finite.
    """
    data = make_toy_batch(train_size, seed=seed)
    cfg = MiniCnnConfig(attention=attention if attention != "none" else None)
    model = MiniCnn(cfg, seed=seed)
    state = TrainState(lr=lr, momentum=momentum)
    order_rng = np.random.default_rng(seed + 1)
    for step in range(steps):
        idx = order_rng.choice(train_size, size=batch_size, replace=False)
        x, labels = data.images[idx], data.labels[idx]
        logits = model.forward(x, keep_intermediates=True)
        loss, dlogits, acc = cross_entropy(logits, labels)
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss {loss} at step {step}")
        model.zero_grads()
        model.backward(dlogits)
        sgd_step(model, state)
        state.history.append((step, loss, acc))
    return model, state, data


def evaluate(model, images, labels, batch_size=64):
    correct = 0
    for start in range(0, len(labels), batch_size):
        logits = model.forward(images[start:start + batch_size])
        correct += int((logits.argmax(axis=1) == labels[start:start + batch_size]).sum())
    return correct / len(labels)


def history_csv(history):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["step", "loss", "accuracy"])
    for step, loss, acc in history:
        writer.writerow([step, repr(loss), repr(acc)])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Grad-CAM
# ---------------------------------------------------------------------------

def bilinear_upsample(a, out_h, out_w):
    """Separable bilinear resize of (..., h, w) with endpoint alignment."""
    h, w = a.shape[-2:]
    ys = np.linspace(0.0, h - 1.0, out_h) if h > 1 else np.zeros(out_h)
    xs = np.linspace(0.0, w - 1.0, out_w) if w > 1 else np.zeros(out_w)
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    y1 = np.clip(y0 + 1, 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    x1 = np.clip(x0 + 1, 0, w - 1)
    wy = (ys - y0)[..., :, None]
    wx = (xs - x0)[None, :]
    top = a[..., y0, :][..., :, x0] * (1 - wx) + a[..., y0, :][..., :, x1] * wx
    bot = a[..., y1, :][..., :, x0] * (1 - wx) + a[..., y1, :][..., :, x1] * wx
    return top * (1 - wy) + bot * wy


def gradcam(model, x, class_indices, target_stage=-1):
    """Gradient-weighted class activation heatmaps, one per sample.

    Channel weights are the spatial mean of the class-score gradient at the
    target stage's post-attention activation; the heatmap is the rectified
    weighted activation sum, bilinearly upsampled to the input size and
    min-max normalized to [0, 1] (constant maps become all zeros).
    """
    n = x.shape[0]
    class_indices = np.asarray(class_indices)
    if class_indices.ndim == 0:
        class_indices = np.full(n, int(class_indices))
    logits = model.forward(x, keep_intermediates=True)
    if class_indices.min() < 0 or class_indices.max() >= logits.shape[1]:
        raise ValueError("class index out of range")
    num_stages = len(model.cfg.stage_channels)
    stage = target_stage if target_stage >= 0 else num_stages + target_stage
    if not 0 <= stage < num_stages:
        raise ValueError(f"invalid target stage {target_stage}")
    dlogits = np.zeros_like(logits)
    dlogits[np.arange(n), class_indices] = 1.0
    model.zero_grads()
    model.backward(dlogits)
    act = model.stage_activations[stage]
    grad = model.stage_activation_grads[stage]
    weights = grad.mean(axis=(2, 3))  # (N, C)
    cam = np.maximum((weights[:, :, None, None] * act).sum(axis=1), 0.0)
    cam = bilinear_upsample(cam, x.shape[2], x.shape[3])
    lo = cam.min(axis=(1, 2), keepdims=True)
    hi = cam.max(axis=(1, 2), keepdims=True)
    span = hi - lo
    return np.where(span > 0.0, (cam - lo) / np.where(span > 0.0, span, 1.0), 0.0)


def localization_hit_rate(model, batch, radius=6.0, target_stage=-1):
    """Fraction of samples whose heatmap argmax lies within `radius` pixels
    of the planted blob center (Grad-CAM taken at the true class)."""
    maps = gradcam(model, batch.images, batch.labels, target_stage=target_stage)
    n, h, w = maps.shape
    flat_idx = maps.reshape(n, -1).argmax(axis=1)
    peaks = np.stack([flat_idx // w, flat_idx % w], axis=1).astype(float)
    dist = np.linalg.norm(peaks - batch.centers, axis=1)
    return float((dist <= radius).mean()), dist


def write_pgm(path, heatmap):
    """Write a [0,1] heatmap as an 8-bit binary portable graymap (P5)."""
    arr = np.clip(np.asarray(heatmap) * 255.0, 0.0, 255.0).astype(np.uint8)
    h, w = arr.shape
    atomic_write_bytes(path, f"P5\n{w} {h}\n255\n".encode("ascii") + arr.tobytes())
