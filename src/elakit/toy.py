"""Synthetic location-classification task, a mini CNN with pluggable
attention, an SGD-with-momentum trainer, and Grad-CAM heatmap generation.

The task is quadrant classification of a planted Gaussian blob, so the label
is a pure function of spatial position: spatial gating has a structural
advantage there, which makes localization claims checkable at desk scale.
"""

import csv
import io
from dataclasses import dataclass, field, replace

import numpy as np

from elakit import kernels as K
from elakit.modules import build_attention, he_normal
from elakit.params import ParamStore


class DivergenceError(RuntimeError):
    """Training diverged: a non-finite loss, or a numpy overflow or invalid value."""


# ---------------------------------------------------------------------------
# dataset
# ---------------------------------------------------------------------------

NUM_CLASSES = 4  # the quadrant labels below
NOISE_STD = 0.02  # std of the background noise; a blob peaks at 1
BLOB_SIGMA = 2.0  # the blob's Gaussian sigma, in pixels


@dataclass
class ToyBatch:
    images: np.ndarray  # (n, 1, S, S) in [0, 1]
    labels: np.ndarray  # (n,) quadrant index: 0 TL, 1 TR, 2 BL, 3 BR
    centers: np.ndarray  # (n, 2) blob centers as (row, col)


def make_toy_batch(n, seed, size=32):
    """Noise background plus one Gaussian blob centered uniformly inside a
    uniformly chosen quadrant; the label is that quadrant. Quadrants split at
    size // 2, so at an odd size the bottom and right ones are a pixel wider."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    half = size // 2
    labels = rng.integers(0, NUM_CLASSES, size=n)
    rows = rng.uniform(0, np.where(labels // 2, size - half, half)) + half * (labels // 2)
    cols = rng.uniform(0, np.where(labels % 2, size - half, half)) + half * (labels % 2)
    yy, xx = np.mgrid[0:size, 0:size]
    blobs = np.exp(
        -((yy[None] - rows[:, None, None]) ** 2 + (xx[None] - cols[:, None, None]) ** 2)
        / (2.0 * BLOB_SIGMA**2)
    )
    noise = rng.normal(0.0, NOISE_STD, size=(n, size, size))
    images = np.clip(noise + blobs, 0.0, 1.0)[:, None, :, :]
    return ToyBatch(images, labels, np.stack([rows, cols], axis=1))


# ---------------------------------------------------------------------------
# mini CNN
# ---------------------------------------------------------------------------

@dataclass
class MiniCnnConfig:
    stage_channels: tuple = (16, 32, 64)
    attention: str | None = None  # a build_attention kind in any case; None or 'none' for none
    input_shape: tuple = (1, 32, 32)

    def __post_init__(self):
        dims = (*self.stage_channels, *self.input_shape)
        if not (
            self.stage_channels  # gradcam reads the last stage
            and all(isinstance(d, (int, np.integer)) and d > 0 for d in dims)
            and len(self.input_shape) == 3
            and self.input_shape[1] == self.input_shape[2]  # the head is sized from H
            and self.input_shape[1] % 2 ** len(self.stage_channels) == 0  # each stage halves H
        ):
            raise ValueError(
                f"stage_channels {self.stage_channels!r} and input_shape (C, H, W) "
                f"{self.input_shape!r} need at least one stage, positive ints, H == W "
                "and H divisible by 2**stages"
            )
        if isinstance(self.attention, str):  # stored in lower case, as model files record it
            kind = self.attention.lower()
            self.attention = None if kind == "none" else kind


@dataclass(eq=False)  # compared by identity: its arrays have no single truth value
class Stage:
    """One MiniCnn stage: the conv input, the post-attention, pre-relu map
    that Grad-CAM weighs, and the block's `AttentionMaps`/`ChannelGate` (None
    without attention). `backward` returns copies that add `grad`, the loss
    gradient at `act`, so the model's cache keeps no gradient alive."""

    x_in: np.ndarray
    act: np.ndarray
    maps: object
    grad: np.ndarray | None = None


class MiniCnn:
    """conv3x3 -> attention -> relu -> avgpool stages, then a linear head
    over the flattened final map. Explicit forward/backward; no tape.

    `params` holds all model state: each attention block's store is adopted
    as `stage{i}.attn.<name>`, its entries shared rather than copied.
    `backward` returns one `Stage` record per stage."""

    def __init__(self, cfg, seed=0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        self.params = ParamStore()
        self.attn = []
        c_prev = self.cfg.input_shape[0]
        for i, c in enumerate(self.cfg.stage_channels):
            # one conv per stage; `block0` keeps the names of older model files
            self.params.add(
                f"stage{i}.block0.conv.weight", he_normal(rng, (c, c_prev, 3, 3), c_prev * 9)
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
        self.params.add("head.weight", he_normal(rng, (NUM_CLASSES, feat_dim), feat_dim))
        self.params.add("head.bias", np.zeros(NUM_CLASSES), role="bias")
        self.params.meta = {
            "kind": "mini_cnn",
            "stage_channels": list(self.cfg.stage_channels),
            "attention": self.cfg.attention,
            "input_shape": list(self.cfg.input_shape),
        }
        self._cache = None

    def zero_grads(self):
        self.params.zero_grads()

    def forward(self, x, keep_intermediates=False):
        stages = []
        h = x
        for i, attn in enumerate(self.attn):
            conv = f"stage{i}.block0.conv."
            x_in = h
            w, b = self.params.value(conv + "weight"), self.params.value(conv + "bias")
            h = K.conv2d_same(h, w, b)
            maps = None
            if attn is not None:
                h, maps = attn.forward(h, keep_intermediates=keep_intermediates)
            stages.append(Stage(x_in, h, maps))
            h = K.avg_pool_2x2(K.relu(h))
        feat = h.reshape(len(h), -1)
        logits = feat @ self.params.value("head.weight").T + self.params.value("head.bias")
        self._cache = (stages, h) if keep_intermediates else None
        return logits

    def backward(self, dlogits):
        if self._cache is None:
            raise RuntimeError("backward requires forward(keep_intermediates=True)")
        stages, h = self._cache
        w_head = self.params.value("head.weight")
        self.params.accumulate_grad("head.weight", dlogits.T @ h.reshape(len(h), -1))
        self.params.accumulate_grad("head.bias", dlogits.sum(axis=0))
        dh = (dlogits @ w_head).reshape(h.shape)
        out = []
        for i, stage in reversed(list(enumerate(stages))):
            dh = K.relu_backward(K.avg_pool_2x2_backward(dh, stage.act.shape), stage.act)
            out.append(replace(stage, grad=dh))
            if self.attn[i] is not None:
                dh = self.attn[i].backward(dh)
            conv = f"stage{i}.block0.conv."
            dh, dw, db = K.conv2d_same_backward(
                dh, stage.x_in, self.params.value(conv + "weight"), with_bias=True
            )
            self.params.accumulate_grad(conv + "weight", dw)
            self.params.accumulate_grad(conv + "bias", db)
        return out[::-1]

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
            for name in store.names():
                if name not in model.params:
                    raise ValueError(f"unexpected tensor {name!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: not a MiniCnn model file: {exc}") from None
        except MemoryError as exc:  # sizes in the meta too large to allocate
            raise MemoryError(f"{path}: {exc}") from None
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
    history: list = field(default_factory=list)  # (step, loss, accuracy)
    velocity: dict = field(default_factory=dict)


def sgd_step(model, state):
    """One SGD-with-momentum update from the accumulated gradients."""
    for name, entry in model.params.items():
        v = state.momentum * state.velocity.get(name, 0.0) + entry.grad
        state.velocity[name] = v
        entry.value[...] -= state.lr * v


@np.errstate(over="raise", invalid="raise")
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

    Raises DivergenceError at a non-finite loss, overflow or invalid value.
    """
    data = make_toy_batch(train_size, seed=seed)
    model = MiniCnn(MiniCnnConfig(attention=attention), seed=seed)
    state = TrainState(lr=lr, momentum=momentum)
    order_rng = np.random.default_rng(seed + 1)
    for step in range(steps):
        idx = order_rng.choice(train_size, size=batch_size, replace=False)
        x, labels = data.images[idx], data.labels[idx]
        try:
            logits = model.forward(x, keep_intermediates=True)
            loss, dlogits, acc = cross_entropy(logits, labels)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss {loss} at step {step}")
            model.zero_grads()
            model.backward(dlogits)
            sgd_step(model, state)
        except FloatingPointError as exc:
            raise DivergenceError(f"{exc} at step {step}") from None
        state.history.append((step, loss, acc))
    return model, state, data


EVAL_BATCH = 64  # samples per forward pass in evaluate


def evaluate(model, images, labels):
    correct = 0
    for start in range(0, len(labels), EVAL_BATCH):
        logits = model.forward(images[start:start + EVAL_BATCH])
        correct += int((logits.argmax(axis=1) == labels[start:start + EVAL_BATCH]).sum())
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
    ys = np.linspace(0.0, h - 1.0, out_h)
    xs = np.linspace(0.0, w - 1.0, out_w)
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    y1 = np.clip(y0 + 1, 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    x1 = np.clip(x0 + 1, 0, w - 1)
    wy = (ys - y0)[..., :, None]
    wx = (xs - x0)[None, :]
    top = a[..., y0, :][..., :, x0] * (1 - wx) + a[..., y0, :][..., :, x1] * wx
    bot = a[..., y1, :][..., :, x0] * (1 - wx) + a[..., y1, :][..., :, x1] * wx
    return top * (1 - wy) + bot * wy


def gradcam(model, x, class_indices):
    """Gradient-weighted class activation heatmaps, one per sample.

    Channel weights are the spatial mean of the class-score gradient at the
    last stage's post-attention activation; the heatmap is the rectified
    weighted activation sum, bilinearly upsampled to the input size and
    min-max normalized to [0, 1] (constant maps become all zeros).
    """
    n = x.shape[0]
    class_indices = np.asarray(class_indices)
    logits = model.forward(x, keep_intermediates=True)
    if class_indices.min() < 0 or class_indices.max() >= logits.shape[1]:
        raise ValueError("class index out of range")
    dlogits = np.zeros_like(logits)
    dlogits[np.arange(n), class_indices] = 1.0
    model.zero_grads()
    last = model.backward(dlogits)[-1]
    weights = last.grad.mean(axis=(2, 3))  # (N, C)
    cam = np.maximum((weights[:, :, None, None] * last.act).sum(axis=1), 0.0)
    cam = bilinear_upsample(cam, x.shape[2], x.shape[3])
    lo = cam.min(axis=(1, 2), keepdims=True)
    hi = cam.max(axis=(1, 2), keepdims=True)
    span = hi - lo
    return np.where(span > 0.0, (cam - lo) / np.where(span > 0.0, span, 1.0), 0.0)


HIT_RADIUS = 6.0  # pixels between a heatmap's peak and the blob center that count as a hit


def localization_hit_rate(model, batch):
    """Fraction of samples whose heatmap argmax lies within HIT_RADIUS pixels
    of the planted blob center (Grad-CAM taken at the true class)."""
    maps = gradcam(model, batch.images, batch.labels)
    n, h, w = maps.shape
    flat_idx = maps.reshape(n, -1).argmax(axis=1)
    peaks = np.stack([flat_idx // w, flat_idx % w], axis=1).astype(float)
    dist = np.linalg.norm(peaks - batch.centers, axis=1)
    return float((dist <= HIT_RADIUS).mean()), dist


def pgm_bytes(heatmap):
    """A [0,1] heatmap as an 8-bit binary portable graymap (P5)."""
    arr = np.clip(np.asarray(heatmap) * 255.0, 0.0, 255.0).astype(np.uint8)
    h, w = arr.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + arr.tobytes()
