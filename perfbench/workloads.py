"""The four benchmark workloads and their correctness gates.

Each workload builds its inputs from the workload seed in `setup` (which
ends with an untimed warm-up op), runs one timed `op` at a time, checks each
op's outputs in `check` outside the timed region, and runs its end-of-run
`gates`. Every call into elakit goes through the module attributes of its
public API, so the traced run sees each one.

Why these workloads:
- ela_sweep: ELA-B forward+backward over the four ResNet-18 stage shapes;
  time goes to the per-group conv1d loop, gating backward, strip-pool
  backward and GN.
- ca_sweep: the same op with CA-BN, which shares strip pooling and gating
  but uses 1x1 convs and BN: it bypasses any grouped-conv change and is the
  baseline ELA-B is measured against.
- toy_train: SGD steps of the mini CNN with ELA-B; conv2d_same dominates and
  ParamStore/sgd_step see ~20 tensors per step.
- gradcheck_small: finite-difference checks of all eight blocks at the CLI
  default shape; forward-only on tiny tensors, bound by per-call overhead.
"""

import json
import math
from pathlib import Path

import numpy as np

import elakit
from elakit import gradcheck, toy
from elakit.accounting import PlacementSpec
from elakit.modules import MODULE_CHOICES, build_attention

HERE = Path(__file__).resolve().parent
DIGESTS_FILE = HERE / "digests.json"
PLACEMENT_FILE = Path(elakit.__file__).resolve().parent / "data" / "resnet18-ela-b.json"

SWEEP_N = 8
# Inputs of the pinned-digest gate; digests.json holds the outputs the seed
# commit computed from them.
GATE_SEED = 0
# Relative tolerance of every digest comparison. Float64 results that only
# change summation order stay within ~1e-13; a wrong gradient moves far more.
DIGEST_RTOL = 1e-9

TOY_ATTENTION = "ela-b"
TOY_TRAIN_SIZE = 512
TOY_BATCH = 32
TOY_LR = 0.05
TOY_MOMENTUM = 0.9
TOY_PREFIX_STEPS = 4  # steps compared bitwise with toy.train_toy

GRADCHECK_SHAPE = (2, 16, 5, 7)  # the CLI default
GRADCHECK_TOL = 1e-5


def stage_shapes():
    """Distinct (C, H, W) site shapes of the bundled ResNet-18 placement."""
    shapes = []
    for site in PlacementSpec.from_json_file(PLACEMENT_FILE).sites:
        shape = (site.channels, site.height, site.width)
        if shape not in shapes:
            shapes.append(shape)
    return shapes


_DIGEST_WEIGHTS = {}


def digest(a):
    """[sum |a|, sum a^2, sum a*w] with a fixed weight vector w in [-1, 1]."""
    flat = np.ravel(a)
    w = _DIGEST_WEIGHTS.get(flat.size)
    if w is None:
        w = _DIGEST_WEIGHTS[flat.size] = np.cos(0.7 * np.arange(flat.size))
    return [float(np.abs(flat).sum()), float(flat @ flat), float(flat @ w)]


def compare_digests(got, ref, rtol=DIGEST_RTOL):
    """None if every digest matches within rtol, else a one-line reason."""
    for key, (l1, l2, ws) in ref.items():
        if key not in got:
            return f"no output {key}"
        g1, g2, gw = got[key]
        # the weighted sum is bounded by the l1 norm, so l1 scales its error
        if not (abs(g1 - l1) <= rtol * l1 and abs(g2 - l2) <= rtol * l2
                and abs(gw - ws) <= rtol * l1):
            return f"digest of {key} is {[g1, g2, gw]}, expected {[l1, l2, ws]}"
    return None


class Sweep:
    """One op: forward+backward of one block kind at every stage shape."""

    round_len = 1

    def __init__(self, name, kind):
        self.name = name
        self.kind = kind
        self.reference = None

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        self.shapes = stage_shapes()
        self.blocks = []
        self.inputs = []
        for i, (c, h, w) in enumerate(self.shapes):
            self.blocks.append(build_attention(self.kind, c, seed=seed + i))
            x = rng.standard_normal((SWEEP_N, c, h, w))
            self.inputs.append((x, rng.standard_normal(x.shape)))
        self.op(0)

    def op(self, i):
        outs = []
        for block, (x, dy) in zip(self.blocks, self.inputs):
            block.params.zero_grads()
            y, _ = block.forward(x, keep_intermediates=True)
            outs.append((y, block.backward(dy)))
        return outs

    def stratum(self, i):
        return self.kind

    def digests(self, outs):
        """Digest of y, dx and every parameter gradient, keyed by stage."""
        result = {}
        for (c, h, w), block, (y, dx) in zip(self.shapes, self.blocks, outs):
            arrays = {"y": y, "dx": dx}
            arrays.update((f"grad.{n}", block.params.grad(n)) for n in block.params.names())
            for key, a in arrays.items():
                if a.dtype != np.float64:
                    raise TypeError(f"{key} at C={c} is {a.dtype}, expected float64")
                result[f"{c}x{h}x{w}.{key}"] = digest(a)
        return result

    def check(self, i, outs):
        self.dtype = str(outs[0][0].dtype)
        try:
            got = self.digests(outs)
        except TypeError as exc:
            return str(exc)
        bad = [k for k, d in got.items() if not all(map(math.isfinite, d))]
        if bad:
            return f"non-finite values in {bad[0]}"
        if self.reference is None:
            self.reference = got
            return None
        return compare_digests(got, self.reference)

    def gates(self):
        """Outputs on the gate inputs must match the digests pinned from the
        seed commit."""
        pinned = json.loads(DIGESTS_FILE.read_text())[self.name]
        gate = Sweep(self.name, self.kind)
        gate.setup(GATE_SEED)
        error = gate.check(0, gate.op(0)) or compare_digests(gate.reference, pinned)
        return [("pinned_digests", error)]


class ToyTrain:
    """One op: one SGD step of MiniCnn with ELA-B on the quadrant task."""

    name = "toy_train"
    round_len = 1

    def setup(self, seed):
        self.seed = seed
        self.data = toy.make_toy_batch(TOY_TRAIN_SIZE, seed=seed)
        self.model = toy.MiniCnn(toy.MiniCnnConfig(attention=TOY_ATTENTION), seed=seed)
        self.state = toy.TrainState(lr=TOY_LR, momentum=TOY_MOMENTUM)
        self.order_rng = np.random.default_rng(seed + 1)
        self.losses = []
        self.check(0, self.op(0))  # step 0 is the warm-up; its loss opens the history

    def op(self, i):
        # the loop body of toy.train_toy, through the public toy calls
        idx = self.order_rng.choice(TOY_TRAIN_SIZE, size=TOY_BATCH, replace=False)
        logits = self.model.forward(self.data.images[idx], keep_intermediates=True)
        loss, dlogits, _ = toy.cross_entropy(logits, self.data.labels[idx])
        self.model.zero_grads()
        self.model.backward(dlogits)
        toy.sgd_step(self.model, self.state)
        return loss, logits.dtype

    def stratum(self, i):
        return TOY_ATTENTION

    def check(self, i, result):
        loss, dtype = result
        self.dtype = str(dtype)
        self.losses.append(loss)
        if dtype != np.float64:
            return f"logits are {dtype}, expected float64"
        if not math.isfinite(loss):
            return f"non-finite loss {loss} at step {len(self.losses) - 1}"
        return None

    def gates(self):
        """The step loop must reproduce train_toy's loss history bitwise, and
        train_toy's losses on the gate seed must match those pinned from the
        seed commit."""
        expected = train_toy_losses(self.seed)
        got = self.losses[:TOY_PREFIX_STEPS]
        prefix = None if got == expected else f"losses {got} differ from train_toy's {expected}"
        pinned = json.loads(DIGESTS_FILE.read_text())[self.name]["losses"]
        gate = train_toy_losses(GATE_SEED)
        close = all(abs(g - p) <= DIGEST_RTOL * abs(p) for g, p in zip(gate, pinned))
        pinned_error = None if close else f"gate-seed losses {gate}, pinned {pinned}"
        return [("train_toy_prefix", prefix), ("pinned_losses", pinned_error)]


def train_toy_losses(seed):
    """Loss history of toy.train_toy over the first TOY_PREFIX_STEPS steps."""
    _, state, _ = toy.train_toy(
        TOY_ATTENTION, TOY_PREFIX_STEPS, seed, batch_size=TOY_BATCH,
        lr=TOY_LR, momentum=TOY_MOMENTUM, train_size=TOY_TRAIN_SIZE,
    )
    return [loss for _, loss, _ in state.history]


class GradcheckSmall:
    """One op: check_module_gradients on one block; ops cycle through all
    eight blocks, and runs end on a whole round."""

    name = "gradcheck_small"
    round_len = len(MODULE_CHOICES)

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        self.direction_seed = seed + 2
        self.cases = []
        for j, kind in enumerate(MODULE_CHOICES):
            block = build_attention(kind, GRADCHECK_SHAPE[1], seed=seed + j)
            x = rng.standard_normal(GRADCHECK_SHAPE)
            y, _ = block.forward(x, keep_intermediates=True)
            self.dtype = str(y.dtype)
            block.params.zero_grads()
            block.backward(np.ones_like(y))
            self.cases.append((kind, block, x))

    def op(self, i):
        _, block, x = self.cases[i % self.round_len]
        return gradcheck.check_module_gradients(block, x, direction_seed=self.direction_seed)

    def stratum(self, i):
        return self.cases[i % self.round_len][0]

    def fd_evals(self, i):
        """Forward evaluations in one check: 1 + 2 * (x.size + total params)."""
        _, block, x = self.cases[i % self.round_len]
        return 1 + 2 * (x.size + block.params.total_params())

    def check(self, i, errors):
        worst = max(errors.values())
        if not worst < GRADCHECK_TOL:  # also catches NaN
            name = max(errors, key=errors.get)
            return f"{self.stratum(i)}: relative error {worst:.3e} on {name}"
        return None

    def gates(self):
        return []


def make(name):
    if name == "ela_sweep":
        return Sweep(name, "ela-b")
    if name == "ca_sweep":
        return Sweep(name, "ca")
    if name == "toy_train":
        return ToyTrain()
    if name == "gradcheck_small":
        return GradcheckSmall()
    raise ValueError(f"unknown workload {name!r}")
