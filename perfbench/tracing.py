"""Span tracing installed from outside the library, plus per-kernel work counts.

`Tracer.install()` replaces attributes of the elakit modules with wrappers
that record one span per call: name, start, end, parent span and op id. A
call's self time is its duration minus the time covered by its child spans;
the tracer aggregates self time and call counts online, keeps the raw spans
in memory (up to `span_cap`) and writes them out with `dump_spans`.
Untraced runs never call `install()`, so they run the library untouched.

MAC counts follow the formula sheet in `elakit.accounting`: one
multiply-accumulate is 1, divisions and exponentials are 1 each. Bytes are
computed from the sizes of the arrays a call takes and returns, not measured.
"""

import json
import time

import numpy as np

from elakit import gradcheck, kernels, modules, params, toy
from elakit.accounting import HARD_SWISH_COST, RELU_COST, SIGMOID_COST

BLOCK_CLASSES = (
    modules.EfficientLocalAttention,
    modules.CoordinateAttention,
    modules.SqueezeExcitation,
    modules.EfficientChannelAttention,
)
PARAM_METHODS = ("accumulate_grad", "value", "set_value", "zero_grads")
TOY_FUNCTIONS = ("cross_entropy", "sgd_step")
GRADCHECK_FUNCTIONS = ("check_module_gradients", "fd_gradient", "max_rel_error")

# Every public kernel in elakit.kernels at the time the benchmark was defined.
# Kernels added later are still traced; their time is reported together as
# kernels.unlisted.self_ms.
KERNELS = (
    "strip_pool_h", "strip_pool_w", "strip_pool_backward",
    "global_avg_pool", "global_avg_pool_backward",
    "conv1d_grouped", "conv1d_grouped_backward",
    "conv2d_1x1", "conv2d_1x1_backward",
    "batch_norm", "batch_norm_backward", "group_norm", "group_norm_backward",
    "sigmoid", "sigmoid_backward", "hard_swish", "hard_swish_backward",
    "relu", "relu_backward",
    "broadcast_mul_hw", "broadcast_mul_hw_backward",
    "concat_spatial", "split_spatial",
    "conv2d_same", "conv2d_same_backward", "avg_pool_2x2", "avg_pool_2x2_backward",
)
HOT_KERNELS = (
    "conv1d_grouped", "conv1d_grouped_backward",
    "broadcast_mul_hw", "broadcast_mul_hw_backward",
    "strip_pool_backward", "group_norm",
    "conv2d_same", "conv2d_same_backward",
)
LAYERS = ("kernels", "modules", "params", "toy", "gradcheck")


def _first(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _weight(args, kwargs, index):
    return _first(args, kwargs, index, "weight")


def _conv_bias(args, kwargs, index):
    return 1 if _first(args, kwargs, index, "bias") is not None else 0


def _with_bias(args, kwargs, index):
    return 1 if _first(args, kwargs, index, "with_bias") else 0


def _out(res):
    return res[0] if isinstance(res, tuple) else res


# Forward MACs per call (batch included), one entry per line of the
# accounting formula sheet; concat/split move data and count 0.
# conv2d_same is not on the sheet; it is counted like the sheet's convs.
FORWARD_MACS = {
    "strip_pool_h": lambda a, k, r: a[0].size + r.size,
    "strip_pool_w": lambda a, k, r: a[0].size + r.size,
    "global_avg_pool": lambda a, k, r: a[0].size + r.size,
    "conv1d_grouped": lambda a, k, r: r.size * (
        _weight(a, k, 1)[0].size + _conv_bias(a, k, 2)),
    "conv2d_1x1": lambda a, k, r: r.size * (_weight(a, k, 1).shape[1] + _conv_bias(a, k, 2)),
    "batch_norm": lambda a, k, r: 4 * a[0].size,
    "group_norm": lambda a, k, r: 4 * a[0].size,
    "sigmoid": lambda a, k, r: SIGMOID_COST * r.size,
    "hard_swish": lambda a, k, r: HARD_SWISH_COST * r.size,
    "relu": lambda a, k, r: RELU_COST * r.size,
    "broadcast_mul_hw": lambda a, k, r: 2 * a[0].size,
    "concat_spatial": lambda a, k, r: 0,
    "split_spatial": lambda a, k, r: 0,
    "conv2d_same": lambda a, k, r: r.size * (_weight(a, k, 1)[0].size + _conv_bias(a, k, 2)),
}

# Backward MACs per call, as this benchmark counts them (the accounting
# module has no backward sheet):
#   conv backward      2x the forward MACs (dx and dweight), plus one add per
#                      output element for dbias when with_bias is set
#   gating backward    6 per element of x: dx = dy*ah*aw (2), dah and daw
#                      each a product with x and a gate, reduced (2 each)
#   strip pool backward 1 per element of the broadcast gradient
BACKWARD_MACS = {
    "conv1d_grouped_backward": lambda a, k, r: a[0].size * (
        2 * _weight(a, k, 2)[0].size + _with_bias(a, k, 4)),
    "conv2d_same_backward": lambda a, k, r: a[0].size * (
        2 * _weight(a, k, 2)[0].size + _with_bias(a, k, 3)),
    "broadcast_mul_hw_backward": lambda a, k, r: 6 * a[1].size,
    "strip_pool_backward": lambda a, k, r: r.size,
}
MACS = {**FORWARD_MACS, **BACKWARD_MACS}


def _array_bytes(value):
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_array_bytes(v) for v in value)
    return 0


class Tracer:
    """In-memory span recorder with online self-time aggregation."""

    def __init__(self, span_cap=50_000):
        self.span_cap = span_cap
        self.spans = []  # (span_id, name, start_s, end_s, parent_id, op_id)
        self.spans_dropped = 0
        self.stats = {}  # name -> [calls, self_s, macs, bytes]
        self.errors = dict.fromkeys(LAYERS, 0)
        self.fd_evals = 0
        self.macs_total = 0  # running sum for MAC reconciliation
        self._stack = []  # open spans: [span_id, child_s]
        self._next_id = 0
        self._op_id = None
        self._restore = []

    def _open(self):
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, name, entry, frame, t0, t1, macs, nbytes):
        """Pop `frame`, charge its self time to `entry` and its duration to
        the parent span's child time."""
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += dur
        entry[0] += 1
        entry[1] += dur - frame[1]
        entry[2] += macs
        entry[3] += nbytes
        if len(self.spans) < self.span_cap:
            self.spans.append((frame[0], name, t0, t1,
                               parent[0] if parent is not None else None, self._op_id))
        else:
            self.spans_dropped += 1

    def _entry(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0, 0])

    def run_op(self, op_id, fn):
        """Run fn() as the root span "op" of op `op_id`; returns its result."""
        self._op_id = op_id
        frame = self._open()
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self._close("op", self._entry("op"), frame, t0, time.perf_counter(), 0, 0)
            self._op_id = None

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer, name, fn, macs_fn=None, measure_bytes=False, counts_evals=False):
        tracer = self
        perf = time.perf_counter
        entry = self._entry(name)

        def traced(*args, **kwargs):
            frame = tracer._open()
            t0 = perf()
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                tracer._close(name, entry, frame, t0, perf(), 0, 0)
                raise
            t1 = perf()
            macs = nbytes = 0
            if macs_fn is not None:
                macs = macs_fn(args, kwargs, _out(res))
                tracer.macs_total += macs
            if measure_bytes:
                nbytes = _array_bytes(args) + _array_bytes(tuple(kwargs.values())) + _array_bytes(res)
            if counts_evals:
                tracer.fd_evals += 2 * np.size(_first(args, kwargs, 1, "x"))
            tracer._close(name, entry, frame, t0, t1, macs, nbytes)
            return res

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, layer, name, **kw):
        orig = getattr(owner, attr)
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, self._wrap(layer, name, orig, **kw))

    def install(self):
        """Wrap every traced entry point; `uninstall()` puts them back."""
        for attr, fn in vars(kernels).items():
            if (callable(fn) and not isinstance(fn, type) and not attr.startswith(("_", "check_"))
                    and getattr(fn, "__module__", None) == kernels.__name__):
                self._patch(kernels, attr, "kernels", f"kernels.{attr}",
                            macs_fn=MACS.get(attr), measure_bytes=attr in HOT_KERNELS)
        for cls in BLOCK_CLASSES:
            for method in ("forward", "backward"):
                self._patch(cls, method, "modules", f"modules.{cls.__name__}.{method}")
        for method in PARAM_METHODS:
            self._patch(params.ParamStore, method, "params", f"params.{method}")
        for method in ("forward", "backward"):
            self._patch(toy.MiniCnn, method, "toy", f"toy.MiniCnn.{method}")
        for attr in TOY_FUNCTIONS:
            self._patch(toy, attr, "toy", f"toy.{attr}")
        for attr in GRADCHECK_FUNCTIONS:
            self._patch(gradcheck, attr, "gradcheck", f"gradcheck.{attr}",
                        counts_evals=attr == "fd_gradient")

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def dump_spans(self, path):
        """Write the recorded spans as JSON lines (times in microseconds)."""
        with open(path, "w") as fh:
            for span_id, name, t0, t1, parent, op_id in self.spans:
                fh.write(json.dumps([span_id, name, round(t0 * 1e6, 3),
                                     round(t1 * 1e6, 3), parent, op_id]) + "\n")


def per_layer_metrics(tracer, n_ops, untraced_ops_per_s, traced_ops_per_s):
    """Per-op layer metrics in the fixed order listed by BENCHMARK.json.

    Self time is given as a share of the traced op time (trace.op_ms), so a
    layer that a workload never calls reads 0 % rather than a constant time;
    `self_ms_table` gives the same figures in ms.
    """
    stats = tracer.stats
    total_s = sum(v[1] for v in stats.values())  # the root "op" spans' self time included
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def get(key):
        return stats.get(key, [0, 0.0, 0, 0])

    def put_layer(key):
        put(f"{key}.calls", get(key)[0] / n_ops, "count")
        put(f"{key}.self_pct", 100.0 * get(key)[1] / total_s, "%")

    for k in KERNELS:
        put_layer(f"kernels.{k}")
    for k in HOT_KERNELS:
        _, self_s, macs, nbytes = get(f"kernels.{k}")
        put(f"kernels.{k}.gmacs_per_s", macs / self_s / 1e9 if self_s else 0.0, "GMAC/s")
        put(f"kernels.{k}.computed_mb", nbytes / 1e6 / n_ops, "MB")
    listed = {f"kernels.{k}" for k in KERNELS}
    unlisted = sum(v[1] for key, v in stats.items()
                   if key.startswith("kernels.") and key not in listed)
    put("kernels.unlisted.self_pct", 100.0 * unlisted / total_s, "%")
    for cls in BLOCK_CLASSES:
        for method in ("forward", "backward"):
            put_layer(f"modules.{cls.__name__}.{method}")
    for method in PARAM_METHODS:
        put_layer(f"params.{method}")
    for key in ("toy.MiniCnn.forward", "toy.MiniCnn.backward", "toy.cross_entropy", "toy.sgd_step"):
        put_layer(key)
    put("gradcheck.fd_gradient.evals", tracer.fd_evals / n_ops, "count")
    for attr in GRADCHECK_FUNCTIONS:
        put(f"gradcheck.{attr}.self_pct", 100.0 * get(f"gradcheck.{attr}")[1] / total_s, "%")
    for layer in LAYERS:
        put(f"{layer}.errors", tracer.errors[layer], "count")
    put("trace.op_ms", total_s * 1e3 / n_ops, "ms")
    put("trace.accounted_pct", 100.0 * (1.0 - get("op")[1] / total_s), "%")
    put("trace.spans_per_op", sum(v[0] for v in stats.values()) / n_ops, "count")
    put("trace.overhead_pct", 100.0 * (untraced_ops_per_s / traced_ops_per_s - 1.0), "%")
    return out


def self_ms_table(tracer, n_ops):
    """Self time per op in ms of every traced name, largest first."""
    rows = sorted(tracer.stats.items(), key=lambda kv: -kv[1][1])
    return {name: v[1] * 1e3 / n_ops for name, v in rows if v[0]}


def reconcile_macs(tracer, stage_shapes, n, seed):
    """Sum per-kernel forward MACs over one ELA-B and one CA-BN forward per
    stage shape and compare each sum with n * accounting.flop_count.

    Needs the tracer installed. Returns a list of
    (kind, (C, H, W), traced_macs, expected_macs).
    """
    from elakit.accounting import flop_count

    rng = np.random.default_rng(seed)
    rows = []
    for kind in ("ela-b", "ca"):
        for c, h, w in stage_shapes:
            block = modules.build_attention(kind, c, seed=seed)
            x = rng.standard_normal((n, c, h, w))
            before = tracer.macs_total
            block.forward(x)
            rows.append((kind, (c, h, w), tracer.macs_total - before, n * flop_count(kind, c, h, w)))
    return rows
