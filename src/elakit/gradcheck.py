"""Finite-difference verification of analytic backward passes.

All checks use central differences with one fixed step, DEFAULT_STEP (1e-5),
in double precision. Module-level checks project the output onto a fixed
random direction R so a scalar loss sum(y * R) exercises every output entry;
analytic gradients then come from backward(R).

One loop forms every central-difference point, for fd_gradient and for the
module checks alike, and evaluates the points in chunks of stacked rows. The
module checks share one evaluator for the input and every parameter: each
forward stacks several copies of x on the batch axis and reads one loss per
copy. Input rows are perturbed copies of x; a parameter's rows give each copy
its own perturbed parameter, installed as a per-sample parameter stack that
the forward kernels broadcast against the batch. A chunk holds at most
_STACK_ELEMENTS input elements, and one copy when x alone is larger or when
the block's `couples_samples` is true (BN in train mode normalizes over the
batch).
"""

import copy

import numpy as np

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-5
# entries below this magnitude are compared near-absolutely, which keeps
# finite-difference roundoff noise from registering as relative error
REL_FLOOR = 1e-3
# input elements per stacked forward of the module input and parameter
# checks: 8 copies of a 2,16,5,7 input; larger inputs run one copy per forward
_STACK_ELEMENTS = 8 * 2 * 16 * 5 * 7


def _central_differences(losses, x, copies):
    """Central differences of a scalar loss with respect to x.

    Point p moves element p // 2 up by DEFAULT_STEP for even p and down for
    odd p. `losses` maps an (m, x.size) stack of points, m <= copies, to
    their m losses.
    """
    flat = x.reshape(-1)
    values = np.stack([flat + DEFAULT_STEP, flat - DEFAULT_STEP], axis=1).reshape(-1)
    points = np.arange(values.size)
    # point p sits in row p % copies of its chunk: its flat index in `stacked`
    targets = points % copies * flat.size + points // 2
    out = np.empty(values.size)
    stacked = np.empty((copies, flat.size))
    for start in range(0, values.size, copies):
        chunk = slice(start, start + copies)
        m = values[chunk].size
        stacked[:m] = flat
        stacked.reshape(-1)[targets[chunk]] = values[chunk]
        out[chunk] = losses(stacked[:m])
    return ((out[0::2] - out[1::2]) / (2.0 * DEFAULT_STEP)).reshape(x.shape)


def fd_gradient(f, x):
    """Central-difference gradient of scalar-valued f with respect to x."""
    x = np.asarray(x, dtype=float)
    return _central_differences(lambda row: f(row.reshape(x.shape)), x, 1)


def max_rel_error(analytic, numeric):
    """Elementwise |a-n| / max(|a|, |n|, REL_FLOOR), reduced with max."""
    a = np.asarray(analytic, dtype=float)
    n = np.asarray(numeric, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), REL_FLOOR)
    return float(np.max(np.abs(a - n) / denom))


def _numeric_gradients(module, x, direction):
    """{"input": ..., <param name>: ...}: central differences of
    sum(module.forward(x) * direction) with respect to x and to each
    parameter. Sample j*N+i of a parameter's per-sample stack reads row j;
    the entry's own array is put back afterwards."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    copies = 1 if module.couples_samples else max(1, _STACK_ELEMENTS // x.size)
    batch = np.concatenate([x] * copies)

    def losses(stacked_batch):
        y, _ = module.forward(stacked_batch)
        return np.add.reduce(y.reshape(-1, direction.size) * direction.reshape(-1), axis=1)

    numeric = {"input": _central_differences(
        lambda rows: losses(rows.reshape((-1,) + x.shape[1:])), x, copies)}
    for name, entry in module.params.items():
        value = entry.value

        def param_losses(rows, entry=entry, shape=value.shape):
            m = rows.shape[0]
            entry.value = np.repeat(rows.reshape((m,) + shape), n, axis=0)
            return losses(batch[:m * n])

        try:
            numeric[name] = _central_differences(param_losses, value, copies)
        finally:
            entry.value = value
    return numeric


def check_module_gradients(module, x, direction_seed=0):
    """Full-module gradient check against finite differences.

    Returns {"input": err, <param name>: err, ...} where each entry is the
    max relative error between the analytic gradient and central differences
    of loss(x, params) = sum(module.forward(x) * R). The check runs on a
    copy, so `module`'s parameters, grads and normalization state are left
    as they were (train-mode forwards would move BN's running statistics).
    """
    module = copy.deepcopy(module)
    rng = np.random.default_rng(direction_seed)
    y0, _ = module.forward(x, keep_intermediates=True)
    direction = rng.standard_normal(y0.shape)

    module.params.zero_grads()
    dx = module.backward(direction.copy())

    numeric = _numeric_gradients(module, x, direction)
    analytic = {"input": dx, **{name: module.params.grad(name) for name in module.params.names()}}
    return {name: max_rel_error(analytic[name], numeric[name]) for name in numeric}
