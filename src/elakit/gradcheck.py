"""Finite-difference verification of analytic backward passes.

All checks use central differences (default step 1e-5) in double precision.
Module-level checks project the output onto a fixed random direction R so a
scalar loss sum(y * R) exercises every output entry; analytic gradients then
come from backward(R).

The module input check evaluates its 2 * x.size central-difference points in
chunks. Each chunk stacks m perturbed copies of x on the batch axis, runs one
forward, and reads one loss per copy from that copy's slice of the output.
Values and losses are formed as fd_gradient forms them, so the result is
bitwise the same. A chunk holds at most _STACK_ELEMENTS input elements, and
m is 1 when x alone is larger or when the block's `couples_samples` is true
(BN in train mode normalizes over the batch): each perturbed x then runs
alone, at batch N, through the same loop.
"""

import copy

import numpy as np

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-5
# entries below this magnitude are compared near-absolutely, which keeps
# finite-difference roundoff noise from registering as relative error
REL_FLOOR = 1e-3
# input elements per stacked forward of the module input check: 8 copies of
# a 2,16,5,7 input; larger inputs run one copy per forward
_STACK_ELEMENTS = 8 * 2 * 16 * 5 * 7


def fd_gradient(f, x, step=DEFAULT_STEP):
    """Central-difference gradient of scalar-valued f with respect to x."""
    x = np.array(x, dtype=float)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f(x)
        flat[i] = orig - step
        fm = f(x)
        flat[i] = orig
        grad.reshape(-1)[i] = (fp - fm) / (2.0 * step)
    return grad


def max_rel_error(analytic, numeric):
    """Elementwise |a-n| / max(|a|, |n|, REL_FLOOR), reduced with max."""
    a = np.asarray(analytic, dtype=float)
    n = np.asarray(numeric, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), REL_FLOOR)
    return float(np.max(np.abs(a - n) / denom))


def _input_fd(module, x, direction, step=DEFAULT_STEP):
    """fd_gradient of sum(module.forward(x) * direction) with respect to x,
    evaluated on chunks of perturbed copies of x stacked on the batch axis."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    copies = 1 if module.couples_samples else max(1, _STACK_ELEMENTS // flat.size)
    # point p perturbs element p // 2: upward for even p, downward for odd p
    values = np.stack([flat + step, flat - step], axis=1).reshape(-1)
    elements = np.arange(values.size) // 2
    weights = direction.reshape(-1)
    losses = np.empty(values.size)
    stacked = np.empty((copies, flat.size))
    rows = np.arange(copies)
    for start in range(0, values.size, copies):
        chunk = slice(start, start + copies)
        m = values[chunk].size
        stacked[:m] = flat
        stacked[rows[:m], elements[chunk]] = values[chunk]
        y, _ = module.forward(stacked[:m].reshape((-1,) + x.shape[1:]))
        # one loss per copy: the sum over that copy's slice, as loss_of_input sums
        losses[chunk] = np.add.reduce(y.reshape(m, -1) * weights, axis=1)
    return ((losses[0::2] - losses[1::2]) / (2.0 * step)).reshape(x.shape)


def check_module_gradients(module, x, direction_seed=0, step=DEFAULT_STEP):
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

    errors = {}

    def loss_of_input(xv):
        y, _ = module.forward(xv)
        return float(np.add.reduce(y * direction, axis=None))  # np.sum, minus its wrapper

    errors["input"] = max_rel_error(dx, _input_fd(module, x, direction, step))

    for name in module.params.names():
        value = module.params.value(name)

        def loss_of_param(v, _name=name):
            module.params.set_value(_name, v)
            return loss_of_input(x)

        # fd_gradient perturbs its own copy, so `value` is intact to restore
        numeric = fd_gradient(loss_of_param, value, step)
        module.params.set_value(name, value)
        errors[name] = max_rel_error(module.params.grad(name), numeric)
    return errors
