"""Finite-difference verification of analytic backward passes.

All checks use central differences (default step 1e-5) in double precision.
Module-level checks project the output onto a fixed random direction R so a
scalar loss sum(y * R) exercises every output entry; analytic gradients then
come from backward(R).
"""

import copy

import numpy as np

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-5
# entries below this magnitude are compared near-absolutely, which keeps
# finite-difference roundoff noise from registering as relative error
REL_FLOOR = 1e-3


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

    errors["input"] = max_rel_error(dx, fd_gradient(loss_of_input, x, step))

    for name in module.params.names():
        value = module.params.value(name)

        def loss_of_param(v, _name=name, _orig=value):
            module.params.set_value(_name, v)
            out = loss_of_input(x)
            module.params.set_value(_name, _orig)
            return out

        numeric = fd_gradient(loss_of_param, value.copy(), step)
        errors[name] = max_rel_error(module.params.grad(name), numeric)
    return errors
