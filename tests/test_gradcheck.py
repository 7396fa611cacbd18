"""Central differences: fd_gradient matches a per-element reference loop
bitwise, and the module checks' stacked evaluator matches fd_gradient bitwise
for the input and every parameter, with one copy per forward where samples
couple and bounded chunks."""

import numpy as np
import pytest

from elakit import gradcheck
from elakit import kernels as K
from elakit.gradcheck import _numeric_gradients, check_module_gradients, fd_gradient
from elakit.modules import MODULE_CHOICES, CoordinateAttention, build_attention

SHAPE = (2, 16, 5, 7)


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def reference_fd_gradient(f, x, step=gradcheck.DEFAULT_STEP):
    """Central differences one element at a time, on a perturbed copy of x."""
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


def projected_loss(module, direction):
    def loss(v):
        y, _ = module.forward(v)
        return float(np.add.reduce(y * direction, axis=None))
    return loss


def param_loss(module, name, x, direction):
    """The projected loss of one copy of x as a function of one parameter."""
    def loss(v):
        module.params.set_value(name, v)
        return projected_loss(module, direction)(x)
    return loss


def record_batches(monkeypatch, module):
    """Batch sizes of every forward of `module`'s class from now on."""
    batches = []
    cls = type(module)
    forward = cls.forward

    def recording(self, x, keep_intermediates=False):
        batches.append(x.shape[0])
        return forward(self, x, keep_intermediates)

    monkeypatch.setattr(cls, "forward", recording)
    return batches


def test_fd_gradient_matches_the_reference_on_a_kernel_loss():
    x, dz = rand((2, 3, 4, 5), 1), rand((2, 3, 4), 2)

    def loss(v):
        return float(np.sum(K.strip_pool_h(v) * dz))

    np.testing.assert_array_equal(fd_gradient(loss, x), reference_fd_gradient(loss, x))


@pytest.mark.parametrize("kind", ["ela-b", "ca"])
def test_fd_gradient_matches_the_reference_on_a_module_loss(kind):
    x, direction = rand(SHAPE, 1), rand(SHAPE, 2)
    loss = projected_loss(build_attention(kind, SHAPE[1], seed=3), direction)
    np.testing.assert_array_equal(fd_gradient(loss, x), reference_fd_gradient(loss, x))


def test_fd_gradient_leaves_its_argument_unchanged():
    x = rand((3, 4), 1)
    before = x.copy()
    fd_gradient(lambda v: float(np.sum(np.sin(v))), x)
    np.testing.assert_array_equal(x, before)


@pytest.mark.parametrize("kind", MODULE_CHOICES)
def test_stacked_fd_matches_fd_gradient(kind):
    x, direction = rand(SHAPE, 1), rand(SHAPE, 2)
    module = build_attention(kind, SHAPE[1], seed=3)
    stacked = _numeric_gradients(module, x, direction)
    assert list(stacked) == ["input", *module.params.names()]
    np.testing.assert_array_equal(
        stacked.pop("input"), fd_gradient(projected_loss(module, direction), x)
    )
    for name, numeric in stacked.items():
        value = module.params.value(name)
        expected = fd_gradient(param_loss(module, name, x, direction), value)
        module.params.set_value(name, value)
        np.testing.assert_array_equal(numeric, expected, err_msg=name)


def test_coupling_is_declared_by_the_block():
    assert build_attention("ca", 16).couples_samples
    assert not build_attention("ca-gn", 16).couples_samples
    eval_bn = build_attention("ca", 16)
    eval_bn.norm_state.mode = "eval"
    assert not eval_bn.couples_samples
    assert not any(build_attention(k, 16).couples_samples for k in MODULE_CHOICES if k != "ca")


def test_eval_mode_batch_norm_passes_the_check():
    # eval-mode BN has its own adjoint: the running statistics are constants
    module = build_attention("ca", SHAPE[1], seed=3)
    module.forward(rand(SHAPE, 4))  # a train-mode forward sets the running statistics
    module.norm_state.mode = "eval"
    errors = check_module_gradients(module, rand(SHAPE, 1), direction_seed=2)
    assert max(errors.values()) < 1e-5, errors


def test_stacking_a_coupled_block_breaks_its_input_check(monkeypatch):
    # negative control: train-mode BN fed stacked copies normalizes over all
    # of them, so the finite differences no longer match backward
    x = rand(SHAPE, 1)
    module = build_attention("ca", SHAPE[1], seed=3)
    assert check_module_gradients(module, x, direction_seed=2)["input"] < 1e-5
    monkeypatch.setattr(CoordinateAttention, "couples_samples", False)
    assert check_module_gradients(module, x, direction_seed=2)["input"] > 1e-5


def assert_within_the_budget(batches, x, points):
    """Stacked batches of whole copies of x, within the element budget, that
    evaluate each of `points` points once."""
    per_sample = x.size // x.shape[0]
    assert max(batches) > x.shape[0]
    assert max(batches) * per_sample <= gradcheck._STACK_ELEMENTS
    assert all(b % x.shape[0] == 0 for b in batches)
    assert sum(batches) // x.shape[0] == points


@pytest.mark.parametrize("kind", ["se", "ela-b", "ca-gn"])
def test_stacked_batches_stay_within_the_budget(monkeypatch, kind):
    x, direction = rand(SHAPE, 1), rand(SHAPE, 2)
    module = build_attention(kind, SHAPE[1], seed=3)
    batches = record_batches(monkeypatch, module)
    _numeric_gradients(module, x, direction)
    assert_within_the_budget(batches, x, 2 * (x.size + module.params.total_params()))


def test_coupled_block_runs_one_copy_per_forward(monkeypatch):
    x = rand(SHAPE, 1)
    module = build_attention("ca", SHAPE[1], seed=3)
    batches = record_batches(monkeypatch, module)
    check_module_gradients(module, x, direction_seed=2)
    assert set(batches) == {x.shape[0]}
    assert len(batches) == 1 + 2 * (x.size + module.params.total_params())


def test_input_larger_than_the_budget_runs_one_copy_per_forward(monkeypatch):
    x = rand((1, 8, 35, 35), 1)
    assert x.size > gradcheck._STACK_ELEMENTS
    direction = rand(x.shape, 2)
    module = build_attention("eca", x.shape[1], seed=3)
    batches = record_batches(monkeypatch, module)
    _numeric_gradients(module, x, direction)
    assert batches == [x.shape[0]] * (2 * (x.size + module.params.total_params()))


def test_stacking_a_coupled_block_breaks_its_f1_weight_check(monkeypatch):
    # negative control: with stacked copies, train-mode BN normalizes f1's
    # output over all of them, so each copy's f1.weight perturbation leaks
    # into the others. BN's statistics do not depend on its own gamma and
    # beta, so their differences stay exact either way.
    x = rand(SHAPE, 1)
    module = build_attention("ca", SHAPE[1], seed=3)
    assert check_module_gradients(module, x, direction_seed=2)["f1.weight"] < 1e-5
    monkeypatch.setattr(CoordinateAttention, "couples_samples", False)
    errors = check_module_gradients(module, x, direction_seed=2)
    assert errors["f1.weight"] > 1e-5
    assert max(errors["norm.gamma"], errors["norm.beta"]) < 1e-5


@pytest.mark.parametrize("kind", MODULE_CHOICES)
def test_checks_leave_the_parameter_arrays_as_they_were(kind):
    x, direction = rand(SHAPE, 1), rand(SHAPE, 2)
    module = build_attention(kind, SHAPE[1], seed=3)
    before = {name: (entry.value, entry.value.copy()) for name, entry in module.params.items()}
    check_module_gradients(module, x, direction_seed=2)
    _numeric_gradients(module, x, direction)
    for name, entry in module.params.items():
        assert entry.value is before[name][0]
        np.testing.assert_array_equal(entry.value, before[name][1])


@pytest.mark.parametrize("kind", MODULE_CHOICES)
def test_checks_leave_the_input_and_direction_as_they_were(kind):
    # every target's rows are perturbed copies: neither x nor the direction
    # is written, on the stacked path or the one-copy path of a coupled block
    x, direction = rand(SHAPE, 1), rand(SHAPE, 2)
    x_before, direction_before = x.copy(), direction.copy()
    module = build_attention(kind, SHAPE[1], seed=3)
    check_module_gradients(module, x, direction_seed=2)
    _numeric_gradients(module, x, direction)
    np.testing.assert_array_equal(x, x_before)
    np.testing.assert_array_equal(direction, direction_before)


def test_a_failed_forward_puts_the_parameter_array_back(monkeypatch):
    # the forward fails only once a parameter's stack is installed, so the
    # input's points all pass and the failure falls in a parameter's chunk
    x, direction = rand(SHAPE, 1), rand(SHAPE, 2)
    module = build_attention("ela-b", SHAPE[1], seed=3)
    before = {name: entry.value for name, entry in module.params.items()}
    forward = type(module).forward

    def failing(self, x, keep_intermediates=False):
        if any(entry.value is not before[name] for name, entry in self.params.items()):
            raise FloatingPointError("forward failed")
        return forward(self, x, keep_intermediates)

    monkeypatch.setattr(type(module), "forward", failing)
    with pytest.raises(FloatingPointError):
        _numeric_gradients(module, x, direction)
    assert all(entry.value is before[name] for name, entry in module.params.items())
