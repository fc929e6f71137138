import ctypes
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from srlgan import nn as NN


def central_diff_grads(net, loss_fn, step=1e-4):
    """Finite-difference oracle: perturb every parameter of a cloned
    parameter vector and difference the scalar loss."""
    theta = net.theta.copy()
    grads = np.zeros_like(theta)
    for k in range(theta.size):
        for sign, slot in ((+1, 0), (-1, 1)):
            bumped = theta.copy()
            bumped[k] += sign * step
            net.theta[...] = bumped
            if slot == 0:
                up = loss_fn()
            else:
                down = loss_fn()
        grads[k] = (up - down) / (2 * step)
    net.theta[...] = theta
    return grads


def rel_err(a, b):
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
    return np.max(np.abs(a - b) / denom)


def _linear(in_dim, out_dim):
    """A Linear whose arrays are views into a zeroed MLP's flat store."""
    return NN.MLP([in_dim, out_dim], None).layers[0]


def test_linear_identity():
    layer = _linear(3, 3)
    layer.weight[...] = np.eye(3)
    x = np.random.default_rng(0).normal(size=(4, 3))
    assert np.allclose(layer.forward(x), x)


def test_linear_zero_weight_constant():
    layer = _linear(2, 3)
    layer.bias[...] = [1.0, 2.0, 3.0]
    out = layer.forward(np.ones((5, 2)))
    assert np.allclose(out, np.tile([1.0, 2.0, 3.0], (5, 1)))


def test_linear_hand_arithmetic():
    layer = _linear(2, 2)
    # out = W^T x for W stored (in, out): columns are output units
    layer.weight[...] = [[1.0, 3.0], [2.0, 4.0]]
    out = layer.forward(np.array([[1.0, 1.0]]))
    assert np.allclose(out, [[3.0, 7.0]])


def test_linear_shape_mismatch():
    layer = _linear(3, 2)
    with pytest.raises(ValueError):
        layer.forward(np.ones((1, 4)))


def test_activations():
    assert NN.Sigmoid.forward(np.array([[0.0]]))[0, 0] == 0.5
    out = NN.LeakyReLU.forward(np.array([[-2.0, 3.0]]))
    assert out[0, 0] == pytest.approx(-0.02)
    assert out[0, 1] == 3.0


def test_dropout_eval_identity():
    # Without an rng, a net with dropout gives the bits of one without, and
    # records no dropout keep mask.
    x = np.random.default_rng(0).normal(size=(3, 5))
    net = NN.MLP([5, 4, 2], np.random.default_rng(1), dropout=0.4)
    plain = NN.MLP([5, 4, 2], np.random.default_rng(1))
    assert net.forward(x).tobytes() == plain.forward(x).tobytes()
    assert net._keeps == []


def test_mlp_builds_dropout_only_at_a_positive_rate():
    def dropouts(rate):
        net = NN.MLP([3, 5, 4, 2], np.random.default_rng(0), dropout=rate)
        rng = np.random.default_rng(1)
        net.forward(np.ones((2, 3)), rng=rng)
        drew = rng.bit_generator.state != np.random.default_rng(1).bit_generator.state
        return len(net._keeps), drew

    assert (dropouts(0.0), dropouts(0.3)) == ((0, False), (2, True))


def test_dropout_train_scales_survivors():
    """Dropout.forward consumes its input: it scales it in place by
    keep / (1 - rate) and returns it with the bool keep mask."""
    rng = np.random.default_rng(0)
    x = np.ones((200, 50))
    given_x = x.copy()
    y, keep = NN.Dropout.forward(given_x, 0.4, rng)
    assert y is given_x and keep.dtype == bool
    assert np.array_equal(y, x * (keep / (1.0 - 0.4)))
    kept = y[y != 0]
    assert np.allclose(kept, 1.0 / 0.6)
    # survival rate near 1 - rate
    assert abs((y != 0).mean() - 0.6) < 0.02


def _same_bits(a, b):
    """Equal bit patterns, except that any NaN matches any NaN (its sign
    and payload are not compared)."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64)))


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
           2.2250738585072014e-308, -1e-310, 1e-310, 1.7976931348623157e308]


def test_sigmoid_saturates_without_a_floating_point_error():
    """tier-1 raises on every floating-point error (conftest); a saturated
    sigmoid's overflow and underflow are not errors."""
    y = NN.Sigmoid.forward(np.array([-1000.0, -709.5, 0.0, 1000.0]))
    assert y[0] == 0.0 and 0.0 < y[1] < 1e-300 and y[2] == 0.5 and y[3] == 1.0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(x=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 9)),
                elements=st.one_of(st.floats(width=64), st.sampled_from(SPECIAL))),
       data=st.data())
def test_leaky_relu_matches_two_branch_where_bit_for_bit(x, data):
    grad_out = data.draw(arrays(np.float64, x.shape, elements=st.one_of(
        st.floats(width=64), st.sampled_from(SPECIAL))))
    slope = NN.LEAKY_SLOPE
    with np.errstate(all="ignore"):
        given_x = x.copy()
        y = NN.LeakyReLU.forward(given_x)       # consumes its input
        grad_in = NN.LeakyReLU.backward(grad_out, x >= 0)     # MLP.forward's mask
        assert y is given_x
        assert _same_bits(y, np.where(x >= 0, x, slope * x))
        assert _same_bits(grad_in, np.where(x >= 0, grad_out, slope * grad_out))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(x=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 9)),
                elements=st.one_of(st.floats(width=64), st.sampled_from(SPECIAL))))
def test_sigmoid_in_place_matches_textbook_form_bit_for_bit(x):
    """Sigmoid.forward consumes its input: it negates, exponentiates, adds 1
    and inverts in that array, which gives the bits of 1 / (1 + exp(-x))."""
    with np.errstate(all="ignore"):
        want = 1.0 / (1.0 + np.exp(-x))
        given_x = x.copy()
        y = NN.Sigmoid.forward(given_x)
    assert y is given_x
    assert _same_bits(y, want)


@pytest.mark.parametrize("rows, fan_in, fan_out", [(1, 16, 32768), (64, 71, 1682),
                                                   (483, 48, 3952)])
def test_linear_forward_adds_bias_in_place_bit_for_bit(rows, fan_in, fan_out):
    """Linear.forward adds the bias into the product it made, so it gives the
    bits of x @ W + b and allocates one output, not two (the broadcast add
    may take a ufunc buffer of at most 64 KiB)."""
    rng = np.random.default_rng(fan_out)
    layer = _linear(fan_in, fan_out)
    layer.weight[...] = rng.normal(size=layer.weight.shape)
    layer.bias[...] = rng.normal(size=fan_out)
    x = rng.normal(size=(rows, fan_in))
    want = x @ layer.weight + layer.bias
    tracemalloc.start()
    try:
        out = layer.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _same_bits(out, want)
    assert peak < out.nbytes + 2 ** 17, (peak, out.nbytes)


def test_single_linear_layer_gradient():
    # L = sum(out) for one linear layer: dL/dW = column of x sums
    rng = np.random.default_rng(1)
    net = NN.MLP([3, 2], rng)
    layer = net.layers[0]
    x = rng.normal(size=(1, 3))
    net.zero_grad()
    out = layer.forward(x)
    layer.backward(np.ones_like(out))
    assert np.allclose(layer.grad_weight, np.outer(x[0], np.ones(2)))
    assert np.allclose(layer.grad_bias, 1.0)


def test_hidden_gradient_passes_whole_at_a_zero_pre_activation():
    # MLP.forward's mask is x >= 0: where a hidden pre-activation is exactly
    # 0, LeakyReLU's factor is 1.0, as in the two-branch np.where form.
    net = NN.MLP([2, 3, 1], None)      # zero weights: every hidden pre-activation is 0
    net.layers[1].weight[...] = [[1.0], [2.0], [3.0]]
    x = np.array([[1.0, -2.0]])
    y = net.forward(x)
    net.zero_grad()
    net.backward(np.ones_like(y))
    delta = y * (1.0 - y)
    assert np.array_equal(net.layers[0].grad_weight, x.T @ (delta @ net.layers[1].weight.T))


def test_zero_grad_clears_nothing_and_a_step_before_backward_is_refused():
    # zero_grad only marks the layers; a step before any backward would read
    # the stale gradient, so it is refused before it writes anything.
    net = NN.MLP([3, 4, 2], np.random.default_rng(0))
    opt = NN.Adam(net, lr=0.1)
    net.forward(np.ones((2, 3)))
    net.backward(np.ones((2, 2)))
    stale = net.grad.copy()
    net.zero_grad()
    assert np.array_equal(net.grad, stale) and stale.any()
    before = net.theta.copy()
    with pytest.raises(RuntimeError, match=r"^layer0 has no gradient: no backward since"):
        opt.step()
    assert opt.t == 0 and not opt.m.any() and not opt.v.any()
    assert np.array_equal(net.theta, before)


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    for trial in range(5):
        sizes = [3, 5, 5, 2]
        net = NN.MLP(sizes, rng)
        x = rng.normal(size=(3, sizes[0]))
        target = rng.uniform(0.1, 0.9, size=(3, sizes[-1]))

        def loss_fn():
            out = net.forward(x)
            return float(np.sum((out - target) ** 2))

        net.zero_grad()
        out = net.forward(x)
        net.backward(2.0 * (out - target))
        analytic = np.concatenate([g.ravel() for _, _, g in net.params()])
        numeric = central_diff_grads(net, loss_fn)
        assert rel_err(analytic, numeric) < 1e-4


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    net = NN.MLP([4, 6, 3], rng)
    x = rng.normal(size=(2, 4))
    target = rng.uniform(0.2, 0.8, size=(2, 3))
    out = net.forward(x)
    input_grad = net.input_grad(2.0 * (out - target))

    step = 1e-6
    numeric = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        for sign in (+1, -1):
            xb = x.copy()
            xb[idx] += sign * step
            val = float(np.sum((net.forward(xb) - target) ** 2))
            if sign > 0:
                up = val
            else:
                down = val
        numeric[idx] = (up - down) / (2 * step)
    assert rel_err(input_grad, numeric) < 1e-4


def test_gradients_with_dropout_match_finite_differences():
    """Parameter and input gradients through drawn dropout masks: every
    loss evaluation re-seeds the forward's rng, so it draws the same masks."""
    rng = np.random.default_rng(12)
    net = NN.MLP([4, 7, 6, 3], rng, dropout=0.4)
    x = rng.normal(size=(5, 4))
    target = rng.uniform(0.2, 0.8, size=(5, 3))

    def loss_fn(inputs=x):
        out = net.forward(inputs, rng=np.random.default_rng(13))
        return float(np.sum((out - target) ** 2))

    def loss_grad():
        return 2.0 * (net.forward(x, rng=np.random.default_rng(13)) - target)

    net.zero_grad()
    grad_out = loss_grad()
    assert len(net._keeps) == 2 and all((k == 0).any() for k in net._keeps)
    net.backward(grad_out)
    numeric = central_diff_grads(net, loss_fn)
    assert rel_err(net.grad, numeric) < 1e-4

    input_grad = net.input_grad(loss_grad())
    step = 1e-6
    numeric = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        up, down = x.copy(), x.copy()
        up[idx] += step
        down[idx] -= step
        numeric[idx] = (loss_fn(up) - loss_fn(down)) / (2 * step)
    assert rel_err(input_grad, numeric) < 1e-4


def test_adam_refuses_a_layer_that_no_backward_wrote_since_zero_grad():
    net = NN.MLP([3, 4, 4, 2], np.random.default_rng(0))
    opt = NN.Adam(net, lr=0.1)
    x = np.random.default_rng(1).normal(size=(2, 3))
    net.zero_grad()
    # A backward through the last two Linears only: layer0 keeps its mark.
    net.forward(x)
    net.layers[2].backward(np.ones((2, 2)))
    net.layers[1].backward(np.ones((2, 4)))
    before = net.theta.copy()
    with pytest.raises(RuntimeError, match=r"^layer0 has no gradient"):
        opt.step()
    assert opt.t == 0 and np.array_equal(net.theta, before)
    # A whole backward writes every layer, and the step goes through.
    net.zero_grad()
    net.backward(net.forward(x) - 0.5)
    opt.step()
    assert opt.t == 1 and not np.array_equal(net.theta, before)


def test_adam_first_step_magnitude():
    # Constant gradient: the bias-corrected first step has magnitude ~lr.
    net = NN.MLP([1, 1], np.random.default_rng(0))
    before = net.theta.copy()
    opt = NN.Adam(net, lr=0.01)
    net.layers[0].grad_weight[...] = 3.0
    net.layers[0].grad_bias[...] = 3.0
    opt.step()
    delta = net.theta - before
    assert np.allclose(np.abs(delta), 0.01, rtol=1e-4)


def test_adam_identical_grads_identical_updates():
    net = NN.MLP([2, 2], np.random.default_rng(5))
    net.layers[0].weight[...] = 0.5
    opt = NN.Adam(net, lr=0.02)
    net.layers[0].grad_weight[...] = 1.7
    net.layers[0].grad_bias[...] = 1.7
    opt.step()
    w = net.layers[0].weight
    assert np.allclose(w, w[0, 0])


def test_adam_nonfinite_grad_raises():
    net = NN.MLP([3, 4, 4, 2], np.random.default_rng(0))
    opt = NN.Adam(net, lr=0.01)
    before = net.theta.copy()
    net.layers[1].grad_weight[1, 3] = np.nan
    with pytest.raises(NN.TrainingError, match=r"layer1\.weight"):
        opt.step()
    assert np.array_equal(net.theta, before)


def test_layer_arrays_are_views_of_the_flat_store():
    net = NN.MLP([3, 5, 4, 2], np.random.default_rng(2), dropout=0.3)
    linears = net.layers
    assert len(linears) == 3 and all(type(layer) is NN.Linear for layer in linears)
    assert net.theta.size == net.grad.size == 3 * 5 + 5 + 5 * 4 + 4 + 4 * 2 + 2
    for layer in linears:
        for value, grad in ((layer.weight, layer.grad_weight),
                            (layer.bias, layer.grad_bias)):
            assert np.shares_memory(value, net.theta)
            assert np.shares_memory(grad, net.grad)
    assert np.array_equal(net.theta,
                          np.concatenate([v.ravel() for _, v, _ in net.params()]))
    net.theta[...] = np.arange(net.theta.size, dtype=np.float64)
    assert linears[0].weight[0, 1] == 1.0 and linears[0].bias[0] == 15.0


def test_use_grad_points_every_gradient_view_into_the_given_buffer():
    net = NN.MLP([3, 5, 4, 2], np.random.default_rng(2), dropout=0.3)
    n = net.theta.size
    buffer = np.full(n + 7, np.nan)
    net.use_grad(buffer)
    assert np.shares_memory(net.grad, buffer) and net.grad.size == n
    for _, _, grad in net.params():
        assert np.shares_memory(grad, buffer[:n])
    net.zero_grad()
    net.forward(np.random.default_rng(3).normal(size=(4, 3)), rng=np.random.default_rng(4))
    net.backward(np.ones((4, 2)))
    assert np.isfinite(buffer[:n]).all() and np.isnan(buffer[n:]).all()
    assert np.array_equal(buffer[:n], np.concatenate([g.ravel() for _, _, g in net.params()]))


def _reference_theta(sizes, rng):
    """An independent init draw: per layer in order, He uniform weights for
    the hidden layers and Xavier uniform for the output layer, zero biases."""
    parts = []
    for k, (a, b) in enumerate(zip(sizes, sizes[1:])):
        bound = np.sqrt(6.0 / (a + b)) if k == len(sizes) - 2 else np.sqrt(6.0 / a)
        parts += [rng.uniform(-bound, bound, size=(a, b)).ravel(), np.zeros(b)]
    return np.concatenate(parts)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("sizes, dropout", [
    ([3, 2], 0.0),
    ([5, 7, 6, 3], 0.0),
    ([5, 7, 6, 3], 0.3),
    ([9, 16, 32, 32, 40], 0.0),     # the generator's depth, at small widths
    ([49, 64, 16, 4, 1], 0.4),      # the discriminator's depth and dropout
], ids=["one-layer", "three-layer", "three-layer-dropout", "generator", "discriminator"])
def test_construction_draws_each_layer_in_place_bit_for_bit(seed, sizes, dropout):
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    net = NN.MLP(sizes, rng, dropout=dropout)
    assert np.array_equal(net.theta, _reference_theta(sizes, reference))
    assert not net.grad.any()
    assert np.array_equal(rng.random(8), reference.random(8))


def test_mlp_without_rng_starts_at_zero():
    net = NN.MLP([4, 6, 3], None, dropout=0.2)
    assert net.theta.size == 4 * 6 + 6 + 6 * 3 + 3
    assert not net.theta.any() and not net.grad.any()


def test_adam_matches_textbook_per_tensor_adam_bit_for_bit():
    rng = np.random.default_rng(21)
    net = NN.MLP([4, 6, 5, 3], rng)
    opt = NN.Adam(net, lr=0.003)
    # Kingma & Ba (2015), Algorithm 1, applied tensor by tensor.
    params = {name: value.copy() for name, value, _ in net.params()}
    m = {name: np.zeros_like(v) for name, v in params.items()}
    v = {name: np.zeros_like(p) for name, p in params.items()}
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.003
    for t in range(1, 6):
        net.zero_grad()
        x = rng.normal(size=(7, 4))
        net.backward(net.forward(x) - 0.5)
        for name, _, grad in net.params():
            m[name] = b1 * m[name] + (1.0 - b1) * grad
            v[name] = b2 * v[name] + (1.0 - b2) * grad * grad
            m_hat = m[name] / (1.0 - b1 ** t)
            v_hat = v[name] / (1.0 - b2 ** t)
            params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
        opt.step()
        for name, value, _ in net.params():
            assert np.array_equal(value, params[name]), (t, name)
    assert np.array_equal(opt.m, np.concatenate([a.ravel() for a in m.values()]))
    assert np.array_equal(opt.v, np.concatenate([a.ravel() for a in v.values()]))


def test_blocked_adam_matches_textbook_adam_across_blocks():
    # 104,707 parameters: three full Adam blocks and a ragged fourth.
    net = NN.MLP([40, 300, 300, 7], np.random.default_rng(22))
    assert net.theta.size == 104_707
    assert 3 * NN.ADAM_BLOCK < net.theta.size < 4 * NN.ADAM_BLOCK
    opt = NN.Adam(net, lr=0.003)
    theta = net.theta.copy()
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.003
    rng = np.random.default_rng(23)
    for t in range(1, 4):
        net.zero_grad()
        net.backward(net.forward(rng.normal(size=(5, 40))) - 0.5)
        grad = net.grad.copy()
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * grad * grad
        theta = theta - lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        opt.step()
        assert np.array_equal(net.theta, theta), t
    assert np.array_equal(opt.m, m) and np.array_equal(opt.v, v)

    # A NaN in the last block alone is refused before any block is written.
    before = (net.theta.copy(), opt.m.copy(), opt.v.copy())
    net.grad[-1] = np.nan
    with pytest.raises(NN.TrainingError, match=r"layer2\.bias at step 4"):
        opt.step()
    assert opt.t == 3
    for after, expected in zip((net.theta, opt.m, opt.v), before):
        assert np.array_equal(after, expected)


def test_adam_refused_step_leaves_optimizer_unchanged():
    net = NN.MLP([3, 4, 2], np.random.default_rng(6))
    twin = NN.MLP([3, 4, 2], np.random.default_rng(6))
    opt, fresh = NN.Adam(net, lr=0.01), NN.Adam(twin, lr=0.01)
    before = net.theta.copy()
    net.grad[2] = np.inf
    with pytest.raises(NN.TrainingError, match="at step 1"):
        opt.step()
    assert opt.t == 0
    assert np.array_equal(net.theta, before)
    assert not opt.m.any() and not opt.v.any()
    grad = np.random.default_rng(7).normal(size=net.grad.size)
    net.grad[...] = grad
    twin.grad[...] = grad
    opt.step()
    fresh.step()
    assert opt.t == fresh.t == 1
    for a, b in ((net.theta, twin.theta), (opt.m, fresh.m), (opt.v, fresh.v)):
        assert np.array_equal(a, b)


def test_input_grad_leaves_grad_untouched():
    net = NN.MLP([6, 8, 5, 3], np.random.default_rng(8), dropout=0.3)
    x = np.random.default_rng(9).normal(size=(4, 6))

    def forward():      # each pass reads its own forward, with the same masks
        return net.forward(x, rng=np.random.default_rng(10))

    g = forward() - 0.5
    net.grad[...] = 0.25
    y, masks, keeps = net._y.copy(), list(net._masks), list(net._keeps)
    input_grad = net.input_grad(g)
    assert np.all(net.grad == 0.25)
    # The chain written out from the tape: the sigmoid's derivative, then
    # below each upper Linear its layer's dropout scale and LeakyReLU factor.
    assert len(masks) == len(keeps) == 2
    expected = g * y * (1.0 - y)
    for linear, mask, keep in zip(net.layers[:0:-1], masks[::-1], keeps[::-1]):
        scale = keep / (1.0 - 0.3)
        expected = expected @ linear.weight.T * scale * np.maximum(mask, NN.LEAKY_SLOPE)
    assert np.array_equal(input_grad, expected @ net.layers[0].weight.T)
    # The input layer's backward returns no input gradient; told otherwise,
    # it returns input_grad's bits from the parameter-gradient pass.
    forward()
    assert net.backward(g) is None
    forward()
    net.layers[0].input_layer = False
    assert np.array_equal(input_grad, net._backprop(g, NN.Linear.backward))
    assert np.any(net.grad != 0.25)


@pytest.mark.parametrize("sizes", [(6, 16, 32, 11), (17, 24, 8, 1)],
                         ids=["generator-like", "discriminator-like"])
def test_training_pass_matches_out_of_place_chain_bit_for_bit(sizes):
    """A training forward with dropout, its backward and a second forward's
    input_grad, which run their activations in place and keep bool dropout
    masks, give the bits of the out-of-place chain: x @ W + b, the
    two-branch LeakyReLU, x * scale with scale = keep / (1 - rate), the
    textbook sigmoid and its derivative g * y * (1 - y)."""
    rate, slope = 0.3, NN.LEAKY_SLOPE
    net = NN.MLP(sizes, np.random.default_rng(50), dropout=rate)
    x = np.random.default_rng(51).normal(size=(9, sizes[0]))
    draws = np.random.default_rng(52)
    inputs, masks, scales, h = [], [], [], x
    for linear in net.layers[:-1]:
        inputs.append(h)
        z = h @ linear.weight + linear.bias
        masks.append(z >= 0)
        scales.append((draws.random(z.shape) >= rate) / (1.0 - rate))
        h = np.where(z >= 0, z, slope * z) * scales[-1]
    inputs.append(h)
    y = 1.0 / (1.0 + np.exp(-(h @ net.layers[-1].weight + net.layers[-1].bias)))
    g = y - 0.5
    d, grads = g * y * (1.0 - y), []
    for k in range(len(net.layers) - 1, -1, -1):
        grads[:0] = [(inputs[k].T @ d).ravel(), d.sum(axis=0)]
        d = d @ net.layers[k].weight.T
        if k:
            d = d * scales[k - 1]
            d = np.where(masks[k - 1], d, slope * d)

    assert net.forward(x, rng=np.random.default_rng(52)).tobytes() == y.tobytes()
    net.zero_grad()
    net.backward(g)
    assert net.grad.tobytes() == np.concatenate(grads).tobytes()
    net.forward(x, rng=np.random.default_rng(52))
    assert net.input_grad(g).tobytes() == d.tobytes()


def held_activations(net):
    """What of an activation tape `net` holds: `layer{k}` for each Linear
    that holds its input, and the name of every array, or list holding an
    array, among the MLP's own attributes besides `theta` and `grad`."""
    held = [f"layer{k}" for k, linear in enumerate(net.layers) if linear._x is not None]
    for name, value in vars(net).items():
        if isinstance(value, list) and any(isinstance(v, np.ndarray) for v in value):
            held.append(name)
        elif isinstance(value, np.ndarray) and name not in ("theta", "grad"):
            held.append(name)
    return held


@pytest.mark.parametrize("sizes, dropout", [((6, 16, 32, 11), 0.0), ((17, 24, 8, 1), 0.4)],
                         ids=["generator-like", "discriminator-like"])
def test_predict_matches_forward_bit_for_bit(sizes, dropout):
    """`predict` gives the rng-less forward's bits and keeps no activation,
    also when it follows a training forward."""
    net = NN.MLP(sizes, np.random.default_rng(40), dropout=dropout)
    x = np.random.default_rng(41).normal(size=(9, sizes[0]))
    want = net.forward(x)
    net.forward(x, rng=np.random.default_rng(42))
    assert held_activations(net) == ["layer0", "layer1", "layer2", "_masks",
                                     *(["_keeps"] if dropout else []), "_y"]
    got = net.predict(x)
    assert got.tobytes() == want.tobytes()
    assert held_activations(net) == []


@pytest.mark.parametrize("sizes", [(6, 16, 32, 11), (17, 24, 8, 1), (5, 3)],
                         ids=["generator-like", "discriminator-like", "no-hidden-layer"])
def test_predict_into_out_matches_predict_bit_for_bit(sizes):
    """`predict(x, out=buf)` writes `predict(x)`'s bytes into `buf`, a
    reshaped prefix of a longer NaN-filled vector as the Trainer passes it,
    returns `buf` itself, leaves the rest of the vector alone, and keeps no
    activation, also when it follows a training forward."""
    net = NN.MLP(sizes, np.random.default_rng(46), dropout=0.3)
    x = np.random.default_rng(47).normal(size=(9, sizes[0]))
    want = net.predict(x)
    vector = np.full(9 * sizes[-1] + 5, np.nan)
    buf = vector[:9 * sizes[-1]].reshape(9, sizes[-1])
    net.forward(x, rng=np.random.default_rng(48))
    got = net.predict(x, out=buf)
    assert got is buf
    assert got.tobytes() == want.tobytes()
    assert np.isnan(vector[9 * sizes[-1]:]).all()
    assert held_activations(net) == []


@pytest.mark.parametrize("first, second", [("backward", "backward"), ("backward", "input_grad"),
                                           ("input_grad", "backward"),
                                           ("input_grad", "input_grad"),
                                           ("predict", "backward")])
def test_one_forward_serves_one_backward(first, second):
    """A backward or input_grad pops the whole tape it read, and a second
    pass on the same forward (or one after predict) is refused, naming the
    output Linear, before any layer runs: it never reaches a Linear or an
    activation with nothing to read, and never takes the empty list of
    dropout keep masks for eval mode."""
    net = NN.MLP([5, 7, 6, 3], np.random.default_rng(43), dropout=0.3)
    x = np.random.default_rng(44).normal(size=(4, 5))
    g = net.forward(x, rng=np.random.default_rng(45)) - 0.5
    getattr(net, first)(x if first == "predict" else g)
    assert held_activations(net) == []
    grad = net.grad.copy()
    with pytest.raises(RuntimeError, match=r"^layer2 holds no activations: each forward "
                                           r"serves one backward or input_grad$"):
        getattr(net, second)(g)
    assert net.grad.tobytes() == grad.tobytes()


def test_input_layer_backward_returns_no_input_gradient():
    net = NN.MLP([4, 5, 2], np.random.default_rng(13))
    first, hidden = net.layers
    assert first.input_layer and not hidden.input_layer
    net.forward(np.ones((3, 4)))
    assert first.backward(np.ones((3, 5))) is None
    assert hidden.backward(np.ones((3, 2))).shape == (3, 5)


def test_forward_deterministic_given_seed():
    a = NN.MLP([3, 4, 2], np.random.default_rng(9), dropout=0.3)
    b = NN.MLP([3, 4, 2], np.random.default_rng(9), dropout=0.3)
    x = np.random.default_rng(1).normal(size=(5, 3))
    r1, r2 = np.random.default_rng(4), np.random.default_rng(4)
    assert np.array_equal(a.forward(x, rng=r1), b.forward(x, rng=r2))


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    net = NN.MLP([3, 4, 2], rng, dropout=0.2)
    opt = NN.Adam(net, lr=0.005)
    x = rng.normal(size=(4, 3))
    for _ in range(3):
        net.zero_grad()
        out = net.forward(x, rng=rng)
        net.backward(out - 0.5)
        opt.step()

    path = tmp_path / "ckpt.npz"
    NN.save_checkpoint(path, {"net": net}, meta={"step": 3})
    with np.load(path) as z:
        assert sorted(z.files) == ["header", "net/params"]
    nets, meta = NN.load_checkpoint(path)
    assert list(nets) == ["net"]
    net2 = nets["net"]
    assert np.array_equal(net.theta, net2.theta)
    assert net2.sizes == net.sizes
    assert np.array_equal(net.forward(x), net2.forward(x))
    assert meta == {"step": 3}


def test_load_checkpoint_draws_no_random_numbers(tmp_path, monkeypatch):
    net = NN.MLP([5, 7, 6, 3], np.random.default_rng(12), dropout=0.3)
    path = tmp_path / "ckpt.npz"
    NN.save_checkpoint(path, {"net": net}, meta={})

    def no_rng(*args, **kwargs):
        raise AssertionError("load_checkpoint drew an init")

    monkeypatch.setattr(NN.np.random, "default_rng", no_rng)
    loaded = NN.load_checkpoint(path)[0]["net"]
    assert loaded.theta.tobytes() == net.theta.tobytes()
    assert not loaded.grad.any()


def _twin_nets(seed=31, sizes=(5, 7, 6, 3)):
    return NN.MLP(sizes, np.random.default_rng(seed)), NN.MLP(sizes, np.random.default_rng(seed))


def _grad_into_input_layer(net, grad_out):
    """The gradient that reaches the input layer's backward, from the tape
    of `net`'s last forward, which it pops; no parameter gradient is
    touched."""
    first = net.layers[0]
    return net._backprop(grad_out, lambda linear, g: g if linear is first
                         else linear.input_grad(g))


def test_backwards_after_zero_grad_equal_zero_plus_a_plus_b_bit_for_bit():
    # After zero_grad the first backward writes its gradient a and the second
    # adds b; the twin adds both to zeros set without zero_grad: (0 + a) + b.
    # The written a is one whole-matrix product and the added ones are formed
    # in row blocks, so at the wide layer 0 (1100 x 2048, 18 blocks of 64
    # rows, the last of 12) this also checks the blocks against whole-matrix
    # np.matmul products.  At 1025 x 2048 the 64-row steps would leave a
    # lone last row, which _row_blocks folds into the block before it.  The
    # desk discriminator's layer 0 (1753 x 128, README's ablation) is split
    # in two: 1024 rows and 729.
    for sizes, blocks in (((5, 7, 6, 3), 1), ((1100, 2048, 16, 1), 18),
                          ((1025, 2048, 16, 1), 16), ((1753, 128, 32, 1), 2)):
        net, twin = _twin_nets(sizes=sizes)
        first = net.layers[0]
        assert len(NN._row_blocks(*first.weight.shape)) == blocks
        rng = np.random.default_rng(32)
        net.grad[...] = rng.normal(size=net.grad.size)    # stale values to clear
        net.zero_grad()
        twin.grad[...] = 0.0
        whole = np.zeros_like(first.grad_weight)
        for _ in range(2):
            x = rng.normal(size=(4, sizes[0]))
            g = net.forward(x) - 0.5
            whole += np.matmul(x.T, _grad_into_input_layer(net, g))
            for m in (net, twin):
                m.forward(x)
                m.backward(g)
            assert np.array_equal(net.grad, twin.grad)
            assert np.array_equal(first.grad_weight, whole)


def test_backward_into_a_grad_not_cleared_by_zero_grad_accumulates():
    net, twin = _twin_nets()
    rng = np.random.default_rng(33)
    x1, x2 = rng.normal(size=(4, 5)), rng.normal(size=(3, 5))

    def alone(x):
        twin.zero_grad()
        twin.backward(twin.forward(x) - 0.5)
        return twin.grad.copy()

    a, b = alone(x1), alone(x2)
    # A net never zeroed through zero_grad adds to what `grad` holds.
    net.grad[...] = 0.25
    net.backward(net.forward(x1) - 0.5)
    assert np.array_equal(net.grad, 0.25 + a)
    # So does every backward after the one that consumed zero_grad's mark.
    net.zero_grad()
    net.backward(net.forward(x1) - 0.5)
    assert np.array_equal(net.grad, a)
    net.grad[...] += 1.5
    net.backward(net.forward(x2) - 0.5)
    assert np.array_equal(net.grad, (a + 1.5) + b)


def _textbook_adam(theta, m, v, grad, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    with np.errstate(over="ignore"):
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * grad * grad
        theta = theta - lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
    return theta, m, v


@pytest.mark.parametrize("scale", [1e154, 1e200])
def test_adam_takes_finite_grads_whose_squares_overflow(scale):
    # grad @ grad overflows to inf although every element is finite; the
    # exact check must let the step through, and the step is textbook Adam.
    net = NN.MLP([40, 300, 300, 7], np.random.default_rng(24))
    opt = NN.Adam(net, lr=0.003)
    theta, m, v = net.theta.copy(), opt.m.copy(), opt.v.copy()
    grad = np.random.default_rng(25).normal(size=net.grad.size)
    grad[-3:] = [scale, -scale, scale]
    with np.errstate(over="ignore"):
        assert not np.isfinite(grad @ grad)
    for t in (1, 2):
        net.grad[...] = grad
        with np.errstate(over="ignore"):
            opt.step()
        theta, m, v = _textbook_adam(theta, m, v, grad, t, lr=0.003)
        assert opt.t == t
        for got, want in ((net.theta, theta), (opt.m, m), (opt.v, v)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_adam_refuses_non_finite_grad_in_last_block(bad):
    net = NN.MLP([40, 300, 300, 7], np.random.default_rng(26))
    assert net.theta.size > 3 * NN.ADAM_BLOCK
    opt = NN.Adam(net, lr=0.003)
    rng = np.random.default_rng(27)
    net.grad[...] = rng.normal(size=net.grad.size)
    opt.step()
    before = (net.theta.copy(), opt.m.copy(), opt.v.copy())
    net.grad[...] = rng.normal(size=net.grad.size)
    net.grad[-2] = bad
    with pytest.raises(NN.TrainingError, match=r"layer2\.bias at step 2"):
        opt.step()
    assert opt.t == 1
    for after, expected in zip((net.theta, opt.m, opt.v), before):
        assert np.array_equal(after, expected)


def _force_adam_threads(monkeypatch, threads):
    """Make `Adam.step` split over `threads`, parking the real OpenBLAS pool
    where one is loaded."""
    park = NN._OPENBLAS[0] if NN._OPENBLAS is not None else (lambda: 0)
    monkeypatch.setattr(NN, "_OPENBLAS", (park, lambda: threads))


@pytest.fixture
def short_switch_interval():
    """Threads hand the interpreter lock over often while a test runs."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads", [1, 2, 3, 8, "no-openblas"])
def test_adam_on_every_thread_count_matches_textbook_adam_bit_for_bit(
        monkeypatch, short_switch_interval, threads):
    # 104,707 parameters: three full Adam blocks and a ragged fourth, so
    # three threads get one, one and two blocks, and eight (more threads
    # than blocks, and than most hosts' cores) one block each.
    net = NN.MLP([40, 300, 300, 7], np.random.default_rng(28))
    n, block = net.theta.size, NN.ADAM_BLOCK
    if threads == "no-openblas":
        def unloadable(path):
            raise OSError(f"{path}: cannot open")
        monkeypatch.setattr(ctypes, "CDLL", unloadable)
        monkeypatch.setattr(NN, "_OPENBLAS", NN._find_openblas())
        assert NN._OPENBLAS is None
        threads = 1
    else:
        _force_adam_threads(monkeypatch, threads)
    assert NN.adam_threads() == threads
    edges = {1: [0, n], 2: [0, 2 * block, n], 3: [0, block, 2 * block, n],
             8: [0, block, 2 * block, 3 * block, n]}[threads]
    runs, blocks = [], NN._adam_blocks

    def spy(theta, grad, m, v, lo, hi, *args):
        runs.append((lo, hi))
        blocks(theta, grad, m, v, lo, hi, *args)
    monkeypatch.setattr(NN, "_adam_blocks", spy)
    opt = NN.Adam(net, lr=0.003)
    # Kingma & Ba (2015), Algorithm 1, applied tensor by tensor.
    params = {name: value.copy() for name, value, _ in net.params()}
    m = {name: np.zeros_like(p) for name, p in params.items()}
    v = {name: np.zeros_like(p) for name, p in params.items()}
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.003
    rng = np.random.default_rng(29)
    for t in range(1, 5):
        net.zero_grad()
        net.backward(net.forward(rng.normal(size=(5, 40))) - 0.5)
        for name, _, grad in net.params():
            m[name] = b1 * m[name] + (1.0 - b1) * grad
            v[name] = b2 * v[name] + (1.0 - b2) * grad * grad
            m_hat = m[name] / (1.0 - b1 ** t)
            v_hat = v[name] / (1.0 - b2 ** t)
            params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
        runs.clear()
        opt.step()
        assert sorted(runs) == list(zip(edges, edges[1:])), t
        for name, value, _ in net.params():
            assert np.array_equal(value, params[name]), (t, name)
    assert np.array_equal(opt.m, np.concatenate([a.ravel() for a in m.values()]))
    assert np.array_equal(opt.v, np.concatenate([a.ravel() for a in v.values()]))


def test_adam_helper_thread_takes_the_callers_error_state(monkeypatch):
    # At two threads the helper takes the blocks from 2 * ADAM_BLOCK on, and
    # only there do the gradient's squares overflow.
    _force_adam_threads(monkeypatch, 2)
    net = NN.MLP([40, 300, 300, 7], np.random.default_rng(30))
    opt = NN.Adam(net, lr=0.003)
    grad = np.random.default_rng(31).normal(size=net.grad.size)
    grad[-3:] = 1e200
    net.grad[...] = grad
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
        opt.step()
    # Ignored overflow neither raises nor warns, on either thread, and the
    # step is textbook Adam.
    net, twin = NN.MLP([40, 300, 300, 7], None), NN.MLP([40, 300, 300, 7], None)
    opt = NN.Adam(net, lr=0.003)
    net.grad[...] = grad
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        opt.step()
    theta, m, v = _textbook_adam(twin.theta, np.zeros_like(grad), np.zeros_like(grad),
                                 grad, 1, lr=0.003)
    for got, want in ((net.theta, theta), (opt.m, m), (opt.v, v)):
        assert np.array_equal(got, want)


_PARKED_POOL = """
import sys, time
import numpy as np
from srlgan import nn as NN
if NN.adam_threads() != 2:
    sys.exit("no parkable OpenBLAS pool at 2 threads")
rng = np.random.default_rng(32)
net = NN.MLP([40, 300, 300, 7], rng)
opt = NN.Adam(net, lr=0.003)
net.grad[...] = rng.normal(size=net.grad.size)
x, w = rng.normal(size=(64, 4000)), rng.normal(size=(4000, 2048))
before = x @ w
opt.step()
start = time.process_time()
time.sleep(0.2)
spent = time.process_time() - start
print(spent, np.array_equal(x @ w, before))
"""


def test_adam_parks_the_openblas_pool():
    # A fresh process at two BLAS threads: the product wakes the worker,
    # which would spin for about 0.13 s after it; Adam parks it, so a sleep
    # right after the step burns no CPU, and the next product restarts the
    # pool and gives the same bits.
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": str(Path(NN.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", _PARKED_POOL], env=env,
                          capture_output=True, text=True, timeout=120)
    if "no parkable OpenBLAS" in done.stderr:
        pytest.skip("no parkable OpenBLAS pool at 2 threads is loaded")
    assert done.returncode == 0, done.stderr
    spent, same_bits = done.stdout.split()
    assert float(spent) < 0.02 and same_bits == "True"


_FRAGMENTED_HEAP = """
import numpy as np
from srlgan import nn as NN

def rss_mib():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * 4096 / 2 ** 20

blocks = [np.ones(8192) for _ in range(400)]
kept = blocks[::8]
del blocks
before = rss_mib()
NN.release_free_heap()
print(before - rss_mib())
"""


@pytest.mark.skipif(NN._MALLOC_TRIM is None or not os.path.exists("/proc/self/statm"),
                    reason="no malloc_trim, or no /proc to read the RSS from")
def test_release_free_heap_returns_the_free_pages():
    # A fresh process frees 350 of 400 64 KiB heap blocks, keeping every
    # eighth, so the free space sits between live blocks where free() alone
    # cannot return it: about 22 MiB, which the release gives back.
    env = {**os.environ, "PYTHONPATH": str(Path(NN.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", _FRAGMENTED_HEAP], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) > 15


@pytest.mark.parametrize("libc", ["without-malloc-trim", "unloadable"])
def test_release_free_heap_is_a_no_op_without_malloc_trim(monkeypatch, libc):
    """Where the C library has no `malloc_trim` (musl, macOS), or cannot be
    opened, the release finds none and does nothing."""
    def cdll(path):
        if libc == "unloadable":
            raise OSError(f"{path}: cannot open")
        return object()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    monkeypatch.setattr(NN, "_MALLOC_TRIM", NN._find_malloc_trim())
    assert NN._MALLOC_TRIM is None
    NN.release_free_heap()
