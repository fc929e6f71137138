import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srlgan import model as M
from srlgan import nn as NN
from srlgan.data import PurchaseRows

from test_nn import central_diff_grads, rel_err


def test_generator_output_shape_and_range():
    rng = np.random.default_rng(0)
    gen = M.build_generator(4, 6, rng, hidden=[5, 5])
    x = rng.normal(size=(3, 4))
    y = M.generator_forward(gen, x)
    assert y.shape == (3, 6)
    assert np.all((y > 0) & (y < 1))


def test_generator_deterministic():
    rng = np.random.default_rng(0)
    gen = M.build_generator(4, 6, rng, hidden=[5])
    x = np.random.default_rng(1).normal(size=(2, 4))
    assert np.array_equal(M.generator_forward(gen, x),
                          M.generator_forward(gen, x))


def test_generator_width_mismatch():
    gen = M.build_generator(4, 6, np.random.default_rng(0), hidden=[5])
    with pytest.raises(ValueError):
        M.generator_forward(gen, np.ones((2, 5)))


def test_default_layer_widths():
    rng = np.random.default_rng(0)
    gen = M.build_generator(103, 1682, rng)
    assert gen.sizes == [103, 512, 1024, 1024, 1682]
    dis = M.build_discriminator(103, 1682, rng)
    assert dis.sizes == [1682 + 103, 2048, 512, 128, 1]
    assert dis.dropout == 0.4


def test_loss_reconstruction_values():
    loss, _ = M.loss_reconstruction([[1.0, 0.0]], [[1.0, 0.0]])
    assert loss == 0.0
    loss, _ = M.loss_reconstruction([[1.0, 0.0]], [[0.0, 1.0]])
    assert loss == pytest.approx(2.0)
    loss, _ = M.loss_reconstruction([[0.6, 0.0]], [[0.1, 0.0]])
    assert loss == pytest.approx(0.25)


def test_loss_reconstruction_shape_mismatch():
    with pytest.raises(ValueError):
        M.loss_reconstruction(np.ones((2, 3)), np.ones((2, 4)))


def _d_loss(loss, d_real, d_fake):
    return loss(d_real, 1.0)[0] + loss(d_fake, 0.0)[0]


def test_loss_lsgan_optima():
    d_loss = _d_loss(M.loss_lsq, [1.0], [0.0])
    assert d_loss == pytest.approx(0.0)
    d_loss = _d_loss(M.loss_lsq, [0.5], [0.5])
    assert d_loss == pytest.approx(0.25)
    g_loss, _ = M.loss_lsq([1.0], 1.0)
    assert g_loss == pytest.approx(0.0)


def test_loss_lsgan_literal_generator_form():
    g_loss, _ = M.loss_lsq([1.0], 0.0)
    assert g_loss == pytest.approx(0.5)
    g_loss, _ = M.loss_lsq([0.0], 0.0)
    assert g_loss == pytest.approx(0.0)


def test_loss_bce_gan_finite_at_extremes():
    d_loss = _d_loss(M.loss_bce, [1.0], [0.0])
    g_loss, _ = M.loss_bce([0.0], 1.0)
    assert np.isfinite(d_loss) and np.isfinite(g_loss)


def test_loss_bce_refuses_soft_labels():
    with pytest.raises(ValueError, match="label must be 1 or 0"):
        M.loss_bce([0.5], 0.9)


# The five-tuple adversarial losses the (d_out, label) interface replaced,
# kept here as the oracle: (d_loss, g_loss, dd_real, dd_fake_for_d,
# dd_fake_for_g).
def _tuple_lsgan(d_real, d_fake, nonsaturating=True):
    d_real = np.asarray(d_real, dtype=np.float64).reshape(-1, 1)
    d_fake = np.asarray(d_fake, dtype=np.float64).reshape(-1, 1)
    nr, nf = d_real.shape[0], d_fake.shape[0]
    d_loss = 0.5 * float(np.mean((d_real - 1.0) ** 2)) \
        + 0.5 * float(np.mean(d_fake ** 2))
    dd_real = (d_real - 1.0) / nr
    dd_fake_for_d = d_fake / nf
    if nonsaturating:
        g_loss = 0.5 * float(np.mean((d_fake - 1.0) ** 2))
        dd_fake_for_g = (d_fake - 1.0) / nf
    else:
        g_loss = 0.5 * float(np.mean(d_fake ** 2))
        dd_fake_for_g = d_fake / nf
    return d_loss, g_loss, dd_real, dd_fake_for_d, dd_fake_for_g


def _tuple_bce_gan(d_real, d_fake, eps=1e-12):
    d_real = np.clip(np.asarray(d_real, dtype=np.float64).reshape(-1, 1),
                     eps, 1.0 - eps)
    d_fake = np.clip(np.asarray(d_fake, dtype=np.float64).reshape(-1, 1),
                     eps, 1.0 - eps)
    nr, nf = d_real.shape[0], d_fake.shape[0]
    d_loss = -float(np.mean(np.log(d_real))) \
        - float(np.mean(np.log(1.0 - d_fake)))
    g_loss = -float(np.mean(np.log(d_fake)))
    dd_real = -1.0 / (d_real * nr)
    dd_fake_for_d = 1.0 / ((1.0 - d_fake) * nf)
    dd_fake_for_g = -1.0 / (d_fake * nf)
    return d_loss, g_loss, dd_real, dd_fake_for_d, dd_fake_for_g


@pytest.mark.parametrize("loss,oracle,g_label", [
    (M.loss_lsq, _tuple_lsgan, 1.0),
    (M.loss_lsq, lambda r, f: _tuple_lsgan(r, f, nonsaturating=False), 0.0),
    (M.loss_bce, _tuple_bce_gan, 1.0),
], ids=["lsq", "lsq-literal", "bce"])
def test_label_losses_reproduce_five_tuple_losses_bit_for_bit(loss, oracle, g_label):
    rng = np.random.default_rng(12)
    for seed_row in range(20):
        d_real = rng.uniform(0, 1, 7)
        d_fake = rng.uniform(0, 1, 5)
        if seed_row % 2:  # the clip extremes
            d_real[:2], d_fake[:2] = (0.0, 1.0), (1.0, 0.0)
        loss_real, dd_real = loss(d_real, 1.0)
        loss_fake, dd_fake_d = loss(d_fake, 0.0)
        g_loss, dd_fake_g = loss(d_fake, g_label)
        want = oracle(d_real, d_fake)
        assert loss_real + loss_fake == want[0]
        assert g_loss == want[1]
        for got, expected in zip((dd_real, dd_fake_d, dd_fake_g), want[2:]):
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)


def test_mean_purchase():
    csr = PurchaseRows.from_dense
    rho = M.mean_purchase(csr([[1.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(rho, [0.5, 0.5])
    assert np.allclose(M.mean_purchase(csr([[0.2, 0.4]])), [0.2, 0.4])
    assert np.allclose(M.mean_purchase(csr(np.zeros((3, 2)))), 0.0)
    with pytest.raises(ValueError):
        M.mean_purchase(csr(np.zeros((0, 2))))


def test_sparsity_regularizer_hand_value():
    loss, _ = M.sparsity_regularizer([0.5], [0.25])
    expected = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
    assert loss == pytest.approx(expected, abs=1e-12)
    assert loss == pytest.approx(0.14384, abs=1e-5)


def test_sparsity_regularizer_zero_at_equal():
    rho = np.array([0.1, 0.5, 0.9])
    loss, grad = M.sparsity_regularizer(rho, rho)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(grad, 0.0, atol=1e-9)


def test_sparsity_regularizer_monotone_away_from_rho():
    near, _ = M.sparsity_regularizer([0.5], [0.25])
    far, _ = M.sparsity_regularizer([0.5], [0.1])
    assert far > near


def test_sparsity_regularizer_handles_boundary_rho():
    loss, _ = M.sparsity_regularizer([0.0, 1.0], [0.5, 0.5])
    assert np.isfinite(loss) and loss > 0


def test_sparsity_regularizer_length_mismatch():
    with pytest.raises(ValueError):
        M.sparsity_regularizer([0.5, 0.5], [0.5])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                min_size=1, max_size=20))
def test_sparsity_regularizer_nonnegative(pairs):
    rho = [p for p, _ in pairs]
    rho_hat = [q for _, q in pairs]
    loss, _ = M.sparsity_regularizer(rho, rho_hat)
    assert loss >= -1e-12


def test_sparsity_regularizer_gradient_matches_finite_diff():
    rng = np.random.default_rng(2)
    rho = rng.uniform(0.05, 0.95, 8)
    rho_hat = rng.uniform(0.05, 0.95, 8)
    _, grad = M.sparsity_regularizer(rho, rho_hat)
    step = 1e-6
    for k in range(8):
        up = rho_hat.copy(); up[k] += step
        down = rho_hat.copy(); down[k] -= step
        num = (M.sparsity_regularizer(rho, up)[0]
               - M.sparsity_regularizer(rho, down)[0]) / (2 * step)
        assert grad[k] == pytest.approx(num, rel=1e-5)


def test_total_generator_objective():
    assert M.total_generator_objective(1.0, 2.0, 3.0, 0.0) == 3.0
    assert M.total_generator_objective(1.0, 2.0, 3.0, 0.1) == pytest.approx(3.3)
    assert M.total_generator_objective(0.0, 0.0, 0.0, 0.1) == 0.0
    with pytest.raises(ValueError):
        M.total_generator_objective(1.0, 1.0, 1.0, -0.5)


def test_batch_permutation_invariance():
    rng = np.random.default_rng(4)
    y = rng.uniform(0, 1, size=(6, 5))
    y_hat = rng.uniform(0, 1, size=(6, 5))
    perm = rng.permutation(6)
    assert M.loss_reconstruction(y, y_hat)[0] == pytest.approx(
        M.loss_reconstruction(y[perm], y_hat[perm])[0])
    d_real = rng.uniform(0, 1, 6)
    d_fake = rng.uniform(0, 1, 6)
    a = (_d_loss(M.loss_lsq, d_real, d_fake), M.loss_lsq(d_fake, 1.0)[0])
    b = (_d_loss(M.loss_lsq, d_real[perm], d_fake[perm]),
         M.loss_lsq(d_fake[perm], 1.0)[0])
    assert a[0] == pytest.approx(b[0]) and a[1] == pytest.approx(b[1])


def _toy_setup(seed=0):
    rng = np.random.default_rng(seed)
    d, m, b = 4, 6, 3
    gen = M.build_generator(d, m, rng, hidden=[5, 5])
    dis = M.build_discriminator(d, m, rng, hidden=[5], dropout=0.0)
    x = rng.normal(size=(b, d))
    y = (rng.uniform(size=(b, m)) < 0.3) * rng.choice([0.2, 0.6, 1.0], size=(b, m))
    rho = M.mean_purchase(PurchaseRows.from_dense(y))
    return gen, dis, x, y, rho


@pytest.mark.parametrize("gan_loss,beta", [("lsq", 0.1), ("lsq", 0.0),
                                           ("bce", 0.0)])
def test_full_generator_objective_gradcheck(gan_loss, beta):
    gen, dis, x, y, rho = _toy_setup()

    def loss_fn():
        y_hat = gen.forward(x)
        recon, _ = M.loss_reconstruction(y, y_hat)
        d_fake = dis.forward(M.discriminator_input(x, y_hat))
        if gan_loss == "lsq":
            adv_g = 0.5 * float(np.mean((d_fake - 1.0) ** 2))
        else:
            adv_g = -float(np.mean(np.log(d_fake)))
        sr = 0.0
        if beta > 0:
            sr, _ = M.sparsity_regularizer(rho, y_hat.mean(axis=0))
        return M.total_generator_objective(recon, adv_g, sr, beta)

    gen.zero_grad()
    M.generator_objective_grad(gen, dis, x, y, rho, beta=beta,
                               adv_loss=M.ADVERSARIAL_LOSSES[gan_loss])
    analytic = np.concatenate([g.ravel() for _, _, g in gen.params()])
    numeric = central_diff_grads(gen, loss_fn)
    assert rel_err(analytic, numeric) < 1e-4


def test_generator_objective_grad_leaves_discriminator_clean():
    gen, dis, x, y, rho = _toy_setup(3)
    gen.zero_grad()
    losses = M.generator_objective_grad(gen, dis, x, y, rho, beta=0.1)
    for _, _, grad in dis.params():
        assert np.all(grad == 0)
    assert np.isfinite(losses["total"])
    assert losses["total"] == pytest.approx(
        losses["recon"] + losses["adv_g"] + 0.1 * losses["sr"])


def test_generator_objective_grad_leaves_stale_discriminator_grad_unchanged():
    gen, dis, x, y, rho = _toy_setup(3)
    gen.zero_grad()
    M.generator_objective_grad(gen, dis, x, y, rho, beta=0.1)
    expected = gen.grad.copy()
    dis.grad[...] = np.linspace(-1.0, 1.0, dis.grad.size)
    stale = dis.grad.copy()
    gen.zero_grad()
    M.generator_objective_grad(gen, dis, x, y, rho, beta=0.1)
    assert np.array_equal(dis.grad, stale)
    assert np.array_equal(gen.grad, expected)
