"""Generator, Discriminator, and the training objectives.

The generator maps a d-dimensional user attribute vector to an m-vector of
purchase scores in (0, 1); layer widths [d, 512, 1024, 1024, m].  The
discriminator scores a concatenated (attributes, behavior) pair; widths
[m+d, 2048, 512, 128, 1] with dropout 0.4 on the hidden layers.

Loss terms (all reduced to scalars):
  * reconstruction - per-user summed squared error, averaged over the batch
  * adversarial    - least-squares GAN by default, BCE for the ablation
                     baseline
  * sparsity       - sum over items of the Bernoulli KL between the warm-set
                     mean purchase behavior and the batch mean of generated
                     behavior

Each loss helper also returns the gradient w.r.t. the quantity the caller
backpropagates through, so the training loop stays a thin orchestration.
"""

from __future__ import annotations

import numpy as np

from .nn import MLP

GENERATOR_HIDDEN = [512, 1024, 1024]
DISCRIMINATOR_HIDDEN = [2048, 512, 128]
DISCRIMINATOR_DROPOUT = 0.4
KL_EPS = 1e-6


def build_generator(d: int, m: int, rng, hidden=None) -> MLP:
    hidden = GENERATOR_HIDDEN if hidden is None else list(hidden)
    return MLP([d, *hidden, m], rng)


def build_discriminator(d: int, m: int, rng, hidden=None,
                        dropout: float = DISCRIMINATOR_DROPOUT) -> MLP:
    hidden = DISCRIMINATOR_HIDDEN if hidden is None else list(hidden)
    return MLP([m + d, *hidden, 1], rng, dropout=dropout)


def generator_forward(generator: MLP, x) -> np.ndarray:
    """Predicted purchase behavior for a batch of attribute vectors."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != generator.sizes[0]:
        raise ValueError(
            f"attribute width {x.shape[1]} != generator input {generator.sizes[0]}"
        )
    return generator.forward(x, training=False)


def discriminator_input(x, y) -> np.ndarray:
    """Conditioning: the discriminator sees (attributes || behavior)."""
    return np.concatenate([np.atleast_2d(x), np.atleast_2d(y)], axis=1)


def loss_reconstruction(y, y_hat):
    """Mean over the batch of the per-user summed squared error.

    Returns (loss, dloss/dy_hat).
    """
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    y_hat = np.atleast_2d(np.asarray(y_hat, dtype=np.float64))
    if y.shape != y_hat.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {y_hat.shape}")
    b = y.shape[0]
    diff = y_hat - y
    loss = float(np.sum(diff * diff)) / b
    return loss, 2.0 * diff / b


def loss_lsgan(d_real, d_fake, nonsaturating: bool = True):
    """Least-squares adversarial losses.

    Discriminator side: 0.5*mean((d_real-1)^2) + 0.5*mean(d_fake^2).
    Generator side: 0.5*mean((d_fake-1)^2) by default (non-saturating
    target); nonsaturating=False uses the literal minimization of
    0.5*mean(d_fake^2) instead.

    Returns (d_loss, g_loss, dd_real, dd_fake_for_d, dd_fake_for_g).
    """
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


def loss_bce_gan(d_real, d_fake, eps: float = 1e-12):
    """Standard BCE GAN losses (ablation mode S1), non-saturating generator.

    Returns (d_loss, g_loss, dd_real, dd_fake_for_d, dd_fake_for_g).
    """
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


def mean_purchase(rows) -> np.ndarray:
    """Per-item mean of warm purchase-behavior rows (the sparsity target)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.shape[0] < 1 or rows.size == 0:
        raise ValueError("need at least one purchase-behavior row")
    return rows.mean(axis=0)


def sparsity_regularizer(rho, rho_hat, eps: float = KL_EPS):
    """Sum over items of KL(Bernoulli(rho_i) || Bernoulli(rho_hat_i)).

    Both arguments are clamped into [eps, 1-eps] before the logs; the
    gradient is w.r.t. the unclamped rho_hat (zero where clamping is
    active).  Returns (loss, dloss/drho_hat).
    """
    rho = np.asarray(rho, dtype=np.float64).ravel()
    rho_hat = np.asarray(rho_hat, dtype=np.float64).ravel()
    if rho.shape != rho_hat.shape:
        raise ValueError(f"length mismatch: {rho.shape} vs {rho_hat.shape}")
    p = np.clip(rho, eps, 1.0 - eps)
    q = np.clip(rho_hat, eps, 1.0 - eps)
    loss = float(np.sum(p * np.log(p / q) + (1.0 - p) * np.log((1.0 - p) / (1.0 - q))))
    grad = -p / q + (1.0 - p) / (1.0 - q)
    grad[(rho_hat < eps) | (rho_hat > 1.0 - eps)] = 0.0
    return loss, grad


def total_generator_objective(loss_recon: float, loss_adv_g: float,
                              loss_sr: float, beta: float) -> float:
    """Full generator objective: reconstruction + adversarial + beta * KL."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    return loss_recon + loss_adv_g + beta * loss_sr


def generator_objective_grad(generator: MLP, discriminator: MLP, x, y, rho,
                             beta: float, gan_loss: str = "lsq",
                             sparsity: bool = True, nonsaturating: bool = True,
                             training: bool = False, rng=None):
    """One forward/backward pass of the full generator objective.

    Populates generator parameter gradients (caller zeroes them) and
    returns a dict of the scalar loss components.  The adversarial term
    flows through the discriminator to the generated behavior; the
    discriminator's parameter gradients are not computed, so its `grad`
    is left as it was and only the generator is updated.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    b = x.shape[0]

    y_hat = generator.forward(x, training=True, rng=rng)
    recon, d_recon = loss_reconstruction(y, y_hat)

    d_fake = discriminator.forward(discriminator_input(x, y_hat),
                                   training=training, rng=rng)
    if gan_loss == "lsq":
        _, adv_g, _, _, dd_fake_g = loss_lsgan(d_fake, d_fake,
                                               nonsaturating=nonsaturating)
    elif gan_loss == "bce":
        _, adv_g, _, _, dd_fake_g = loss_bce_gan(d_fake, d_fake)
    else:
        raise ValueError(f"unknown gan_loss {gan_loss!r}")
    d_input_grad = discriminator.backward(dd_fake_g, param_grads=False)
    d_yhat_adv = d_input_grad[:, x.shape[1]:]

    grad_yhat = d_recon + d_yhat_adv
    sr = 0.0
    if sparsity and beta > 0.0:
        rho_hat = y_hat.mean(axis=0)
        sr, d_rho_hat = sparsity_regularizer(rho, rho_hat)
        grad_yhat = grad_yhat + beta * d_rho_hat[None, :] / b

    generator.backward(grad_yhat)
    total = total_generator_objective(recon, adv_g, sr, beta if sparsity else 0.0)
    return {"recon": recon, "adv_g": adv_g, "sr": sr, "total": total,
            "y_hat": y_hat}
