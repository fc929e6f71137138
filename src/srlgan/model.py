"""Generator, Discriminator, and the training objectives.

The generator maps a d-dimensional user attribute vector to an m-vector of
purchase scores in (0, 1); layer widths [d, 512, 1024, 1024, m].  The
discriminator scores a concatenated (attributes, behavior) pair; widths
[m+d, 2048, 512, 128, 1] with dropout 0.4 on the hidden layers.

Loss terms (all reduced to scalars):
  * reconstruction - per-user summed squared error, averaged over the batch
  * adversarial    - least-squares GAN by default (Mao et al. 2017), BCE
                     for the ablation baseline; both score D's output
                     against a target label
  * sparsity       - sum over items of the Bernoulli KL between the warm-set
                     mean purchase behavior and the batch mean of generated
                     behavior

Each loss helper also returns the gradient w.r.t. its input; the
adversarial losses are called as `loss(D(.), label)` and return
(loss, dloss/dD(.)).  `generator_adversarial_grad` carries G's term,
loss(D(fake), 1), through D to y_hat in both phases.  This module computes
losses and gradients w.r.t. y_hat; `train.Trainer` does every update.
"""

from __future__ import annotations

import numpy as np

from .data import PurchaseRows
from .nn import MLP

GENERATOR_HIDDEN = [512, 1024, 1024]
DISCRIMINATOR_HIDDEN = [2048, 512, 128]
DISCRIMINATOR_DROPOUT = 0.4
KL_EPS = 1e-6       # the sparsity KL's clamp
BCE_EPS = 1e-12     # the BCE loss's clip


def build_generator(d: int, m: int, rng, hidden=None) -> MLP:
    hidden = GENERATOR_HIDDEN if hidden is None else hidden
    return MLP([d, *hidden, m], rng)


def build_discriminator(d: int, m: int, rng, hidden=None,
                        dropout: float = DISCRIMINATOR_DROPOUT) -> MLP:
    hidden = DISCRIMINATOR_HIDDEN if hidden is None else hidden
    return MLP([m + d, *hidden, 1], rng, dropout=dropout)


def generator_forward(generator: MLP, x) -> np.ndarray:
    """Predicted purchase behavior for `x`, a (b, d) float64 batch of
    attribute vectors, from `MLP.predict`: eval mode, and no activation is
    kept."""
    return generator.predict(x)


def discriminator_input(x, y) -> np.ndarray:
    """Conditioning: the discriminator sees (attributes || behavior), for
    (b, d) attributes `x` and (b, m) behavior `y`, both float64."""
    return np.concatenate([x, y], axis=1)


def loss_reconstruction(y, y_hat):
    """Mean over the batch of the per-user summed squared error, for (b, m)
    float64 behavior `y` and G's (b, m) output `y_hat`.

    Returns (loss, dloss/dy_hat).
    """
    b = y.shape[0]
    diff = y_hat - y
    loss = float(np.sum(diff * diff)) / b
    diff *= 2.0         # becomes the gradient 2.0 * diff / b, in its order
    diff /= b
    return loss, diff


def loss_lsq(d_out, label: float):
    """Least-squares adversarial loss 0.5*mean((d_out - label)^2), for
    `d_out`: D's (b, 1) float64 output.  Returns (loss, dloss/dd_out)."""
    diff = d_out - label
    return 0.5 * float(np.mean(diff ** 2)), diff / d_out.shape[0]


def loss_bce(d_out, label: float):
    """Cross-entropy adversarial loss for label 1, else 0, for `d_out`: D's
    (b, 1) float64 output, clipped into [BCE_EPS, 1-BCE_EPS] (ablation mode
    S1).  Returns (loss, dloss/dd_out)."""
    d_out = np.clip(d_out, BCE_EPS, 1.0 - BCE_EPS)
    n = d_out.shape[0]
    if label == 1.0:
        return -float(np.mean(np.log(d_out))), -1.0 / (d_out * n)
    return -float(np.mean(np.log(1.0 - d_out))), 1.0 / ((1.0 - d_out) * n)


# TrainConfig.gan_loss -> adversarial loss
ADVERSARIAL_LOSSES = {"lsq": loss_lsq, "bce": loss_bce}


def mean_purchase(rows: PurchaseRows) -> np.ndarray:
    """Per-item mean of warm purchase-behavior rows (the sparsity target).
    Each item's sum runs over the rows in order, as a dense column mean of
    two or more columns does."""
    return np.bincount(rows.items, weights=rows.values, minlength=rows.m) / len(rows)


def sparsity_regularizer(rho, rho_hat):
    """Sum over items of KL(Bernoulli(rho_i) || Bernoulli(rho_hat_i)), for
    the (m,) float64 vectors `rho` (`mean_purchase`'s) and `rho_hat` (the
    batch mean of G's output).

    Both arguments are clamped into [KL_EPS, 1-KL_EPS] before the logs; the
    gradient is w.r.t. the unclamped rho_hat (zero where clamping is
    active).  Returns (loss, dloss/drho_hat).
    """
    p = np.clip(rho, KL_EPS, 1.0 - KL_EPS)
    q = np.clip(rho_hat, KL_EPS, 1.0 - KL_EPS)
    loss = float(np.sum(p * np.log(p / q) + (1.0 - p) * np.log((1.0 - p) / (1.0 - q))))
    grad = -p / q + (1.0 - p) / (1.0 - q)
    grad[(rho_hat < KL_EPS) | (rho_hat > 1.0 - KL_EPS)] = 0.0
    return loss, grad


def generator_adversarial_grad(discriminator: MLP, x, y_hat, adv_loss, rng):
    """G's adversarial term adv_loss(D(x || y_hat), 1), returned with
    its gradient w.r.t. y_hat, from `MLP.input_grad`: D's parameter
    gradients are not computed, so its `grad` is left as it was."""
    d_out = discriminator.forward(discriminator_input(x, y_hat), rng)
    loss, dd_out = adv_loss(d_out, 1.0)
    return loss, discriminator.input_grad(dd_out)[:, x.shape[1]:]


def generator_objective_grad(discriminator: MLP, x, y, y_hat, rho, beta: float,
                             adv_loss, rng):
    """The full generator objective recon + adv + beta * KL at G's output
    `y_hat` for attributes `x` and behavior `y` (float64, (b, d), (b, m)
    and (b, m)) and the (m,) sparsity target `rho`; D's forward gets `rng`.

    Returns (dict of the scalar loss components, dloss/dy_hat); no
    network's `grad` is touched.  beta=0 drops the sparsity term.

    The adversarial pass runs first, so the reconstruction gradient is not
    held through D's pass, and the terms are summed into it in place:
    d_recon + d_adv, then the beta * KL row, the bits of the plain sum.
    """
    adv_g, d_yhat_adv = generator_adversarial_grad(
        discriminator, x, y_hat, adv_loss, rng)
    recon, grad_yhat = loss_reconstruction(y, y_hat)
    grad_yhat += d_yhat_adv
    sr = 0.0
    if beta > 0.0:
        sr, d_rho_hat = sparsity_regularizer(rho, y_hat.mean(axis=0))
        grad_yhat += beta * d_rho_hat[None, :] / x.shape[0]
    losses = {"recon": recon, "adv_g": adv_g, "sr": sr, "total": recon + adv_g + beta * sr}
    return losses, grad_yhat
