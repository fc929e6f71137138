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

Each loss helper also returns the gradient w.r.t. the quantity the caller
backpropagates through, so the training loop stays a thin orchestration.
The adversarial losses are called as `loss(D(.), label)` and return
(loss, dloss/dD(.)); `generator_adversarial_grad` carries G's term through
D to the generated behavior for both training phases.
"""

from __future__ import annotations

import numpy as np

from .data import PurchaseRows
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


def loss_lsq(d_out, label: float):
    """Least-squares adversarial loss 0.5*mean((d_out - label)^2).
    Returns (loss, dloss/dd_out)."""
    d_out = np.asarray(d_out, dtype=np.float64).reshape(-1, 1)
    diff = d_out - label
    return 0.5 * float(np.mean(diff ** 2)), diff / d_out.shape[0]


def loss_bce(d_out, label: float, eps: float = 1e-12):
    """Cross-entropy adversarial loss for a label of 1 or 0, d_out clipped
    into [eps, 1-eps] (ablation mode S1).  Returns (loss, dloss/dd_out)."""
    d_out = np.clip(np.asarray(d_out, dtype=np.float64).reshape(-1, 1),
                    eps, 1.0 - eps)
    n = d_out.shape[0]
    if label == 1.0:
        return -float(np.mean(np.log(d_out))), -1.0 / (d_out * n)
    if label == 0.0:
        return -float(np.mean(np.log(1.0 - d_out))), 1.0 / ((1.0 - d_out) * n)
    raise ValueError(f"BCE label must be 1 or 0, got {label!r}")


# TrainConfig.gan_loss -> adversarial loss
ADVERSARIAL_LOSSES = {"lsq": loss_lsq, "bce": loss_bce}


def mean_purchase(rows: PurchaseRows) -> np.ndarray:
    """Per-item mean of warm purchase-behavior rows (the sparsity target).
    Each item's sum runs over the rows in order, as a dense column mean of
    two or more columns does."""
    if len(rows) < 1 or rows.m == 0:
        raise ValueError("need at least one purchase-behavior row")
    return np.bincount(rows.items, weights=rows.values, minlength=rows.m) / len(rows)


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


def generator_adversarial_grad(discriminator: MLP, x, y_hat, adv_loss,
                               label: float, training: bool = False, rng=None):
    """G's adversarial term adv_loss(D(x || y_hat), label), returned with
    its gradient w.r.t. y_hat, from `MLP.input_grad`: D's parameter
    gradients are not computed, so its `grad` is left as it was."""
    d_out = discriminator.forward(discriminator_input(x, y_hat),
                                  training=training, rng=rng)
    loss, dd_out = adv_loss(d_out, label)
    return loss, discriminator.input_grad(dd_out)[:, x.shape[1]:]


def generator_objective_grad(generator: MLP, discriminator: MLP, x, y, rho,
                             beta: float, adv_loss=loss_lsq, label: float = 1.0,
                             training: bool = False, rng=None):
    """One forward/backward pass of the full generator objective.

    Populates generator parameter gradients (caller zeroes them) and
    returns a dict of the scalar loss components.  beta=0 drops the
    sparsity term.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    b = x.shape[0]

    y_hat = generator.forward(x, training=True, rng=rng)
    recon, d_recon = loss_reconstruction(y, y_hat)
    adv_g, d_yhat_adv = generator_adversarial_grad(
        discriminator, x, y_hat, adv_loss, label, training=training, rng=rng)

    grad_yhat = d_recon + d_yhat_adv
    sr = 0.0
    if beta > 0.0:
        rho_hat = y_hat.mean(axis=0)
        sr, d_rho_hat = sparsity_regularizer(rho, rho_hat)
        grad_yhat = grad_yhat + beta * d_rho_hat[None, :] / b

    generator.backward(grad_yhat)
    total = total_generator_objective(recon, adv_g, sr, beta)
    return {"recon": recon, "adv_g": adv_g, "sr": sr, "total": total}
