"""Training schedule: generator pretraining, then alternating
discriminator/generator phases with the sparsity-regularized objective.

One "round" of the main loop is n_D discriminator-phase iterations (the
discriminator phase also updates the generator through the adversarial
loss, matching the schedule's joint update; `d_phase_updates_g=False`
restores a D-only phase) followed by n_G generator-phase iterations using
the full objective.  Validation metrics come from a held-out slice of warm
users; training stops when validation P@5 has not improved for `patience`
consecutive evaluations, or at `max_rounds`.

The adversarial loss is picked once from `gan_loss`: D learns
loss(D(real), 1) + loss(D(fake), 0), and G learns loss(D(fake), 1), or
label 0 when `nonsaturating` is off (least squares only).

Everything is driven by a single seeded Generator, so a run is
reproducible bit-for-bit from (data, config, seed).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import model as M
from .data import split_rows
from .nn import Adam, TrainingError
from .evaluate import evaluate_predictions

MODE_COLLAPSE_STD_FLOOR = 1e-4


@dataclass
class TrainConfig:
    beta: float = 0.1
    batch_size: int = 64
    pretrain_epochs: int = 50       # used when n_e is None
    n_e: int | None = None          # pretraining minibatch iterations
    n_d: int = 1
    n_g: int = 1
    learning_rate: float = 1e-6
    max_rounds: int = 1000
    eval_every: int = 10
    patience: int = 10
    seed: int = 0
    gan_loss: str = "lsq"           # "lsq" or "bce"
    sparsity: bool = True
    nonsaturating: bool = True
    d_phase_updates_g: bool = True
    validation_fraction: float = 0.1
    generator_hidden: list[int] | None = None
    discriminator_hidden: list[int] | None = None
    dropout: float = M.DISCRIMINATOR_DROPOUT

    def validate(self):
        problems = []
        for name in ("beta", "learning_rate"):
            if not math.isfinite(getattr(self, name)):
                problems.append(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.beta < 0:
            problems.append("beta must be >= 0")
        if self.gan_loss not in M.ADVERSARIAL_LOSSES:
            problems.append(f"gan_loss must be lsq or bce, got {self.gan_loss!r}")
        if self.gan_loss == "bce" and self.sparsity and self.beta > 0:
            problems.append("the BCE ablation mode (S1) requires beta=0 or sparsity off")
        if self.gan_loss == "bce" and not self.nonsaturating:
            problems.append("gan_loss = bce requires nonsaturating on (S1 is non-saturating)")
        for name in ("batch_size", "n_d", "n_g", "eval_every", "patience"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be >= 1")
        if self.learning_rate <= 0:
            problems.append("learning_rate must be > 0")
        if self.max_rounds < 0:
            problems.append("max_rounds must be >= 0")
        if not 0 <= self.validation_fraction < 1:
            problems.append("validation_fraction must be in [0, 1)")
        if problems:
            raise ValueError("; ".join(problems))
        return self


@dataclass
class CurvePoint:
    round: int
    loss_g: float
    loss_d: float
    loss_sr: float
    p5: float
    n5: float
    m5: float
    collapse_flag: bool = False


@dataclass
class TrainingCurve:
    points: list[CurvePoint] = field(default_factory=list)

    def append(self, point: CurvePoint):
        if self.points and point.round <= self.points[-1].round:
            raise ValueError("curve rounds must be strictly increasing")
        self.points.append(point)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["round", "loss_g", "loss_d", "loss_sr", "p5", "n5",
                        "m5", "collapse_flag"])
            for p in self.points:
                w.writerow([p.round, f"{p.loss_g:.10g}", f"{p.loss_d:.10g}",
                            f"{p.loss_sr:.10g}", f"{p.p5:.10g}",
                            f"{p.n5:.10g}", f"{p.m5:.10g}",
                            int(p.collapse_flag)])


class _BatchSampler:
    """Uniform without-replacement minibatches, reshuffled each epoch."""

    def __init__(self, n: int, batch_size: int, rng: np.random.Generator):
        self.n = n
        self.batch_size = min(batch_size, n)
        self.rng = rng
        self._order = []

    def next(self) -> np.ndarray:
        if len(self._order) < self.batch_size:
            self._order = list(self.rng.permutation(self.n))
        batch = self._order[:self.batch_size]
        del self._order[:self.batch_size]
        return np.asarray(batch)


class Trainer:
    """Owns the two networks, their optimizers, and the run RNG."""

    def __init__(self, x_train, y_train, config: TrainConfig,
                 x_val=None, y_val=None):
        config.validate()
        self.config = config
        self.x_train = np.asarray(x_train, dtype=np.float64)
        self.y_train = np.asarray(y_train, dtype=np.float64)
        self.x_val = None if x_val is None else np.asarray(x_val, dtype=np.float64)
        self.y_val = None if y_val is None else np.asarray(y_val, dtype=np.float64)
        if self.x_train.shape[0] != self.y_train.shape[0]:
            raise ValueError("attribute/behavior row counts differ")
        if self.x_train.shape[0] < 1:
            raise ValueError("empty warm training set")

        d = self.x_train.shape[1]
        m = self.y_train.shape[1]
        self.rng = np.random.default_rng(config.seed)
        self.generator = M.build_generator(d, m, self.rng,
                                           hidden=config.generator_hidden)
        self.discriminator = M.build_discriminator(
            d, m, self.rng, hidden=config.discriminator_hidden,
            dropout=config.dropout)
        self.opt_g = Adam(self.generator, lr=config.learning_rate)
        self.adv_loss = M.ADVERSARIAL_LOSSES[config.gan_loss]
        self.g_label = 1.0 if config.nonsaturating else 0.0
        self.opt_d = Adam(self.discriminator, lr=config.learning_rate)
        self.rho = M.mean_purchase(self.y_train)
        self.sampler = _BatchSampler(self.x_train.shape[0],
                                     config.batch_size, self.rng)
        self.curve = TrainingCurve()
        self.rounds_done = 0

    # -- phases ------------------------------------------------------------

    def _batch(self):
        idx = self.sampler.next()
        return self.x_train[idx], self.y_train[idx]

    def pretrain_generator(self) -> None:
        """Reconstruction-only generator warm-up (n_e minibatch steps)."""
        cfg = self.config
        n_e = cfg.n_e
        if n_e is None:
            steps_per_epoch = max(1, math.ceil(self.x_train.shape[0] / cfg.batch_size))
            n_e = cfg.pretrain_epochs * steps_per_epoch
        for _ in range(n_e):
            x, y = self._batch()
            y_hat = self.generator.forward(x, training=True, rng=self.rng)
            loss, grad = M.loss_reconstruction(y, y_hat)
            self._check_finite(loss, "pretraining reconstruction loss")
            self.generator.zero_grad()
            self.generator.backward(grad)
            self.opt_g.step()

    def discriminator_phase_step(self) -> float:
        """One adversarial update of D (and, by default, G) on a fresh batch."""
        x, y = self._batch()
        y_hat = self.generator.forward(x, training=True, rng=self.rng)

        disc = self.discriminator
        d_real = disc.forward(M.discriminator_input(x, y), training=True, rng=self.rng)
        loss_real, dd_real = self.adv_loss(d_real, 1.0)
        disc.zero_grad()
        disc.backward(dd_real)

        d_fake = disc.forward(M.discriminator_input(x, y_hat), training=True, rng=self.rng)
        loss_fake, dd_fake = self.adv_loss(d_fake, 0.0)
        disc.backward(dd_fake)
        d_loss = loss_real + loss_fake
        self._check_finite(d_loss, "discriminator loss")
        self.opt_d.step()

        if self.config.d_phase_updates_g:
            # Fresh fake pass so the generator gradient uses the updated D.
            # G has no dropout and is not updated before this pass, so a
            # second G forward would return y_hat again and draw nothing
            # from the RNG, and G's cached activations still belong to it.
            g_loss, grad_yhat = M.generator_adversarial_grad(
                disc, x, y_hat, self.adv_loss, self.g_label, training=True, rng=self.rng)
            self.generator.zero_grad()
            self.generator.backward(grad_yhat)
            self._check_finite(g_loss, "adversarial generator loss")
            self.opt_g.step()
        return d_loss

    def generator_phase_step(self) -> dict:
        """One update of G with the full objective (recon + adv + beta*SR)."""
        cfg = self.config
        x, y = self._batch()
        self.generator.zero_grad()
        losses = M.generator_objective_grad(
            self.generator, self.discriminator, x, y, self.rho,
            beta=cfg.beta if cfg.sparsity else 0.0, adv_loss=self.adv_loss,
            label=self.g_label, training=True, rng=self.rng)
        self._check_finite(losses["total"], "generator objective")
        self.opt_g.step()
        return losses

    # -- main loop ----------------------------------------------------------

    def train(self, on_checkpoint=None) -> TrainingCurve:
        """Run pretraining (if not already done) plus the adversarial loop.

        `on_checkpoint(trainer, point)` is invoked at every logged
        evaluation, e.g. to save best-validation checkpoints.
        """
        cfg = self.config
        best_p5 = -1.0
        stale = 0
        while self.rounds_done < cfg.max_rounds:
            d_loss = 0.0
            for _ in range(cfg.n_d):
                d_loss = self.discriminator_phase_step()
            g_losses = {"total": float("nan"), "sr": 0.0}
            for _ in range(cfg.n_g):
                g_losses = self.generator_phase_step()
            self.rounds_done += 1

            if self.rounds_done % cfg.eval_every == 0 or self.rounds_done == cfg.max_rounds:
                point = self._evaluate_checkpoint(self.rounds_done, d_loss, g_losses)
                self.curve.append(point)
                if on_checkpoint is not None:
                    on_checkpoint(self, point)
                # Early stopping needs validation metrics; without a
                # validation slice the loop runs to max_rounds.
                if self.x_val is not None and np.isfinite(point.p5):
                    if point.p5 > best_p5 + 1e-12:
                        best_p5 = point.p5
                        stale = 0
                    else:
                        stale += 1
                    if stale >= cfg.patience:
                        break
        return self.curve

    def _evaluate_checkpoint(self, rnd, d_loss, g_losses) -> CurvePoint:
        if self.x_val is not None and self.x_val.shape[0] > 0:
            preds = M.generator_forward(self.generator, self.x_val)
            report = evaluate_predictions(preds, self.y_val, ns=(5,))
            p5, n5, m5 = report["P@5"], report["N@5"], report["M@5"]
            std = float(preds.std(axis=0).mean())
        else:
            preds = M.generator_forward(self.generator, self.x_train)
            p5 = n5 = m5 = float("nan")
            std = float(preds.std(axis=0).mean())
        return CurvePoint(
            round=rnd,
            loss_g=float(g_losses["total"]),
            loss_d=float(d_loss),
            loss_sr=float(g_losses["sr"]),
            p5=p5, n5=n5, m5=m5,
            collapse_flag=std <= MODE_COLLAPSE_STD_FLOOR,
        )

    @staticmethod
    def _check_finite(value, what: str):
        if not np.isfinite(value):
            raise TrainingError(f"non-finite {what}")


def fit(x_train, y_train, config: TrainConfig, x_val=None, y_val=None,
        on_checkpoint=None) -> Trainer:
    """Pretrain then adversarially train; returns the finished Trainer."""
    trainer = Trainer(x_train, y_train, config, x_val=x_val, y_val=y_val)
    trainer.pretrain_generator()
    trainer.train(on_checkpoint=on_checkpoint)
    return trainer


def cross_validate_beta(x_warm, y_warm, beta_grid, config: TrainConfig,
                        curves: dict | None = None):
    """Pick beta by held-out P@5 on the seeded `validation_fraction` slice of
    warm users.

    Ties go to the smaller beta.  Returns (best_beta, {beta: p5}); a
    `curves` dict, when given, receives each beta's validation curve.
    """
    if len(beta_grid) == 0:
        raise ValueError("empty beta grid")
    x_warm = np.asarray(x_warm, dtype=np.float64)
    y_warm = np.asarray(y_warm, dtype=np.float64)
    train_idx, held_idx = split_rows(x_warm.shape[0], config.validation_fraction,
                                     config.seed)
    if len(held_idx) == 0:
        raise ValueError(f"validation_fraction {config.validation_fraction} holds out "
                         f"none of {x_warm.shape[0]} warm users, so no beta can be scored")
    scores = {}
    for beta in sorted(beta_grid):
        cfg = replace(config, beta=float(beta)).validate()
        trainer = fit(x_warm[train_idx], y_warm[train_idx], cfg,
                      x_val=x_warm[held_idx], y_val=y_warm[held_idx])
        preds = M.generator_forward(trainer.generator, x_warm[held_idx])
        report = evaluate_predictions(preds, y_warm[held_idx], ns=(5,))
        scores[float(beta)] = report["P@5"]
        if curves is not None:
            curves[float(beta)] = trainer.curve
    best = max(sorted(scores), key=lambda b: scores[b])
    return best, scores
