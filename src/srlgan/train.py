"""Training schedule: generator pretraining, then alternating
discriminator/generator phases with the sparsity-regularized objective;
the beta sweep and the S1/S2/S3 ablation built on it.

`fit` is the one place a run is put together: it holds out the seeded
`validation_fraction` slice of the warm users, builds the Trainer,
pretrains G and runs the adversarial loop.  `train`, `sweep-beta` and
`ablate` all train through it.  Behaviors stay `data.PurchaseRows`: a step
makes only its minibatch dense, and validation scores the CSR slice.

One "round" of the main loop is n_D discriminator-phase iterations (the
discriminator phase also updates the generator through the adversarial
loss, matching the schedule's joint update; `d_phase_updates_g=False`
restores a D-only phase) followed by n_G generator-phase iterations using
the full objective.  Validation metrics come from the validation slice.
An evaluation improves when its P@5 beats the best so far by more than
1e-12; training stops when `patience` consecutive evaluations do not
improve, or at `max_rounds`.  Without a validation row it runs to
`max_rounds`.

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
from .data import PurchaseRows, as_purchase_rows, held_count, split_rows
from .nn import Adam, TrainingError
from .evaluate import DEFAULT_NS, MetricReport, evaluate_predictions, evaluate_report

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
        for name in ("max_rounds", "pretrain_epochs", "n_e", "seed"):
            value = getattr(self, name)
            if value is not None and value < 0:
                problems.append(f"{name} must be >= 0, got {value}")
        if not 0 <= self.validation_fraction < 1:
            problems.append("validation_fraction must be in [0, 1)")
        if not 0 <= self.dropout < 1:
            problems.append(f"dropout must be in [0, 1), got {self.dropout!r}")
        for name in ("generator_hidden", "discriminator_hidden"):
            widths = getattr(self, name)
            if widths is not None and not all(w >= 1 for w in widths):
                problems.append(f"{name}: each hidden width must be >= 1, got {widths}")
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
    """Owns the two networks, their optimizers, and the run RNG.  `y_train`
    is `data.PurchaseRows` or a dense array, `y_val` is `data.PurchaseRows`;
    without `x_val`/`y_val` the validation slice is empty."""

    def __init__(self, x_train, y_train, config: TrainConfig,
                 x_val=None, y_val=None):
        config.validate()
        self.config = config
        self.x_train = np.asarray(x_train, dtype=np.float64)
        self.y_train = as_purchase_rows(y_train)
        self.x_val = np.asarray(self.x_train[:0] if x_val is None else x_val,
                                dtype=np.float64)
        self.y_val = self.y_train.take([]) if y_val is None else y_val
        if self.x_train.shape[0] != len(self.y_train):
            raise ValueError("attribute/behavior row counts differ")
        if self.x_train.shape[0] < 1:
            raise ValueError("empty warm training set")
        if len(self.x_val) != len(self.y_val):
            raise ValueError(f"validation slice has {len(self.x_val)} attribute rows "
                             f"but {len(self.y_val)} behavior rows")
        if (self.x_val.shape[1:], self.y_val.m) != (self.x_train.shape[1:], self.y_train.m):
            raise ValueError(f"validation rows have attribute shape {self.x_val.shape[1:]} and "
                             f"{self.y_val.m} items, training rows {self.x_train.shape[1:]} and "
                             f"{self.y_train.m}")

        d = self.x_train.shape[1]
        m = self.y_train.m
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
        return self.x_train[idx], self.y_train.toarray(idx)

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

    def train(self, on_best=None) -> TrainingCurve:
        """The adversarial loop, logging a curve point every `eval_every`
        rounds and at the last.  `on_best(trainer, point)` is called at each
        evaluation that improves validation P@5, the same ones that reset
        early stopping."""
        cfg = self.config
        best_p5 = -1.0
        stale = 0
        while self.rounds_done < cfg.max_rounds:
            for _ in range(cfg.n_d):
                d_loss = self.discriminator_phase_step()
            for _ in range(cfg.n_g):
                g_losses = self.generator_phase_step()
            self.rounds_done += 1

            if self.rounds_done % cfg.eval_every == 0 or self.rounds_done == cfg.max_rounds:
                point = self._evaluate_checkpoint(self.rounds_done, d_loss, g_losses)
                self.curve.append(point)
                if not np.isfinite(point.p5):
                    continue    # no validation row, or none with a purchase
                if point.p5 > best_p5 + 1e-12:
                    best_p5 = point.p5
                    stale = 0
                    if on_best is not None:
                        on_best(self, point)
                else:
                    stale += 1
                    if stale >= cfg.patience:
                        break
        return self.curve

    def _evaluate_checkpoint(self, rnd, d_loss, g_losses) -> CurvePoint:
        if len(self.x_val):
            preds = M.generator_forward(self.generator, self.x_val)
            report = evaluate_predictions(preds, self.y_val, ns=(5,))
            p5, n5, m5 = report["P@5"], report["N@5"], report["M@5"]
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


def fit(x_warm, y_warm: PurchaseRows, config: TrainConfig, on_best=None) -> Trainer:
    """Train on the warm users, holding out the seeded `validation_fraction`
    slice of them for validation and early stopping; returns the finished
    Trainer.  `on_best` is passed to `Trainer.train`."""
    x_warm = np.asarray(x_warm, dtype=np.float64)
    if x_warm.shape[0] != len(y_warm):
        raise ValueError("attribute/behavior row counts differ")
    train_rows, val_rows = split_rows(x_warm.shape[0], config.validation_fraction,
                                      config.seed)
    trainer = Trainer(x_warm[train_rows], y_warm.take(train_rows), config,
                      x_val=x_warm[val_rows], y_val=y_warm.take(val_rows))
    trainer.pretrain_generator()
    trainer.train(on_best=on_best)
    return trainer


def cross_validate_beta(x_warm, y_warm, beta_grid, config: TrainConfig,
                        curves: dict | None = None):
    """Pick beta by P@5 on the validation slice `fit` holds out.

    Ties go to the smaller beta.  Returns (best_beta, {beta: p5}); a
    `curves` dict, when given, receives each beta's validation curve.
    """
    if len(beta_grid) == 0:
        raise ValueError("empty beta grid")
    if held_count(len(x_warm), config.validation_fraction) == 0:
        raise ValueError(f"validation_fraction {config.validation_fraction} holds out "
                         f"none of {len(x_warm)} warm users, so no beta can be scored")
    scores = {}
    for beta in sorted(set(map(float, beta_grid))):
        trainer = fit(x_warm, y_warm, replace(config, beta=beta))
        preds = M.generator_forward(trainer.generator, trainer.x_val)
        report = evaluate_predictions(preds, trainer.y_val, ns=(5,))
        scores[beta] = report["P@5"]
        if curves is not None:
            curves[beta] = trainer.curve
    best = max(sorted(scores), key=lambda b: scores[b])
    return best, scores


ABLATION_MODES = {
    # mode -> TrainConfig overrides; S1 is the non-saturating BCE GAN
    "S1": {"gan_loss": "bce", "sparsity": False, "nonsaturating": True},
    "S2": {"gan_loss": "lsq", "sparsity": False},
    "S3": {"gan_loss": "lsq", "sparsity": True},
}


def ablation_config(base_config: TrainConfig, mode: str) -> TrainConfig:
    """The S1/S2/S3 config derived from a base (S3) config.  Each mode
    trains on all warm users: no validation slice, so no early stopping."""
    overrides = ABLATION_MODES[mode]
    beta = base_config.beta if overrides["sparsity"] else 0.0
    return replace(base_config, beta=beta, validation_fraction=0.0,
                   **overrides).validate()


def run_ablation(x_warm, y_warm, x_cold, y_cold, base_config: TrainConfig,
                 ns=DEFAULT_NS) -> dict[str, MetricReport]:
    """Train S1, S2, S3 under identical seeds and score the cold users
    (`y_warm`, `y_cold`: `data.PurchaseRows`)."""
    reports = {}
    for mode in ABLATION_MODES:
        trainer = fit(x_warm, y_warm, ablation_config(base_config, mode))
        preds = M.generator_forward(trainer.generator, x_cold)
        reports[mode] = evaluate_report(preds, y_cold, ns=ns)
    return reports
