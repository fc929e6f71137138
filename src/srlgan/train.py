"""Training schedule: generator pretraining, then alternating
discriminator/generator phases with the sparsity-regularized objective;
the beta sweep and the S1/S2/S3 ablation built on it.

`fit` is the one place a run is put together: it builds the Trainer on a
`validation_cut` of the warm users (the rows it trains on and the seeded
`validation_fraction` slice it holds out), pretrains G and runs the
adversarial loop.  `train`, `sweep-beta` and `ablate` all train through it,
and each makes its cut once: `train` and `sweep-beta` then let go of the
warm rows, so a run holds one copy of them, and the ablation's cut holds
nothing out, so it copies nothing.  Behaviors stay `data.PurchaseRows`: a
step makes only its minibatch dense, and validation scores the CSR slice.

One "round" of the main loop is one discriminator-phase step, which also
updates the generator through the adversarial loss (the schedule's joint
update), then one generator-phase step with the full objective.  Every
training forward is given the run RNG, which puts it in training mode
(`nn`).  An evaluation of the validation slice improves when its P@5
beats the best so far by more than 1e-12; training stops when `patience`
consecutive evaluations do not improve, or at `max_rounds`.  Without a
validation row it runs to `max_rounds`.

Each curve point also carries the collapse flag: the mean over items of
the column std of G's eval-mode scores, at or below
MODE_COLLAPSE_STD_FLOOR.  It is taken over the collapse set, which is the
validation slice when there is one, and otherwise the first `batch_size`
training rows (every `ablate` mode, and `validation_fraction = 0`).  G
scores it into the idle gradient workspace (below), the std runs in column
blocks (`column_std`) and the ranking in row blocks
(`evaluate.evaluate_report`), so an evaluation allocates no score matrix
and no temporary of its size.

A `TrainConfig` is valid once built: it is frozen, and its constructor (so
also `dataclasses.replace`) names every bad setting in one ValueError.  A
run's curve is a list of `CurvePoint`s; `write_curve` writes it as CSV.

`gan_loss` and `beta` alone set the adversarial game.  The adversarial
loss is picked once from `gan_loss`: D learns
loss(D(real), 1) + loss(D(fake), 0), and G learns loss(D(fake), 1).
`beta` weighs the sparsity term, and 0 drops it; `gan_loss = bce` (S1)
requires beta 0.

`model` returns losses and their gradients w.r.t. G's output; every G
update, in pretraining and in both phases, is one `Trainer._step_generator`.

G and D alternate, so their gradients are never live at the same time, and
they share one workspace, `Trainer.workspace`: each network's `grad` is a
prefix of it (`nn.MLP.use_grad`).  A network's `grad` is meaningful only
from its `zero_grad` to its optimizer step; outside that span it may hold
the other network's gradient or the collapse set's scores, which an
evaluation writes into the workspace's first rows * m elements.  It is as
long as the largest of the three, which at the paper's widths is D, so the
scores cost no memory of their own.  The sweep and the ablation release
each finished Trainer before the next `fit` builds one.

`fit` gives the C heap's free pages back to the OS once, between
pretraining and the first round (`nn.release_free_heap`).  A run's memory
peak forms in its first discriminator step, where D's Adam moments and the
rest of the workspace are first touched, on top of whatever the process
still holds; before then glibc keeps the pages that loading the cache,
cutting the split and (in one process) `prepare` freed, resident but
unused (34-43 MiB in perfbench's one-process ML1M flow).  Releasing them
after pretraining rather than before leaves pretraining on the heap it
had.  Nothing live moves, so no value changes.

Everything is driven by a single seeded Generator, so a run is
reproducible bit-for-bit from (data, config, seed).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import evaluate as E
from . import model as M
from .data import PurchaseRows, as_purchase_rows, split_rows
from .nn import Adam, TrainingError, release_free_heap
from .evaluate import MetricReport, evaluate_predictions, evaluate_report

MODE_COLLAPSE_STD_FLOOR = 1e-4


@dataclass(frozen=True)
class TrainConfig:
    beta: float = 0.1
    batch_size: int = 64
    pretrain_epochs: int = 50       # used when n_e is None
    n_e: int | None = None          # pretraining minibatch iterations
    learning_rate: float = 1e-6
    max_rounds: int = 1000
    eval_every: int = 10
    patience: int = 10
    seed: int = 0
    gan_loss: str = "lsq"           # "lsq" or "bce"
    validation_fraction: float = 0.1
    generator_hidden: list[int] | None = None
    discriminator_hidden: list[int] | None = None
    dropout: float = M.DISCRIMINATOR_DROPOUT

    def __post_init__(self):
        problems = []
        for name in ("beta", "learning_rate"):
            if not math.isfinite(getattr(self, name)):
                problems.append(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.beta < 0:
            problems.append("beta must be >= 0")
        if self.gan_loss not in M.ADVERSARIAL_LOSSES:
            problems.append(f"gan_loss must be lsq or bce, got {self.gan_loss!r}")
        if self.gan_loss == "bce" and self.beta > 0:
            problems.append("gan_loss bce (the S1 ablation mode) requires beta=0")
        for name in ("batch_size", "eval_every", "patience"):
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
            if widths is None:
                continue
            if not all(isinstance(w, (int, np.integer)) for w in widths):
                problems.append(f"{name}: each hidden width must be an integer, got {widths}")
            elif not all(w >= 1 for w in widths):
                problems.append(f"{name}: each hidden width must be >= 1, got {widths}")
        if problems:
            raise ValueError("; ".join(problems))


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


def write_curve(path, points) -> None:
    """A run's curve points as CSV, one row per point."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "loss_g", "loss_d", "loss_sr", "p5", "n5",
                    "m5", "collapse_flag"])
        for p in points:
            w.writerow([p.round, f"{p.loss_g:.10g}", f"{p.loss_d:.10g}",
                        f"{p.loss_sr:.10g}", f"{p.p5:.10g}",
                        f"{p.n5:.10g}", f"{p.m5:.10g}",
                        int(p.collapse_flag)])


class Trainer:
    """Owns the two networks, their one workspace for gradients and
    validation scores, their optimizers, and the run RNG.  `x_train` and
    `x_val` are (n, d) float64 attribute rows, `y_train` is
    `data.PurchaseRows` or a dense float64 array, `y_val` is
    `data.PurchaseRows`; without `x_val`/`y_val` the validation slice is
    empty.  The rows are the caller's to match, as `fit`'s `validation_cut`
    does: at least one training row (`cli._load_split` refuses a split
    that leaves no warm user), one attribute row per behavior row, and the
    validation rows as wide and over as many items as the training rows."""

    def __init__(self, x_train, y_train, config: TrainConfig,
                 x_val=None, y_val=None):
        self.config = config
        self.x_train = x_train
        self.y_train = as_purchase_rows(y_train)
        self.x_val = x_train[:0] if x_val is None else x_val
        self.y_val = self.y_train.take([]) if y_val is None else y_val

        d = self.x_train.shape[1]
        m = self.y_train.m
        self.rng = np.random.default_rng(config.seed)
        self.generator = M.build_generator(d, m, self.rng,
                                           hidden=config.generator_hidden)
        self.discriminator = M.build_discriminator(
            d, m, self.rng, hidden=config.discriminator_hidden,
            dropout=config.dropout)
        # One workspace for G's and D's gradients and the collapse set's
        # scores (see the module docstring).
        self.x_collapse = self.x_val if len(self.x_val) else x_train[:config.batch_size]
        self.workspace = np.zeros(max(self.generator.theta.size,
                                      self.discriminator.theta.size,
                                      len(self.x_collapse) * m))
        for net in (self.generator, self.discriminator):
            net.use_grad(self.workspace)
        self.opt_g = Adam(self.generator, lr=config.learning_rate)
        self.adv_loss = M.ADVERSARIAL_LOSSES[config.gan_loss]
        self.opt_d = Adam(self.discriminator, lr=config.learning_rate)
        self.rho = M.mean_purchase(self.y_train)
        self._order = np.empty(0, np.int64)  # this epoch's undrawn rows
        self.curve: list[CurvePoint] = []
        self.rounds_done = 0

    # -- phases ------------------------------------------------------------

    def _batch(self):
        """The next minibatch: uniform rows without replacement, reshuffled
        when fewer than a batch are left undrawn."""
        n = self.x_train.shape[0]
        size = min(self.config.batch_size, n)
        if len(self._order) < size:
            self._order = self.rng.permutation(n)
        idx, self._order = self._order[:size], self._order[size:]
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
            y_hat = self.generator.forward(x, self.rng)
            self._step_generator(*M.loss_reconstruction(y, y_hat),
                                 "pretraining reconstruction loss")

    def discriminator_phase_step(self) -> float:
        """One adversarial update of D, then of G through the updated D, on a
        fresh batch."""
        x, y = self._batch()
        y_hat = self.generator.forward(x, self.rng)

        disc = self.discriminator
        d_real = disc.forward(M.discriminator_input(x, y), self.rng)
        loss_real, dd_real = self.adv_loss(d_real, 1.0)
        disc.zero_grad()
        disc.backward(dd_real)

        d_fake = disc.forward(M.discriminator_input(x, y_hat), self.rng)
        loss_fake, dd_fake = self.adv_loss(d_fake, 0.0)
        disc.backward(dd_fake)
        d_loss = loss_real + loss_fake
        self._check_finite(d_loss, "discriminator loss")
        self.opt_d.step()

        # Fresh fake pass so the generator gradient uses the updated D.
        # G has no dropout and is not updated before this pass, so a
        # second G forward would return y_hat again and draw nothing
        # from the RNG, and G's cached activations still belong to it.
        g_loss, grad_yhat = M.generator_adversarial_grad(
            disc, x, y_hat, self.adv_loss, self.rng)
        self._step_generator(g_loss, grad_yhat, "adversarial generator loss")
        return d_loss

    def generator_phase_step(self) -> dict:
        """One update of G with the full objective (recon + adv + beta*SR)."""
        cfg = self.config
        x, y = self._batch()
        y_hat = self.generator.forward(x, self.rng)
        losses, grad_yhat = M.generator_objective_grad(
            self.discriminator, x, y, y_hat, self.rho,
            beta=cfg.beta, adv_loss=self.adv_loss, rng=self.rng)
        self._step_generator(losses["total"], grad_yhat, "generator objective")
        return losses

    def _step_generator(self, loss, grad_yhat, what: str) -> None:
        """Refuse a non-finite `loss` (named `what`), else backprop its
        gradient w.r.t. G's last output into G's zeroed `grad` and step."""
        self._check_finite(loss, what)
        self.generator.zero_grad()
        self.generator.backward(grad_yhat)
        self.opt_g.step()

    # -- main loop ----------------------------------------------------------

    def train(self, on_best=None) -> list[CurvePoint]:
        """The adversarial loop, logging a curve point every `eval_every`
        rounds and at the last.  `on_best(trainer, point)` is called at each
        evaluation that improves validation P@5, the same ones that reset
        early stopping."""
        cfg = self.config
        best_p5 = -1.0
        stale = 0
        while self.rounds_done < cfg.max_rounds:
            d_loss = self.discriminator_phase_step()
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
        """The curve point of round `rnd`: validation P/N/M@5, and the
        collapse flag over the collapse set (the validation rows, or the
        first `batch_size` training rows when there are none)."""
        rows, m = len(self.x_collapse), self.y_train.m
        # Between optimizer steps no gradient in the workspace is live.
        preds = self.generator.predict(self.x_collapse,
                                       out=self.workspace[:rows * m].reshape(rows, m))
        if len(self.x_val):
            report = evaluate_predictions(preds, self.y_val, ns=(5,))
            p5, n5, m5 = report["P@5"], report["N@5"], report["M@5"]
        else:
            p5 = n5 = m5 = float("nan")
        std = float(column_std(preds).mean())
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


def column_std(scores) -> np.ndarray:
    """`scores.std(axis=0)`, taken in column blocks of about
    `evaluate.RANK_BLOCK` elements, the bound on every score matrix's
    temporaries: each column's std is its own reduction, so the blocks keep
    its bits without a temporary of the matrix's size."""
    n, m = scores.shape
    step = max(1, E.RANK_BLOCK // max(n, 1))
    std = np.empty(m)
    for j in range(0, m, step):
        std[j:j + step] = scores[:, j:j + step].std(axis=0)
    return std


class ValidationCut(NamedTuple):
    """The warm rows a run trains on, and the validation rows it holds out."""
    x_train: np.ndarray
    y_train: PurchaseRows
    x_val: np.ndarray
    y_val: PurchaseRows


def validation_cut(x_warm, y_warm: PurchaseRows, config: TrainConfig) -> ValidationCut:
    """The warm users cut by the seeded `validation_fraction` slice that
    `config` holds out.  A cut that holds out no row copies none: its
    training rows are `x_warm` and `y_warm` themselves.  Every config with
    this one's `validation_fraction` and `seed` makes the same cut.
    `x_warm` is a float64 array with one row per row of `y_warm`, as
    `pipeline.split_matrices` gives them: `data.load_cache` checks one
    attribute row per purchase row.  A slice that would hold out every warm
    user raises ValueError."""
    train_rows, val_rows = split_rows(x_warm.shape[0], config.validation_fraction,
                                      config.seed)
    if len(val_rows) and not len(train_rows):
        raise ValueError(f"validation_fraction {config.validation_fraction} holds out all "
                         f"{len(val_rows)} warm users, so none is left to train on")
    if not len(val_rows):
        return ValidationCut(x_warm, y_warm, x_warm[:0], y_warm.take(val_rows))
    return ValidationCut(x_warm[train_rows], y_warm.take(train_rows),
                         x_warm[val_rows], y_warm.take(val_rows))


def fit(cut: ValidationCut, config: TrainConfig, on_best=None) -> Trainer:
    """Train on `validation_cut(..., config)`'s training rows, validating
    and stopping early on its held-out rows; returns the finished Trainer,
    which holds the cut's arrays without copying them.  `on_best` is passed
    to `Trainer.train`."""
    trainer = Trainer(cut.x_train, cut.y_train, config, x_val=cut.x_val, y_val=cut.y_val)
    trainer.pretrain_generator()
    release_free_heap()     # before the rounds form the peak: see the module docstring
    trainer.train(on_best=on_best)
    return trainer


def cross_validate_beta(cut: ValidationCut, beta_grid, config: TrainConfig):
    """Pick beta by P@5 on the validation rows of `cut`, which is
    `validation_cut(..., config)`'s: every beta's fit trains on the same cut
    and scores the last point of its validation curve, the run's final
    generator's.  `beta_grid` holds distinct betas, at least one, as
    `cli._beta_grid` reads them.

    Ties go to the smaller beta.  Returns (best_beta, {beta: p5},
    {beta: curve}), both keyed in ascending beta order.  A beta that
    `config` refuses, `max_rounds = 0` and a cut without validation rows
    raise ValueError before any training.
    """
    if config.max_rounds == 0:
        raise ValueError("max_rounds 0 trains no adversarial round, so every beta "
                         "would score the same pretrained generator")
    if not len(cut.x_val):
        raise ValueError(f"validation_fraction {config.validation_fraction} holds out "
                         f"none of {len(cut.x_train)} warm users, so no beta can be scored: "
                         f"raise it, or lower --cold-fraction")
    configs = {beta: replace(config, beta=beta) for beta in sorted(beta_grid)}
    curves = {beta: fit(cut, beta_config).curve for beta, beta_config in configs.items()}
    scores = {beta: curve[-1].p5 for beta, curve in curves.items()}
    best = max(scores, key=scores.get)      # the first, so the smallest, of a tie
    return best, scores, curves


ABLATION_MODES = {
    # mode -> TrainConfig overrides; S3 keeps the base config's beta
    "S1": {"gan_loss": "bce", "beta": 0.0},
    "S2": {"gan_loss": "lsq", "beta": 0.0},
    "S3": {"gan_loss": "lsq"},
}


def ablation_config(base_config: TrainConfig, mode: str) -> TrainConfig:
    """The S1/S2/S3 config derived from a base (S3) config.  Each mode
    trains on all warm users: no validation slice, so no early stopping."""
    return replace(base_config, validation_fraction=0.0,
                   **ABLATION_MODES[mode])


def run_ablation(x_warm, y_warm, x_cold, y_cold, base_config: TrainConfig,
                 ns, user_keys) -> dict[str, MetricReport]:
    """Train S1, S2, S3 under identical seeds and score the cold users
    (`y_warm`, `y_cold`: `data.PurchaseRows`) at the cutoffs `ns`, each
    report's users labelled by `user_keys`.  The modes share one cut, which
    holds out no row, so every mode trains on `x_warm` and `y_warm`
    themselves.  Each mode scores with its generator alone: its Trainer
    (D and both optimizers) is let go before the score matrix is made."""
    configs = {mode: ablation_config(base_config, mode) for mode in ABLATION_MODES}
    cut = validation_cut(x_warm, y_warm, configs["S3"])
    reports = {}
    for mode, config in configs.items():
        generator = fit(cut, config).generator
        preds = M.generator_forward(generator, x_cold)
        reports[mode] = evaluate_report(preds, y_cold, ns=ns, user_keys=user_keys)
        del generator, preds    # free this run's network before the next fit
    return reports
