import copy
import dataclasses
import gc
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from srlgan import evaluate as E
from srlgan import model as M
from srlgan import nn as NN
from srlgan import train as T
from srlgan.data import PurchaseRows, split_rows
from srlgan.evaluate import evaluate_report
from srlgan.nn import TrainingError

from test_nn import held_activations


def toy_data(n=40, d=6, m=12, seed=0):
    """Attribute rows and PurchaseRows with planted structure: users in
    group g buy items congruent to g, so reconstruction is learnable."""
    rng = np.random.default_rng(seed)
    x = np.zeros((n, d))
    y = np.zeros((n, m))
    for k in range(n):
        g = k % 3
        x[k, g] = 1.0
        x[k, 3:] = rng.uniform(0, 0.2, d - 3)
        for i in range(g, m, 3):
            if rng.random() < 0.7:
                y[k, i] = rng.choice([0.4, 0.6, 0.8, 1.0])
    return x, PurchaseRows.from_dense(y)


def train_with_slice(x, y, config, x_val, y_val):
    """Pretrain and train on all of x, y, validating on the given slice."""
    trainer = T.Trainer(x, y, config, x_val=x_val, y_val=y_val)
    trainer.pretrain_generator()
    trainer.train()
    return trainer


def fit(x, y, config):
    """`T.fit` on the cut `config` makes of all of x, y: (generator, curve)."""
    return T.fit(T.validation_cut(x, y, config), config)


def small_config(**overrides):
    base = dict(
        beta=0.1, batch_size=8, pretrain_epochs=5, learning_rate=1e-3,
        max_rounds=6, eval_every=2, seed=1,
        generator_hidden=[8], discriminator_hidden=[8], dropout=0.4,
    )
    base.update(overrides)
    return T.TrainConfig(**base)


def test_config_validation_collects_problems():
    with pytest.raises(ValueError, match="beta"):
        T.TrainConfig(beta=-1)
    with pytest.raises(ValueError, match="gan_loss"):
        T.TrainConfig(gan_loss="hinge")
    with pytest.raises(ValueError, match="batch_size must be >= 1; learning_rate must be > 0"):
        T.TrainConfig(batch_size=0, learning_rate=-1.0)
    # A config is checked where it is built, and cannot change after.
    with pytest.raises(ValueError, match="beta must be >= 0"):
        dataclasses.replace(T.TrainConfig(), beta=-1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        T.TrainConfig().beta = -1.0


@pytest.mark.parametrize("widths", [[8.0], [8, 2.5]])
def test_config_refuses_non_integer_hidden_widths(widths):
    """The networks are built from these widths as given: `nn.MLP` checks
    none of them."""
    with pytest.raises(ValueError, match=r"generator_hidden: each hidden width must be an "
                                         r"integer, got \["):
        T.TrainConfig(generator_hidden=widths)


@pytest.mark.parametrize("field", ["beta", "learning_rate"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_refuses_non_finite_hyperparameters(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        T.TrainConfig(**{field: value})


def test_pretrain_reduces_reconstruction_loss():
    x, y = toy_data()
    cfg = small_config(pretrain_epochs=30)
    trainer = T.Trainer(x, y, cfg)
    y0 = M.generator_forward(trainer.generator, x)
    loss0, _ = M.loss_reconstruction(y.toarray(), y0)
    trainer.pretrain_generator()
    y1 = M.generator_forward(trainer.generator, x)
    loss1, _ = M.loss_reconstruction(y.toarray(), y1)
    assert loss1 <= loss0


def test_pretrain_zero_iterations_leaves_params():
    x, y = toy_data()
    trainer = T.Trainer(x, y, small_config(n_e=0))
    before = trainer.generator.theta.copy()
    trainer.pretrain_generator()
    assert np.array_equal(trainer.generator.theta, before)


def test_training_deterministic_bit_for_bit():
    x, y = toy_data()
    params = []
    for _ in range(2):
        cfg = small_config()
        trainer = train_with_slice(x, y, cfg, x[:8], y.take(range(8)))
        params.append((trainer.generator.theta.copy(),
                       trainer.discriminator.theta.copy()))
    assert np.array_equal(params[0][0], params[1][0])
    assert np.array_equal(params[0][1], params[1][1])


def test_batches_follow_one_permutation_per_epoch():
    """Each epoch draws one permutation of the rows from the run RNG and
    serves it in order, a batch at a time; its n mod b leftover rows are
    never drawn."""
    x, y = toy_data(n=40)
    b = 12
    trainer = T.Trainer(x, y, small_config(batch_size=b))
    oracle = copy.deepcopy(trainer.rng)
    for _ in range(3):
        perm = oracle.permutation(len(x))
        leftover = x[perm[len(x) // b * b:]]
        assert len(leftover) == len(x) % b
        for k in range(len(x) // b):
            xb, yb = trainer._batch()
            rows = perm[k * b:(k + 1) * b]
            assert np.array_equal(xb, x[rows])
            assert np.array_equal(yb, y.toarray(rows))
            assert not (xb[:, None, :] == leftover).all(-1).any()
    assert trainer.rng.bit_generator.state == oracle.bit_generator.state


def test_batches_serve_the_whole_permutation_when_n_is_a_multiple_of_b():
    """With n = 3b, each epoch's permutation is served whole, its last batch
    included, before the next permutation is drawn."""
    x, y = toy_data(n=36)
    b = 12
    trainer = T.Trainer(x, y, small_config(batch_size=b))
    oracle = copy.deepcopy(trainer.rng)
    for _ in range(3):
        perm = oracle.permutation(len(x))
        for k in range(3):
            xb, yb = trainer._batch()
            rows = perm[k * b:(k + 1) * b]
            assert np.array_equal(xb, x[rows])
            assert np.array_equal(yb, y.toarray(rows))
    assert trainer.rng.bit_generator.state == oracle.bit_generator.state


def test_discriminator_step_allocates_less_than_one_layer0_weight():
    # m + d = 1100 by 2048: D's layer-0 weight gradient is 18 MB and the
    # fake pass adds it in 18 row blocks of about 1 MiB, so the step's
    # peak stays under half a weight; a whole-matrix `+=` allocates a whole
    # weight-sized product.
    x, y = toy_data(d=6, m=1094)
    tr = T.Trainer(x, y, small_config(discriminator_hidden=[2048, 16]))
    weight_bytes = tr.discriminator.layers[0].weight.nbytes
    tr.discriminator_phase_step()                 # warm-up: lazy allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tr.discriminator_phase_step()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < weight_bytes / 2, (peak, weight_bytes)


def test_step_peaks_stay_within_their_batch_sized_arrays():
    """Above the live set before it, a step holds no more batch-sized
    (b, m) arrays at once than its arithmetic needs.  The D-phase step
    peaks in G's sigmoid backward, under G's output, the adversarial
    gradient w.r.t. D's input and that backward's two temporaries: 4 arrays.
    The G-phase step peaks in the reconstruction loss, under the batch,
    G's output, the adversarial gradient, the difference and its square:
    5 arrays.  Everything else (the (b, d) and (b, hidden) arrays, masks,
    Adam's scratch) stays under half an array.  At m = 1682, b = 64 and
    D's widths [1690, 128, 1], layer 0's weight (1.7 MB) is added in two
    row blocks of about 1 MiB.  Measured 4.04 and 5.03 arrays; with
    out-of-place activations, a scale-keeping dropout tape, a held batch in
    the D phase and 4 MiB row blocks, 5.12 and 6.13."""
    x, y = toy_data(n=128, d=8, m=1682)
    tr = T.Trainer(x, y, small_config(batch_size=64, generator_hidden=[32],
                                      discriminator_hidden=[128]))
    assert len(NN._row_blocks(*tr.discriminator.layers[0].weight.shape)) == 2
    batch_bytes = 64 * 1682 * 8
    for step, arrays in (("discriminator_phase_step", 4.5), ("generator_phase_step", 5.5)):
        getattr(tr, step)()                     # warm-up: lazy allocations
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            getattr(tr, step)()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < arrays * batch_bytes, (step, peak / batch_bytes)


def test_no_activation_outlives_a_step_or_an_evaluation():
    """After each training step and each validation, neither G nor D holds
    any of an activation tape."""
    x, y = toy_data()
    trainer = T.Trainer(x[8:], y.take(range(8, 40)), small_config(dropout=0.4),
                        x_val=x[:8], y_val=y.take(range(8)))

    def cached():
        return [(role, held) for role, net in (("G", trainer.generator),
                                               ("D", trainer.discriminator))
                for held in held_activations(net)]

    trainer.pretrain_generator()
    assert cached() == []
    d_loss = trainer.discriminator_phase_step()
    assert cached() == []
    g_losses = trainer.generator_phase_step()
    assert cached() == []
    trainer._evaluate_checkpoint(1, d_loss, g_losses)
    assert cached() == []
    disc = trainer.discriminator        # a tape that is held is seen
    disc.forward(np.ones((2, disc.sizes[0])), np.random.default_rng(0))
    assert ("D", "_keeps") in cached()


def test_different_seed_different_params():
    x, y = toy_data()
    a, _ = fit(x, y, small_config(seed=1, validation_fraction=0.0))
    b, _ = fit(x, y, small_config(seed=2, validation_fraction=0.0))
    assert not np.array_equal(a.theta, b.theta)


def test_max_rounds_zero_keeps_pretrained_generator():
    x, y = toy_data()
    cfg = small_config(max_rounds=0)
    trainer = T.Trainer(x, y, cfg)
    trainer.pretrain_generator()
    before = trainer.generator.theta.copy()
    trainer.train()
    assert np.array_equal(trainer.generator.theta, before)
    assert trainer.curve == []


def test_curve_rounds_strictly_increasing_and_finite():
    x, y = toy_data()
    cfg = small_config(max_rounds=8, eval_every=2)
    trainer = train_with_slice(x, y, cfg, x[:8], y.take(range(8)))
    rounds = [p.round for p in trainer.curve]
    assert rounds == sorted(rounds) and len(set(rounds)) == len(rounds)
    for p in trainer.curve:
        assert np.isfinite(p.loss_g) and np.isfinite(p.loss_d)
        assert np.isfinite(p.loss_sr)
        assert 0.0 <= p.p5 <= 1.0


def test_discriminator_scores_stay_in_unit_interval():
    x, y = toy_data()
    cfg = small_config(max_rounds=6, validation_fraction=0.0)
    trainer = train_with_slice(x, y, cfg, None, None)
    scores = trainer.discriminator.forward(
        M.discriminator_input(x, y.toarray()))
    assert np.all((scores > 0) & (scores < 1))
    assert np.isfinite(scores.mean())


def test_mode_collapse_flag_mechanics():
    x, y = toy_data()
    trainer = T.Trainer(x, y, small_config())
    # a healthy generator at init should not trip the floor
    point = trainer._evaluate_checkpoint(1, 0.0, {"total": 0.0, "sr": 0.0})
    assert not point.collapse_flag


@pytest.mark.parametrize("std, flagged", [(0.99e-4, True), (1.01e-4, False)])
def test_collapse_flag_turns_at_the_std_floor(std, flagged):
    """The flag is set when the mean column std of the collapse set's
    scores is at or below the floor of 1e-4, and not just above it."""
    x, y = toy_data()
    trainer = T.Trainer(x, y, small_config(validation_fraction=0.0))
    rows = trainer.config.batch_size
    signs = np.where(np.arange(rows) % 2, 1.0, -1.0)[:, None]
    scores = 0.5 + std * signs * np.ones((1, y.m))     # every column's std is `std`
    assert T.column_std(scores).mean() == pytest.approx(std, rel=1e-6)

    def predict(batch, out=None):
        out[...] = scores
        return out

    trainer.generator.predict = predict
    point = trainer._evaluate_checkpoint(1, 0.0, {"total": 0.0, "sr": 0.0})
    assert point.collapse_flag == flagged


def test_bce_mode_trains():
    x, y = toy_data()
    cfg = small_config(gan_loss="bce", beta=0.0, max_rounds=4,
                       validation_fraction=0.0)
    _, curve = fit(x, y, cfg)
    assert curve[-1].round == 4


def test_holdout_split_sizes_and_determinism():
    tr1, held1 = split_rows(100, 0.1, seed=4)
    tr2, held2 = split_rows(100, 0.1, seed=4)
    assert len(held1) == 10 and len(tr1) == 90
    assert np.array_equal(held1, held2) and np.array_equal(tr1, tr2)
    assert not set(tr1) & set(held1)


def test_cross_validate_beta_singleton():
    x, y = toy_data(n=30)
    cfg = small_config(max_rounds=2, pretrain_epochs=2)
    best, scores, curves = T.cross_validate_beta(T.validation_cut(x, y, cfg), [0.1], cfg)
    assert best == 0.1
    assert set(scores) == set(curves) == {0.1}


@pytest.mark.parametrize("stop", ["max-rounds", "patience"])
def test_cross_validate_beta_scores_each_final_generator(stop):
    """Each beta's score is the last point of its curve, which is the
    validation P@5 of the generator its fit ends with, whether the run
    reaches max_rounds or stops on patience."""
    x, y = toy_data(n=30)
    settings = ({"max_rounds": 5, "eval_every": 2} if stop == "max-rounds" else
                {"max_rounds": 40, "eval_every": 1, "patience": 2, "learning_rate": 1e-9})
    cfg = small_config(pretrain_epochs=2, **settings)
    cut = T.validation_cut(x, y, cfg)
    _, scores, curves = T.cross_validate_beta(cut, [0.0, 1.0], cfg)
    for beta, curve in curves.items():
        generator, fit_curve = T.fit(cut, small_config(pretrain_epochs=2, beta=beta, **settings))
        assert curve == fit_curve
        assert (curve[-1].round < cfg.max_rounds) == (stop == "patience")
        report = T.evaluate_predictions(M.generator_forward(generator, cut.x_val), cut.y_val,
                                        ns=(5,))
        assert scores[beta] == report["P@5"]


def test_cross_validate_beta_tie_prefers_smaller(monkeypatch):
    x, y = toy_data(n=30)
    curve = [T.CurvePoint(2, 0.0, 0.0, 0.0, 0.5, 0.5, 0.5)]
    # every beta's run ends on the same validation P@5
    monkeypatch.setattr(T, "fit", lambda *args: (None, curve))
    cfg = small_config()
    best, scores, _ = T.cross_validate_beta(T.validation_cut(x, y, cfg), [1.0, 0.1], cfg)
    assert scores == {0.1: 0.5, 1.0: 0.5}
    assert best == 0.1


def test_cross_validate_beta_refuses_max_rounds_zero_before_training(monkeypatch):
    x, y = toy_data(n=30)
    monkeypatch.setattr(T, "fit", lambda *args: pytest.fail("trained"))
    cfg = small_config(max_rounds=0)
    with pytest.raises(ValueError, match="max_rounds 0 trains no adversarial round"):
        T.cross_validate_beta(T.validation_cut(x, y, cfg), [0.1, 1.0], cfg)


@pytest.mark.parametrize("fraction", [0.0, 0.01])
def test_cross_validate_beta_refuses_empty_validation_slice(fraction):
    x, y = toy_data(n=30)
    cfg = small_config(validation_fraction=fraction)
    with pytest.raises(ValueError, match=f"validation_fraction {fraction} holds out none of 30"):
        T.cross_validate_beta(T.validation_cut(x, y, cfg), [0.1], cfg)


def test_early_stopping_on_stale_validation():
    x, y = toy_data()
    cfg = small_config(max_rounds=100, eval_every=1, patience=3,
                       learning_rate=1e-9)
    trainer = train_with_slice(x, y, cfg, x[:8], y.take(range(8)))
    # tiny lr: validation P@5 cannot improve, so the loop stops early
    assert trainer.rounds_done < 100


def test_on_best_fires_exactly_when_early_stopping_resets():
    x, y = toy_data()
    trainer = T.Trainer(x, y, small_config(max_rounds=10, eval_every=1, patience=2),
                        x_val=x[:8], y_val=y.take(range(8)))
    # A NaN (no validation metric) neither improves nor counts as stale,
    # and a rise of 1e-15 is no improvement.
    p5s = iter([0.1, float("nan"), 0.1 + 1e-15, 0.2, 0.2 + 1e-15, 0.2, 0.9])
    trainer.discriminator_phase_step = lambda: 0.0
    trainer.generator_phase_step = lambda: {"total": 0.0, "sr": 0.0}
    trainer._evaluate_checkpoint = lambda rnd, d_loss, g_losses: T.CurvePoint(
        rnd, 0.0, 0.0, 0.0, next(p5s), 0.0, 0.0)
    fired = []
    trainer.train(on_best=lambda generator, point: fired.append((generator, point.round,
                                                                 point.p5)))
    assert fired == [(trainer.generator, 1, 0.1), (trainer.generator, 4, 0.2)]
    # rounds 5 and 6 are the two stale evaluations that stop the loop
    assert trainer.rounds_done == 6


def test_run_ablation_matches_trainer_on_all_warm_users_bit_for_bit():
    x, y = toy_data()
    x_cold, y_cold = toy_data(n=12, seed=1)
    base = small_config(max_rounds=4, validation_fraction=0.25)
    reports = T.run_ablation(x, y, x_cold, y_cold, base, ns=(5, 10), user_keys=None)
    assert list(reports) == ["S1", "S2", "S3"]
    for mode, report in reports.items():
        trainer = train_with_slice(x, y, T.ablation_config(base, mode), x[:0], y.take([]))
        want = evaluate_report(M.generator_forward(trainer.generator, x_cold), y_cold,
                               ns=(5, 10))
        assert np.array_equal(report.users, want.users)
        for key, values in want.values.items():
            assert np.array_equal(report.values[key], values), (mode, key)


def test_curve_csv_round_trip(tmp_path):
    x, y = toy_data()
    cfg = small_config(max_rounds=4, eval_every=2)
    trainer = train_with_slice(x, y, cfg, x[:8], y.take(range(8)))
    path = tmp_path / "curve.csv"
    T.write_curve(path, trainer.curve)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("round,loss_g,loss_d,loss_sr,p5,n5,m5")
    assert len(lines) == 1 + len(trainer.curve)


# -- the production round against a plain one --------------------------------

def _plain_adam_step(opt):
    """Textbook Adam on the whole vector, after the element-wise check."""
    net, t = opt.net, opt.t + 1
    assert np.isfinite(net.grad).all()
    b1, b2 = 0.9, 0.999
    opt.m[...] = b1 * opt.m + (1.0 - b1) * net.grad
    opt.v[...] = b2 * opt.v + (1.0 - b2) * net.grad * net.grad
    net.theta[...] -= opt.lr * (opt.m / (1.0 - b1 ** t)) / (
        np.sqrt(opt.v / (1.0 - b2 ** t)) + 1e-8)
    opt.t = t


EPS = 1e-12  # BCE clip


def _plain_d_loss(cfg, d_real, d_fake):
    """D's adversarial loss and its gradients w.r.t. d_real and d_fake."""
    nr, nf = d_real.shape[0], d_fake.shape[0]
    if cfg.gan_loss == "lsq":
        loss = 0.5 * float(np.mean((d_real - 1.0) ** 2)) \
            + 0.5 * float(np.mean(d_fake ** 2))
        return loss, (d_real - 1.0) / nr, d_fake / nf
    d_real, d_fake = np.clip(d_real, EPS, 1.0 - EPS), np.clip(d_fake, EPS, 1.0 - EPS)
    loss = -float(np.mean(np.log(d_real))) - float(np.mean(np.log(1.0 - d_fake)))
    return loss, -1.0 / (d_real * nr), 1.0 / ((1.0 - d_fake) * nf)


def _plain_g_loss(cfg, d_fake):
    """G's adversarial loss and its gradient w.r.t. d_fake: non-saturating
    least squares or BCE."""
    nf = d_fake.shape[0]
    if cfg.gan_loss == "bce":
        d_fake = np.clip(d_fake, EPS, 1.0 - EPS)
        return -float(np.mean(np.log(d_fake))), -1.0 / (d_fake * nf)
    return 0.5 * float(np.mean((d_fake - 1.0) ** 2)), (d_fake - 1.0) / nf


def _plain_g_through_d(tr, x, y_hat):
    """G's adversarial loss and its gradient w.r.t. y_hat through D."""
    d_fake = tr.discriminator.forward(M.discriminator_input(x, y_hat),
                                      rng=tr.rng)
    loss, dd_fake = _plain_g_loss(tr.config, d_fake)
    return loss, tr.discriminator.input_grad(dd_fake)[:, x.shape[1]:]


def _plain_round(tr):
    """One round as written before the round was trimmed: gradients cleared
    by assignment (so every backward accumulates), a second G forward for
    the generator's pass through the updated D, the element-wise check, and
    the adversarial losses and the full G objective written out here."""
    cfg, gen, disc = tr.config, tr.generator, tr.discriminator
    x, y = tr._batch()
    y_hat = gen.forward(x, rng=tr.rng)
    d_real = disc.forward(M.discriminator_input(x, y), rng=tr.rng)
    dd_real = _plain_d_loss(cfg, d_real, d_real)[1]
    disc.grad[...] = 0.0
    disc.backward(dd_real)
    d_fake = disc.forward(M.discriminator_input(x, y_hat), rng=tr.rng)
    d_loss, _, dd_fake = _plain_d_loss(cfg, d_real, d_fake)
    disc.backward(dd_fake)
    _plain_adam_step(tr.opt_d)
    y_hat2 = gen.forward(x, rng=tr.rng)
    _, grad_yhat = _plain_g_through_d(tr, x, y_hat2)
    gen.grad[...] = 0.0
    gen.backward(grad_yhat)
    _plain_adam_step(tr.opt_g)

    # G phase: recon + adv + beta * KL(rho || rho_hat), KL clamped to [1e-6, 1-1e-6]
    x, y = tr._batch()
    b = x.shape[0]
    gen.grad[...] = 0.0
    y_hat = gen.forward(x, rng=tr.rng)
    diff = y_hat - y
    recon = float(np.sum(diff * diff)) / b
    adv, grad_adv = _plain_g_through_d(tr, x, y_hat)
    grad_yhat = 2.0 * diff / b + grad_adv
    beta = cfg.beta
    sr = 0.0
    if beta > 0.0:
        rho_hat = y_hat.mean(axis=0)
        p = np.clip(tr.rho, 1e-6, 1.0 - 1e-6)
        q = np.clip(rho_hat, 1e-6, 1.0 - 1e-6)
        sr = float(np.sum(p * np.log(p / q) + (1.0 - p) * np.log((1.0 - p) / (1.0 - q))))
        d_rho_hat = -p / q + (1.0 - p) / (1.0 - q)
        d_rho_hat[(rho_hat < 1e-6) | (rho_hat > 1.0 - 1e-6)] = 0.0
        grad_yhat = grad_yhat + beta * d_rho_hat[None, :] / b
    gen.backward(grad_yhat)
    _plain_adam_step(tr.opt_g)
    return d_loss, recon + adv + beta * sr, sr


@pytest.mark.parametrize("overrides", [
    {},
    {"gan_loss": "bce", "beta": 0.0},
    {"beta": 0.0},
], ids=["default", "bce", "no-sparsity"])
def test_round_matches_plain_round_bit_for_bit(overrides):
    x, y = toy_data()
    cfg = small_config(generator_hidden=[16, 12], discriminator_hidden=[20, 10],
                       **overrides)
    fast, plain = T.Trainer(x, y, cfg), T.Trainer(x, y, cfg)
    for _ in range(3):
        d_loss, g_losses = fast.discriminator_phase_step(), fast.generator_phase_step()
        assert (d_loss, g_losses["total"], g_losses["sr"]) == _plain_round(plain)
        for a, b in ((fast.opt_d, plain.opt_d), (fast.opt_g, plain.opt_g)):
            assert a.t == b.t
            for got, want in ((a.net.theta, b.net.theta), (a.m, b.m), (a.v, b.v)):
                assert np.array_equal(got, want)
        assert fast.rng.bit_generator.state == plain.rng.bit_generator.state
    assert fast.opt_g.t == 6
    assert fast.opt_d.t == 3


def test_discriminator_phase_runs_the_generator_once():
    x, y = toy_data()
    trainer = T.Trainer(x, y, small_config())
    calls = []
    forward = trainer.generator.forward

    def counted(*args, **kwargs):
        calls.append(1)
        return forward(*args, **kwargs)

    trainer.generator.forward = counted
    trainer.discriminator_phase_step()
    assert len(calls) == 1


def _nan_loss(fn):
    """`fn` with its loss replaced by NaN and its gradient kept."""
    def patched(*args, **kwargs):
        return float("nan"), fn(*args, **kwargs)[1]
    return patched


@pytest.mark.parametrize("step,loss_fn,what,net", [
    ("pretrain_generator", "loss_reconstruction", "pretraining reconstruction loss",
     "generator"),
    ("discriminator_phase_step", "adv_loss", "discriminator loss", "discriminator"),
    ("discriminator_phase_step", "generator_adversarial_grad", "adversarial generator loss",
     "generator"),
    ("generator_phase_step", "loss_reconstruction", "generator objective", "generator"),
], ids=["pretrain", "discriminator", "adversarial-generator", "generator-objective"])
def test_non_finite_loss_refused_before_the_update(step, loss_fn, what, net, monkeypatch):
    trainer = T.Trainer(*toy_data(), small_config())
    if loss_fn == "adv_loss":
        trainer.adv_loss = _nan_loss(trainer.adv_loss)
    else:
        monkeypatch.setattr(M, loss_fn, _nan_loss(getattr(M, loss_fn)))
    theta = getattr(trainer, net).theta.copy()
    with pytest.raises(TrainingError, match=f"^non-finite {what}$"):
        getattr(trainer, step)()
    assert np.array_equal(getattr(trainer, net).theta, theta)


# -- one gradient workspace for G and D ----------------------------------------

# (generator_hidden, discriminator_hidden) at toy shape (d = 6, m = 12): the
# first pair makes D the larger network, the second G.
WORKSPACE_WIDTHS = {"larger-discriminator": ([16, 12], [20, 10]),
                    "larger-generator": ([32, 32], [8])}


def _same_point(a, b):
    """Curve points equal field by field, a NaN P/N/M@5 matching NaN."""
    return repr(a) == repr(b)


@pytest.mark.parametrize("m, generator_hidden, discriminator_hidden, larger", [
    (600, None, None, "discriminator"),        # paper widths, m + d > ~440
    (12, None, None, "generator"),             # paper widths, few items
    (12, [32, 32], [8], "generator"),
], ids=["paper-larger-discriminator", "paper-larger-generator", "custom-larger-generator"])
def test_generator_and_discriminator_share_one_gradient(m, generator_hidden,
                                                        discriminator_hidden, larger):
    x, y = toy_data(m=m)
    trainer = T.Trainer(x, y, small_config(generator_hidden=generator_hidden,
                                           discriminator_hidden=discriminator_hidden))
    gen, disc = trainer.generator, trainer.discriminator
    assert gen.grad.base is disc.grad.base is trainer.workspace
    assert getattr(trainer, larger).grad.size == trainer.workspace.size
    smaller = disc if larger == "generator" else gen
    assert smaller.grad.size == smaller.theta.size < trainer.workspace.size


def _float64_buffers(trainer):
    """The distinct buffers behind every array the networks, their layers and
    the optimizers hold, directly or in a list (an MLP's activation tape)."""
    objects = [trainer.generator, trainer.discriminator, trainer.opt_g, trainer.opt_d,
               *trainer.generator.layers, *trainer.discriminator.layers]
    buffers = {}
    for obj in objects:
        for held in vars(obj).values():
            for value in held if isinstance(held, list) else [held]:
                if not isinstance(value, np.ndarray):
                    continue
                while value.base is not None:
                    value = value.base
                buffers[id(value)] = value
    return list(buffers.values())


# The collapse set's scores outsize both networks: 60 validation rows by 12
# items (720) against G's 88 and D's 81 parameters.
LARGER_SCORES = {"larger-scores": (([4], [4]), 60)}


@pytest.mark.parametrize("widths, n_val",
                         [*((widths, 0) for widths in WORKSPACE_WIDTHS.values()),
                          *LARGER_SCORES.values()],
                         ids=[*WORKSPACE_WIDTHS, *LARGER_SCORES])
def test_trainer_holds_parameters_moments_and_one_gradient(widths, n_val):
    x, y = toy_data()
    x_val, y_val = toy_data(n=n_val, seed=1) if n_val else (None, None)
    cfg = small_config(generator_hidden=widths[0], discriminator_hidden=widths[1])
    trainer = T.Trainer(x, y, cfg, x_val=x_val, y_val=y_val)
    n_g, n_d = trainer.generator.theta.size, trainer.discriminator.theta.size
    scores = (n_val or cfg.batch_size) * y.m
    assert (scores > max(n_g, n_d)) == bool(n_val)
    buffers = _float64_buffers(trainer)
    assert all(b.dtype == np.float64 for b in buffers)
    # theta, m and v of each network, and one workspace for the gradient of
    # the larger network or the collapse set's scores, whichever is larger
    assert sum(b.size for b in buffers) == 3 * (n_g + n_d) + max(n_g, n_d, scores)


@pytest.mark.parametrize("widths", WORKSPACE_WIDTHS.values(), ids=WORKSPACE_WIDTHS.keys())
def test_nan_filled_workspace_matches_plain_round_bit_for_bit(widths):
    # NaN in the shared workspace before pretraining, before each phase and
    # before each evaluation, which scores into it between rounds: no step
    # may read the other network's stale gradient or the scores, so the
    # rounds and curve points still match a plain run whose networks have
    # gradients of their own.
    x, y = toy_data()
    cfg = small_config(generator_hidden=widths[0], discriminator_hidden=widths[1], n_e=3)
    fast, plain = T.Trainer(x, y, cfg), T.Trainer(x, y, cfg)
    for net in (plain.generator, plain.discriminator):
        net.use_grad(np.zeros(net.theta.size))
    assert not np.shares_memory(plain.generator.grad, plain.discriminator.grad)
    workspace = fast.workspace
    workspace[...] = np.nan
    fast.pretrain_generator()
    plain.pretrain_generator()
    for rnd in range(1, 4):
        workspace[...] = np.nan
        d_loss = fast.discriminator_phase_step()
        workspace[...] = np.nan
        g_losses = fast.generator_phase_step()
        assert (d_loss, g_losses["total"], g_losses["sr"]) == _plain_round(plain)
        workspace[...] = np.nan
        point = fast._evaluate_checkpoint(rnd, d_loss, g_losses)
        want = plain._evaluate_checkpoint(rnd, d_loss, g_losses)
        assert _same_point(point, want)
        for a, b in ((fast.opt_d, plain.opt_d), (fast.opt_g, plain.opt_g)):
            assert a.t == b.t
            for got, want in ((a.net.theta, b.net.theta), (a.m, b.m), (a.v, b.v)):
                assert np.array_equal(got, want)
        assert fast.rng.bit_generator.state == plain.rng.bit_generator.state
    assert fast.opt_g.t == 9


@pytest.mark.parametrize("widths, n_val", [
    (WORKSPACE_WIDTHS["larger-discriminator"], 10),
    (WORKSPACE_WIDTHS["larger-discriminator"], 0),
    *LARGER_SCORES.values(),
], ids=["validation-rows", "no-validation-row", *LARGER_SCORES])
def test_scoring_into_the_workspace_matches_fresh_scores_bit_for_bit(widths, n_val):
    """An evaluation that scores into the workspace, over the gradient the
    last step left there, gives the curve point of a fresh score matrix
    from `generator_forward`, ranked by `evaluate_predictions`, with the
    collapse std of `column_std`, and leaves those scores' bytes in the
    workspace's first rows * m elements."""
    x, y = toy_data()
    x_val, y_val = toy_data(n=n_val, seed=1) if n_val else (None, None)
    cfg = small_config(generator_hidden=widths[0], discriminator_hidden=widths[1], n_e=3)
    tr = T.Trainer(x, y, cfg, x_val=x_val, y_val=y_val)
    tr.pretrain_generator()
    d_loss = tr.discriminator_phase_step()
    g_losses = tr.generator_phase_step()
    point = tr._evaluate_checkpoint(1, d_loss, g_losses)

    preds = M.generator_forward(tr.generator, x_val if n_val else x[:cfg.batch_size])
    p5 = n5 = m5 = float("nan")
    if n_val:
        report = T.evaluate_predictions(preds, y_val, ns=(5,))
        p5, n5, m5 = report["P@5"], report["N@5"], report["M@5"]
    std = float(T.column_std(preds).mean())
    want = T.CurvePoint(1, float(g_losses["total"]), float(d_loss), float(g_losses["sr"]),
                        p5, n5, m5, std <= T.MODE_COLLAPSE_STD_FLOOR)
    assert _same_point(point, want)
    assert tr.workspace[:preds.size].tobytes() == preds.tobytes()
    assert tr.workspace.size == max(tr.generator.theta.size, tr.discriminator.theta.size,
                                    preds.size)


@pytest.mark.parametrize("step, grad_fn", [
    ("discriminator_phase_step", "generator_adversarial_grad"),
    ("generator_phase_step", "generator_objective_grad"),
], ids=["discriminator-phase", "generator-phase"])
def test_non_finite_generator_gradient_stops_at_its_step_and_spares_d(step, grad_fn,
                                                                      monkeypatch):
    x, y = toy_data()
    cfg = small_config(generator_hidden=[16, 12], discriminator_hidden=[20, 10], n_e=2)
    poisoned, clean = T.Trainer(x, y, cfg), T.Trainer(x, y, cfg)
    for trainer in (poisoned, clean):
        trainer.pretrain_generator()
    getattr(clean, step)()
    gen_before = [a.copy() for a in (poisoned.generator.theta, poisoned.opt_g.m,
                                     poisoned.opt_g.v)]
    fn = getattr(M, grad_fn)

    def nan_grad(*args, **kwargs):
        loss, grad = fn(*args, **kwargs)
        grad = grad.copy()
        grad[0, -1] = np.nan
        return loss, grad

    monkeypatch.setattr(M, grad_fn, nan_grad)
    # G's third step (two were pretraining); D has taken at most one.
    with pytest.raises(TrainingError, match=r"^non-finite gradient in layer0\.weight at step 3$"):
        getattr(poisoned, step)()
    for got, want in zip((poisoned.generator.theta, poisoned.opt_g.m, poisoned.opt_g.v),
                         gen_before):
        assert np.array_equal(got, want)
    assert poisoned.opt_d.t == clean.opt_d.t
    for got, want in ((poisoned.discriminator.theta, clean.discriminator.theta),
                      (poisoned.opt_d.m, clean.opt_d.m), (poisoned.opt_d.v, clean.opt_d.v)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("run", ["sweep-beta", "ablate"])
def test_each_trainer_is_released_before_the_next_fit(run, monkeypatch):
    built = []

    class Tracked(T.Trainer):
        def __init__(self, *args, **kwargs):
            gc.collect()
            assert not [ref for ref in built if ref() is not None], "an earlier Trainer is alive"
            super().__init__(*args, **kwargs)
            built.append(weakref.ref(self))

    monkeypatch.setattr(T, "Trainer", Tracked)
    x, y = toy_data()
    cfg = small_config(max_rounds=1, eval_every=1, pretrain_epochs=1)
    if run == "sweep-beta":
        T.cross_validate_beta(T.validation_cut(x, y, cfg), [0.0, 0.1, 1.0], cfg)
    else:
        T.run_ablation(x, y, x[:6], y.take(range(6)), cfg, ns=(5,), user_keys=None)
    assert len(built) == 3


# What a Trainer holds besides G: each is freed when `fit` returns.
RUN_PARTS = ("discriminator", "opt_g", "opt_d", "workspace")


@pytest.mark.parametrize("run", ["sweep-beta", "ablate"])
def test_fit_each_frees_each_discriminator_and_optimizer_before_it_goes_on(run, monkeypatch):
    """Of each fit, the discriminator, both optimizers and the gradient
    workspace are freed, by reference counting alone, before the next fit
    builds its Trainer and before `ablate` scores the mode's cold users:
    nothing of a Trainer but what `keep` reads stays live beside the next
    fit or the score matrix."""
    parts = []

    def assert_freed(when):
        alive = [f"{name} of fit {k // len(RUN_PARTS) + 1}"
                 for k, (name, ref) in enumerate(parts) if ref() is not None]
        assert not alive, f"{', '.join(alive)} alive {when}"

    class Tracked(T.Trainer):
        def __init__(self, *args, **kwargs):
            assert_freed("when a Trainer is built")
            super().__init__(*args, **kwargs)
            parts.extend((name, weakref.ref(getattr(self, name))) for name in RUN_PARTS)

    generator_forward = M.generator_forward

    def score(generator, x):
        assert_freed("when the cold users are scored")
        return generator_forward(generator, x)

    monkeypatch.setattr(T, "Trainer", Tracked)
    monkeypatch.setattr(M, "generator_forward", score)
    x, y = toy_data()
    cfg = small_config(max_rounds=1, eval_every=1, pretrain_epochs=1)
    gc.disable()        # a reference cycle would keep them alive until a collection
    try:
        if run == "sweep-beta":
            T.cross_validate_beta(T.validation_cut(x, y, cfg), [0.0, 0.1, 1.0], cfg)
        else:
            T.run_ablation(x, y, x[:6], y.take(range(6)), cfg, ns=(5,), user_keys=None)
        assert_freed("when the command's fits are done")
    finally:
        gc.enable()
    assert len(parts) == 3 * len(RUN_PARTS)


def test_fit_leaves_nothing_of_the_run_but_the_generator_and_curve(monkeypatch):
    """When `fit` returns, its Trainer, the discriminator, both optimizers
    and the gradient workspace are freed by reference counting alone, and
    the generator's gradient, and each layer's view of it, share no memory
    with the workspace."""
    refs, held = {}, []
    hold = True

    class Tracked(T.Trainer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.update({name: weakref.ref(getattr(self, name)) for name in RUN_PARTS},
                        trainer=weakref.ref(self))
            if hold:
                held.append(self.workspace)

    monkeypatch.setattr(T, "Trainer", Tracked)
    x, y = toy_data()
    cfg = small_config(max_rounds=2, eval_every=1, pretrain_epochs=1)
    generator, curve = fit(x, y, cfg)       # a held workspace: G's gradient lies apart
    grads = [generator.grad, *(g for _, _, g in generator.params())]
    assert not any(np.shares_memory(g, held[0]) for g in grads)
    assert [p.round for p in curve] == [1, 2]
    hold = False
    held.clear()
    gc.disable()        # a reference cycle would keep them alive until a collection
    try:
        generator, curve = fit(x, y, cfg)
        alive = [name for name, ref in refs.items() if ref() is not None]
    finally:
        gc.enable()
    assert alive == []
    assert generator.grad.size == generator.theta.size and not generator.grad.any()


@pytest.mark.parametrize("run, fits", [("train", 1), ("sweep-beta", 2), ("ablate", 3)])
def test_fit_releases_the_heap_once_between_pretraining_and_rounds(run, fits, monkeypatch):
    """Each fit gives the free heap back once: after its last pretraining
    step (P) and before its first discriminator-phase step (D).  `train`
    fits once, `sweep-beta --grid 0,1` once per beta and `ablate` once per
    mode."""
    events = []
    step_generator = T.Trainer._step_generator
    discriminator_step = T.Trainer.discriminator_phase_step

    def record_generator_step(self, loss, grad_yhat, what):
        if what == "pretraining reconstruction loss":
            events.append("P")
        step_generator(self, loss, grad_yhat, what)

    def record_discriminator_step(self):
        events.append("D")
        return discriminator_step(self)

    monkeypatch.setattr(T.Trainer, "_step_generator", record_generator_step)
    monkeypatch.setattr(T.Trainer, "discriminator_phase_step", record_discriminator_step)
    monkeypatch.setattr(T, "release_free_heap", lambda: events.append("R"))
    x, y = toy_data()
    cfg = small_config(max_rounds=2, eval_every=1, pretrain_epochs=1)
    if run == "train":
        fit(x, y, cfg)
    elif run == "sweep-beta":
        T.cross_validate_beta(T.validation_cut(x, y, cfg), [0.0, 1.0], cfg)
    else:
        T.run_ablation(x, y, x[:6], y.take(range(6)), cfg, ns=(5,), user_keys=None)
    assert re.fullmatch(f"(P+RDD){{{fits}}}", "".join(events)), "".join(events)


def test_fit_without_malloc_trim_matches_fit_bit_for_bit(monkeypatch):
    """Where the C library has no `malloc_trim`, the release does nothing,
    and the fit's theta, curve and RNG state are a releasing fit's, bit for
    bit."""
    trims = []
    if NN._MALLOC_TRIM is not None:
        trim = NN._MALLOC_TRIM
        monkeypatch.setattr(NN, "_MALLOC_TRIM", lambda pad: trims.append(pad) or trim(pad))
    trainers = []

    class Kept(T.Trainer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            trainers.append(self)

    monkeypatch.setattr(T, "Trainer", Kept)
    x, y = toy_data()
    cfg = small_config()
    _, released_curve = fit(x, y, cfg)
    assert trims == ([0] if NN._MALLOC_TRIM is not None else [])
    monkeypatch.setattr(NN, "_MALLOC_TRIM", None)
    _, kept_curve = fit(x, y, cfg)
    released, kept = trainers
    for net in ("generator", "discriminator"):
        assert np.array_equal(getattr(released, net).theta, getattr(kept, net).theta)
    assert len(released_curve) == 3
    assert all(_same_point(a, b) for a, b in zip(released_curve, kept_curve, strict=True))
    assert released.rng.bit_generator.state == kept.rng.bit_generator.state


def test_validation_peak_is_under_one_score_matrix():
    """A validation evaluation scores into the idle gradient workspace, which
    D's 864,769 parameters size here, and holds only block-sized temporaries
    besides: its traced peak stays under one score matrix at 300 users by
    1682 items (0.71 of one; a fresh score matrix made it 1.71, and a
    whole-matrix std and ranking 3.2)."""
    x, y = toy_data(n=40, m=1682)
    x_val, y_val = toy_data(n=300, m=1682, seed=1)
    tr = T.Trainer(x, y, small_config(generator_hidden=[16], discriminator_hidden=[512]),
                   x_val=x_val, y_val=y_val)
    losses = {"total": 0.0, "sr": 0.0}
    tr._evaluate_checkpoint(1, 0.0, losses)       # warm-up: lazy allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tr._evaluate_checkpoint(1, 0.0, losses)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    scores_bytes = 300 * 1682 * 8
    assert tr.workspace.size == tr.discriminator.theta.size > 300 * 1682
    assert peak < scores_bytes, peak / scores_bytes


def test_collapse_check_without_validation_scores_one_batch():
    """With no validation row, the collapse check scores the first
    `batch_size` training rows in eval mode, never the whole training set,
    and draws nothing from the run RNG."""
    x, y = toy_data(n=40)
    cfg = small_config(validation_fraction=0.0, max_rounds=4, eval_every=2)
    tr = T.Trainer(x, y, cfg)
    predict, eval_rows = tr.generator.predict, []

    def spy(batch, out=None):
        eval_rows.append(len(batch))
        return predict(batch, out=out)

    tr.generator.predict = spy
    tr.pretrain_generator()
    tr.train()
    assert eval_rows == [cfg.batch_size] * 2
    state = tr.rng.bit_generator.state
    point = tr._evaluate_checkpoint(5, 0.0, {"total": 0.0, "sr": 0.0})
    assert tr.rng.bit_generator.state == state
    preds = M.generator_forward(tr.generator, x[:cfg.batch_size])
    assert point.collapse_flag == (preds.std(axis=0).mean() <= T.MODE_COLLAPSE_STD_FLOOR)


@pytest.mark.parametrize("rows, m, block", [
    (94, 1682, None), (189, 1682, None), (483, 3952, None), (1208, 3952, None),
    (7, 13, 7), (7, 13, 20), (1, 9, 1), (5, 4, 10 ** 6)])
def test_column_std_matches_whole_std_bit_for_bit(rows, m, block, monkeypatch):
    """The collapse std, taken in column blocks (the default block, or one of
    1 or 2 columns, or one block), has the bits of scores.std(axis=0)."""
    if block is not None:
        monkeypatch.setattr(E, "RANK_BLOCK", block)
    rng = np.random.default_rng(rows * m)
    scores = 1.0 / (1.0 + np.exp(-rng.normal(0.0, 3.0, size=(rows, m))))
    want = scores.std(axis=0)
    got = T.column_std(scores)
    assert got.tobytes() == want.tobytes()
