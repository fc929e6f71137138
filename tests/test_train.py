import tracemalloc

import numpy as np
import pytest

from srlgan import model as M
from srlgan import train as T
from srlgan.data import PurchaseRows, split_rows
from srlgan.evaluate import evaluate_report


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


def small_config(**overrides):
    base = dict(
        beta=0.1, batch_size=8, pretrain_epochs=5, learning_rate=1e-3,
        max_rounds=6, eval_every=2, seed=1,
        generator_hidden=[8], discriminator_hidden=[8], dropout=0.4,
    )
    base.update(overrides)
    return T.TrainConfig(**base).validate()


def test_config_validation_collects_problems():
    with pytest.raises(ValueError, match="beta"):
        T.TrainConfig(beta=-1).validate()
    with pytest.raises(ValueError, match="gan_loss"):
        T.TrainConfig(gan_loss="hinge").validate()
    with pytest.raises(ValueError, match="batch_size"):
        T.TrainConfig(batch_size=0).validate()


def test_config_refuses_bce_with_literal_generator_loss():
    with pytest.raises(ValueError, match="gan_loss = bce requires nonsaturating on"):
        T.TrainConfig(gan_loss="bce", sparsity=False, nonsaturating=False).validate()
    T.TrainConfig(gan_loss="lsq", nonsaturating=False).validate()


@pytest.mark.parametrize("field", ["beta", "learning_rate"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_refuses_non_finite_hyperparameters(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        T.TrainConfig(**{field: value}).validate()


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


def test_discriminator_step_allocates_less_than_one_layer0_weight():
    # m + d = 1100 by 2048: D's layer-0 weight gradient is 18 MB and the
    # fake pass adds it in five row blocks of about 4 MiB, so the step's
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


def test_different_seed_different_params():
    x, y = toy_data()
    a = T.fit(x, y, small_config(seed=1, validation_fraction=0.0))
    b = T.fit(x, y, small_config(seed=2, validation_fraction=0.0))
    assert not np.array_equal(a.generator.theta, b.generator.theta)


def test_max_rounds_zero_keeps_pretrained_generator():
    x, y = toy_data()
    cfg = small_config(max_rounds=0)
    trainer = T.Trainer(x, y, cfg)
    trainer.pretrain_generator()
    before = trainer.generator.theta.copy()
    trainer.train()
    assert np.array_equal(trainer.generator.theta, before)
    assert trainer.curve.points == []


def test_curve_rounds_strictly_increasing_and_finite():
    x, y = toy_data()
    cfg = small_config(max_rounds=8, eval_every=2)
    trainer = train_with_slice(x, y, cfg, x[:8], y.take(range(8)))
    rounds = [p.round for p in trainer.curve.points]
    assert rounds == sorted(rounds) and len(set(rounds)) == len(rounds)
    for p in trainer.curve.points:
        assert np.isfinite(p.loss_g) and np.isfinite(p.loss_d)
        assert np.isfinite(p.loss_sr)
        assert 0.0 <= p.p5 <= 1.0


def test_discriminator_scores_stay_in_unit_interval():
    x, y = toy_data()
    cfg = small_config(max_rounds=6, validation_fraction=0.0)
    trainer = T.fit(x, y, cfg)
    scores = trainer.discriminator.forward(
        M.discriminator_input(x, y.toarray()), training=False)
    assert np.all((scores > 0) & (scores < 1))
    assert np.isfinite(scores.mean())


def test_mode_collapse_flag_mechanics():
    x, y = toy_data()
    trainer = T.Trainer(x, y, small_config())
    # a healthy generator at init should not trip the floor
    point = trainer._evaluate_checkpoint(1, 0.0, {"total": 0.0, "sr": 0.0})
    assert not point.collapse_flag


def test_bce_mode_trains():
    x, y = toy_data()
    cfg = small_config(gan_loss="bce", sparsity=False, beta=0.0, max_rounds=4,
                       validation_fraction=0.0)
    trainer = T.fit(x, y, cfg)
    assert trainer.rounds_done == 4


def test_d_phase_d_only_flag():
    x, y = toy_data()
    cfg = small_config(d_phase_updates_g=False, max_rounds=2, n_g=1)
    trainer = T.Trainer(x, y, cfg)
    trainer.pretrain_generator()
    g_before = trainer.generator.theta.copy()
    trainer.discriminator_phase_step()
    assert np.array_equal(trainer.generator.theta, g_before)


def test_holdout_split_sizes_and_determinism():
    tr1, held1 = split_rows(100, 0.1, seed=4)
    tr2, held2 = split_rows(100, 0.1, seed=4)
    assert len(held1) == 10 and len(tr1) == 90
    assert np.array_equal(held1, held2) and np.array_equal(tr1, tr2)
    assert not set(tr1) & set(held1)


def test_cross_validate_beta_singleton():
    x, y = toy_data(n=30)
    cfg = small_config(max_rounds=2, pretrain_epochs=2)
    best, scores = T.cross_validate_beta(x, y, [0.1], cfg)
    assert best == 0.1
    assert set(scores) == {0.1}


def test_cross_validate_beta_tie_prefers_smaller():
    x, y = toy_data(n=30)
    cfg = small_config(max_rounds=0, n_e=0, pretrain_epochs=0)
    # with no training at all, every beta scores identically
    best, scores = T.cross_validate_beta(x, y, [1.0, 0.1], cfg)
    assert len(set(scores.values())) == 1
    assert best == 0.1


@pytest.mark.parametrize("fraction", [0.0, 0.01])
def test_cross_validate_beta_refuses_empty_validation_slice(fraction):
    x, y = toy_data(n=30)
    cfg = small_config(validation_fraction=fraction)
    with pytest.raises(ValueError, match=f"validation_fraction {fraction} holds out none of 30"):
        T.cross_validate_beta(x, y, [0.1], cfg)


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
    trainer.train(on_best=lambda tr, point: fired.append((tr, point.round, point.p5)))
    assert fired == [(trainer, 1, 0.1), (trainer, 4, 0.2)]
    # rounds 5 and 6 are the two stale evaluations that stop the loop
    assert trainer.rounds_done == 6


@pytest.mark.parametrize("case", ["rows", "width", "items"])
def test_trainer_refuses_mismatched_validation_slice(case, monkeypatch):
    x, y = toy_data()
    x_val, y_val, message = {
        "rows": (x[:8], y.take(range(5)),
                 "validation slice has 8 attribute rows but 5 behavior rows"),
        "width": (x[:8, :5], y.take(range(8)),
                  r"attribute shape \(5,\) and 12 items, training rows \(6,\) and 12"),
        "items": (x[:8], PurchaseRows.from_dense(y.toarray(range(8))[:, :10]),
                  r"attribute shape \(6,\) and 10 items, training rows \(6,\) and 12"),
    }[case]
    monkeypatch.setattr(M, "build_generator", lambda *a, **k: pytest.fail("network built"))
    with pytest.raises(ValueError, match=message):
        T.Trainer(x, y, small_config(), x_val=x_val, y_val=y_val)


def test_run_ablation_matches_trainer_on_all_warm_users_bit_for_bit():
    x, y = toy_data()
    x_cold, y_cold = toy_data(n=12, seed=1)
    base = small_config(max_rounds=4, validation_fraction=0.25)
    reports = T.run_ablation(x, y, x_cold, y_cold, base, ns=(5, 10))
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
    trainer.curve.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("round,loss_g,loss_d,loss_sr,p5,n5,m5")
    assert len(lines) == 1 + len(trainer.curve.points)


# -- the production round against a plain one --------------------------------

def _plain_adam_step(opt):
    """Textbook Adam on the whole vector, after the element-wise check."""
    net, t = opt.net, opt.t + 1
    assert np.isfinite(net.grad).all()
    b1, b2 = opt.beta1, opt.beta2
    opt.m[...] = b1 * opt.m + (1.0 - b1) * net.grad
    opt.v[...] = b2 * opt.v + (1.0 - b2) * net.grad * net.grad
    net.theta[...] -= opt.lr * (opt.m / (1.0 - b1 ** t)) / (
        np.sqrt(opt.v / (1.0 - b2 ** t)) + opt.eps)
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
    least squares or BCE, or the literal least-squares minimax form."""
    nf = d_fake.shape[0]
    if cfg.gan_loss == "bce":
        d_fake = np.clip(d_fake, EPS, 1.0 - EPS)
        return -float(np.mean(np.log(d_fake))), -1.0 / (d_fake * nf)
    if cfg.nonsaturating:
        return 0.5 * float(np.mean((d_fake - 1.0) ** 2)), (d_fake - 1.0) / nf
    return 0.5 * float(np.mean(d_fake ** 2)), d_fake / nf


def _plain_g_through_d(tr, x, y_hat):
    """G's adversarial loss and its gradient w.r.t. y_hat through D."""
    d_fake = tr.discriminator.forward(M.discriminator_input(x, y_hat),
                                      training=True, rng=tr.rng)
    loss, dd_fake = _plain_g_loss(tr.config, d_fake)
    return loss, tr.discriminator.input_grad(dd_fake)[:, x.shape[1]:]


def _plain_round(tr):
    """One round as written before the round was trimmed: gradients cleared
    by assignment (so every backward accumulates), a second G forward for
    the generator's pass through the updated D, the element-wise check, and
    the adversarial losses and the full G objective written out here."""
    cfg, gen, disc = tr.config, tr.generator, tr.discriminator
    x, y = tr._batch()
    y_hat = gen.forward(x, training=True, rng=tr.rng)
    d_real = disc.forward(M.discriminator_input(x, y), training=True, rng=tr.rng)
    dd_real = _plain_d_loss(cfg, d_real, d_real)[1]
    disc.grad[...] = 0.0
    disc.backward(dd_real)
    d_fake = disc.forward(M.discriminator_input(x, y_hat), training=True, rng=tr.rng)
    d_loss, _, dd_fake = _plain_d_loss(cfg, d_real, d_fake)
    disc.backward(dd_fake)
    _plain_adam_step(tr.opt_d)
    if cfg.d_phase_updates_g:
        y_hat2 = gen.forward(x, training=True, rng=tr.rng)
        _, grad_yhat = _plain_g_through_d(tr, x, y_hat2)
        gen.grad[...] = 0.0
        gen.backward(grad_yhat)
        _plain_adam_step(tr.opt_g)

    # G phase: recon + adv + beta * KL(rho || rho_hat), KL clamped to [1e-6, 1-1e-6]
    x, y = tr._batch()
    b = x.shape[0]
    gen.grad[...] = 0.0
    y_hat = gen.forward(x, training=True, rng=tr.rng)
    diff = y_hat - y
    recon = float(np.sum(diff * diff)) / b
    adv, grad_adv = _plain_g_through_d(tr, x, y_hat)
    grad_yhat = 2.0 * diff / b + grad_adv
    beta = cfg.beta if cfg.sparsity else 0.0
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
    {"nonsaturating": False},
    {"gan_loss": "bce", "sparsity": False, "beta": 0.0},
    {"d_phase_updates_g": False},
    {"sparsity": False},
], ids=["default", "literal", "bce", "d-only", "no-sparsity"])
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
    assert fast.opt_g.t == (6 if cfg.d_phase_updates_g else 3)
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
