"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria that need the real MovieLens raw files (1, 2a, 6, 7, 8, 9) look
for them under $SRLGAN_DATA_ROOT (default ./data) and skip with an
explicit reason when absent; everything else runs unconditionally.  Run
with `pytest tests/test_acceptance.py -v -s`.
"""

import dataclasses
import math

import numpy as np
import pytest

from srlgan import data as D
from srlgan import evaluate as E
from srlgan import model as M
from srlgan import nn as NN
from srlgan import pipeline as P
from srlgan import train as T
from srlgan.features import layout_schema

from conftest import require_ml100k, require_ml1m
from test_evaluate import brute_mrr, brute_ndcg, brute_precision, held_row
from test_nn import central_diff_grads, rel_err
from test_train import train_with_slice

# Desk-scale training configuration for the quantitative criteria (the
# published experiments fix only beta=0.1 and the layer widths; batch
# size, optimizer settings, and stopping rule are this repo's choices,
# recorded here so acceptance runs are reproducible).
ACCEPT_CONFIG = T.TrainConfig(
    beta=0.1,
    batch_size=64,
    pretrain_epochs=30,
    learning_rate=1e-4,
    max_rounds=400,
    eval_every=25,
    patience=6,
)

SPLIT_SEED = 20240501
RUN_SEEDS = (1, 2, 3)


def _passed(criterion: str):
    print(f"\nACCEPTANCE {criterion}: PASS")


# -- criterion 1: dataset statistics ----------------------------------------

def test_criterion_1_ml100k_statistics():
    raw = require_ml100k()
    _, stats = P.prepare_dataset(raw, "ml100k")
    assert stats["users"] == 943
    assert stats["items"] == 1682
    assert abs(stats["sparsity_percent"] - 93.69) <= 0.01
    _passed("1 (ML100K stats 943/1682/93.69)")


def test_criterion_1_ml1m_statistics():
    raw = require_ml1m()
    _, stats = P.prepare_dataset(raw, "ml1m")
    assert stats["users"] == 6040
    assert stats["items"] == 3952
    assert abs(stats["sparsity_percent"] - 95.80) <= 0.01
    _passed("1 (ML1M stats 6040/3952/95.80)")


# -- criterion 2: featurizer dimensionality ----------------------------------

def test_criterion_2_ml1m_dimension_48():
    assert layout_schema("ml1m", {}).d == 48
    _passed("2 (ML1M d=48)")


def test_criterion_2_ml100k_dimension_103():
    raw = require_ml100k()
    cache, stats = P.prepare_dataset(raw, "ml100k")
    assert cache.schema.d == 103
    assert cache.tfidf.shape[1] == 103
    _passed("2 (ML100K d=103)")


# -- criterion 3: gradient correctness ---------------------------------------

def test_criterion_3_random_network_gradcheck():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        depth = int(rng.integers(1, 5))            # up to 4 weight layers
        sizes = [int(rng.integers(1, 9)) for _ in range(depth + 1)]
        net = NN.MLP(sizes, rng, dropout=0.0)
        x = rng.normal(size=(int(rng.integers(1, 4)), sizes[0]))
        target = rng.uniform(0.1, 0.9, size=(x.shape[0], sizes[-1]))

        def loss_fn():
            return float(np.sum((net.forward(x) - target) ** 2))

        net.zero_grad()
        out = net.forward(x)
        net.backward(2.0 * (out - target))
        analytic = np.concatenate([g.ravel() for _, _, g in net.params()])
        numeric = central_diff_grads(net, loss_fn)
        assert rel_err(analytic, numeric) < 1e-4, f"trial {trial}, sizes {sizes}"
    _passed("3a (100 random small networks, rel err < 1e-4)")


def test_criterion_3_full_objective_gradcheck():
    rng = np.random.default_rng(7)
    d, m, b = 4, 6, 3
    gen = M.build_generator(d, m, rng, hidden=[5, 5])
    dis = M.build_discriminator(d, m, rng, hidden=[5], dropout=0.0)
    x = rng.normal(size=(b, d))
    y = (rng.uniform(size=(b, m)) < 0.4) * rng.choice([0.2, 0.6, 1.0], size=(b, m))
    rho = M.mean_purchase(D.PurchaseRows.from_dense(y))

    def loss_fn():
        y_hat = gen.forward(x)
        recon, _ = M.loss_reconstruction(y, y_hat)
        d_fake = dis.forward(M.discriminator_input(x, y_hat))
        adv_g = 0.5 * float(np.mean((d_fake - 1.0) ** 2))
        sr, _ = M.sparsity_regularizer(rho, y_hat.mean(axis=0))
        return recon + adv_g + 0.1 * sr

    _, grad = M.generator_objective_grad(dis, x, y, gen.forward(x), rho, beta=0.1,
                                         adv_loss=M.loss_lsq, rng=None)
    gen.zero_grad()
    gen.backward(grad)
    analytic = np.concatenate([g.ravel() for _, _, g in gen.params()])
    numeric = central_diff_grads(gen, loss_fn)
    assert rel_err(analytic, numeric) < 1e-4
    _passed("3b (full objective at d=4, m=6, b=3)")


# -- criterion 4: loss oracles ------------------------------------------------

def test_criterion_4_sparsity_loss_oracles():
    loss, _ = M.sparsity_regularizer(np.array([0.5]), np.array([0.25]))
    assert abs(loss - 0.14384) <= 1e-5

    rng = np.random.default_rng(11)
    rho = rng.uniform(0, 1, 64)
    eq, _ = M.sparsity_regularizer(rho, rho)
    assert abs(eq) <= 1e-10

    pairs = rng.uniform(0, 1, size=(10_000, 2))
    for p, q in pairs:
        val, _ = M.sparsity_regularizer(np.array([p]), np.array([q]))
        assert val >= -1e-12
    _passed("4 (sparsity loss: 0.14384 oracle, zero at equality, "
            "nonnegative on 10k pairs)")


# -- criterion 5: metric oracles ----------------------------------------------

def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        m = int(rng.integers(1, 21))
        scores = rng.uniform(size=m)
        relevant = set(rng.choice(m, size=int(rng.integers(1, m + 1)),
                                  replace=False) + 1)
        n = int(rng.integers(1, m + 1))
        ranked = E.rank_items(scores)
        values = E.evaluate_report(scores, held_row(relevant, m), ns=(n,)).values
        assert values[f"P@{n}"][0] == brute_precision(ranked, relevant, n)
        assert math.isclose(values[f"N@{n}"][0],
                            brute_ndcg(ranked, relevant, n),
                            rel_tol=0, abs_tol=1e-12)
        assert values[f"M@{n}"][0] == brute_mrr(ranked, relevant, n)
    _passed("5 (P/N/M match brute-force oracle on 1000 instances)")


# -- criterion 6: ItemPop reproduction -----------------------------------------

def _ml100k_split(raw):
    """split_matrices' cut of the real ML100K."""
    cache, _ = P.prepare_dataset(raw, "ml100k")
    return P.split_matrices(cache, 0.2, SPLIT_SEED)


def test_criterion_6_itempop_p5():
    raw = require_ml100k()
    _, _, y_warm, _, y_cold = _ml100k_split(raw)
    report = E.evaluate_report(E.item_popularity(y_warm), y_cold, ns=(5,))
    p5 = report.aggregate()["P@5"]
    assert abs(p5 - 0.181) <= 0.05, f"ItemPop P@5 = {p5:.3f}"
    _passed(f"6 (ItemPop P@5 = {p5:.3f}, within 0.05 of 0.181)")


# -- criteria 7/8/9/10: training runs on real ML100K ---------------------------

def _train_and_score(x_warm, y_warm, x_cold, y_cold, config):
    config = dataclasses.replace(config, validation_fraction=0.0)
    generator, _ = T.fit(T.validation_cut(x_warm, y_warm, config), config)
    preds = M.generator_forward(generator, x_cold)
    return generator, E.evaluate_report(preds, y_cold).aggregate()


@pytest.mark.slow
def test_criterion_7_headline_metrics():
    raw = require_ml100k()
    _, x_warm, y_warm, x_cold, y_cold = _ml100k_split(raw)
    agg = {k: [] for k in ("P@5", "P@20", "N@5", "N@20", "M@5", "M@20")}
    for seed in RUN_SEEDS:
        cfg = dataclasses.replace(ACCEPT_CONFIG, seed=seed)
        _, scores = _train_and_score(x_warm, y_warm, x_cold, y_cold, cfg)
        for k in agg:
            agg[k].append(scores[k])
    means = {k: float(np.mean(v)) for k, v in agg.items()}
    pop = E.evaluate_report(E.item_popularity(y_warm), y_cold).aggregate()
    assert means["P@5"] >= 0.40, means
    assert means["N@5"] >= 0.40, means
    assert means["M@5"] >= 0.55, means
    for k in means:
        assert means[k] > pop[k], (k, means[k], pop[k])
    _passed(f"7 (3-seed means {means}, all above ItemPop)")


@pytest.mark.slow
def test_criterion_8_ablation_ordering():
    raw = require_ml100k()
    _, x_warm, y_warm, x_cold, y_cold = _ml100k_split(raw)
    means = {mode: {"P@5": [], "N@5": [], "M@5": []}
             for mode in ("S1", "S2", "S3")}
    for seed in RUN_SEEDS:
        cfg = dataclasses.replace(ACCEPT_CONFIG, seed=seed)
        reports = T.run_ablation(x_warm, y_warm, x_cold, y_cold, cfg, ns=(5,), user_keys=None)
        for mode, report in reports.items():
            agg = report.aggregate()
            for k in means[mode]:
                means[mode][k].append(agg[k])
    for k in ("P@5", "N@5", "M@5"):
        s1 = np.mean(means["S1"][k])
        s2 = np.mean(means["S2"][k])
        s3 = np.mean(means["S3"][k])
        assert s3 >= s2 >= s1, (k, s1, s2, s3)
    _passed("8 (mean P@5/N@5/M@5 ordered S3 >= S2 >= S1 over 3 seeds)")


@pytest.mark.slow
def test_criterion_9_beta_sweep():
    raw = require_ml100k()
    cache, _ = P.prepare_dataset(raw, "ml100k")
    _, x_warm, y_warm, _, _ = P.split_matrices(cache, 0.2, SPLIT_SEED)
    cfg = dataclasses.replace(ACCEPT_CONFIG, seed=RUN_SEEDS[0])
    cut = T.validation_cut(x_warm, y_warm, cfg)
    best, scores, _ = T.cross_validate_beta(cut, [0.01, 0.1, 1.0], cfg)
    assert best == 0.1, scores
    _passed(f"9 (beta=0.1 best on 90/10 warm validation: {scores})")


def test_criterion_10_stability():
    """Finite losses and no late-stage mode collapse on a seeded S3 run.

    Runs at desk scale on the synthetic fixture so it executes everywhere;
    the real-data criteria above enforce the same guards on their own runs
    (Trainer raises on any non-finite loss and flags collapse per
    checkpoint).
    """
    from synth import write_ml100k_like
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        raw = write_ml100k_like(tmp, n_users=50, n_items=1682)
        cache, _ = P.prepare_dataset(raw, "ml100k")
    _, x_warm, y_warm, _, _ = P.split_matrices(cache, 0.2, 3)
    cfg = T.TrainConfig(beta=0.1, batch_size=16, pretrain_epochs=10,
                        learning_rate=1e-3, max_rounds=80, eval_every=5,
                        patience=100, seed=5, generator_hidden=[16],
                        discriminator_hidden=[16])
    trainer = train_with_slice(x_warm, y_warm, cfg, x_warm[:10], y_warm.take(range(10)))
    points = trainer.curve
    assert points, "no checkpoints logged"
    for p in points:
        assert np.isfinite(p.loss_g) and np.isfinite(p.loss_d) and np.isfinite(p.loss_sr)
    last_quarter = points[3 * len(points) // 4:]
    assert all(not p.collapse_flag for p in last_quarter)
    _passed("10 (finite losses, no collapse flags in final quarter)")
