"""Self-tests of the benchmark's own logic.

    python3 -m pytest -q perfbench
"""

import filecmp
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests"), str(BENCH)]

import inputs  # noqa: E402
import metrics  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import synth  # noqa: E402
from srlgan import nn as NN  # noqa: E402
from spans import ROOT, Span, Tracer  # noqa: E402


def test_self_time_subtracts_only_direct_children():
    tree = [Span(ROOT, 0, 100, -1, 1, None),
            Span("a", 10, 40, 0, 1, None),
            Span("a.child", 15, 25, 1, 1, None),
            Span("b", 50, 90, 0, 1, None)]
    assert spans.self_times(tree) == [30, 20, 10, 40]
    assert sum(spans.self_times(tree)) == 100


@pytest.mark.parametrize("n, percentile, rank", [(100, 90, 90), (30, 66, 20), (11, 9, 1)])
def test_tail_keeps_ten_samples_beyond(n, percentile, rank):
    values = list(range(n, 0, -1))            # unsorted on purpose
    p, value, beyond = metrics.tail(values)
    assert (p, value, beyond) == (percentile, rank, 10)


def test_tail_needs_more_than_ten_samples():
    assert metrics.tail(list(range(10))) is None


def test_linear_flops_and_adam_bytes_by_hand():
    # x (2x3) @ W (3x4): 2*3*4 multiply-adds = 48 flops, plus 8 bias adds.
    assert spans.linear_flops(2, 3, 4) == {"forward": 56, "weight_grad": 48, "backward": 104}
    # [3, 4, 2]: 3*4 + 4 + 4*2 + 2 = 26 weights; Adam moves 7 float64 each.
    assert spans.mlp_param_count([3, 4, 2]) == 26
    net = NN.MLP([3, 4, 2], np.random.default_rng(0))
    opt = NN.Adam(net, lr=1e-3)
    tracer = Tracer().install()
    try:
        def body():
            x = np.ones((2, 3))
            net.zero_grad()
            net.backward(net.forward(x))
            opt.step()
        tracer._wrap(ROOT, body)()
    finally:
        tracer.uninstall()
    assert tracer.counts["nn.adam_step.bytes"] == 26 * 56
    # Two layers: (2x3)@(3x4) and (2x4)@(4x2).
    assert tracer.counts["nn.linear_fwd.flop"] == (48 + 8) + (32 + 4)
    assert tracer.counts["nn.linear_bwd.flop"] == (2 * 48 + 8) + (2 * 32 + 4)


def test_weight_grad_ledger_on_two_layer_mlp():
    net = NN.MLP([3, 4, 2], np.random.default_rng(0))
    opt = NN.Adam(net, lr=1e-3)
    x = np.ones((5, 3))
    tracer = Tracer().install()
    try:
        def body():
            net.zero_grad()
            net.backward(net.forward(x))
            opt.step()                        # these gradients are used
            net.backward(net.forward(x))
            net.zero_grad()                   # these are thrown away
            net.backward(net.forward(x))      # and these never reach a step
        tracer._wrap(ROOT, body)()
    finally:
        tracer.uninstall()
    tracer.grads.close()
    per_backward = 2 * 5 * (3 * 4 + 4 * 2)
    assert tracer.grads.useful == per_backward
    assert tracer.grads.wasted == 2 * per_backward
    layers = metrics.per_layer(tracer.spans, tracer.counts, tracer.grads)
    assert layers["nn.weight_grad.useful_ratio"] == pytest.approx(1 / 3)


def test_tracer_restores_every_patched_callable():
    from srlgan import cli, evaluate, train

    before = (cli.main, evaluate.rank_items, train.evaluate_predictions,
              train.Trainer.__dict__["_batch"], NN.Linear.__dict__["forward"])
    tracer = Tracer().install()
    assert cli.main is not before[0] and train.evaluate_predictions is not before[2]
    tracer.uninstall()
    after = (cli.main, evaluate.rank_items, train.evaluate_predictions,
             train.Trainer.__dict__["_batch"], NN.Linear.__dict__["forward"])
    assert after == before


def test_step_timings_from_spans():
    pre, d_step, g_step, adam = (metrics.PRETRAIN, *metrics.ROUND_STEPS, metrics.ADAM)
    recorded = [Span(ROOT, 0, 1000, -1, 1, None),
                Span(pre, 100, 400, 0, 1, None),
                Span(adam, 150, 200, 1, 1, None),
                Span(adam, 330, 390, 1, 1, None),
                Span(d_step, 500, 700, 0, 1, 1),
                Span(adam, 650, 690, 4, 1, 1),
                Span(g_step, 700, 760, 0, 1, 1)]
    steps = metrics.step_timings(recorded)
    assert steps["setup"] == [100 / 1e9]
    assert steps["pretrain_step"] == [100 / 1e9, 190 / 1e9]
    assert steps["round"] == [260 / 1e9]


def test_phase_shares_split_train_into_phases():
    pre, d_step, g_step = metrics.PRETRAIN, *metrics.ROUND_STEPS
    recorded = [Span(ROOT, 0, 100, -1, 1, None),                 # prepare
                Span(ROOT, 100, 500, -1, 2, None),               # train
                Span(pre, 150, 250, 1, 2, None),
                Span(d_step, 250, 300, 1, 2, 1),
                Span(g_step, 300, 340, 1, 2, 1),
                Span(metrics.VALIDATION, 340, 360, 1, 2, None),
                Span(metrics.SAVE, 360, 460, 1, 2, None)]
    shares = metrics.phase_shares(recorded, ["prepare", "train"])
    assert shares == pytest.approx({
        "prepare": 0.2, "train": 0.8, "train.setup": 0.1, "train.pretrain": 0.2,
        "train.rounds": 0.18, "train.validation": 0.04, "train.checkpoint_save": 0.2,
        "train.other": 0.08})


def _reference_rows():
    rng = np.random.default_rng(4)
    return rng.random((16, 5)), (rng.random((16, 9)) < 0.3).astype(float)


def test_training_steps_match_reference():
    distance = reference.check_training_steps(*_reference_rows(), seed=2)
    assert max(distance.values()) <= reference.TOLERANCE


def test_reference_check_catches_stale_gradients(monkeypatch):
    # Gradients that are never reset accumulate across steps.
    monkeypatch.setattr(NN.MLP, "zero_grad", lambda self: None)
    distance = reference.check_training_steps(*_reference_rows(), seed=2)
    assert min(distance.values()) > 1e3 * reference.TOLERANCE


def test_brute_force_p5_breaks_ties_to_lower_item():
    scores = np.array([[0.5, 0.9, 0.9, 0.1, 0.5, 0.5, 0.9]])
    truth = np.array([[0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0]])
    # Ranking: items 1, 2, 6 (0.9, by id), then 0, 4 (0.5, lower ids first).
    assert run.brute_force_p5(scores, truth) == pytest.approx(3 / 5)
    assert run.brute_force_p5(np.vstack([scores, scores]), np.vstack([truth, 0 * truth])) \
        == pytest.approx(3 / 5)


@pytest.mark.parametrize("dataset, reference", [("ml100k", synth.write_ml100k_like),
                                                ("ml1m", synth.write_ml1m_like)])
def test_inputs_match_synth_byte_for_byte(tmp_path, dataset, reference):
    shape = {"n_users": 80, "n_items": 60, "ratings_per_user": 15}
    reference(tmp_path / "a", seed=3, **shape)
    inputs.write_raw(dataset, tmp_path / "b", 3, **shape)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names,
                                               shallow=False)
    assert (mismatch, errors) == ([], [])
