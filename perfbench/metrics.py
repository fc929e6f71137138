"""Metrics from recorded spans: end-to-end step timings and per-layer
self times, counts and rates."""

from __future__ import annotations

from collections import defaultdict

from spans import ROOT, self_times

PRETRAIN = "train.Trainer.pretrain_generator"
ROUND_STEPS = ("train.Trainer.discriminator_phase_step",
               "train.Trainer.generator_phase_step")
ADAM = "nn.Adam.step"
VALIDATION = "train.Trainer._evaluate_checkpoint"
SAVE = "nn.save_checkpoint"

# Per-layer metric groups: metric prefix -> span names it sums.
_ACTIVATIONS = {f"nn.{cls}.{method}" for cls in ("LeakyReLU", "Sigmoid", "Dropout")
                for method in ("forward", "backward")}
GROUPS = {
    "nn.linear_fwd": {"nn.Linear.forward"},
    "nn.linear_bwd": {"nn.Linear.backward"},
    "nn.activation": _ACTIVATIONS,
    "nn.zero_grad": {"nn.MLP.zero_grad"},
    "nn.save_checkpoint": {"nn.save_checkpoint"},
    "nn.load_checkpoint": {"nn.load_checkpoint"},
    "model.losses": {"model.loss_reconstruction", "model.loss_lsgan",
                     "model.loss_bce_gan", "model.sparsity_regularizer",
                     "model.total_generator_objective"},
    "model.discriminator_input": {"model.discriminator_input"},
    "model.generator_objective_grad": {"model.generator_objective_grad"},
    "train.batch": {"train.Trainer._batch", "train._BatchSampler.next"},
    "train.validation": {"train.Trainer._evaluate_checkpoint"},
    "evaluate.rank_items": {"evaluate.rank_items", "evaluate.item_pop_ranking"},
    "evaluate.metrics": {"evaluate.precision_at", "evaluate.ndcg_at",
                         "evaluate.mrr_at", "evaluate.relevant_items",
                         "evaluate.evaluate_report", "evaluate.evaluate_predictions",
                         "evaluate.MetricReport.aggregate"},
    "evaluate.itempop": {"evaluate.evaluate_itempop"},
    "data.parse": {"data.parse_ratings", "data.parse_users", "data.parse_item_genres"},
    "data.build_purchase_matrix": {"data.build_purchase_matrix"},
    "data.save_cache": {"data.save_cache"},
    "data.load_cache": {"data.load_cache"},
    "data.hash": {"data.cache_content_hash", "data.file_sha256"},
    "features.term_frequency": {"features.term_frequency"},
    "features.idf": {"features.inverse_document_frequency"},
    "pipeline.split_matrices": {"pipeline.split_matrices"},
}
MODULES = ("data", "features", "pipeline", "nn", "model", "train", "evaluate", "cli")


def tail(values, beyond: int = 10):
    """Highest whole percentile with at least `beyond` samples above it.

    Nearest-rank: the p-th percentile of n sorted samples is the one at
    rank ceil(p*n/100).  Returns (p, value, samples above) or None when
    there are too few samples for any percentile.
    """
    n = len(values)
    p = 100 * (n - beyond) // n if n > beyond else 0
    if p < 1:
        return None
    rank = -(-p * n // 100)
    return p, sorted(values)[rank - 1], n - rank


def step_timings(spans) -> dict:
    """Per-command step timings (seconds) from spans of the PROBE names.

    setup: CLI entry to the start of pretraining.  pretrain: intervals
    between consecutive `Adam.step` ends inside pretraining, the first
    from pretraining's start.  round: first D-phase start to last
    G-phase end of each training round.
    """
    roots = {s.command: s for s in spans if s.name == ROOT}
    setup, pretrain = [], []
    rounds = defaultdict(lambda: [None, None])
    for k, s in enumerate(spans):
        if s.name == PRETRAIN:
            setup.append(s.start - roots[s.command].start)
            last = s.start
            for child in spans[k + 1:]:
                if child.start >= s.end:
                    break
                if child.name == ADAM and child.parent == k:
                    pretrain.append(child.end - last)
                    last = child.end
        elif s.name in ROUND_STEPS:
            span = rounds[(s.command, s.round)]
            span[0] = s.start if span[0] is None else min(span[0], s.start)
            span[1] = s.end if span[1] is None else max(span[1], s.end)
    return {"setup": [t / 1e9 for t in setup],
            "pretrain_step": [t / 1e9 for t in pretrain],
            "round": [(end - start) / 1e9 for start, end in rounds.values()]}


def phase_shares(spans, labels) -> dict:
    """Share of the run's CLI wall time taken by each command and, inside
    `train`, by each phase.  `labels[k]` names CLI command k + 1.

    The `train.*` phases add up to `train`: set-up (entry to the start of
    pretraining), pretraining, rounds, validation, checkpoint saves and
    the rest (curve, manifest, cache hash).
    """
    phases = {PRETRAIN: "train.pretrain", VALIDATION: "train.validation",
              SAVE: "train.checkpoint_save",
              **{name: "train.rounds" for name in ROUND_STEPS}}
    roots = {s.command: s for s in spans if s.name == ROOT}
    ns = defaultdict(int)
    for command, root in roots.items():
        ns[labels[command - 1]] += root.end - root.start
    for s in spans:
        if s.name in phases and labels[s.command - 1] == "train":
            ns[phases[s.name]] += s.end - s.start
            if s.name == PRETRAIN:
                ns["train.setup"] += s.start - roots[s.command].start
    ns["train.other"] = ns["train"] - sum(v for k, v in ns.items() if k.startswith("train."))
    total = sum(root.end - root.start for root in roots.values())
    return {k: v / total for k, v in sorted(ns.items())}


def layer_shares(layers, walls) -> dict:
    """Each module's self time as a share of the run's CLI wall time."""
    total_ms = 1e3 * sum(map(sum, walls.values()))
    return {m: layers[f"{m}.self_ms"] / total_ms for m in MODULES}


def per_layer(spans, counts, grads) -> dict:
    """Per-layer metrics of a fully traced run (see BENCHMARK.json)."""
    own = self_times(spans)
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    adam_ns = defaultdict(int)
    for s, t in zip(spans, own):
        self_ns[s.name] += t
        calls[s.name] += 1
        if s.name == ADAM:
            adam_ns[s.tag] += t
    out = {}
    for group, names in GROUPS.items():
        out[f"{group}.self_ms"] = sum(self_ns[n] for n in names) / 1e6
        out[f"{group}.calls"] = sum(calls[n] for n in names)
    for module in MODULES:
        out[f"{module}.self_ms"] = sum(
            t for n, t in self_ns.items() if n.startswith(module + ".")) / 1e6
    for role in ("generator", "discriminator"):
        out[f"nn.adam_step.{role}.self_ms"] = adam_ns[role] / 1e6
    for kind in ("fwd", "bwd"):
        secs = out[f"nn.linear_{kind}.self_ms"] / 1e3
        out[f"nn.linear_{kind}.gflop_per_s"] = (
            counts[f"nn.linear_{kind}.flop"] / 1e9 / secs if secs else 0.0)
    out["nn.weight_grad.gflop"] = grads.total / 1e9
    out["nn.weight_grad.useful_ratio"] = grads.useful / grads.total if grads.total else 0.0
    out["nn.adam_step.bytes"] = counts["nn.adam_step.bytes"]
    out["nn.save_checkpoint.bytes"] = counts["nn.save_checkpoint.bytes"]
    out["data.cache.bytes"] = counts["data.cache.bytes"]
    parse_s = out["data.parse.self_ms"] / 1e3
    out["data.parse.rows_per_s"] = counts["data.parse.rows"] / parse_s if parse_s else 0.0
    # Validation's own span is thin glue; its cost sits in nn and evaluate.
    out["train.validation.total_ms"] = sum(
        s.end - s.start for s in spans if s.name in GROUPS["train.validation"]) / 1e6
    out["trace.spans"] = len(spans)
    return out
