"""Command-line pipeline: prepare, train, eval, sweep-beta, ablate, plot.

Exit codes: 0 success, 1 usage, validation or configuration error (a bad
flag or value, an unreadable cache or checkpoint: a ValueError or a
FileNotFoundError), 2 runtime or numeric error, or a bug such as a
KeyError.  Commands never mutate their inputs; outputs land under the given
--out-dir.  When --cache is omitted, the cache is
$SRLGAN_CACHE_ROOT/<dataset>.npz.  train, eval, sweep-beta and ablate read
the cache only in `_load_split`, which cuts its users by one seeded
warm/cold split and lets the cache go before any training or scoring;
their manifests record the split's cold fraction and seed.  train,
sweep-beta and ablate read their training settings one way: argparse
keeps each TRAIN_FLAGS flag as the string given, and `_load_config`
reads it with the same `_coerce` as the `--config` key of that name,
which types it by its TrainConfig field: an int, float, str, optional
int or int list.  No setting is a switch; `gan_loss` and `beta` alone set
the adversarial game.  A flag value may start with `-` (`--beta -1e-3`),
and is then refused by the check that names the setting.  Their
manifests record the resolved settings under `train_config`.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import re
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import data as D
from . import evaluate as E
from . import model as M
from . import nn as NN
from . import pipeline as P
from . import svgplot
from . import train as T


def _cache_path(args) -> Path:
    if args.cache:
        return Path(args.cache)
    root = os.environ.get("SRLGAN_CACHE_ROOT")
    if not root:
        raise ValueError("no --cache given and SRLGAN_CACHE_ROOT is unset")
    if not args.dataset:
        raise ValueError("no --cache given: --dataset names the cache under "
                         "SRLGAN_CACHE_ROOT")
    return Path(root) / f"{args.dataset}.npz"


def _load_split(args, reads: set[str], split_seed: int, cold_fraction: float = 0.2,
                schema_hash: str | None = None):
    """`split_matrices` of the command's split of its cache, and what the
    outputs record of the cache (`dataset`, `schema_hash`, `cache_content`);
    the cache itself is let go.  A cache of another schema than a given
    `schema_hash` is refused.  A split flag left unset takes the given
    fallback, written back into args for the manifest.  The split flags
    enter here, and are checked here only: --split-seed must be >= 0 and
    --cold-fraction in [0, 1) (a checkpoint's fallback is checked by
    RUN_METADATA).  `reads` names the sides of the split that the command
    reads, of "warm" and "cold"; a split that leaves one of them empty is
    refused."""
    if args.cold_fraction is None:
        args.cold_fraction = cold_fraction
    elif not 0 <= args.cold_fraction < 1:
        raise ValueError(f"--cold-fraction must be in [0, 1), got {args.cold_fraction}")
    if args.split_seed is None:
        args.split_seed = split_seed
    elif args.split_seed < 0:
        raise ValueError(f"--split-seed must be >= 0, got {args.split_seed}")
    cache = D.load_cache(_cache_path(args))
    if schema_hash not in (None, cache.schema_hash()):
        raise ValueError("checkpoint/cache schema mismatch: "
                         f"{schema_hash} vs {cache.schema_hash()}")
    split = P.split_matrices(cache, args.cold_fraction, args.split_seed,
                             getattr(args, "leakage_free_cold", False))
    n_users = len(cache.user_ids)
    if "cold" in reads and len(split[0]) == 0:
        raise ValueError(f"--cold-fraction {args.cold_fraction:g} draws no cold users "
                         f"of {n_users}, so there is nothing to evaluate")
    if "warm" in reads and len(split[1]) == 0:
        raise ValueError(f"--cold-fraction {args.cold_fraction:g} draws all {n_users} "
                         f"users cold, so no warm user is left to learn from")
    return split, {"dataset": cache.dataset, "schema_hash": cache.schema_hash(),
                   "cache_content": D.cache_content_hash(cache)}


# The TrainConfig fields that train, sweep-beta and ablate also take as
# --<name with dashes> flags; every other field is a config-file key only.
TRAIN_FLAGS = ("seed", "beta", "batch_size", "gan_loss", "learning_rate",
               "max_rounds", "eval_every", "pretrain_epochs", "n_e", "patience",
               "generator_hidden", "discriminator_hidden")
_FIELDS = {f.name: f for f in dataclasses.fields(T.TrainConfig)}


def _load_config(args) -> T.TrainConfig:
    """Config precedence: dataclass defaults < config file < CLI flags.  A
    flag's string is read by the same `_coerce` as a file value."""
    values = _parse_config_file(args.config) if args.config else {}
    for name in TRAIN_FLAGS:
        raw = getattr(args, name)
        if raw is not None:
            values[name] = _coerce(_FIELDS[name], raw, "--" + name.replace("_", "-"))
    return T.TrainConfig(**values)


def _float(raw: str) -> float:
    """`float(raw)` with -0 read as 0, so that no output name, message or
    checkpoint setting says -0.  Every float flag, config value and --grid
    beta is read by this."""
    return float(raw) + 0.0


_float.__name__ = "float"      # as argparse names the type: "invalid float value"


def _int_list(raw: str, name: str) -> list[int]:
    """A comma-separated list of integers; `name` is the flag or config key
    reported when an item is not an integer."""
    try:
        return [int(s) for s in raw.split(",")]
    except ValueError:
        raise ValueError(f"{name}: expected comma-separated integers, "
                         f"got {raw!r}") from None


def _cutoffs(raw: str) -> list[int]:
    """The `--n` cutoffs of eval and ablate, distinct integers >= 1."""
    ns = _int_list(raw, "--n")
    if min(ns) < 1:
        raise ValueError(f"--n: each cutoff n must be >= 1, got {ns}")
    repeated = [n for k, n in enumerate(ns) if n in ns[:k]]
    if repeated:
        raise ValueError(f"--n: cutoff {repeated[0]} is given more than once in {raw!r}")
    return ns


def _beta_grid(raw: str) -> list[float]:
    """The `--grid` of sweep-beta: comma-separated distinct betas, each
    finite and >= 0."""
    try:
        grid = [_float(s) for s in raw.split(",")]
    except ValueError:
        raise ValueError(f"--grid: expected comma-separated numbers, got {raw!r}") from None
    if not all(math.isfinite(beta) and beta >= 0 for beta in grid):
        raise ValueError(f"--grid: each beta must be finite and >= 0, got {raw!r}")
    repeated = [beta for k, beta in enumerate(grid) if beta in grid[:k]]
    if repeated:
        raise ValueError(f"--grid: beta {repeated[0]:g} is given more than once in {raw!r}")
    return grid


def _parse_config_file(path) -> dict:
    """Parse a `key = value` config document into TrainConfig field values."""
    out = {}
    for lineno, line in enumerate(D.read_text(path).splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _FIELDS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = _coerce(_FIELDS[key], raw, key)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {raw!r}") from None
    return out


def _coerce(field: dataclasses.Field, raw: str, name: str):
    """A flag or config-file value as the type annotated on its TrainConfig
    field (annotation text such as "int", "str" or "list[int] | None");
    `name` is the flag or key a bad value is reported under."""
    kind, _, optional = field.type.partition(" | ")
    if optional == "None" and raw.lower() == "none":
        return None
    if kind == "list[int]":
        return _int_list(raw, name)
    try:
        return {"int": int, "float": _float, "str": str}[kind](raw)
    except ValueError:
        raise ValueError(f"{name}: expected {kind}, got {raw!r}") from None


def _write_manifest(args, inputs: dict, outputs: dict,
                    config: T.TrainConfig | None = None) -> Path:
    """manifest.json in the command's out-dir; `args` holds the flags as
    given, `environment` the variables that set the BLAS threads and
    kernels (null when unset) and the numpy version, on which the last bits
    of the outputs depend, and the thread count `Adam.step` uses, on which
    they do not; a training command's resolved settings go under
    `train_config`.  `peak_rss_mb` is the process's RSS high-water mark
    (`ru_maxrss`, in MiB as perfbench counts it), so a caller that runs
    commands in one process, as perfbench's run.py does, sees the peak of
    every earlier command too."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss   # bytes on macOS, else KiB
    manifest = {
        "command": args.subcommand,
        "args": {k: v for k, v in vars(args).items() if k != "func"},
        "inputs": inputs,
        "outputs": outputs,
        "environment": {**{name: os.environ.get(name) for name in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_CORETYPE")},
            "numpy": np.__version__, "adam_threads": NN.adam_threads()},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "peak_rss_mb": peak / 2 ** (20 if sys.platform == "darwin" else 10),
    }
    if config is not None:
        manifest["train_config"] = dataclasses.asdict(config)
    path = Path(args.out_dir) / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


# -- subcommands -------------------------------------------------------------


def cmd_prepare(args) -> int:
    raw_dir = Path(args.raw_dir)
    out_dir = Path(args.out_dir)
    cache, stats = P.prepare_dataset(raw_dir, args.dataset)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache_path = out_dir / f"{args.dataset}.npz"
    D.save_cache(cache, cache_path)
    (out_dir / f"{args.dataset}.schema.json").write_text(cache.schema_json + "\n")
    stats_path = out_dir / f"{args.dataset}.stats.json"
    stats_path.write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    inputs = {name: D.file_sha256(raw_dir / fname)
              for name, fname in D.LAYOUTS[args.dataset]["files"].items()}
    _write_manifest(args, inputs, {"cache_content": D.cache_content_hash(cache)})
    print(f"dataset={stats['dataset']} users={stats['users']} "
          f"items={stats['items']} ratings={stats['ratings']} d={stats['d']} "
          f"sparsity={stats['sparsity_percent']:.2f}%")
    print(f"cache written to {cache_path}")
    return 0


def _save_trainer_checkpoint(path, trainer: T.Trainer, meta: dict, rnd):
    """Save G into `path`, making its directory: `train` makes its out-dir
    only here, once the run has passed every refusal."""
    path.parent.mkdir(parents=True, exist_ok=True)
    NN.save_checkpoint(path, {"generator": trainer.generator}, {**meta, "round": rnd})


# The spec (`data.check_document`) of the checkpoint metadata that eval reads.
RUN_METADATA = {
    "schema_hash": (str, "16 hex digits", lambda v: re.fullmatch("[0-9a-f]{16}", v)),
    "split_seed": (int, "an integer >= 0", lambda v: v >= 0),
    "cold_fraction": (float, "a float in [0, 1)", lambda v: 0 <= v < 1),
    "leakage_free_cold": (bool, "true or false", None)}


def cmd_train(args) -> int:
    config = _load_config(args)
    (cold_ids, x_warm, y_warm, x_cold, y_cold), facts = _load_split(args, {"warm"}, config.seed)
    del cold_ids, x_cold, y_cold        # train scores no cold user
    # The run metadata each checkpoint records, beside the round it was saved at.
    meta = {"dataset": facts["dataset"], "schema_hash": facts["schema_hash"],
            "cold_fraction": args.cold_fraction, "split_seed": args.split_seed,
            "leakage_free_cold": args.leakage_free_cold, "config": dataclasses.asdict(config)}
    out_dir = Path(args.out_dir)
    best_path = out_dir / "checkpoint.best.npz"
    best_rounds = []

    def on_best(tr, point):
        best_rounds.append(point.round)
        _save_trainer_checkpoint(best_path, tr, meta, point.round)

    cut = T.validation_cut(x_warm, y_warm, config)
    del x_warm, y_warm                  # the cut's rows are the only copy
    trainer = T.fit(cut, config, on_best=on_best)

    final_path = out_dir / "checkpoint.npz"
    _save_trainer_checkpoint(final_path, trainer, meta, trainer.rounds_done)
    if not best_rounds:     # no improvement this run: the final model is the best
        _save_trainer_checkpoint(best_path, trainer, meta, trainer.rounds_done)
    curve_path = out_dir / "curve.csv"
    T.write_curve(curve_path, trainer.curve)
    _write_manifest(args, {"cache_content": facts["cache_content"]},
                    {"checkpoint": str(final_path), "checkpoint_best": str(best_path),
                     "curve": str(curve_path)}, config)
    flagged = sum(p.collapse_flag for p in trainer.curve)
    print(f"trained {trainer.rounds_done} rounds "
          f"({len(trainer.curve)} checkpoints, "
          f"{flagged} collapse flags); outputs in {out_dir}")
    return 0


def cmd_eval(args) -> int:
    ns = _cutoffs(args.n)
    if (args.checkpoint is None) == (args.baseline is None):
        raise ValueError("eval needs exactly one of --checkpoint and --baseline")
    if args.baseline == "itempop":
        # `srlgan train`'s default split, so a rerun draws the same cold users.
        (cold_ids, x_warm, y_warm, x_cold, y_cold), facts = _load_split(
            args, {"warm", "cold"}, T.TrainConfig.seed)
        popularity = E.item_popularity(y_warm)
        del x_warm, y_warm, x_cold          # ItemPop scores by the warm counts only
        report = E.evaluate_report(popularity, y_cold, ns=ns, user_keys=cold_ids,
                                   graded=args.graded)
        label = "itempop"
    else:
        nets, meta = NN.load_checkpoint(args.checkpoint)
        D.check_document(meta, RUN_METADATA, f"checkpoint {args.checkpoint}: header meta")
        if "generator" not in nets:
            raise ValueError(f"checkpoint {args.checkpoint}: header nets has no 'generator'")
        # Another split would put users the model trained on among the cold.
        for flag, key in (("--split-seed", "split_seed"), ("--cold-fraction", "cold_fraction")):
            if getattr(args, key) not in (None, meta[key]):
                raise ValueError(f"{flag} {getattr(args, key)} differs from the checkpoint's "
                                 f"{meta[key]}: the cold set would hold training users")
        args.leakage_free_cold = args.leakage_free_cold or meta["leakage_free_cold"]
        (cold_ids, x_warm, y_warm, x_cold, y_cold), facts = _load_split(
            args, {"cold"}, meta["split_seed"], meta["cold_fraction"],
            schema_hash=meta["schema_hash"])
        del x_warm, y_warm                  # the model scores cold users only
        sizes = nets["generator"].sizes
        if (sizes[0], sizes[-1]) != (x_cold.shape[1], y_cold.m):
            raise ValueError(f"checkpoint {args.checkpoint}: generator widths {sizes} do not "
                             f"map the d {x_cold.shape[1]} attributes of cache "
                             f"{_cache_path(args)} to its m {y_cold.m} items")
        preds = M.generator_forward(nets["generator"], x_cold)
        report = E.evaluate_report(preds, y_cold, ns=ns, user_keys=cold_ids, graded=args.graded)
        label = "model"

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"metrics.{label}.csv"
    report.write_csv(csv_path)
    table = report.format_table()
    (out_dir / f"metrics.{label}.txt").write_text(table + "\n")
    print(table)
    _write_manifest(args, {"cache_content": facts["cache_content"]},
                    {"metrics_csv": str(csv_path)})
    return 0


def cmd_sweep_beta(args) -> int:
    config = _load_config(args)
    grid = _beta_grid(args.grid)
    (cold_ids, x_warm, y_warm, x_cold, y_cold), facts = _load_split(args, {"warm"}, config.seed)
    del cold_ids, x_cold, y_cold        # sweep-beta scores warm users only
    cut = T.validation_cut(x_warm, y_warm, config)
    del x_warm, y_warm                  # the cut's rows are the only copy
    best, scores, curves = T.cross_validate_beta(cut, grid, config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.glob("curve.beta*.csv"):      # an earlier grid's curves
        stale.unlink()
    for beta, curve in curves.items():
        T.write_curve(out_dir / f"curve.beta{beta:g}.csv", curve)

    sweep_path = out_dir / "sweep.csv"
    with open(sweep_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["beta", "held_out_p5", "recommended"])
        for beta, p5 in scores.items():      # ascending beta
            w.writerow([f"{beta:g}", f"{p5:.10g}", int(beta == best)])

    for metric, attr in (("P@5", "p5"), ("N@5", "n5")):
        series = {
            f"beta={beta:g}": ([p.round for p in c], [getattr(p, attr) for p in c])
            for beta, c in curves.items()
        }
        svg = svgplot.line_chart(series, f"validation {metric} vs round",
                                 "round", metric)
        (out_dir / f"sweep.{attr}.svg").write_text(svg)

    _write_manifest(args, {"cache_content": facts["cache_content"]},
                    {"sweep": str(sweep_path)}, config)
    print(f"recommended beta: {best:g} "
          f"(held-out P@5 {scores[best]:.4f}); outputs in {out_dir}")
    return 0


def cmd_ablate(args) -> int:
    config = _load_config(args)
    ns = _cutoffs(args.n)
    (cold_ids, x_warm, y_warm, x_cold, y_cold), facts = _load_split(
        args, {"warm", "cold"}, config.seed)
    reports = T.run_ablation(x_warm, y_warm, x_cold, y_cold, config, ns=ns,
                             user_keys=cold_ids)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {}
    for mode, report in reports.items():
        report.write_csv(out_dir / f"ablation.{mode}.csv")
        summary[mode] = report.aggregate()
        print(f"--- {mode} ---")
        print(report.format_table())
    (out_dir / "ablation.summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_manifest(args, {"cache_content": facts["cache_content"]},
                    {"summary": str(out_dir / "ablation.summary.json")}, config)
    return 0


def cmd_plot(args) -> int:
    plots = (("P@5", "p5"), ("N@5", "n5"), ("loss_sr", "loss_sr"))
    columns = ("round", *(column for _, column in plots))
    curves = {}     # keyed and labelled by the path as given
    for path in args.curves:
        reader = csv.DictReader(D.read_text(path).splitlines())
        rows = list(reader)
        missing = [c for c in columns if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"curve {path}: no {', '.join(missing)} column")
        try:
            curves[path] = {c: [float(r[c]) for r in rows] for c in columns}
        except (TypeError, ValueError):
            raise ValueError(f"curve {path}: a row is short or not numeric") from None
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for metric, column in plots:
        series = {name: (curve["round"], curve[column]) for name, curve in curves.items()}
        svg = svgplot.line_chart(series, f"{metric} vs round", "round", metric)
        (out_dir / f"plot.{column}.svg").write_text(svg)
    print(f"plots written to {out_dir}")
    return 0


# -- argument parsing --------------------------------------------------------


def _add_train_flags(p: argparse.ArgumentParser):
    """--config and the TRAIN_FLAGS, each kept as the string given for
    `_load_config` to read."""
    p.add_argument("--config", help="key = value config file")
    for name in TRAIN_FLAGS:
        p.add_argument("--" + name.replace("_", "-"),
                       help=f"config key {name} ({_FIELDS[name].type})")


def _add_cache_flags(p: argparse.ArgumentParser):
    """The cache flags (see `_cache_path`) and the out-dir of train, eval,
    sweep-beta and ablate."""
    p.add_argument("--cache", help="cache .npz (default $SRLGAN_CACHE_ROOT/<dataset>.npz)")
    p.add_argument("--dataset", choices=sorted(D.LAYOUTS))
    p.add_argument("--out-dir", required=True)


def _add_split_flags(p: argparse.ArgumentParser, leakage_free_cold: bool = True):
    """The warm/cold split flags, filled by `_load_split` when unset (sweep-beta
    scores only warm users, so it goes without --leakage-free-cold)."""
    p.add_argument("--cold-fraction", type=_float)
    p.add_argument("--split-seed", type=int)
    if leakage_free_cold:
        p.add_argument("--leakage-free-cold", action="store_true",
                       help="zero the genre slots of cold users' TF-IDF vectors")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as validation errors do (argparse uses 2), and a
    flag value may start with `-` (`--beta -1e-3`, `--beta -x`)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes a `-` token that names no option as a value only
        # when this matches it (by default, only `-1` and `-0.5` forms).  Set
        # after `-h` is added: a short option added later would turn it off.
        self._negative_number_matcher = re.compile(r"-[^-]")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="srlgan",
        description="Sparse-regularized GAN cold-start recommender pipeline")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    default_ns = ",".join(map(str, E.DEFAULT_NS))

    p = sub.add_parser("prepare", help="parse raw MovieLens files into a cache")
    p.add_argument("--dataset", choices=sorted(D.LAYOUTS), required=True)
    p.add_argument("--raw-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train on a prepared cache")
    _add_cache_flags(p)
    _add_split_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint (or ItemPop) on cold users")
    p.add_argument("--checkpoint")
    _add_cache_flags(p)
    p.add_argument("--n", default=default_ns, help="comma-separated cutoffs")
    p.add_argument("--baseline", choices=["itempop"])
    p.add_argument("--graded", action="store_true",
                   help="graded NDCG gains (2^rating - 1)")
    _add_split_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-beta",
                       help="beta grid sweep on the validation slice of warm users")
    _add_cache_flags(p)
    p.add_argument("--grid", default="0.01,0.1,1")
    _add_split_flags(p, leakage_free_cold=False)
    _add_train_flags(p)
    p.set_defaults(func=cmd_sweep_beta)

    p = sub.add_parser("ablate", help="run the S1/S2/S3 ablation")
    _add_cache_flags(p)
    p.add_argument("--n", default=default_ns)
    _add_split_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("plot", help="render curve CSVs as SVG charts")
    p.add_argument("--out-dir", required=True)
    p.add_argument("curves", nargs="+", help="curve CSV files")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
