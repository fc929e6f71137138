"""Command-line pipeline: prepare, train, eval, sweep-beta, ablate, plot.

Exit codes: 0 success, 1 usage, validation or configuration error (a bad
flag or value, an unreadable cache or checkpoint), 2 runtime or numeric
error.  Commands never mutate their inputs; outputs land under the given
--out-dir.  When --cache is omitted, the cache is
$SRLGAN_CACHE_ROOT/<dataset>.npz.  train, eval, sweep-beta and ablate cut
the cache users by one seeded warm/cold split (`_split`), and their
manifests record its cold fraction and seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

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


def _split(args, cache, split_seed: int, cold_fraction: float = 0.2,
           need_cold: bool = False):
    """`split_matrices` of the command's split.  A split flag left unset
    takes the given fallback, written back into args for the manifest.
    With `need_cold`, a split that draws no cold user is refused."""
    if args.cold_fraction is None:
        args.cold_fraction = cold_fraction
    if args.split_seed is None:
        args.split_seed = split_seed
    elif args.split_seed < 0:
        raise ValueError(f"--split-seed must be >= 0, got {args.split_seed}")
    split = P.split_matrices(cache, args.cold_fraction, args.split_seed,
                             getattr(args, "leakage_free_cold", False))
    if need_cold and len(split[0]) == 0:
        raise ValueError(f"--cold-fraction {args.cold_fraction:g} draws no cold users "
                         f"of {len(cache.user_ids)}, so there is nothing to evaluate")
    return split


def _load_config(args) -> T.TrainConfig:
    """Config precedence: dataclass defaults < config file < CLI flags."""
    values = {}
    if getattr(args, "config", None):
        values.update(_parse_config_file(args.config))
    for field in ("seed", "beta", "batch_size", "gan_loss", "learning_rate",
                  "max_rounds", "eval_every", "pretrain_epochs", "n_e", "n_d",
                  "n_g", "patience"):
        val = getattr(args, field, None)
        if val is not None:
            values[field] = val
    if getattr(args, "sparsity", None) is not None:
        values["sparsity"] = args.sparsity == "on"
    for field in ("generator_hidden", "discriminator_hidden"):
        if getattr(args, field, None):
            values[field] = _int_list(getattr(args, field),
                                      "--" + field.replace("_", "-"))
    return T.TrainConfig(**values).validate()


def _int_list(raw: str, name: str) -> list[int]:
    """A comma-separated list of integers; `name` is the flag or config key
    reported when an item is not an integer."""
    try:
        return [int(s) for s in raw.split(",")]
    except ValueError:
        raise ValueError(f"{name}: expected comma-separated integers, "
                         f"got {raw!r}") from None


def _cutoffs(raw: str) -> list[int]:
    """The `--n` cutoffs of eval and ablate, each an integer >= 1."""
    ns = _int_list(raw, "--n")
    if min(ns) < 1:
        raise ValueError(f"--n: each cutoff n must be >= 1, got {ns}")
    return ns


def _beta_grid(raw: str) -> list[float]:
    """The `--grid` of sweep-beta: comma-separated distinct betas, each
    finite and >= 0."""
    try:
        grid = [float(s) for s in raw.split(",")]
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
    fields = {f.name: f for f in dataclasses.fields(T.TrainConfig)}
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in fields:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = _coerce(fields[key], raw)
        except (ValueError, KeyError):
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {raw!r}") from None
    return out


_BOOLEANS = {"on": True, "true": True, "yes": True, "1": True,
             "off": False, "false": False, "no": False, "0": False}


def _coerce(field: dataclasses.Field, raw: str):
    """A config-file value as the type annotated on its TrainConfig field
    (annotation text such as "int", "bool" or "list[int] | None")."""
    kind, _, optional = field.type.partition(" | ")
    if optional == "None" and raw.lower() == "none":
        return None
    if kind == "bool":
        return _BOOLEANS[raw.lower()]
    if kind == "list[int]":
        return _int_list(raw, field.name)
    return {"int": int, "float": float, "str": str}[kind](raw)


def _args_dict(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def _write_manifest(out_dir: Path, command: str, args_dict: dict,
                    inputs: dict, outputs: dict) -> Path:
    manifest = {
        "command": command,
        "args": args_dict,
        "inputs": inputs,
        "outputs": outputs,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    path = out_dir / "manifest.json"
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
              for name, fname in D.LAYOUTS[args.dataset]["files"].items()
              if (raw_dir / fname).exists()}
    _write_manifest(out_dir, "prepare", _args_dict(args) | {"raw_dir": str(raw_dir)},
                    inputs, {"cache_content": D.cache_content_hash(cache)})
    print(f"dataset={stats['dataset']} users={stats['users']} "
          f"items={stats['items']} ratings={stats['ratings']} d={stats['d']} "
          f"sparsity={stats['sparsity_percent']:.2f}%")
    print(f"cache written to {cache_path}")
    return 0


def _save_trainer_checkpoint(path, trainer: T.Trainer, cache, args, rnd):
    """Save G into `path`, making its directory: `train` makes its out-dir
    only here, once the run has passed every refusal."""
    meta = {
        "dataset": cache.dataset,
        "schema_hash": cache.schema_hash(),
        "cold_fraction": args.cold_fraction,
        "split_seed": args.split_seed,
        "leakage_free_cold": args.leakage_free_cold,
        "config": dataclasses.asdict(trainer.config),
        "round": rnd,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    NN.save_checkpoint(path, {"generator": trainer.generator}, meta,
                       extra_arrays={"rho": trainer.rho})


def cmd_train(args) -> int:
    config = _load_config(args)
    cache = D.load_cache(_cache_path(args))
    _, x_warm, y_warm, _, _ = _split(args, cache, config.seed)
    out_dir = Path(args.out_dir)
    best_path = out_dir / "checkpoint.best.npz"
    best_rounds = []

    def on_best(tr, point):
        best_rounds.append(point.round)
        _save_trainer_checkpoint(best_path, tr, cache, args, point.round)

    trainer = T.fit(x_warm, y_warm, config, on_best=on_best)

    final_path = out_dir / "checkpoint.npz"
    _save_trainer_checkpoint(final_path, trainer, cache, args,
                             trainer.rounds_done)
    if not best_rounds:     # no improvement this run: the final model is the best
        _save_trainer_checkpoint(best_path, trainer, cache, args,
                                 trainer.rounds_done)
    curve_path = out_dir / "curve.csv"
    trainer.curve.write_csv(curve_path)
    _write_manifest(
        out_dir, "train",
        _args_dict(args),
        {"cache_content": D.cache_content_hash(cache)},
        {"checkpoint": str(final_path), "checkpoint_best": str(best_path),
         "curve": str(curve_path)},
    )
    flagged = sum(p.collapse_flag for p in trainer.curve.points)
    print(f"trained {trainer.rounds_done} rounds "
          f"({len(trainer.curve.points)} checkpoints, "
          f"{flagged} collapse flags); outputs in {out_dir}")
    return 0


def cmd_eval(args) -> int:
    ns = _cutoffs(args.n)
    if (args.checkpoint is None) == (args.baseline is None):
        raise ValueError("eval needs exactly one of --checkpoint and --baseline")
    cache = D.load_cache(_cache_path(args))
    if args.baseline == "itempop":
        # `srlgan train`'s default split, so a rerun draws the same cold users.
        cold_ids, _, y_warm, _, y_cold = _split(args, cache, 0, need_cold=True)
        report = E.evaluate_report(E.item_popularity(y_warm), y_cold, ns=ns,
                                   user_keys=cold_ids, graded=args.graded)
        label = "itempop"
    else:
        nets, meta, _ = NN.load_checkpoint(args.checkpoint)
        if meta["schema_hash"] != cache.schema_hash():
            raise ValueError(
                "checkpoint/cache schema mismatch: "
                f"{meta['schema_hash']} vs {cache.schema_hash()}")
        # Another split would put users the model trained on among the cold.
        for flag, key in (("--split-seed", "split_seed"), ("--cold-fraction", "cold_fraction")):
            if getattr(args, key) not in (None, meta[key]):
                raise ValueError(f"{flag} {getattr(args, key)} differs from the checkpoint's "
                                 f"{meta[key]}: the cold set would hold training users")
        args.leakage_free_cold = args.leakage_free_cold or meta["leakage_free_cold"]
        cold_ids, _, _, x_cold, y_cold = _split(args, cache, meta["split_seed"],
                                                meta["cold_fraction"], need_cold=True)
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
    _write_manifest(out_dir, "eval",
                    _args_dict(args),
                    {"cache_content": D.cache_content_hash(cache)},
                    {"metrics_csv": str(csv_path)})
    return 0


def cmd_sweep_beta(args) -> int:
    config = _load_config(args)
    grid = _beta_grid(args.grid)
    cache = D.load_cache(_cache_path(args))
    _, x_warm, y_warm, _, _ = _split(args, cache, config.seed)
    curves = {}
    best, scores = T.cross_validate_beta(x_warm, y_warm, grid, config, curves=curves)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.glob("curve.beta*.csv"):      # an earlier grid's curves
        stale.unlink()
    for beta, curve in curves.items():
        curve.write_csv(out_dir / f"curve.beta{beta:g}.csv")

    sweep_path = out_dir / "sweep.csv"
    with open(sweep_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["beta", "held_out_p5", "recommended"])
        for beta in sorted(scores):
            w.writerow([f"{beta:g}", f"{scores[beta]:.10g}", int(beta == best)])

    for metric, attr in (("P@5", "p5"), ("N@5", "n5")):
        series = {
            f"beta={beta:g}": ([p.round for p in c.points],
                               [getattr(p, attr) for p in c.points])
            for beta, c in curves.items()
        }
        svg = svgplot.line_chart(series, f"validation {metric} vs round",
                                 "round", metric)
        (out_dir / f"sweep.{attr}.svg").write_text(svg)

    _write_manifest(out_dir, "sweep-beta",
                    _args_dict(args),
                    {"cache_content": D.cache_content_hash(cache)},
                    {"sweep": str(sweep_path)})
    print(f"recommended beta: {best:g} "
          f"(held-out P@5 {scores[best]:.4f}); outputs in {out_dir}")
    return 0


def cmd_ablate(args) -> int:
    config = _load_config(args)
    ns = _cutoffs(args.n)
    cache = D.load_cache(_cache_path(args))
    _, x_warm, y_warm, x_cold, y_cold = _split(args, cache, config.seed, need_cold=True)
    reports = T.run_ablation(x_warm, y_warm, x_cold, y_cold, config, ns=ns)
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
    _write_manifest(out_dir, "ablate",
                    _args_dict(args),
                    {"cache_content": D.cache_content_hash(cache)},
                    {"summary": str(out_dir / "ablation.summary.json")})
    return 0


def cmd_plot(args) -> int:
    plots = (("P@5", "p5"), ("N@5", "n5"), ("loss_sr", "loss_sr"))
    columns = ("round", *(column for _, column in plots))
    curves = {}     # keyed and labelled by the path as given
    for path in args.curves:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
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
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--gan-loss", dest="gan_loss", choices=["bce", "lsq"])
    p.add_argument("--sparsity", choices=["on", "off"])
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--max-rounds", dest="max_rounds", type=int)
    p.add_argument("--eval-every", dest="eval_every", type=int)
    p.add_argument("--pretrain-epochs", dest="pretrain_epochs", type=int)
    p.add_argument("--n-e", dest="n_e", type=int)
    p.add_argument("--n-d", dest="n_d", type=int)
    p.add_argument("--n-g", dest="n_g", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--generator-hidden", dest="generator_hidden",
                   help="comma-separated hidden sizes (default 512,1024,1024)")
    p.add_argument("--discriminator-hidden", dest="discriminator_hidden",
                   help="comma-separated hidden sizes (default 2048,512,128)")


def _add_cache_flags(p: argparse.ArgumentParser):
    """The cache flags (see `_cache_path`) and the out-dir of train, eval,
    sweep-beta and ablate."""
    p.add_argument("--cache", help="cache .npz (default $SRLGAN_CACHE_ROOT/<dataset>.npz)")
    p.add_argument("--dataset", choices=sorted(D.LAYOUTS))
    p.add_argument("--out-dir", dest="out_dir", required=True)


def _add_split_flags(p: argparse.ArgumentParser, leakage_free_cold: bool = True):
    """The warm/cold split flags, filled by `_split` when unset (sweep-beta
    scores only warm users, so it goes without --leakage-free-cold)."""
    p.add_argument("--cold-fraction", dest="cold_fraction", type=float)
    p.add_argument("--split-seed", dest="split_seed", type=int)
    if leakage_free_cold:
        p.add_argument("--leakage-free-cold", dest="leakage_free_cold",
                       action="store_true",
                       help="zero the genre slots of cold users' TF-IDF vectors")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as validation errors do (argparse uses 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="srlgan",
        description="Sparse-regularized GAN cold-start recommender pipeline")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("prepare", help="parse raw MovieLens files into a cache")
    p.add_argument("--dataset", choices=sorted(D.LAYOUTS), required=True)
    p.add_argument("--raw-dir", dest="raw_dir", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train on a prepared cache")
    _add_cache_flags(p)
    _add_split_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint (or ItemPop) on cold users")
    p.add_argument("--checkpoint")
    _add_cache_flags(p)
    p.add_argument("--n", default="5,20", help="comma-separated cutoffs")
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
    p.add_argument("--n", default="5,20")
    _add_split_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("plot", help="render curve CSVs as SVG charts")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("curves", nargs="+", help="curve CSV files")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
