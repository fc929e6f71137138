"""srlgan benchmark: one workload, one closed-loop process, one client.

    python3 perfbench/run.py --workload ml100k --seed 1 --seconds 36 --trace 0

Run from the repository root.  The run writes seeded synthetic MovieLens
raw files, then drives the user-facing entry point `srlgan.cli.main`
in-process through the whole pipeline: `prepare`, `train` at the paper's
layer widths, `eval --baseline itempop` and `eval --checkpoint`.  It
checks the outputs, prints every metric named in BENCHMARK.json with its
unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics; only step boundaries are
timed (a few spans per training round).  --trace 1 wraps every public
function of every layer and reports the per-layer metrics instead; its
spans go to .perfbench/results/.  README.md in this directory describes
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench")
# main() sets the BLAS thread count before numpy is first imported, so
# the functions below import numpy locally.
BLAS_THREADS = min(2, os.cpu_count() or 1)
COLD_FRACTION = 0.2
BATCH = 64

# Work per run.  A run makes `passes` identical passes through the user
# flow, at least two, so each timing's samples spread over the whole run.
# `pass_s` is one pass on the reference machine (2-core Xeon, OpenBLAS,
# float64); a run makes about --seconds of passes there.  A faster commit
# does the same work in less time.
WORKLOADS = {
    "ml100k": {"pretrain_steps": 10, "rounds": 5, "eval_every": 5, "pass_s": 7.3},
    "ml1m": {"pretrain_steps": 10, "rounds": 6, "eval_every": 3, "pass_s": 26.0},
}


class Run:
    """Counts CLI calls and correctness checks for one workload run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.walls = {}               # command label -> [seconds]
        self.labels = []              # label of each call, in order

    def check(self, name: str, ok: bool, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
            print(f"check failed: {name}: {detail}", file=sys.stderr)

    def cli(self, label: str, argv):
        """One in-process `srlgan` call; its stdout is discarded."""
        from srlgan import cli

        self.labels.append(label)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = cli.main([str(a) for a in argv])
            except SystemExit as exc:          # argparse rejects the argv
                rc = exc.code
        self.walls.setdefault(label, []).append(time.perf_counter() - start)
        self.check(f"srlgan {label} exits 0", rc == 0, f"exit code {rc}")


def array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(str(a.shape).encode())
        h.update(a.astype("<f8", copy=False).tobytes(order="C"))
    return h.hexdigest()[:16]


def dense(x):
    """Dense float64 view of a cache array, whatever its storage."""
    import numpy as np

    return np.asarray(x.toarray() if hasattr(x, "toarray") else x, dtype=np.float64)


def csv_mean(path, column: str) -> float:
    with open(path, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["user"] == "mean"]
    return float(rows[0][column])


def brute_force_p5(scores, truth) -> float:
    """Mean P@5 over users with a held-out purchase; ties rank the lower
    item id first (stable sort of negated scores)."""
    import numpy as np

    keep = np.count_nonzero(truth, axis=1) > 0
    top = np.argsort(-scores[keep], axis=1, kind="stable")[:, :5]
    hits = np.take_along_axis(truth[keep], top, axis=1) != 0
    return float(np.mean(hits.sum(axis=1) / 5.0))


def cold_rows(n_users: int, seed: int):
    """Rows of the seeded cold split: round-half-up of 20% of the sorted
    user ids, taken from a permutation drawn with the split seed."""
    import numpy as np

    n_cold = int(math.floor(COLD_FRACTION * n_users + 0.5))
    return np.sort(np.random.default_rng(seed).permutation(n_users)[:n_cold])


def brute_force_checks(run, seed, cache_path, checkpoint, evals):
    """P@5 recomputed from the cache and checkpoint, and the training steps
    replayed by reference.py, outside every timed call."""
    import numpy as np

    import reference
    from srlgan import data as D
    from srlgan import model as M
    from srlgan import nn as NN

    cache = D.load_cache(cache_path)
    purchase, tfidf = dense(cache.purchase), dense(cache.tfidf)
    distance = reference.check_training_steps(tfidf[:BATCH], purchase[:BATCH], seed)
    run.check("training steps match the float64 reference",
              max(distance.values()) <= reference.TOLERANCE, distance)
    run.check("cache user ids sorted", list(cache.user_ids) == sorted(cache.user_ids))
    cold = cold_rows(len(cache.user_ids), seed)
    warm = np.setdiff1d(np.arange(len(cache.user_ids)), cold)
    popularity = np.count_nonzero(purchase[warm], axis=0).astype(np.float64)
    generator = NN.load_checkpoint(checkpoint)[0]["generator"]
    oracle = {
        "itempop": brute_force_p5(np.broadcast_to(popularity, (len(cold), popularity.size)),
                                  purchase[cold]),
        "model": brute_force_p5(M.generator_forward(generator, tfidf[cold]), purchase[cold]),
    }
    for label, values in evals.items():
        run.check(f"{label} P@5 finite and identical across passes",
                  all(math.isfinite(v) for v in values) and len(set(values)) == 1, values)
        run.check(f"{label} P@5 matches brute-force top-5",
                  abs(values[0] - oracle[label]) <= 1e-9, (values[0], oracle[label]))


def run_workload(name: str, seed: int, seconds: int, tracer, work: Path) -> dict:
    import inputs
    from srlgan import data as D

    spec = WORKLOADS[name]
    shape = inputs.SHAPES[name]
    raw, cache_dir = work / "raw", work / "cache"
    ratings = inputs.write_raw(name, raw, seed, **shape)
    cache_path = cache_dir / f"{name}.npz"
    passes = max(2, round(seconds / spec["pass_s"]))
    train_argv = ["train", "--cache", cache_path, "--seed", seed, "--batch-size", BATCH,
                  "--cold-fraction", COLD_FRACTION,
                  "--n-e", spec["pretrain_steps"], "--max-rounds", spec["rounds"],
                  "--eval-every", spec["eval_every"], "--patience", 10 ** 6]
    run = Run()
    digests, curves, evals = [], [], {"model": [], "itempop": []}
    tracer.install()
    try:
        for k in range(passes):
            run.cli("prepare", ["prepare", "--dataset", name, "--raw-dir", raw,
                                "--out-dir", cache_dir])
            cache = D.load_cache(cache_path)          # outside the CLI: not traced
            digests.append(array_digest(dense(cache.tfidf), dense(cache.purchase)))
            del cache
            train, out = work / f"train{k}", work / f"eval{k}"
            shutil.rmtree(work / f"train{k - 1}", ignore_errors=True)
            run.cli("train", [*train_argv, "--out-dir", train])
            curve = train / "curve.csv"
            curves.append(curve.read_bytes() if curve.exists() else b"")
            run.cli("eval-itempop", ["eval", "--baseline", "itempop", "--cache", cache_path,
                                     "--cold-fraction", COLD_FRACTION, "--split-seed", seed,
                                     "--out-dir", out])
            run.cli("eval", ["eval", "--checkpoint", train / "checkpoint.npz",
                             "--cache", cache_path, "--out-dir", out])
            for label in evals:
                path = out / f"metrics.{label}.csv"
                evals[label].append(csv_mean(path, "P@5") if path.exists() else math.nan)
    finally:
        tracer.uninstall()
    run.check("prepared tfidf/purchase identical across passes",
              len(set(digests)) == 1, digests)
    run.check("training curve identical across passes",
              len(set(curves)) == 1 and curves[0] != b"", "curve.csv differs")
    stats = json.loads((cache_dir / f"{name}.stats.json").read_text())
    run.check("prepare parsed every generated rating", stats["ratings"] == ratings,
              (stats["ratings"], ratings))
    if not run.failures:
        brute_force_checks(run, seed, cache_path, train / "checkpoint.npz", evals)
    shutil.rmtree(work)

    return {"run": run, "digest": digests[0], "stats": stats,
            "p5": {label: values[0] for label, values in evals.items()},
            "train_rows": BATCH * (spec["pretrain_steps"] + 2 * spec["rounds"]) * passes}


def import_seconds(samples: int = 7) -> list:
    """Wall times of fresh interpreters that import numpy and srlgan.cli."""
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy, srlgan.cli"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def end_to_end(result, steps, import_s: float) -> dict:
    """The BENCHMARK.json end-to-end metrics of one run, then the ones
    recorded but not gated (see README.md)."""
    walls, median = result["run"].walls, statistics.median
    # A pass is one call of each command, in this order.
    flows = [sum(p) for p in zip(*(walls[c] for c in ("prepare", "train", "eval-itempop", "eval")))]
    return {
        "setup_s": import_s + median(steps["setup"]),
        "flow_s": median(flows),
        "pretrain_step_ms_p50": 1e3 * median(steps["pretrain_step"]),
        "round_ms_p50": 1e3 * median(steps["round"]),
        "train_rows_per_s": result["train_rows"] / sum(walls["train"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "prepare_s": median(walls["prepare"]),
        "eval_s": median(walls["eval"]),
        "itempop_eval_s": median(walls["eval-itempop"]),
        "cold_p5": result["p5"]["model"],
    }


def git_revision() -> str:
    if not Path(".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def environment(name: str, seed: int, result) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "workload": name, "seed": seed, "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS, "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_revision": git_revision(),
        "shape": {k: result["stats"][k] for k in ("users", "items", "ratings", "d")},
    }
    if name == "ml100k":
        env["note"] = ("synthetic ML100K has d=71, not the paper's 103: it draws 42 "
                       "ages and 8 occupations where the real data has 61 and 21")
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    if not (Path("src/srlgan/cli.py").is_file() and Path("tests/synth.py").is_file()):
        print("error: run from the root of an srlgan checkout (src/srlgan and "
              "tests/synth.py not found)", file=sys.stderr)
        return 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(Path("src").resolve()), str(Path("tests").resolve()), str(BENCH_DIR)]

    # Set-up starts at process start: the import part is the median of a
    # few fresh interpreters, so one slow start does not decide it.
    imports = import_seconds()
    import_s = statistics.median(imports)
    import numpy
    # glibc serves blocks above its mmap threshold with fresh mmaps, and
    # raises the threshold (up to 32 MiB) each time such a block is freed.
    # Freeing one block just under 32 MiB now puts the process where the
    # first few training steps would put it.  Without this, the first pass
    # pays ~5k page faults per step for about 15 steps and later passes
    # pay none, which makes the first pass an outlier.
    numpy.ones((32 << 20) // 8 - 4096)       # allocated, then freed at once

    import metrics
    import spans

    tracer = spans.Tracer(targets=None if args.trace else spans.PROBE)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work, results = OUT_DIR / "work" / label, OUT_DIR / "results"
    shutil.rmtree(work, ignore_errors=True)
    results.mkdir(parents=True, exist_ok=True)
    result = run_workload(args.workload, args.seed, args.seconds, tracer, work)
    run = result["run"]

    steps = metrics.step_timings(tracer.spans)
    e2e = end_to_end(result, steps, import_s)
    env = environment(args.workload, args.seed, result)
    record = {"environment": env,
              "end_to_end": e2e, "failures": run.failures,
              "data_digest": result["digest"], "itempop_p5": result["p5"]["itempop"],
              "samples_ms": {k: [1e3 * t for t in v] for k, v in steps.items()},
              "cli_walls_s": run.walls, "import_s": imports,
              "shares": {"phase": metrics.phase_shares(tracer.spans, run.labels)}}
    for key, values in (("round_ms", steps["round"]), ("pretrain_step_ms", steps["pretrain_step"])):
        found = metrics.tail(values)
        record[f"{key}_tail"] = found and {
            "percentile": found[0], "value": 1e3 * found[1], "beyond": found[2],
            "samples": len(values)}
    if args.trace:
        tracer.grads.close()
        reported = metrics.per_layer(tracer.spans, tracer.counts, tracer.grads)
        reported["trace.overhead_ms"] = len(tracer.spans) * spans.span_cost_ns() / 1e6
        record["per_layer"] = reported
        record["shares"]["layer"] = metrics.layer_shares(reported, run.walls)
        tracer.write(results / f"{label}.spans.json.gz")
        walls = sum(map(sum, run.walls.values()))
        record["trace_accounting"] = {
            "self_times_total_s": sum(reported[f"{m}.self_ms"] for m in metrics.MODULES) / 1e3,
            "traced_cli_wall_s": walls}
        untraced = results / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())
            base_walls = sum(map(sum, base["cli_walls_s"].values()))
            record["trace_accounting"] |= {"untraced_cli_wall_s": base_walls,
                                           "overhead_s": walls - base_walls}
            record["tracing_overhead"] = {k: e2e[k] - base["end_to_end"][k] for k in e2e}
        section = "per_layer"
    else:
        reported = e2e
        section = "end_to_end"
    (results / f"{label}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    out = {}
    for metric in spec[section]:
        out[metric["name"]] = {"value": reported[metric["name"]], "unit": metric["unit"]}
        print(f"{metric['name']:<40} {reported[metric['name']]:>14.6g} {metric['unit']}")
    if not args.trace:
        print("not gated: " + json.dumps({k: v for k, v in e2e.items() if k not in out}))
    for key in ("round_ms_tail", "pretrain_step_ms_tail", "shares", "tracing_overhead",
                "trace_accounting"):
        if record.get(key):
            print(f"{key}: {json.dumps(record[key], sort_keys=True)}")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    failed = len(run.failures)
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
