import csv
import json
import os
import shutil
import stat

import numpy as np
import pytest

from srlgan import data as D
from srlgan import nn as NN
from srlgan import pipeline as P
from srlgan import train as T
from srlgan.cli import _parse_config_file, main

FAST = [
    "--max-rounds", "2", "--eval-every", "1", "--pretrain-epochs", "1",
    "--batch-size", "16", "--learning-rate", "1e-3", "--seed", "3",
    "--generator-hidden", "8", "--discriminator-hidden", "8",
]


@pytest.fixture(scope="module")
def prepared(tmp_path_factory, synth100k_dir):
    out = tmp_path_factory.mktemp("prepared")
    rc = main(["prepare", "--dataset", "ml100k",
               "--raw-dir", str(synth100k_dir), "--out-dir", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, prepared):
    out = tmp_path_factory.mktemp("trained")
    rc = main(["train", "--cache", str(prepared / "ml100k.npz"),
               "--out-dir", str(out), *FAST])
    assert rc == 0
    return out


def test_prepare_outputs(prepared):
    for name in ("ml100k.npz", "ml100k.schema.json", "ml100k.stats.json",
                 "manifest.json"):
        assert (prepared / name).exists()
    stats = json.loads((prepared / "ml100k.stats.json").read_text())
    assert stats["users"] == 60
    assert stats["items"] == 1682
    assert 0 <= stats["sparsity_percent"] <= 100
    inputs = json.loads((prepared / "manifest.json").read_text())["inputs"]
    assert sorted(inputs) == ["items", "occupations", "ratings", "users"]


def test_prepare_rerun_identical_cache_hash(tmp_path, synth100k_dir, prepared):
    out2 = tmp_path / "again"
    rc = main(["prepare", "--dataset", "ml100k",
               "--raw-dir", str(synth100k_dir), "--out-dir", str(out2)])
    assert rc == 0
    h1 = json.loads((prepared / "manifest.json").read_text())["outputs"]["cache_content"]
    h2 = json.loads((out2 / "manifest.json").read_text())["outputs"]["cache_content"]
    assert h1 == h2
    assert h1 == D.cache_content_hash(D.load_cache(out2 / "ml100k.npz"))


def test_prepare_ml1m_format(tmp_path, synth1m_dir):
    out = tmp_path / "ml1m"
    rc = main(["prepare", "--dataset", "ml1m",
               "--raw-dir", str(synth1m_dir), "--out-dir", str(out)])
    assert rc == 0
    stats = json.loads((out / "ml1m.stats.json").read_text())
    assert stats["d"] == 48
    assert stats["items"] == 3952
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    assert inputs["users"] == D.file_sha256(synth1m_dir / "users.dat")
    assert sorted(inputs) == ["items", "ratings", "users"]


def test_prepare_missing_raw_dir_exit_1(tmp_path):
    rc = main(["prepare", "--dataset", "ml100k",
               "--raw-dir", str(tmp_path / "nope"), "--out-dir",
               str(tmp_path / "out")])
    assert rc == 1


@pytest.mark.parametrize("damage, message", [
    ("missing", "raw file not found: "),
    ("malformed", ":61: non-integer field"),
], ids=["missing-raw-file", "malformed-rating-line"])
def test_prepare_refusal_leaves_no_out_dir(tmp_path, synth100k_dir, capsys, damage, message):
    raw = tmp_path / "raw"
    shutil.copytree(synth100k_dir, raw)
    if damage == "missing":
        (raw / "u.data").unlink()
    else:
        lines = (raw / "u.data").read_text().splitlines()
        lines[60] = lines[60].replace("\t", "\tx", 1)
        (raw / "u.data").write_text("\n".join(lines) + "\n")
    rc = main(["prepare", "--dataset", "ml100k", "--raw-dir", str(raw),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(raw / "u.data") in err and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, names", [
    ("999\t1\t3\t5\n", ["user id 999", "u.user", "u.data"]),
    ("1\t99999\t3\t5\n", ["item id 99999 outside 1..1682", "u.data"]),
], ids=["unknown-user", "item-out-of-range"])
def test_prepare_bad_rating_ids_exit_1(tmp_path, synth100k_dir, capsys, line, names):
    raw = tmp_path / "raw"
    shutil.copytree(synth100k_dir, raw)
    with open(raw / "u.data", "a") as fh:
        fh.write(line)
    rc = main(["prepare", "--dataset", "ml100k", "--raw-dir", str(raw),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for name in names:
        assert name in err
    assert not (tmp_path / "out" / "ml100k.npz").exists()


@pytest.mark.parametrize("case", ["non-integer-id", "repeated-id"])
def test_prepare_bad_user_metadata_exit_1(tmp_path, synth100k_dir, capsys, case):
    raw = tmp_path / "raw"
    shutil.copytree(synth100k_dir, raw)
    lines = (raw / "u.user").read_text().splitlines()
    if case == "non-integer-id":
        lines[0] = "x" + lines[0][lines[0].index("|"):]
        message = ":1: non-integer user id 'x'"
    else:       # user 1 again, as a 77-year-old doctor
        lines.append("1|77|F|doctor|00000")
        message = f":{len(lines)}: user id 1 repeats line 1"
    (raw / "u.user").write_text("\n".join(lines) + "\n")
    rc = main(["prepare", "--dataset", "ml100k", "--raw-dir", str(raw),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert f"{raw / 'u.user'}{message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_file_values_typed_by_train_config(tmp_path):
    cfg = tmp_path / "train.conf"
    cfg.write_text("sparsity = off\nnonsaturating = YES\nn_e = none\n"
                   "generator_hidden = 8,16\nlearning_rate = 1e-3\n"
                   "batch_size = 32\ngan_loss = bce  # S1\n")
    assert _parse_config_file(cfg) == {
        "sparsity": False, "nonsaturating": True, "n_e": None,
        "generator_hidden": [8, 16], "learning_rate": 1e-3,
        "batch_size": 32, "gan_loss": "bce"}


@pytest.mark.parametrize("line, key", [
    ("sparsity = flase", "sparsity"),
    ("batch_size = 1.5", "batch_size"),
    ("generator_hidden = 8,x", "generator_hidden"),
], ids=["misspelt-bool", "float-for-int", "bad-list-item"])
def test_train_rejects_bad_config_value(tmp_path, prepared, capsys, line, key):
    cfg = tmp_path / "train.conf"
    cfg.write_text(f"beta = 0.1\n{line}\n")
    rc = main(["train", "--cache", str(prepared / "ml100k.npz"),
               "--out-dir", str(tmp_path / "run"), "--config", str(cfg)])
    assert rc == 1
    assert f"{cfg}:2: bad value for {key}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_outputs(trained):
    for name in ("checkpoint.npz", "checkpoint.best.npz", "curve.csv",
                 "manifest.json"):
        assert (trained / name).exists()


def test_train_checkpoints_hold_only_the_generator(trained):
    for name in ("checkpoint.npz", "checkpoint.best.npz"):
        with np.load(trained / name) as z:
            assert sorted(z.files) == ["extra/rho", "generator/params", "header"]
        nets, _, extra = NN.load_checkpoint(trained / name)
        assert list(nets) == ["generator"] and list(extra) == ["rho"]


def test_train_rerun_checkpoints_byte_identical(tmp_path, prepared, trained):
    out = tmp_path / "again"
    rc = main(["train", "--cache", str(prepared / "ml100k.npz"),
               "--out-dir", str(out), *FAST])
    assert rc == 0
    for name in ("checkpoint.npz", "checkpoint.best.npz", "curve.csv"):
        assert (out / name).read_bytes() == (trained / name).read_bytes(), name


def test_best_checkpoint_is_the_first_best_round_of_the_curve(tmp_path, prepared):
    out = tmp_path / "long"
    rc = main(["train", "--cache", str(prepared / "ml100k.npz"), "--out-dir", str(out),
               "--max-rounds", "32", "--eval-every", "2", "--pretrain-epochs", "2",
               "--batch-size", "16", "--learning-rate", "1e-2", "--seed", "4",
               "--generator-hidden", "16", "--discriminator-hidden", "16",
               "--patience", "100"])
    assert rc == 0
    with open(out / "curve.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    p5 = [float(row["p5"]) for row in rows]
    _, meta, _ = NN.load_checkpoint(out / "checkpoint.best.npz")
    assert meta["round"] == int(rows[p5.index(max(p5))]["round"])


def test_train_rerun_that_never_improves_replaces_the_best_checkpoint(tmp_path, prepared):
    out = tmp_path / "rerun"
    cache = str(prepared / "ml100k.npz")
    assert main(["train", "--cache", cache, "--out-dir", str(out), *FAST]) == 0
    _, meta, _ = NN.load_checkpoint(out / "checkpoint.best.npz")
    assert meta["config"]["seed"] == 3
    cfg = tmp_path / "train.conf"
    cfg.write_text("validation_fraction = 0\n")
    assert main(["train", "--cache", cache, "--out-dir", str(out), "--config", str(cfg),
                 *FAST, "--seed", "9"]) == 0
    final, best = (NN.load_checkpoint(out / name) for name in
                   ("checkpoint.npz", "checkpoint.best.npz"))
    assert best[1]["config"]["seed"] == final[1]["config"]["seed"] == 9
    assert best[1]["round"] == final[1]["round"] == 2
    assert np.array_equal(best[0]["generator"].theta, final[0]["generator"].theta)


def test_train_max_rounds_zero_equals_pretrained(tmp_path, prepared):
    out = tmp_path / "mr0"
    args = [a if a != "2" else "0" for a in FAST]  # max-rounds 0
    rc = main(["train", "--cache", str(prepared / "ml100k.npz"),
               "--out-dir", str(out), *args])
    assert rc == 0
    nets, meta, _ = NN.load_checkpoint(out / "checkpoint.npz")

    # replicate the pipeline: same split, holdout, config, seed
    cache = D.load_cache(prepared / "ml100k.npz")
    cfg = T.TrainConfig(seed=3, batch_size=16, pretrain_epochs=1,
                        learning_rate=1e-3, max_rounds=0, eval_every=1,
                        generator_hidden=[8], discriminator_hidden=[8])
    _, x_warm, y_warm, _, _ = P.split_matrices(cache, 0.2, 3)
    train_idx, _ = D.split_rows(x_warm.shape[0], cfg.validation_fraction, 3)
    trainer = T.Trainer(x_warm[train_idx], y_warm.take(train_idx), cfg)
    trainer.pretrain_generator()
    assert np.array_equal(nets["generator"].theta, trainer.generator.theta)


def test_commands_densify_only_minibatches(tmp_path, synth100k_dir, prepared, monkeypatch):
    """Purchase rows stay CSR: a training step makes its minibatch dense,
    the scorer reads CSR rows, and no command starts from a dense matrix."""
    densified, toarray = [], D.PurchaseRows.toarray

    def spy(self, rows=None):
        out = toarray(self, rows)
        densified[-1][1].append(len(out))
        return out

    monkeypatch.setattr(D.PurchaseRows, "toarray", spy)
    monkeypatch.setattr(D.PurchaseRows, "from_dense",
                        lambda *a: pytest.fail("a dense purchase matrix was made"))
    cache = prepared / "ml100k.npz"
    commands = {
        "prepare": ["prepare", "--dataset", "ml100k", "--raw-dir", synth100k_dir,
                    "--out-dir", tmp_path / "prep"],
        "train": ["train", "--cache", cache, "--out-dir", tmp_path / "train", *FAST],
        "eval": ["eval", "--checkpoint", tmp_path / "train" / "checkpoint.npz",
                 "--cache", cache, "--out-dir", tmp_path / "eval"],
        "itempop": ["eval", "--baseline", "itempop", "--cache", cache,
                    "--out-dir", tmp_path / "pop"],
    }
    for name, argv in commands.items():
        densified.append((name, []))
        assert main([str(a) for a in argv]) == 0
    # 60 users: 12 cold and 48 warm, of which 5 validate; the 43 training
    # rows make 3 pretraining batches of 16, then 2 rounds of 2 batches.
    assert densified == [("prepare", []), ("train", [16] * 7),
                         ("eval", []), ("itempop", [])]


def test_train_s1_flags(tmp_path, prepared):
    out = tmp_path / "s1"
    rc = main(["train", "--cache", str(prepared / "ml100k.npz"),
               "--out-dir", str(out), "--gan-loss", "bce", "--beta", "0",
               *FAST])
    assert rc == 0
    _, meta, _ = NN.load_checkpoint(out / "checkpoint.npz")
    assert meta["config"]["gan_loss"] == "bce"
    assert meta["config"]["beta"] == 0.0


def test_train_rejects_bad_config_before_work(tmp_path, prepared):
    rc = main(["train", "--cache", str(prepared / "ml100k.npz"),
               "--out-dir", str(tmp_path / "bad"),
               "--gan-loss", "bce", "--beta", "0.5", *FAST])
    assert rc == 1


def test_train_refuses_bce_with_literal_generator_loss(tmp_path, prepared, capsys):
    cfg = tmp_path / "train.conf"
    cfg.write_text("gan_loss = bce\nsparsity = off\nnonsaturating = off\n")
    rc = main(["train", "--cache", str(prepared / "ml100k.npz"),
               "--out-dir", str(tmp_path / "run"), "--config", str(cfg), *FAST])
    assert rc == 1
    err = capsys.readouterr().err
    assert "gan_loss = bce requires nonsaturating on" in err
    assert not (tmp_path / "run").exists()


def test_eval_model_and_rerun_byte_identical(tmp_path, prepared, trained):
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    for out in (out1, out2):
        rc = main(["eval", "--checkpoint", str(trained / "checkpoint.npz"),
                   "--cache", str(prepared / "ml100k.npz"),
                   "--out-dir", str(out)])
        assert rc == 0
    assert (out1 / "metrics.model.csv").read_bytes() == \
        (out2 / "metrics.model.csv").read_bytes()
    header = (out1 / "metrics.model.csv").read_text().splitlines()[0]
    assert header == "user,P@5,N@5,M@5,P@20,N@20,M@20"
    args = json.loads((out1 / "manifest.json").read_text())["args"]
    assert (args["cold_fraction"], args["split_seed"], args["leakage_free_cold"]) == \
        (0.2, 3, False)


@pytest.mark.parametrize("flag, value, message", [
    ("--split-seed", "5", "--split-seed 5 differs from the checkpoint's 3"),
    ("--split-seed", "-1", "--split-seed -1 differs from the checkpoint's 3"),
    ("--cold-fraction", "0.5", "--cold-fraction 0.5 differs from the checkpoint's 0.2"),
], ids=["split-seed", "negative-split-seed", "cold-fraction"])
def test_eval_checkpoint_refuses_another_split(flag, value, message, tmp_path, prepared,
                                               trained, capsys):
    """Another split would score users the model trained on as cold users."""
    rc = main(["eval", "--checkpoint", str(trained / "checkpoint.npz"), flag, value,
               "--cache", str(prepared / "ml100k.npz"), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}: the cold set would hold training users\n", err
    assert not (tmp_path / "out").exists()


def test_eval_checkpoint_accepts_its_own_split(tmp_path, prepared, trained):
    runs = {"implicit": [], "explicit": ["--split-seed", "3", "--cold-fraction", "0.2"]}
    for name, flags in runs.items():
        assert main(["eval", "--checkpoint", str(trained / "checkpoint.npz"), *flags,
                     "--cache", str(prepared / "ml100k.npz"),
                     "--out-dir", str(tmp_path / name)]) == 0
    assert (tmp_path / "implicit" / "metrics.model.csv").read_bytes() == \
        (tmp_path / "explicit" / "metrics.model.csv").read_bytes()


def test_eval_itempop_baseline(tmp_path, prepared):
    out = tmp_path / "pop"
    rc = main(["eval", "--baseline", "itempop",
               "--cache", str(prepared / "ml100k.npz"),
               "--cold-fraction", "0.2", "--split-seed", "3",
               "--out-dir", str(out)])
    assert rc == 0
    assert (out / "metrics.itempop.csv").exists()


def test_eval_itempop_defaults_split_flags(tmp_path, prepared):
    cache = str(prepared / "ml100k.npz")
    outs = [tmp_path / name for name in ("a", "b", "explicit")]
    for out in outs[:2]:
        assert main(["eval", "--baseline", "itempop", "--cache", cache,
                     "--out-dir", str(out)]) == 0
    assert main(["eval", "--baseline", "itempop", "--cache", cache,
                 "--cold-fraction", "0.2", "--split-seed", "0",
                 "--out-dir", str(outs[2])]) == 0
    csvs = [(out / "metrics.itempop.csv").read_bytes() for out in outs]
    assert csvs[0] == csvs[1] == csvs[2]
    args = json.loads((outs[0] / "manifest.json").read_text())["args"]
    assert (args["cold_fraction"], args["split_seed"]) == (0.2, 0)


def _bad_checkpoint(problem, good, tmp_path):
    """A copy of checkpoint `good` with one defect `problem`."""
    if problem == "directory":
        bad = tmp_path / "checkpoint.npz"
        bad.mkdir()
        return bad
    if problem in ("truncated", "corrupt"):
        raw = bytearray(good.read_bytes())
        if problem == "truncated":
            del raw[len(raw) // 2:]
        else:
            raw[len(raw) // 2] ^= 0xFF
        bad = tmp_path / f"{problem}.npz"
        bad.write_bytes(raw)
        return bad
    with np.load(good) as z:
        contents = {key: z[key] for key in z.files}
    if problem == "version 2":
        header = json.loads(str(contents["header"])) | {"version": 2}
        contents["header"] = json.dumps(header)
    elif problem == "generator/params":      # would broadcast into every weight
        contents[problem] = np.zeros(1)
    elif problem == "float32":
        contents["generator/params"] = contents["generator/params"].astype(np.float32)
    else:
        del contents["generator/params"]
    bad = tmp_path / "bad.npz"
    np.savez(bad, **contents)
    return bad


# Each defect of _bad_checkpoint and a part of the message that refuses it.
BAD_CHECKPOINT_MESSAGES = {
    "version 2": "format version 2 is not the supported version 3; re-run train",
    "truncated": "File is not a zip file",
    "corrupt": "Bad CRC-32 for file 'generator/params.npy'",
    "directory": "Is a directory",
    "generator/params": "array 'generator/params' is float64 (1,)",
    "float32": "array 'generator/params' is float32",
    "missing": "generator/params is not a file",
}


@pytest.mark.parametrize("problem", list(BAD_CHECKPOINT_MESSAGES))
def test_eval_refuses_bad_checkpoint(problem, tmp_path, prepared, trained, capsys):
    bad = _bad_checkpoint(problem, trained / "checkpoint.npz", tmp_path)
    rc = main(["eval", "--checkpoint", str(bad),
               "--cache", str(prepared / "ml100k.npz"),
               "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert err.startswith(f"error: checkpoint {bad}: ")
    assert BAD_CHECKPOINT_MESSAGES[problem] in err, err


def _bad_cache(problem, good, tmp_path):
    """A copy of cache `good` with one defect `problem`."""
    bad = tmp_path / "bad.npz"
    if problem == "directory":
        bad.mkdir()
        return bad
    if problem == "truncated":
        bad.write_bytes(good.read_bytes()[:good.stat().st_size // 2])
        return bad
    with np.load(good) as z:
        contents = {key: z[key] for key in z.files}
    indptr, items, ratings = (contents[key] for key in ("indptr", "items", "ratings"))
    if problem == "version 1":
        header = json.loads(str(contents["header"])) | {"version": 1}
        contents["header"] = json.dumps(header)
    elif problem == "version 2":              # the dense layout before CSR
        header = json.loads(str(contents["header"])) | {"version": 2}
        purchase = D.PurchaseRows(indptr, items, ratings / 5, header["m"]).toarray()
        contents = {"header": json.dumps(header), "user_ids": contents["user_ids"],
                    "purchase": purchase, "tfidf": contents["tfidf"],
                    "schema": contents["schema"]}
    elif problem == "missing":
        del contents["items"]
    elif problem == "short purchase":
        contents["indptr"] = indptr[:-5]
    elif problem == "float32 purchase":
        contents["ratings"] = ratings.astype(np.float32)
    elif problem == "indptr start":
        indptr[0] = 1
    elif problem == "indptr decreases":
        indptr[1], indptr[2] = indptr[2], indptr[1]
    elif problem == "indptr end":
        indptr[-1] -= 1
    elif problem == "item id m":
        items[0] = 1682
    elif problem == "negative item id":
        items[0] = -1
    elif problem == "items unsorted":
        items[0], items[1] = items[1], items[0]
    elif problem == "repeated item":
        items[1] = items[0]
    elif problem == "rating 0":
        ratings[0] = 0
    elif problem == "rating 6":
        ratings[0] = 6
    elif problem == "short tfidf":
        contents["tfidf"] = contents["tfidf"][:-1]
    elif problem == "2-D user_ids":
        contents["user_ids"] = contents["user_ids"][None, :]
    elif problem == "unsorted":
        contents["user_ids"] = contents["user_ids"][::-1]
    else:                                     # a repeated user id
        contents["user_ids"][1] = contents["user_ids"][0]
    np.savez(bad, **contents)
    return bad


# Each defect of _bad_cache and a part of the message that refuses it; the
# fixture cache has 60 users, 732 ratings, m = 1682 and d = D_100K.
D_100K = 60
BAD_CACHE_MESSAGES = {
    "directory": "Is a directory",
    "truncated": "File is not a zip file",
    "version 1": "format version 1 is not the supported version 3; re-run prepare",
    "version 2": "format version 2 is not the supported version 3; re-run prepare",
    "missing": "items is not a file",
    "short purchase": "array 'indptr' is int64 (56,), expected int64 (61,)",
    "float32 purchase": "array 'ratings' is float32 (732,), expected uint8 (732,)",
    "indptr start": "indptr starts at 1, not 0",
    "indptr decreases": "indptr decreases",
    "indptr end": "indptr ends at 731, not at the 732 items",
    "item id m": "item ids outside 0..1681",
    "negative item id": "item ids outside 0..1681",
    "items unsorted": "item ids do not strictly increase within a row",
    "repeated item": "item ids do not strictly increase within a row",
    "rating 0": "ratings outside 1..5",
    "rating 6": "ratings outside 1..5",
    "short tfidf": f"array 'tfidf' is float64 (59, {D_100K}), expected float64 (60, {D_100K})",
    "2-D user_ids": "array 'user_ids' is int64 (1, 60), expected int64 (None,)",
    "unsorted": "user_ids are not strictly increasing",
    "duplicate": "user_ids are not strictly increasing",
}


@pytest.mark.parametrize("command", [["eval", "--baseline", "itempop"], ["train", *FAST]],
                         ids=["eval", "train"])
@pytest.mark.parametrize("problem", list(BAD_CACHE_MESSAGES))
def test_refuses_bad_cache(problem, command, tmp_path, prepared, capsys):
    bad = _bad_cache(problem, prepared / "ml100k.npz", tmp_path)
    rc = main([*command, "--cache", str(bad), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert err.startswith(f"error: cache {bad}: ")
    assert BAD_CACHE_MESSAGES[problem] in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["train", *FAST], ["eval", "--baseline", "itempop"], ["sweep-beta", *FAST], ["ablate", *FAST],
], ids=["train", "eval", "sweep-beta", "ablate"])
def test_bad_cold_fraction_exit_1_before_out_dir(command, tmp_path, prepared, capsys):
    rc = main([*command, "--cold-fraction", "1", "--cache", str(prepared / "ml100k.npz"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert "error: split fraction 1.0 outside [0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, config, message", [
    (["train", "--generator-hidden", "8,0,8"], "",
     "generator_hidden: each hidden width must be >= 1, got [8, 0, 8]"),
    (["train", "--generator-hidden", "8,-3"], "",
     "generator_hidden: each hidden width must be >= 1, got [8, -3]"),
    (["ablate", "--discriminator-hidden", "0"], "",
     "discriminator_hidden: each hidden width must be >= 1, got [0]"),
    (["train"], "dropout = 1.5\n", "dropout must be in [0, 1), got 1.5"),
    (["train", "--cold-fraction", "0.999"], "", "empty warm training set"),
    (["train", "--n-e", "-3"], "", "n_e must be >= 0, got -3"),
    (["train", "--pretrain-epochs", "-2"], "", "pretrain_epochs must be >= 0, got -2"),
    (["train", "--seed", "-1"], "", "seed must be >= 0, got -1"),
    (["sweep-beta"], "n_e = -1\n", "n_e must be >= 0, got -1"),
    (["train", "--split-seed", "-1"], "", "--split-seed must be >= 0, got -1"),
], ids=["zero-width", "negative-width", "ablate-zero-width", "dropout", "no-warm-user",
        "negative-n-e", "negative-pretrain-epochs", "negative-seed", "sweep-beta-negative-n-e",
        "negative-split-seed"])
def test_train_refusals_leave_no_out_dir(argv, config, message, tmp_path, prepared, capsys):
    cfg = tmp_path / "train.conf"
    cfg.write_text(config)
    rc = main([argv[0], *FAST, *argv[1:], "--config", str(cfg),
               "--cache", str(prepared / "ml100k.npz"), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert not (tmp_path / "out").exists()


def test_eval_refuses_negative_split_seed_before_out_dir(tmp_path, prepared, capsys):
    rc = main(["eval", "--baseline", "itempop", "--split-seed", "-1",
               "--cache", str(prepared / "ml100k.npz"), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == "error: --split-seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval-itempop", "eval-model", "ablate"])
def test_empty_cold_set_refused_before_any_work(command, tmp_path, prepared, trained, capsys,
                                                monkeypatch):
    monkeypatch.setattr(T.Trainer, "pretrain_generator",
                        lambda *a, **k: pytest.fail("training started"))
    # A checkpoint refuses another cold fraction, so eval-model scores one
    # trained with the fraction it is given.
    nets, meta, extra = NN.load_checkpoint(trained / "checkpoint.npz")
    NN.save_checkpoint(tmp_path / "cold0.npz", nets, meta | {"cold_fraction": 0.0}, extra)
    argv = {"eval-itempop": ["eval", "--baseline", "itempop"],
            "eval-model": ["eval", "--checkpoint", str(tmp_path / "cold0.npz")],
            "ablate": ["ablate", *FAST]}[command]
    rc = main([*argv, "--cold-fraction", "0", "--cache", str(prepared / "ml100k.npz"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert "error: --cold-fraction 0 draws no cold users of 60" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["train", *FAST], ["sweep-beta", *FAST, "--grid", "0.1"]],
                         ids=["train", "sweep-beta"])
def test_train_and_sweep_beta_accept_no_cold_users(command, tmp_path, prepared):
    rc = main([*command, "--cold-fraction", "0", "--cache", str(prepared / "ml100k.npz"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    args = json.loads((tmp_path / "out" / "manifest.json").read_text())["args"]
    assert args["cold_fraction"] == 0.0


def test_cache_root_needs_dataset(tmp_path, prepared, capsys, monkeypatch):
    monkeypatch.setenv("SRLGAN_CACHE_ROOT", str(prepared))
    rc = main(["eval", "--baseline", "itempop", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert "error: no --cache given: --dataset names the cache under SRLGAN_CACHE_ROOT" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_schema_mismatch_refused(tmp_path, synth1m_dir, trained):
    other = tmp_path / "other"
    assert main(["prepare", "--dataset", "ml1m", "--raw-dir",
                 str(synth1m_dir), "--out-dir", str(other)]) == 0
    rc = main(["eval", "--checkpoint", str(trained / "checkpoint.npz"),
               "--cache", str(other / "ml1m.npz"),
               "--out-dir", str(tmp_path / "bad")])
    assert rc == 1


def test_eval_custom_n(tmp_path, prepared, trained):
    out = tmp_path / "n3"
    rc = main(["eval", "--checkpoint", str(trained / "checkpoint.npz"),
               "--cache", str(prepared / "ml100k.npz"),
               "--n", "3", "--out-dir", str(out)])
    assert rc == 0
    header = (out / "metrics.model.csv").read_text().splitlines()[0]
    assert header == "user,P@3,N@3,M@3"


def assert_graded_changes_only_ndcg(tmp_path, argv, label):
    """`eval` with and without --graded: every column of metrics.<label>.csv
    but the NDCG ones is equal, and some NDCG value differs."""
    tables = {}
    for name, flags in (("binary", []), ("graded", ["--graded"])):
        rc = main([*argv, "--out-dir", str(tmp_path / name), *flags])
        assert rc == 0
        text = (tmp_path / name / f"metrics.{label}.csv").read_text()
        tables[name] = np.array([line.split(",") for line in text.splitlines()])
    binary, graded = tables["binary"], tables["graded"]
    ndcg = np.char.startswith(binary[0], "N@")
    assert binary.shape == graded.shape
    assert (binary[:, ~ndcg] == graded[:, ~ndcg]).all()
    assert (binary[1:, ndcg] != graded[1:, ndcg]).any()


def test_eval_graded_changes_only_ndcg(tmp_path, prepared, trained):
    argv = ["eval", "--checkpoint", str(trained / "checkpoint.npz"),
            "--cache", str(prepared / "ml100k.npz")]
    assert_graded_changes_only_ndcg(tmp_path, argv, "model")


def test_eval_itempop_graded_changes_only_ndcg(tmp_path, prepared):
    argv = ["eval", "--baseline", "itempop", "--cache", str(prepared / "ml100k.npz")]
    assert_graded_changes_only_ndcg(tmp_path, argv, "itempop")


@pytest.mark.parametrize("argv, message", [
    (["train", "--generator-hidden", "8,x"], "--generator-hidden: expected comma-separated integers, got '8,x'"),
    (["train", "--discriminator-hidden", "8.5"], "--discriminator-hidden: expected comma-separated integers"),
    (["eval", "--baseline", "itempop", "--n", "5,x"], "--n: expected comma-separated integers, got '5,x'"),
    (["eval", "--baseline", "itempop", "--n", "0"], "n must be >= 1, got [0]"),
    (["ablate", "--n", "5,"], "--n: expected comma-separated integers"),
], ids=["generator-hidden", "discriminator-hidden", "eval-n-letter", "eval-n-zero", "ablate-n-empty"])
def test_bad_integer_list_flags_exit_1(tmp_path, prepared, capsys, argv, message):
    rc = main([*argv, "--cache", str(prepared / "ml100k.npz"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not list((tmp_path / "out").glob("metrics.*"))


@pytest.mark.parametrize("argv", [
    ["eval", "--checkpoint", "unused.npz", "--n", "5,0"],
    ["ablate", "--n", "0", *FAST],
], ids=["eval", "ablate"])
def test_bad_cutoffs_refused_before_any_work(tmp_path, prepared, capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        pytest.fail("work started")

    for owner, name in ((D, "load_cache"), (NN, "load_checkpoint"),
                        (T.Trainer, "pretrain_generator")):
        monkeypatch.setattr(owner, name, no_work)
    rc = main([*argv, "--cache", str(prepared / "ml100k.npz"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert "error: --n: each cutoff n must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [
    [],
    ["--checkpoint", "unused.npz", "--baseline", "itempop"],
], ids=["neither", "both"])
def test_eval_needs_exactly_one_of_checkpoint_and_baseline(tmp_path, prepared, capsys,
                                                           monkeypatch, flags):
    def no_work(*args, **kwargs):
        pytest.fail("work started")

    monkeypatch.setattr(D, "load_cache", no_work)
    monkeypatch.setattr(NN, "load_checkpoint", no_work)
    rc = main(["eval", *flags, "--cache", str(prepared / "ml100k.npz"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: eval needs exactly one of --checkpoint and --baseline" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["train", "--learning-rate", "nan"], "learning_rate must be finite, got nan"),
    (["train", "--learning-rate", "inf"], "learning_rate must be finite, got inf"),
    (["train", "--beta=-inf"], "beta must be finite, got -inf"),
    (["sweep-beta", "--beta", "nan"], "beta must be finite, got nan"),
    (["sweep-beta", "--grid", "0.1,x"], "--grid: expected comma-separated numbers, got '0.1,x'"),
    (["sweep-beta", "--grid", "0.1,-1"], "--grid: each beta must be finite and >= 0, got '0.1,-1'"),
    (["sweep-beta", "--grid", "nan"], "--grid: each beta must be finite and >= 0, got 'nan'"),
    (["sweep-beta", "--grid", "0,inf"], "--grid: each beta must be finite and >= 0, got '0,inf'"),
    (["sweep-beta", "--grid", "0.1,0.10"], "--grid: beta 0.1 is given more than once in '0.1,0.10'"),
    (["sweep-beta", "--grid", "1,0,0e0,1"], "--grid: beta 0 is given more than once in '1,0,0e0,1'"),
], ids=["lr-nan", "lr-inf", "beta-minus-inf", "sweep-beta-nan", "grid-letter",
        "grid-negative", "grid-nan", "grid-inf", "grid-repeated", "grid-repeated-twice"])
def test_bad_hyperparameters_exit_1_before_any_work(tmp_path, prepared, capsys, monkeypatch,
                                                    argv, message):
    monkeypatch.setattr(D, "load_cache", lambda *a, **k: pytest.fail("cache loaded"))
    rc = main([*argv, "--cache", str(prepared / "ml100k.npz"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_sweep_beta_outputs_and_cv_consistency(tmp_path, prepared):
    out = tmp_path / "sweep"
    rc = main(["sweep-beta", "--cache", str(prepared / "ml100k.npz"),
               "--out-dir", str(out), "--grid", "0.1,1", *FAST])
    assert rc == 0
    assert (out / "sweep.csv").exists()
    assert (out / "curve.beta0.1.csv").exists()
    assert (out / "curve.beta1.csv").exists()
    for svg in ("sweep.p5.svg", "sweep.n5.svg"):
        text = (out / svg).read_text()
        assert text.startswith("<svg")

    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    recommended = [float(r.split(",")[0]) for r in rows
                   if r.split(",")[2] == "1"]
    assert len(recommended) == 1

    # matches the library cross-validation routine run on the same warm set
    cache = D.load_cache(prepared / "ml100k.npz")
    cfg = T.TrainConfig(seed=3, batch_size=16, pretrain_epochs=1,
                        learning_rate=1e-3, max_rounds=2, eval_every=1,
                        generator_hidden=[8], discriminator_hidden=[8])
    _, x_warm, y_warm, _, _ = P.split_matrices(cache, 0.2, 3)
    best, _ = T.cross_validate_beta(x_warm, y_warm, [0.1, 1], cfg)
    assert recommended[0] == best

    args = json.loads((out / "manifest.json").read_text())["args"]
    assert (args["cold_fraction"], args["split_seed"]) == (0.2, 3)
    assert "leakage_free_cold" not in args


def test_sweep_beta_replaces_an_earlier_grids_curves(tmp_path, prepared):
    out = tmp_path / "sweep"
    for grid in ("0.1,1", "0.5"):
        assert main(["sweep-beta", "--cache", str(prepared / "ml100k.npz"),
                     "--out-dir", str(out), "--grid", grid, *FAST]) == 0
    assert sorted(p.name for p in out.glob("curve.*")) == ["curve.beta0.5.csv"]


def test_sweep_beta_honours_validation_fraction(tmp_path, prepared, monkeypatch):
    held = []

    class Spy(T.Trainer):
        def __init__(self, x_train, y_train, config, **kwargs):
            super().__init__(x_train, y_train, config, **kwargs)
            held.append((len(self.x_train), len(self.x_val), config.validation_fraction))

    monkeypatch.setattr(T, "Trainer", Spy)
    cfg = tmp_path / "train.conf"
    cfg.write_text("validation_fraction = 0.3\n")
    rc = main(["sweep-beta", "--cache", str(prepared / "ml100k.npz"),
               "--out-dir", str(tmp_path / "sweep"), "--grid", "0.1,1",
               "--config", str(cfg), *FAST])
    assert rc == 0
    # 48 warm users of 60; round(0.3 * 48) = 14 of them are held out
    assert held == [(34, 14, 0.3)] * 2


def test_sweep_beta_refuses_empty_validation_slice_before_out_dir(tmp_path, prepared, capsys):
    cfg = tmp_path / "train.conf"
    cfg.write_text("validation_fraction = 0\n")
    rc = main(["sweep-beta", "--cache", str(prepared / "ml100k.npz"),
               "--out-dir", str(tmp_path / "sweep"), "--config", str(cfg), *FAST])
    assert rc == 1
    assert "validation_fraction 0.0 holds out none of 48 warm users" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_ablate_outputs(tmp_path, prepared):
    out = tmp_path / "abl"
    rc = main(["ablate", "--cache", str(prepared / "ml100k.npz"),
               "--out-dir", str(out), *FAST])
    assert rc == 0
    for mode in ("S1", "S2", "S3"):
        assert (out / f"ablation.{mode}.csv").exists()
    summary = json.loads((out / "ablation.summary.json").read_text())
    assert set(summary) == {"S1", "S2", "S3"}
    args = json.loads((out / "manifest.json").read_text())["args"]
    assert (args["cold_fraction"], args["split_seed"]) == (0.2, 3)


def test_ablate_with_literal_generator_loss_base_config(tmp_path, prepared):
    cfg = tmp_path / "train.conf"
    cfg.write_text("nonsaturating = off\n")
    out = tmp_path / "abl"
    rc = main(["ablate", "--cache", str(prepared / "ml100k.npz"),
               "--out-dir", str(out), "--config", str(cfg), *FAST])
    assert rc == 0
    summary = json.loads((out / "ablation.summary.json").read_text())
    assert set(summary) == {"S1", "S2", "S3"}


def test_plot_from_curves(tmp_path, trained):
    out = tmp_path / "plots"
    rc = main(["plot", "--out-dir", str(out), str(trained / "curve.csv")])
    assert rc == 0
    for name in ("plot.p5.svg", "plot.n5.svg", "plot.loss_sr.svg"):
        assert (out / name).read_text().startswith("<svg")


def test_plot_draws_same_named_curves_apart(tmp_path, trained):
    curves = [tmp_path / "a" / "curve.csv", tmp_path / "b&c" / "curve.csv"]
    for curve in curves:
        curve.parent.mkdir()
        shutil.copy(trained / "curve.csv", curve)
    out = tmp_path / "plots"
    assert main(["plot", "--out-dir", str(out), *map(str, curves)]) == 0
    svg = (out / "plot.p5.svg").read_text()
    assert svg.count("<polyline") == 2
    assert f">{curves[0]}</text>" in svg
    assert f">{tmp_path}/b&amp;c/curve.csv</text>" in svg


@pytest.mark.parametrize("column", ["round", "p5", "n5", "loss_sr"])
def test_plot_refuses_curve_without_a_needed_column(column, tmp_path, trained, capsys):
    with open(trained / "curve.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    curve = tmp_path / "cut.csv"
    with open(curve, "w", newline="") as fh:
        w = csv.DictWriter(fh, [name for name in rows[0] if name != column])
        w.writeheader()
        w.writerows({k: v for k, v in row.items() if k != column} for row in rows)
    rc = main(["plot", "--out-dir", str(tmp_path / "plots"), str(trained / "curve.csv"),
               str(curve)])
    assert rc == 1
    assert f"error: curve {curve}: no {column} column" in capsys.readouterr().err
    assert not (tmp_path / "plots").exists()


def test_plot_refuses_a_short_row(tmp_path, trained, capsys):
    curve = tmp_path / "short.csv"
    text = (trained / "curve.csv").read_text()
    curve.write_text(text + "3,0.5\n")
    rc = main(["plot", "--out-dir", str(tmp_path / "plots"), str(curve)])
    assert rc == 1
    assert f"error: curve {curve}: a row is short or not numeric" in capsys.readouterr().err
    assert not (tmp_path / "plots").exists()


def test_leakage_free_cold_changes_features(prepared):
    cache = D.load_cache(prepared / "ml100k.npz")
    _, _, _, x_cold_leaky, _ = P.split_matrices(cache, 0.2, 3)
    _, _, _, x_cold_clean, _ = P.split_matrices(cache, 0.2, 3,
                                                leakage_free_cold=True)
    assert not np.array_equal(x_cold_leaky, x_cold_clean)
    # demographics survive, genre slots are zeroed
    from srlgan.features import AttributeSchema
    schema = AttributeSchema.from_json(cache.schema_json)
    n_genres = len(schema.genre_values)
    assert np.all(x_cold_clean[:, -n_genres:] == 0)
    assert np.array_equal(x_cold_leaky[:, :-n_genres],
                          x_cold_clean[:, :-n_genres])


def test_env_var_cache_root(tmp_path, prepared, monkeypatch):
    monkeypatch.setenv("SRLGAN_CACHE_ROOT", str(prepared))
    out = tmp_path / "envrun"
    rc = main(["eval", "--baseline", "itempop", "--dataset", "ml100k",
               "--cold-fraction", "0.2", "--split-seed", "3",
               "--out-dir", str(out)])
    assert rc == 0


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_outputs_take_the_umask_mode(tmp_path, synth100k_dir, umask):
    old = os.umask(umask)
    try:
        assert main(["prepare", "--dataset", "ml100k", "--raw-dir", str(synth100k_dir),
                     "--out-dir", str(tmp_path / "cache")]) == 0
        assert main(["train", "--cache", str(tmp_path / "cache" / "ml100k.npz"),
                     "--out-dir", str(tmp_path / "train"), *FAST]) == 0
    finally:
        os.umask(old)
    outputs = [tmp_path / "cache" / "ml100k.npz", tmp_path / "train" / "curve.csv",
               tmp_path / "train" / "checkpoint.npz", tmp_path / "train" / "checkpoint.best.npz"]
    for path in outputs:
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path
    assert sorted(p.name for p in (tmp_path / "train").iterdir()) == [
        "checkpoint.best.npz", "checkpoint.npz", "curve.csv", "manifest.json"]


@pytest.mark.parametrize("argv, code", [
    (["train", "--seed", "x", "--out-dir", "unused"], 1),
    (["eval", "--cold-fraction", "abc", "--out-dir", "unused"], 1),
    (["train", "--bogus", "--out-dir", "unused"], 1),
    (["train", "--cache", "unused.npz"], 1),
    (["sweep-beta", "--leakage-free-cold", "--out-dir", "unused"], 1),
    ([], 1),
    (["--help"], 0),
    (["eval", "--help"], 0),
], ids=["bad-int", "bad-float", "unknown-flag", "missing-out-dir", "sweep-leakage-free-cold",
        "no-command", "help", "eval-help"])
def test_usage_exit_codes(tmp_path, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == code
    if code:
        assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "unused").exists()
