import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import shutil
import stat
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from srlgan import data as D
from srlgan import evaluate as E
from srlgan import model as M
from srlgan import nn as NN
from srlgan import pipeline as P
from srlgan import svgplot
from srlgan import train as T
from srlgan.cli import TRAIN_FLAGS, _parse_config_file, main
from test_evaluate import brute_mrr, brute_ndcg, brute_precision

FAST = [
    "--max-rounds", "2", "--eval-every", "1", "--pretrain-epochs", "1",
    "--batch-size", "16", "--learning-rate", "1e-3", "--seed", "3",
    "--generator-hidden", "8", "--discriminator-hidden", "8",
]
# FAST as the TrainConfig it resolves to.
FAST_CONFIG = T.TrainConfig(seed=3, batch_size=16, pretrain_epochs=1, learning_rate=1e-3,
                            max_rounds=2, eval_every=1, generator_hidden=[8],
                            discriminator_hidden=[8])


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
    manifest = json.loads((prepared / "manifest.json").read_text())
    assert sorted(manifest["inputs"]) == ["items", "occupations", "ratings", "users"]
    # The BLAS settings and numpy build on which the last bits depend, and
    # the thread count of Adam's update, on which they do not.
    assert manifest["environment"] == {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE"), "numpy": np.__version__,
        "adam_threads": NN.adam_threads()}


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
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("damage, name, message", [
    ("missing", "u.data", "raw file not found: "),
    ("malformed", "u.data", ":61: non-integer field"),
    # Required like every file of the layout: no occupation slots are taken
    # from u.user instead.
    ("missing", "u.occupation", "raw file not found: "),
    # A ratings file with no rating line: the text it is left with.
    ("", "u.data", ": no rating line"),
    ("\n\n", "u.data", ": no rating line"),
    ("", "ratings.dat", ": no rating line"),
    # Item 1, which the fixture's users rate, loses its items-file line: the
    # refusal names the first ratings line that rates it.
    ("first-line", "u.item", "u.data:197: item id 1 has no entry in "),
    ("first-line", "movies.dat", "ratings.dat:289: item id 1 has no entry in "),
    # So does user 1, who rates on the first line.
    ("first-line", "u.user", "u.data:1: user id 1 has no entry in "),
], ids=["missing-raw-file", "malformed-rating-line", "missing-u-occupation", "empty-u-data",
        "newline-only-u-data", "empty-ratings-dat", "unlisted-item-u-item",
        "unlisted-item-movies-dat", "unlisted-user-u-user"])
def test_prepare_refusal_leaves_no_out_dir(tmp_path, request, capsys, damage, name, message):
    dataset = "ml1m" if name.endswith(".dat") else "ml100k"
    raw = tmp_path / "raw"
    shutil.copytree(request.getfixturevalue(f"synth{dataset[2:]}_dir"), raw)
    if damage == "missing":
        (raw / name).unlink()
    elif damage == "malformed":
        lines = (raw / name).read_text().splitlines()
        lines[60] = lines[60].replace("\t", "\tx", 1)
        (raw / name).write_text("\n".join(lines) + "\n")
    elif damage == "first-line":
        (raw / name).write_bytes(b"".join((raw / name).read_bytes().splitlines(True)[1:]))
    else:
        (raw / name).write_text(damage)
    rc = main(["prepare", "--dataset", dataset, "--raw-dir", str(raw),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(raw / name) in err and message in err
    assert not (tmp_path / "out").exists()


# The fixtures' u.data has 732 lines and ratings.dat 710; each refusal names
# the line it appends, counting an empty line.
@pytest.mark.parametrize("line, names", [
    ("999\t1\t3\t5\n", ["u.data:733: user id 999 has no entry in ", "u.user"]),
    ("1\t99999\t3\t5\n", ["u.data:733: item id 99999 outside 1..1682"]),
    ("\n1\t0\t3\t5\n", ["u.data:734: item id 0 outside 1..1682"]),
    ("999::1::3::5\n", ["ratings.dat:711: user id 999 has no entry in ", "users.dat"]),
    ("1::99999::3::5\n", ["ratings.dat:711: item id 99999 outside 1..3952"]),
    ("\n1::0::3::5\n", ["ratings.dat:712: item id 0 outside 1..3952"]),
    # Two rules broken: the range rule comes first, whatever the line order.
    ("999\t1\t3\t5\n1\t99999\t3\t5\n", ["u.data:734: item id 99999 outside 1..1682"]),
], ids=["unknown-user", "item-out-of-range", "item-zero-after-empty-line",
        "unknown-user-ratings-dat", "item-out-of-range-ratings-dat",
        "item-zero-after-empty-line-ratings-dat", "unknown-user-then-item-out-of-range"])
def test_prepare_bad_rating_ids_exit_1(tmp_path, request, capsys, line, names):
    dataset = "ml1m" if "::" in line else "ml100k"
    raw = tmp_path / "raw"
    shutil.copytree(request.getfixturevalue(f"synth{dataset[2:]}_dir"), raw)
    with open(raw / D.LAYOUTS[dataset]["files"]["ratings"], "a") as fh:
        fh.write(line)
    rc = main(["prepare", "--dataset", dataset, "--raw-dir", str(raw),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for name in names:
        assert name in err
    assert not (tmp_path / "out" / f"{dataset}.npz").exists()


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


def on_line(lineno, edit):
    """A text transform that replaces line `lineno` by `edit(line)`."""
    def apply(text):
        lines = text.split("\n")
        lines[lineno - 1] = edit(lines[lineno - 1])
        return "\n".join(lines)
    return apply


def set_field(k, value, sep="\t"):
    """A line edit that sets field k of a `sep`-separated line (by default a
    u.data line) to `value`."""
    return lambda line: sep.join(value if j == k else f for j, f in enumerate(line.split(sep)))


@pytest.mark.parametrize("name, edit, message", [
    ("u.data", on_line(61, set_field(2, "+3")), ":61: non-integer field '+3'"),
    ("u.data", on_line(61, set_field(1, "-7")), ":61: non-integer field '-7'"),
    ("u.data", on_line(61, set_field(0, " 5")), ":61: non-integer field ' 5'"),
    ("u.data", on_line(61, set_field(0, "1_0")), ":61: non-integer field '1_0'"),
    ("u.data", on_line(61, set_field(2, "\u0665")), ":61: non-integer field '\u0665'"),
    ("u.data", lambda text: text.replace("\n", "\r\n"), ":1: non-integer field '"),
    ("u.data", lambda text: text.replace("\n", "\r"), ":1: expected 4 fields, got "),
    ("u.data", on_line(61, lambda line: "\x0c\n" + line), ":61: expected 4 fields, got 1"),
    ("u.data", on_line(61, lambda line: " \n" + line), ":61: expected 4 fields, got 1"),
    ("u.data", on_line(61, lambda line: "\t\t\t\n" + line), ":61: non-integer field ''"),
    ("u.user", on_line(2, lambda line: line.replace("|", "|+", 1)), ":2: non-integer age '+"),
    ("u.item", on_line(5, lambda line: line[:-1] + "x"), ":5: genre flag 'x' is not 0 or 1"),
    ("u.occupation", lambda text: text + "artist\n", ":9: occupation artist repeats line 1"),
    ("u.user", on_line(2, set_field(2, "X", "|")), ":2: gender 'X' has no attribute slot"),
    ("u.user", on_line(2, set_field(3, "pilot", "|")),
     ":2: occupation 'pilot' has no attribute slot"),
    ("users.dat", on_line(2, set_field(2, "99", "::")), ":2: age 99 has no attribute slot"),
    ("movies.dat", on_line(3, set_field(2, "Drama|Foo", "::")),
     ":3: genre 'Foo' has no attribute slot"),
    ("movies.dat", lambda text: text + "51::Item 51 (1995)::Foo\n",
     ":51: genre 'Foo' has no attribute slot"),
], ids=["plus", "minus", "space", "underscore", "arabic-indic-digit", "crlf", "cr",
        "form-feed-line", "space-line", "tabs-line", "u.user-signed-age", "u.item-flag-x",
        "u.occupation-repeat", "u.user-gender-x", "u.user-occupation-pilot",
        "users.dat-age-code-99", "movies.dat-unknown-genre", "movies.dat-unrated-unknown-genre"])
def test_prepare_refuses_raw_files_outside_their_grammar(tmp_path, request, capsys,
                                                         name, edit, message):
    dataset = "ml1m" if name.endswith(".dat") else "ml100k"
    raw = tmp_path / "raw"
    shutil.copytree(request.getfixturevalue(f"synth{dataset[2:]}_dir"), raw)
    (raw / name).write_bytes(edit((raw / name).read_text(encoding="latin-1")).encode())
    rc = main(["prepare", "--dataset", dataset, "--raw-dir", str(raw),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {raw / name}{message}"), err
    assert not (tmp_path / "out").exists()


def run_cli(argv):
    """(exit code, stderr) of the CLI, stdout swallowed."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, err.getvalue()


RAW_JUNK = "0123456789\t\r +-_.\x0cx\u0665"


@st.composite
def edited_u_data(draw, lines):
    """The u.data `lines` with up to three lines replaced or inserted, each
    most often a rating line of the fixture's users with a rating in 1..5,
    else such a line with a rating of 0 or 6, one field junk or a "\r" at
    its end, or an empty or a whitespace line.  Items are most often the
    50 that the fixture's u.item lists."""
    lines = list(lines)
    item = st.one_of(st.integers(1, 50), st.integers(1, 50), st.integers(1, 1682))
    rating = st.tuples(st.integers(1, 60), item,
                       st.sampled_from([1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 0, 6]),
                       st.integers(0, 2**63 - 1)).map(lambda row: "\t".join(map(str, row)))
    junk = st.tuples(st.integers(0, 3), st.text(RAW_JUNK, max_size=3), rating).map(
        lambda t: set_field(t[0], t[1])(t[2]))
    line = st.one_of(rating, rating, junk, rating.map(lambda line: line + "\r"),
                     st.sampled_from(["", " ", "\t\t\t", "\x0c"]))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines[at:at + draw(st.integers(0, 1))] = [draw(line)]
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_prepare_of_edited_u_data_exits_0_or_1(synth100k_dir, data):
    """`prepare` of a damaged u.data exits 1 naming the file and line (of
    the first user or item id that u.user, u.item or 1..m does not hold, if
    that is the fault), with no out-dir; an accepted one gives the same
    cache content twice."""
    text = data.draw(edited_u_data((synth100k_dir / "u.data").read_text().splitlines()))
    with tempfile.TemporaryDirectory() as tmp:
        raw, outs = Path(tmp) / "raw", [Path(tmp) / "out1", Path(tmp) / "out2"]
        shutil.copytree(synth100k_dir, raw)
        (raw / "u.data").write_bytes(text.encode())
        argv = ["prepare", "--dataset", "ml100k", "--raw-dir", raw, "--out-dir"]
        rc, err = run_cli([*argv, outs[0]])
        assert rc in (0, 1), err
        if rc == 1:
            assert re.match(rf"error: {re.escape(str(raw / 'u.data'))}:\d+: ", err), err
            assert not outs[0].exists()
            return
        assert run_cli([*argv, outs[1]])[0] == 0
        hashes = [json.loads((out / "manifest.json").read_text())["outputs"]["cache_content"]
                  for out in outs]
        assert hashes[0] == hashes[1]


# The metadata files of the fixtures, and the field values a metadata edit
# draws from: ids (listed, unlisted, repeated or not integers), attribute
# values with and without a slot, genre lists with and without an unknown
# genre, genre flags, and junk.
METADATA_FILES = ["u.user", "u.item", "u.occupation", "users.dat", "movies.dat"]
METADATA_VALUES = ["1", "7", "50", "51", "60", "61", "0", "01", "+1", "x", "", " ",
                   "18", "25", "56", "99", "20", "21", "M", "F", "X",
                   "artist", "writer", "pilot", "Artist", "Drama", "Action|Comedy",
                   "Foo", "Drama|Foo", "unknown", "Drama||Comedy"]


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_prepare_of_edited_metadata_exits_0_or_1(synth100k_dir, synth1m_dir, data):
    """`prepare` after a one-line edit of a metadata file (a field set to
    one of METADATA_VALUES, a field added or dropped, or the line deleted)
    exits 0 or 1.  A refusal names a raw file: the edited one, or another
    one's line that the edit left without a slot.  An accepted edit gives
    the same cache content twice."""
    name = data.draw(st.sampled_from(METADATA_FILES))
    dataset = "ml1m" if name.endswith(".dat") else "ml100k"
    source = synth1m_dir if dataset == "ml1m" else synth100k_dir
    sep = D.LAYOUTS[dataset]["meta_sep"]
    lines = (source / name).read_text(encoding="latin-1").splitlines()
    at = data.draw(st.integers(0, len(lines) - 1))
    fields = lines[at].split(sep)
    edit = data.draw(st.sampled_from(["set", "set", "set", "add", "drop", "delete"]))
    if edit == "set":
        fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(
            st.sampled_from(METADATA_VALUES))
    elif edit == "add":
        fields.append(data.draw(st.sampled_from(METADATA_VALUES)))
    elif edit == "drop":
        fields.pop()
    lines[at:at + 1] = [] if edit == "delete" else [sep.join(fields)]
    with tempfile.TemporaryDirectory() as tmp:
        raw, outs = Path(tmp) / "raw", [Path(tmp) / "out1", Path(tmp) / "out2"]
        shutil.copytree(source, raw)
        (raw / name).write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
        argv = ["prepare", "--dataset", dataset, "--raw-dir", raw, "--out-dir"]
        rc, err = run_cli([*argv, outs[0]])
        assert rc in (0, 1), err
        if rc == 1:
            files = "|".join(re.escape(str(raw / f)) for f in D.LAYOUTS[dataset]["files"].values())
            named = re.match(rf"error: ({files})(:\d+)?: ", err)
            assert named and (str(raw / name) in err or named[2]), err
            assert not outs[0].exists()
            return
        assert run_cli([*argv, outs[1]])[0] == 0
        hashes = [json.loads((out / "manifest.json").read_text())["outputs"]["cache_content"]
                  for out in outs]
        assert hashes[0] == hashes[1]


def test_config_file_values_typed_by_train_config(tmp_path):
    cfg = tmp_path / "train.conf"
    cfg.write_text("# S1\n\nn_e = None\ngenerator_hidden = 8,16\nlearning_rate = 1e-3\n"
                   "batch_size = 32\n   # indented\ngan_loss = bce  # S1\n")
    assert _parse_config_file(cfg) == {
        "n_e": None, "generator_hidden": [8, 16], "learning_rate": 1e-3,
        "batch_size": 32, "gan_loss": "bce"}


@pytest.mark.parametrize("line, key", [
    ("batch_size = 1.5", "batch_size"),
    ("generator_hidden = 8,x", "generator_hidden"),
], ids=["float-for-int", "bad-list-item"])
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
    manifest = json.loads((trained / "manifest.json").read_text())
    assert manifest["train_config"] == dataclasses.asdict(FAST_CONFIG)
    # The process's RSS high-water mark, in MiB: never below the interpreter.
    assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 1


@pytest.mark.parametrize("extra", [[], ["--n-e", "none"]],
                         ids=["fast", "spelt-values"])
def test_flags_and_config_keys_train_alike(tmp_path, prepared, trained, extra):
    """The same settings given as flags or as config keys give the same run
    (`n_e = none` is the default, so also `trained`'s)."""
    flags = [*FAST, *extra]
    cfg = tmp_path / "train.conf"
    cfg.write_text("".join(f"{flag[2:].replace('-', '_')} = {value}\n"
                           for flag, value in zip(flags[::2], flags[1::2])))
    runs = {"flags": flags, "config": ["--config", str(cfg)]}
    for name, argv in runs.items():
        assert main(["train", "--cache", str(prepared / "ml100k.npz"),
                     "--out-dir", str(tmp_path / name), *argv]) == 0
    for name in runs:
        for output in ("curve.csv", "checkpoint.npz"):
            assert (tmp_path / name / output).read_bytes() == (trained / output).read_bytes()


def test_train_checkpoints_hold_only_the_generator(trained):
    for name in ("checkpoint.npz", "checkpoint.best.npz"):
        with np.load(trained / name) as z:
            assert sorted(z.files) == ["generator/params", "header"]
        nets, _ = NN.load_checkpoint(trained / name)
        assert list(nets) == ["generator"]


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
    _, meta = NN.load_checkpoint(out / "checkpoint.best.npz")
    assert meta["round"] == int(rows[p5.index(max(p5))]["round"])


def test_train_rerun_that_never_improves_replaces_the_best_checkpoint(tmp_path, prepared):
    out = tmp_path / "rerun"
    cache = str(prepared / "ml100k.npz")
    assert main(["train", "--cache", cache, "--out-dir", str(out), *FAST]) == 0
    _, meta = NN.load_checkpoint(out / "checkpoint.best.npz")
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
    nets, meta = NN.load_checkpoint(out / "checkpoint.npz")

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
    _, meta = NN.load_checkpoint(out / "checkpoint.npz")
    assert meta["config"]["gan_loss"] == "bce"
    assert meta["config"]["beta"] == 0.0


def test_train_rejects_bad_config_before_work(tmp_path, prepared):
    rc = main(["train", "--cache", str(prepared / "ml100k.npz"),
               "--out-dir", str(tmp_path / "bad"),
               "--gan-loss", "bce", "--beta", "0.5", *FAST])
    assert rc == 1


def test_eval_reads_a_checkpoint_whose_config_lists_n_d_and_n_g(tmp_path, prepared, trained):
    # Checkpoints of format 4 written before n_d/n_g were removed from
    # TrainConfig list them in meta.config; eval reads only the schema hash
    # and the split keys of the header.
    nets, meta = NN.load_checkpoint(trained / "checkpoint.npz")
    assert "n_d" not in meta["config"] and NN.CHECKPOINT_VERSION == 4
    old = tmp_path / "old.npz"
    NN.save_checkpoint(old, nets, meta | {"config": meta["config"] | {"n_d": 1, "n_g": 1}})
    csvs = []
    for name, checkpoint in (("new", trained / "checkpoint.npz"), ("old", old)):
        assert main(["eval", "--checkpoint", str(checkpoint), "--n", "5,1682", "--cache",
                     str(prepared / "ml100k.npz"), "--out-dir", str(tmp_path / name)]) == 0
        csvs.append((tmp_path / name / "metrics.model.csv").read_bytes())
    assert csvs[0] == csvs[1]
    mean = csvs[0].decode().splitlines()[-1].split(",")
    assert mean[0] == "mean" and float(mean[4]) > 0      # P@1682


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
    elif problem == "version 3":             # the layout with slope, dropout and rho
        header = json.loads(str(contents["header"]))
        header |= {"version": 3, "slope": {"generator": 0.01}, "dropout": {"generator": 0.0}}
        contents["header"] = json.dumps(header)
        contents["extra/rho"] = np.full(1682, 0.05)
    elif problem == "generator/params":      # would broadcast into every weight
        contents[problem] = np.zeros(1)
    elif problem == "float32":
        contents["generator/params"] = contents["generator/params"].astype(np.float32)
    elif problem in CHECKPOINT_HEADER_EDITS:
        header = json.loads(str(contents["header"]))
        CHECKPOINT_HEADER_EDITS[problem](header)
        contents["header"] = json.dumps(header)
    elif problem.endswith(" width"):         # one unit more, with params to match
        header = json.loads(str(contents["header"]))
        sizes = header["nets"]["generator"]
        sizes[0 if problem == "input width" else -1] += 1
        contents["header"] = json.dumps(header)
        contents["generator/params"] = NN.MLP(sizes, None).theta
    elif problem.startswith("no "):          # a run metadata key, or the generator
        header = json.loads(str(contents["header"]))
        del (header["nets"] if problem == "no generator" else header["meta"])[problem[3:]]
        contents["header"] = json.dumps(header)
    else:
        del contents["generator/params"]
    bad = tmp_path / "bad.npz"
    np.savez(bad, **contents)
    return bad


# The header edits of _bad_checkpoint: a `meta` or `nets` that is missing or
# not a json object, layer widths that are not a list of two or more ints
# >= 1, and run metadata values of another type or outside their range.
CHECKPOINT_HEADER_EDITS = {
    "meta missing": lambda header: header.pop("meta"),
    "meta null": lambda header: header.update(meta=None),
    "nets null": lambda header: header.update(nets=None),
    "nets list": lambda header: header.update(nets=[1]),
    "widths 5": lambda header: header["nets"].update(generator=5),
    "widths null": lambda header: header["nets"].update(generator=None),
    "widths [60, 0, 1682]": lambda header: header["nets"].update(generator=[60, 0, 1682]),
    "widths [60]": lambda header: header["nets"].update(generator=[60]),
    "widths [60, 8.0, 1682]": lambda header: header["nets"].update(generator=[60, 8.0, 1682]),
    "widths [60, true, 1682]": lambda header: header["nets"].update(generator=[60, True, 1682]),
    "split_seed x": lambda header: header["meta"].update(split_seed="x"),
    "split_seed -1": lambda header: header["meta"].update(split_seed=-1),
    "schema_hash null": lambda header: header["meta"].update(schema_hash=None),
    "leakage_free_cold yes": lambda header: header["meta"].update(leakage_free_cold="yes"),
    "cold_fraction 1.0": lambda header: header["meta"].update(cold_fraction=1.0),
}

# Each defect of _bad_checkpoint and a part of the message that refuses it.
BAD_CHECKPOINT_MESSAGES = {
    "version 2": "header version 2 is not the supported version 4; re-run train",
    "version 3": "header version 3 is not the supported version 4; re-run train",
    "truncated": "File is not a zip file",
    "corrupt": "Bad CRC-32 for file 'generator/params.npy'",
    "directory": "Is a directory",
    "generator/params": "array 'generator/params' is float64 (1,)",
    "float32": "array 'generator/params' is float32",
    "missing": "generator/params is not a file",
    "no generator": "header nets has no 'generator'",
    "meta missing": "header has no 'meta'",
    "meta null": "header meta None is not a json object",
    "nets null": "header nets None is not a json object of layer-width lists",
    "nets list": "header nets [1] is not a json object of layer-width lists",
    "widths 5": "header nets {'generator': 5} is not a json object of layer-width lists",
    "widths null": "header nets {'generator': None} is not a json object of layer-width lists",
    "widths [60, 0, 1682]":
        "header nets {'generator': [60, 0, 1682]} is not a json object of layer-width lists",
    "widths [60]": "header nets {'generator': [60]} is not a json object of layer-width lists",
    "widths [60, 8.0, 1682]":
        "header nets {'generator': [60, 8.0, 1682]} is not a json object of layer-width lists",
    "widths [60, true, 1682]":
        "header nets {'generator': [60, True, 1682]} is not a json object of layer-width lists",
    **{f"no {key}": f"header meta has no {key!r}"
       for key in ("schema_hash", "split_seed", "cold_fraction", "leakage_free_cold")},
    "split_seed x": "header meta split_seed 'x' is not an integer >= 0",
    "split_seed -1": "header meta split_seed -1 is not an integer >= 0",
    "schema_hash null": "header meta schema_hash None is not 16 hex digits",
    "leakage_free_cold yes": "header meta leakage_free_cold 'yes' is not true or false",
    "cold_fraction 1.0": "header meta cold_fraction 1.0 is not a float in [0, 1)",
    # A generator that reads one attribute more than the cache's d, or scores
    # one item more than its m: the message names the cache too.
    "input width": "generator widths [61, 8, 1682] do not map the d 60 attributes of cache ",
    "output width": "generator widths [60, 8, 1683] do not map the d 60 attributes of cache ",
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
    assert not (tmp_path / "out").exists()
    if problem.endswith(" width"):
        assert err.endswith(f"cache {prepared / 'ml100k.npz'} to its m 1682 items\n"), err


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
    if problem in CACHE_HEADER_EDITS:
        header = json.loads(str(contents["header"])) | CACHE_HEADER_EDITS[problem]
        contents["header"] = json.dumps(header)
    elif problem in SCHEMA_EDITS:
        contents["schema"] = json.dumps(SCHEMA_EDITS[problem](json.loads(str(contents["schema"]))))
    elif problem == "list header":
        contents["header"] = json.dumps([3])
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


# The header edits of _bad_cache, each a header field set to another value.
CACHE_HEADER_EDITS = {
    "version 1": {"version": 1},
    "max_rating 10": {"max_rating": 10},
    "m x": {"m": "x"},
    "m 1682.5": {"m": 1682.5},
    "d null": {"d": None},
    "dataset list": {"dataset": [1]},
    "dataset x": {"dataset": "x"},
    "dataset ml1m": {"dataset": "ml1m"},
    "m 3000": {"m": 3000},
}

# The schema edits of _bad_cache, each the edited document: a slot list
# missing, one short or of another element type, and a schema that is not a
# json object.
SCHEMA_EDITS = {
    "schema without genre_values": lambda s: {k: v for k, v in s.items() if k != "genre_values"},
    "schema one age short": lambda s: s | {"age_values": s["age_values"][:-1]},
    "schema string ages": lambda s: s | {"age_values": [str(a) for a in s["age_values"]]},
    "schema list": lambda s: [s],
}

# Each defect of _bad_cache and a part of the message that refuses it; the
# fixture cache has 60 users, 732 ratings, m = 1682 and d = D_100K.
D_100K = 60
BAD_CACHE_MESSAGES = {
    "directory": "Is a directory",
    "truncated": "File is not a zip file",
    "version 1": "header version 1 is not the supported version 3; re-run prepare",
    "version 2": "header version 2 is not the supported version 3; re-run prepare",
    "max_rating 10": "header max_rating 10 is not the rating ceiling 5",
    "schema without genre_values": "schema has no 'genre_values'",
    "schema one age short": "schema age_values, gender_values, occupation_values and "
                            f"genre_values hold {D_100K - 1} slots, not the tfidf width {D_100K}",
    "schema string ages": "schema age_values ['",
    "schema list": "schema is not a json object",
    "m x": "header m 'x' is not an integer >= 1",
    "m 1682.5": "header m 1682.5 is not an integer >= 1",
    "d null": "header d None is not an integer >= 1",
    "dataset list": "header dataset [1] is not a string",
    "dataset x": "header dataset 'x' is not one of ['ml100k', 'ml1m']",
    "dataset ml1m": "header m 1682 is not the ml1m item count 3952",
    "m 3000": "header m 3000 is not the ml100k item count 1682",
    "list header": "header is not a json object",
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


@pytest.mark.parametrize("command", [
    ["eval", "--baseline", "itempop"], ["train", *FAST],
    ["eval", "--baseline", "itempop", "--leakage-free-cold"],
], ids=["eval", "train", "eval-leakage-free-cold"])
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
    assert "error: --cold-fraction must be in [0, 1), got 1.0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, config, message", [
    (["train", "--generator-hidden", "8,0,8"], "",
     "generator_hidden: each hidden width must be >= 1, got [8, 0, 8]"),
    (["train", "--generator-hidden", "8,-3"], "",
     "generator_hidden: each hidden width must be >= 1, got [8, -3]"),
    (["ablate", "--discriminator-hidden", "0"], "",
     "discriminator_hidden: each hidden width must be >= 1, got [0]"),
    (["train"], "dropout = 1.5\n", "dropout must be in [0, 1), got 1.5"),
    (["train"], "validation_fraction = 1\n", "validation_fraction must be in [0, 1)"),
    (["train"], "validation_fraction = 0.99\n",
     "validation_fraction 0.99 holds out all 48 warm users, so none is left to train on"),
    (["train", "--cold-fraction", "0.999"], "",
     "--cold-fraction 0.999 draws all 60 users cold, so no warm user is left to learn from"),
    (["sweep-beta", "--cold-fraction", "0.999"], "",
     "--cold-fraction 0.999 draws all 60 users cold, so no warm user is left to learn from"),
    (["ablate", "--cold-fraction", "0.999"], "",
     "--cold-fraction 0.999 draws all 60 users cold, so no warm user is left to learn from"),
    (["train", "--n-e", "-3"], "", "n_e must be >= 0, got -3"),
    (["train", "--pretrain-epochs", "-2"], "", "pretrain_epochs must be >= 0, got -2"),
    (["train", "--seed", "-1"], "", "seed must be >= 0, got -1"),
    (["sweep-beta"], "n_e = -1\n", "n_e must be >= 0, got -1"),
    (["train", "--split-seed", "-1"], "", "--split-seed must be >= 0, got -1"),
    (["train", "--generator-hidden", ""], "",
     "--generator-hidden: expected comma-separated integers, got ''"),
    (["train", "--seed", "x"], "", "--seed: expected int, got 'x'"),
    (["train", "--batch-size", "1.5"], "", "--batch-size: expected int, got '1.5'"),
    (["train"], "sparsity = off\n", ":1: unknown config key 'sparsity'"),
    (["train"], "nonsaturating = on\n", ":1: unknown config key 'nonsaturating'"),
    (["ablate"], "d_phase_updates_g = off\n", ":1: unknown config key 'd_phase_updates_g'"),
    (["train"], "n_d = 2\n", ":1: unknown config key 'n_d'"),
    (["train"], "n_g = 2\n", ":1: unknown config key 'n_g'"),
    (["train"], "# S1\nbeta 0.1\n", ":2: expected 'key = value'"),
    (["train", "--cold-fraction", "-1e-3"], "", "--cold-fraction must be in [0, 1), got -0.001"),
    (["train", "--gan-loss", "x"], "", "gan_loss must be lsq or bce, got 'x'"),
    (["sweep-beta"], "gan_loss = x\n", "gan_loss must be lsq or bce, got 'x'"),
    (["sweep-beta", "--max-rounds", "0"], "",
     "max_rounds 0 trains no adversarial round, so every beta would score the same "
     "pretrained generator"),
], ids=["zero-width", "negative-width", "ablate-zero-width", "dropout",
        "validation-fraction-one", "validation-fraction-takes-all", "no-warm-user",
        "sweep-beta-no-warm-user", "ablate-no-warm-user",
        "negative-n-e", "negative-pretrain-epochs", "negative-seed", "sweep-beta-negative-n-e",
        "negative-split-seed", "empty-width-list", "seed-letter", "batch-size-float",
        "sparsity-key", "nonsaturating-key", "d-phase-updates-g-key", "n-d-key", "n-g-key",
        "line-without-equals",
        "cold-fraction-exponent",
        "gan-loss-flag", "gan-loss-key", "sweep-beta-max-rounds-zero"])
def test_train_refusals_leave_no_out_dir(argv, config, message, tmp_path, prepared, capsys):
    cfg = tmp_path / "train.conf"
    cfg.write_text(config)
    rc = main([argv[0], *FAST, *argv[1:], "--config", str(cfg),
               "--cache", str(prepared / "ml100k.npz"), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert not (tmp_path / "out").exists()


# The values a fuzzed training setting draws from, by the kind `cli._coerce`
# reads its TrainConfig field as: good ones, refused ones, and ones that
# start with `-`.  Accepted ints stay at most 2, so a run is at most 2
# rounds of at most 2 pretraining epochs; widths stay desk widths.
SETTING_VALUES = {
    "int": ["0", "1", "2", "-1", "-x", "x", "1.5", ""],
    "float": ["0", "1e-3", "0.1", "0.5", "0.99", "1", "-1e-3", "-x", "x", "nan", "inf",
              "-inf", ""],
    "str": ["lsq", "bce", "LSQ", "x", "-x", ""],
    "int | None": ["none", "None", "0", "1", "-1", "-none", "x"],
    "list[int] | None": ["8", "4,8", "8,0", "-8", "8,-1", "", "8,x", "8,"],
}
# The desk settings a fuzzed run starts from.
DESK_SETTINGS = {"max_rounds": "2", "eval_every": "1", "pretrain_epochs": "1",
                 "batch_size": "16", "learning_rate": "1e-3", "seed": "3",
                 "generator_hidden": "8", "discriminator_hidden": "8"}


@settings(max_examples=50, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_train_of_fuzzed_flags_and_config_keys_exits_0_or_1(prepared, data):
    """`train` with up to three TrainConfig settings drawn over the desk
    ones, each given as a flag (where it has one) or as a config key,
    exits 0 or 1.  A refusal names a setting it was given, as a key or as
    a flag, and makes no out-dir; an accepted run writes the same
    curve.csv twice."""
    fields = {f.name: f.type for f in dataclasses.fields(T.TrainConfig)}
    values = dict(DESK_SETTINGS)
    for name in data.draw(st.lists(st.sampled_from(sorted(fields)), max_size=3, unique=True)):
        values[name] = data.draw(st.sampled_from(SETTING_VALUES[fields[name]]))
    as_key = {name for name in values
              if name not in TRAIN_FLAGS or data.draw(st.booleans())}
    flags = [arg for name in sorted(set(values) - as_key)
             for arg in ("--" + name.replace("_", "-"), values[name])]
    # The CLI runs in numpy's default error state, which ignores underflow:
    # a learning rate near 1 saturates G's sigmoid, and the products of its
    # tiny outputs and gradients underflow in the losses, backward and Adam.
    with tempfile.TemporaryDirectory() as tmp, np.errstate(under="ignore"):
        cfg, outs = Path(tmp) / "train.conf", [Path(tmp) / "out1", Path(tmp) / "out2"]
        cfg.write_text("".join(f"{name} = {values[name]}\n" for name in sorted(as_key)))
        argv = ["train", "--cache", prepared / "ml100k.npz", "--config", cfg, *flags,
                "--out-dir"]
        rc, err = run_cli([*argv, outs[0]])
        assert rc in (0, 1), err
        if rc == 1:
            assert err.startswith("error: "), err
            assert any(name in err or "--" + name.replace("_", "-") in err
                       for name in values), err
            assert not outs[0].exists()
            return
        assert run_cli([*argv, outs[1]]) == (0, "")
        assert (outs[0] / "curve.csv").read_bytes() == (outs[1] / "curve.csv").read_bytes()


# The values a fuzzed eval or sweep-beta flag draws from: good ones, refused
# ones, and ones at the edges of each flag's range.  The split flags' values
# all parse as argparse's int or float, so every refusal is the CLI's own.
EVAL_FLAG_VALUES = {
    "--n": ["5", "1,20", "1682", "5,1682,2000", "5,,20", "0", "-0", "0,-0", "-5", "5,5",
            str(10 ** 12), "1e400", "x", ""],
    "--split-seed": ["0", "3", "-0", "-1", str(10 ** 12)],
    "--cold-fraction": ["0", "-0", "0.2", "0.5", "0.95", "0.999", "1", "1.5", "-0.1", "nan",
                        "1e400"],
    "--grid": ["0.1", "0,1", "1,0.01", "0.1,0.1", "0,-0", "-0.1", "5,,20", "nan", "1e400",
               "x", ""],
}
# Each fuzzed command's flags beside the split's, and the file a rerun must
# write byte for byte.
FUZZED_COMMANDS = {
    "eval-itempop": (["--n", "--graded", "--leakage-free-cold"], "metrics.itempop.csv"),
    "eval-model": (["--n", "--graded", "--leakage-free-cold"], "metrics.model.csv"),
    "sweep-beta": (["--grid"], "sweep.csv"),
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_eval_and_sweep_beta_of_fuzzed_flags_exit_0_or_1(prepared, trained, data):
    """`eval` (ItemPop or a checkpoint) and `sweep-beta` with some of their
    flags drawn exit 0 or 1.  A refusal names a flag it was given and
    makes no out-dir; an accepted run writes the same metrics CSV or
    sweep.csv twice."""
    command = data.draw(st.sampled_from(sorted(FUZZED_COMMANDS)))
    flags, output = FUZZED_COMMANDS[command]
    drawn = data.draw(st.lists(st.sampled_from(sorted(
        [*flags, "--split-seed", "--cold-fraction"])), max_size=3, unique=True))
    argv = {"eval-itempop": ["eval", "--baseline", "itempop"],
            "eval-model": ["eval", "--checkpoint", trained / "checkpoint.npz"],
            "sweep-beta": ["sweep-beta", *FAST]}[command]
    argv += ["--cache", prepared / "ml100k.npz"]
    for flag in drawn:
        argv += [flag] if flag in ("--graded", "--leakage-free-cold") else [
            flag, data.draw(st.sampled_from(EVAL_FLAG_VALUES[flag]))]
    with tempfile.TemporaryDirectory() as tmp, np.errstate(under="ignore"):
        outs = [Path(tmp) / "out1", Path(tmp) / "out2"]
        rc, err = run_cli([*argv, "--out-dir", outs[0]])
        assert rc in (0, 1), err
        if rc == 1:
            assert err.startswith("error: "), err
            assert any(flag in err for flag in drawn), err
            assert not outs[0].exists()
            return
        assert run_cli([*argv, "--out-dir", outs[1]]) == (0, "")
        assert (outs[0] / output).read_bytes() == (outs[1] / output).read_bytes()


def test_eval_refuses_negative_split_seed_before_out_dir(tmp_path, prepared, capsys):
    rc = main(["eval", "--baseline", "itempop", "--split-seed", "-1",
               "--cache", str(prepared / "ml100k.npz"), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == "error: --split-seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


def test_eval_itempop_refuses_a_split_with_no_warm_user(tmp_path, prepared, capsys):
    rc = main(["eval", "--baseline", "itempop", "--cold-fraction", "0.999",
               "--cache", str(prepared / "ml100k.npz"), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == ("error: --cold-fraction 0.999 draws all 60 users cold, "
                                       "so no warm user is left to learn from\n")
    assert not (tmp_path / "out").exists()


def test_eval_checkpoint_accepts_a_split_with_no_warm_user(tmp_path, prepared, trained):
    """A model scores cold users only, so a checkpoint whose split drew
    every user cold is scored on all of them."""
    nets, meta = NN.load_checkpoint(trained / "checkpoint.npz")
    NN.save_checkpoint(tmp_path / "all-cold.npz", nets, meta | {"cold_fraction": 0.999})
    rc = main(["eval", "--checkpoint", str(tmp_path / "all-cold.npz"),
               "--cache", str(prepared / "ml100k.npz"), "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "metrics.model.csv").read_text().splitlines()
    assert len(lines) == 1 + 60 + 1     # the header, every user, the mean


@pytest.mark.parametrize("label", ["model", "itempop"])
def test_eval_at_a_cutoff_above_m_matches_brute_force(label, tmp_path, prepared, trained):
    """A cutoff far above m costs no more than m: eval exits 0, and P/N/M
    at it are a walk of each cold user's whole ranking."""
    n = 10 ** 12
    source = {"model": ["--checkpoint", str(trained / "checkpoint.npz")],
              "itempop": ["--baseline", "itempop"]}[label]
    out = tmp_path / "out"
    rc = main(["eval", *source, "--n", f"5,{n}", "--cache", str(prepared / "ml100k.npz"),
               "--out-dir", str(out)])
    assert rc == 0
    seed = json.loads((out / "manifest.json").read_text())["args"]["split_seed"]
    cache = D.load_cache(prepared / "ml100k.npz")
    cold_ids, _, y_warm, x_cold, y_cold = P.split_matrices(cache, 0.2, seed)
    if label == "model":
        scores = M.generator_forward(NN.load_checkpoint(trained / "checkpoint.npz")[0]["generator"],
                                     x_cold)
    else:
        scores = np.broadcast_to(np.count_nonzero(y_warm.toarray(), axis=0), (len(cold_ids), 1682))
    got = {row["user"]: row for row in csv.DictReader(
        (out / f"metrics.{label}.csv").read_text().splitlines())}
    for user, row, truth in zip(cold_ids, scores, y_cold.toarray()):
        ranked = np.argsort(-row, kind="stable") + 1
        relevant = set((np.flatnonzero(truth) + 1).tolist())
        want = {"P": brute_precision(ranked, relevant, n), "N": brute_ndcg(ranked, relevant, n),
                "M": brute_mrr(ranked, relevant, n)}
        for metric, value in want.items():
            assert float(got[str(user)][f"{metric}@{n}"]) == pytest.approx(value, rel=1e-9)


@pytest.mark.parametrize("command", ["eval-itempop", "eval-model", "ablate"])
def test_empty_cold_set_refused_before_any_work(command, tmp_path, prepared, trained, capsys,
                                                monkeypatch):
    monkeypatch.setattr(T.Trainer, "pretrain_generator",
                        lambda *a, **k: pytest.fail("training started"))
    # A checkpoint refuses another cold fraction, so eval-model scores one
    # trained with the fraction it is given.
    nets, meta = NN.load_checkpoint(trained / "checkpoint.npz")
    NN.save_checkpoint(tmp_path / "cold0.npz", nets, meta | {"cold_fraction": 0.0})
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


def test_minus_zero_reads_as_zero(tmp_path, prepared, capsys):
    """A float flag or config value of -0 is 0: `train --beta -0` writes
    `--beta 0`'s files, a sweep-beta grid names no curve or beta `-0`, and
    `--cold-fraction -0` is recorded as 0.0."""
    cache = ["--cache", str(prepared / "ml100k.npz")]
    for beta in ("0", "-0"):
        assert main(["train", *cache, "--out-dir", str(tmp_path / beta), *FAST,
                     "--beta", beta]) == 0
    for name in ("curve.csv", "checkpoint.npz", "checkpoint.best.npz"):
        assert (tmp_path / "-0" / name).read_bytes() == (tmp_path / "0" / name).read_bytes()

    sweep = tmp_path / "sweep"
    capsys.readouterr()
    assert main(["sweep-beta", *cache, "--out-dir", str(sweep), "--grid", "-0,1", *FAST]) == 0
    assert re.search(r"recommended beta: (\S+) ", capsys.readouterr().out)[1] in ("0", "1")
    assert sorted(p.name for p in sweep.glob("curve.*")) == ["curve.beta0.csv", "curve.beta1.csv"]
    rows = (sweep / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "1"]
    assert main(["sweep-beta", *cache, "--out-dir", str(tmp_path / "twice"), "--grid", "0,-0",
                 *FAST]) == 1
    assert "error: --grid: beta 0 is given more than once in '0,-0'" in capsys.readouterr().err

    run = tmp_path / "cold"
    assert main(["train", *cache, "--out-dir", str(run), *FAST, "--cold-fraction", "-0"]) == 0
    args = json.loads((run / "manifest.json").read_text())["args"]
    meta = NN.load_checkpoint(run / "checkpoint.npz")[1]
    assert repr(args["cold_fraction"]) == repr(meta["cold_fraction"]) == "0.0"
    # The reader keeps argparse's name for a value that is no float.
    with pytest.raises(SystemExit):
        main(["train", "--cold-fraction", "abc", "--out-dir", str(tmp_path / "bad")])
    assert "argument --cold-fraction: invalid float value: 'abc'" in capsys.readouterr().err


def test_cache_root_needs_dataset(tmp_path, prepared, capsys, monkeypatch):
    monkeypatch.setenv("SRLGAN_CACHE_ROOT", str(prepared))
    rc = main(["eval", "--baseline", "itempop", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert "error: no --cache given: --dataset names the cache under SRLGAN_CACHE_ROOT" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_no_cache_needs_cache_root(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SRLGAN_CACHE_ROOT", raising=False)
    rc = main(["eval", "--baseline", "itempop", "--dataset", "ml100k",
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == "error: no --cache given and SRLGAN_CACHE_ROOT is unset\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "eval-model", "eval-itempop", "sweep-beta",
                                     "ablate"])
def test_commands_let_go_of_the_cache_before_training_or_scoring(command, tmp_path, prepared,
                                                                 trained, monkeypatch):
    """The cache a command reads is freed before its first training step
    or scoring pass, and of the split (cold ids, x_warm, y_warm, x_cold,
    y_cold) only the parts the command reads are held through them."""
    caches, parts, seen = [], [], []
    load_cache, split_matrices = D.load_cache, P.split_matrices

    def spy_load_cache(path):
        cache = load_cache(path)
        caches.append(weakref.ref(cache))
        return cache

    def spy_split_matrices(*args, **kwargs):
        split = split_matrices(*args, **kwargs)
        parts.extend(map(weakref.ref, split))
        return split

    held = {"train": [], "eval-model": [0, 3, 4], "eval-itempop": [0, 4],
            "sweep-beta": [], "ablate": [0, 1, 2, 3, 4]}[command]

    def check_when_called(owner, name):
        work = getattr(owner, name)

        def checked(*args, **kwargs):
            # What is alive when the work starts: the cache, and which parts.
            seen.append((name, [ref() is not None for ref in caches],
                         [k for k, ref in enumerate(parts) if ref() is not None]))
            return work(*args, **kwargs)
        monkeypatch.setattr(owner, name, checked)

    monkeypatch.setattr(D, "load_cache", spy_load_cache)
    monkeypatch.setattr(P, "split_matrices", spy_split_matrices)
    for owner, name in ((T.Trainer, "pretrain_generator"), (M, "generator_forward"),
                        (E, "evaluate_report")):
        check_when_called(owner, name)
    argv = {"train": ["train", *FAST],
            "eval-model": ["eval", "--checkpoint", str(trained / "checkpoint.npz")],
            "eval-itempop": ["eval", "--baseline", "itempop"],
            "sweep-beta": ["sweep-beta", *FAST, "--grid", "0.1"],
            "ablate": ["ablate", *FAST]}[command]
    assert main([*argv, "--cache", str(prepared / "ml100k.npz"),
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert seen and all(alive == [False] and kept == held for _, alive, kept in seen), seen


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
    (["ablate", *FAST, "--discriminator-hidden", ""],
     "--discriminator-hidden: expected comma-separated integers, got ''"),
], ids=["generator-hidden", "discriminator-hidden", "eval-n-letter", "eval-n-zero", "ablate-n-empty",
        "ablate-discriminator-hidden-empty"])
def test_bad_integer_list_flags_exit_1(tmp_path, prepared, capsys, argv, message):
    rc = main([*argv, "--cache", str(prepared / "ml100k.npz"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not list((tmp_path / "out").glob("metrics.*"))


@pytest.mark.parametrize("argv, message", [
    (["eval", "--checkpoint", "unused.npz", "--n", "5,0"], "--n: each cutoff n must be >= 1"),
    (["ablate", "--n", "0", *FAST], "--n: each cutoff n must be >= 1"),
    (["eval", "--baseline", "itempop", "--n", "5,20,05"],
     "--n: cutoff 5 is given more than once in '5,20,05'"),
    (["ablate", "--n", "5,5", *FAST], "--n: cutoff 5 is given more than once in '5,5'"),
], ids=["eval", "ablate", "eval-repeated", "ablate-repeated"])
def test_bad_cutoffs_refused_before_any_work(tmp_path, prepared, capsys, monkeypatch, argv,
                                             message):
    def no_work(*args, **kwargs):
        pytest.fail("work started")

    for owner, name in ((D, "load_cache"), (NN, "load_checkpoint"),
                        (T.Trainer, "pretrain_generator")):
        monkeypatch.setattr(owner, name, no_work)
    rc = main([*argv, "--cache", str(prepared / "ml100k.npz"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
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
    (["train", "--beta", "-inf"], "beta must be finite, got -inf"),
    (["train", "--beta", "-1e-3"], "beta must be >= 0"),
    (["ablate", "--learning-rate", "-inf"], "learning_rate must be finite, got -inf"),
    (["train", "--beta", "-x"], "--beta: expected float, got '-x'"),
    (["sweep-beta", "--beta", "nan"], "beta must be finite, got nan"),
    (["sweep-beta", "--grid", "0.1,x"], "--grid: expected comma-separated numbers, got '0.1,x'"),
    (["sweep-beta", "--grid", "0.1,-1"], "--grid: each beta must be finite and >= 0, got '0.1,-1'"),
    (["sweep-beta", "--grid", "nan"], "--grid: each beta must be finite and >= 0, got 'nan'"),
    (["sweep-beta", "--grid", "0,inf"], "--grid: each beta must be finite and >= 0, got '0,inf'"),
    (["sweep-beta", "--grid", "0.1,0.10"], "--grid: beta 0.1 is given more than once in '0.1,0.10'"),
    (["sweep-beta", "--grid", "1,0,0e0,1"], "--grid: beta 0 is given more than once in '1,0,0e0,1'"),
], ids=["lr-nan", "lr-inf", "beta-minus-inf", "beta-spaced-minus-inf", "beta-exponent",
        "ablate-lr-minus-inf", "beta-dash-letter", "sweep-beta-nan", "grid-letter",
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
    _, x_warm, y_warm, _, _ = P.split_matrices(cache, 0.2, 3)
    cut = T.validation_cut(x_warm, y_warm, FAST_CONFIG)
    best, _, _ = T.cross_validate_beta(cut, [0.1, 1], FAST_CONFIG)
    assert recommended[0] == best

    manifest = json.loads((out / "manifest.json").read_text())
    args = manifest["args"]
    assert (args["cold_fraction"], args["split_seed"]) == (0.2, 3)
    assert "leakage_free_cold" not in args
    assert manifest["train_config"] == dataclasses.asdict(FAST_CONFIG)


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


def test_sweep_beta_refuses_a_grid_beta_before_any_training(tmp_path, prepared, capsys,
                                                           monkeypatch):
    """Every beta of the grid is checked against the config before the
    first fit: beta 0 would train, then 0.1 be refused by the BCE mode."""
    monkeypatch.setattr(T, "Trainer", lambda *a, **k: pytest.fail("Trainer built"))
    rc = main(["sweep-beta", *FAST, "--gan-loss", "bce", "--beta", "0", "--grid", "0,0.1",
               "--cache", str(prepared / "ml100k.npz"), "--out-dir", str(tmp_path / "sweep")])
    assert rc == 1
    assert "error: gan_loss bce (the S1 ablation mode) requires beta=0" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


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
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["args"]["cold_fraction"], manifest["args"]["split_seed"]) == (0.2, 3)
    assert manifest["train_config"] == dataclasses.asdict(FAST_CONFIG)


def test_readme_mode_flags_train_what_ablate_runs(tmp_path, prepared):
    """README's flags for S1, S2 and S3, trained without a validation slice
    as `ablate` trains each mode, score the cold users as `ablate` does:
    `eval`'s metrics CSV is `ablate`'s CSV of the mode, line for line, the
    user column holding the same cold user ids."""
    cache = str(prepared / "ml100k.npz")
    assert main(["ablate", "--cache", cache, "--out-dir", str(tmp_path / "abl"), *FAST]) == 0
    cfg = tmp_path / "train.conf"
    cfg.write_text("validation_fraction = 0\n")
    modes = {"S1": ["--gan-loss", "bce", "--beta", "0"], "S2": ["--beta", "0"], "S3": []}
    for mode, flags in modes.items():
        run = tmp_path / mode
        assert main(["train", "--cache", cache, "--out-dir", str(run), "--config", str(cfg),
                     *FAST, *flags]) == 0
        assert main(["eval", "--checkpoint", str(run / "checkpoint.npz"), "--cache", cache,
                     "--out-dir", str(run / "eval")]) == 0
        got, want = (path.read_text().splitlines()
                     for path in (run / "eval" / "metrics.model.csv",
                                  tmp_path / "abl" / f"ablation.{mode}.csv"))
        assert got == want, mode


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


def test_plot_of_a_run_without_validation_writes_no_nan(tmp_path, prepared):
    # With no validation row, every p5 and n5 of the curve is NaN.
    cfg = tmp_path / "train.conf"
    cfg.write_text("validation_fraction = 0\n")
    assert main(["train", "--cache", str(prepared / "ml100k.npz"), "--out-dir",
                 str(tmp_path / "run"), "--config", str(cfg), *FAST]) == 0
    assert "nan" in (tmp_path / "run" / "curve.csv").read_text()
    out = tmp_path / "plots"
    assert main(["plot", "--out-dir", str(out), str(tmp_path / "run" / "curve.csv")]) == 0
    for column, lines in (("p5", 0), ("n5", 0), ("loss_sr", 1)):
        svg = (out / f"plot.{column}.svg").read_text()
        assert "nan" not in svg and svg.count("<polyline") == lines, column
    rows = list(csv.DictReader(io.StringIO((tmp_path / "run" / "curve.csv").read_text())))
    assert rows and all(row["collapse_flag"] in ("0", "1") for row in rows)


def test_plot_of_a_one_row_curve_writes_one_finite_point(tmp_path, trained):
    lines = (trained / "curve.csv").read_text().splitlines()
    curve = tmp_path / "one.csv"
    curve.write_text("\n".join(lines[:2]) + "\n")
    out = tmp_path / "plots"
    assert main(["plot", "--out-dir", str(out), str(curve)]) == 0
    for column in ("p5", "n5", "loss_sr"):
        svg = (out / f"plot.{column}.svg").read_text()
        points = re.findall(r'points="([^"]*)"', svg)
        assert len(points) == 1 and len(points[0].split()) == 1, column
        assert all(np.isfinite(float(v)) for v in points[0].split(",")), column


def test_line_chart_leaves_non_finite_points_out():
    nan, inf = float("nan"), float("inf")
    charts = [svgplot.line_chart({"a": (xs, ys), "b": ([0, 10], [nan, inf])}, "t", "x", "y")
              for xs, ys in (([0, 10, 20], [nan, 0.2, 0.4]), ([10, 20, 0], [0.2, 0.4, nan]))]
    assert charts[0] == charts[1]
    assert "nan" not in charts[0] and "inf" not in charts[0]
    assert charts[0].count("<polyline") == 1
    for label in (">0.2<", ">0.4<", ">10<", ">20<"):     # the finite points' range
        assert label in charts[0]


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


def test_runtime_error_exits_2_before_out_dir(tmp_path, prepared, capsys):
    """A numeric failure exits 2.  The message depends on where it is met
    (this suite makes numpy raise on overflow), so only its prefix is
    checked."""
    rc = main(["train", *FAST, "--learning-rate", "1e300",
               "--cache", str(prepared / "ml100k.npz"), "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("runtime error: ")
    assert not (tmp_path / "out").exists()


def test_key_error_exits_2(tmp_path, prepared, capsys, monkeypatch):
    """Bad input is refused with ValueError or FileNotFoundError, so a
    KeyError is a bug, and exits 2."""
    def lookup(*args, **kwargs):
        return {}["missing"]

    monkeypatch.setattr(P, "split_matrices", lookup)
    rc = main(["train", *FAST, "--cache", str(prepared / "ml100k.npz"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "runtime error: 'missing'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, code", [
    (["train", "--split-seed", "x", "--out-dir", "unused"], 1),
    (["eval", "--cold-fraction", "abc", "--out-dir", "unused"], 1),
    (["train", "--bogus", "--out-dir", "unused"], 1),
    (["train", "--sparsity", "off", "--out-dir", "unused"], 1),
    (["train", "--n-d", "2", "--out-dir", "unused"], 1),
    (["sweep-beta", "--n-g", "2", "--out-dir", "unused"], 1),
    (["train", "--beta", "--seed", "3", "--out-dir", "unused"], 1),
    (["train", "--cache", "unused.npz"], 1),
    (["sweep-beta", "--leakage-free-cold", "--out-dir", "unused"], 1),
    ([], 1),
    (["--help"], 0),
    (["eval", "--help"], 0),
    (["train", "--help"], 0),
], ids=["bad-int", "bad-float", "unknown-flag", "removed-sparsity-flag", "removed-n-d-flag",
        "removed-n-g-flag", "option-for-value",
        "missing-out-dir", "sweep-leakage-free-cold", "no-command", "help", "eval-help",
        "train-help"])
def test_usage_exit_codes(tmp_path, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == code
    if code:
        assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "unused").exists()


@pytest.mark.parametrize("case", ["train-config", "plot-curve", "prepare-u-item",
                                  "prepare-u-occupation"])
def test_input_that_is_a_directory_exits_1_naming_it(case, tmp_path, prepared, synth100k_dir,
                                                     capsys):
    raw = tmp_path / "raw"
    shutil.copytree(synth100k_dir, raw)
    out = tmp_path / "out"
    if case.startswith("prepare"):
        bad = raw / case.removeprefix("prepare-").replace("-", ".")
        bad.unlink()
        bad.mkdir()
        argv = ["prepare", "--dataset", "ml100k", "--raw-dir", str(raw)]
    else:
        bad = tmp_path / "a-directory"
        bad.mkdir()
        argv = {"train-config": ["train", *FAST, "--config", str(bad),
                                 "--cache", str(prepared / "ml100k.npz")],
                "plot-curve": ["plot", str(bad)]}[case]
    assert main([*argv, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: cannot read: Is a directory\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "plot"])
def test_non_utf8_config_or_curve_exits_1_naming_it(command, tmp_path, prepared, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("seed = 3  # caf\u00e9\n".encode("latin-1"))
    argv = {"train": ["train", *FAST, "--config", str(bad),
                      "--cache", str(prepared / "ml100k.npz")],
            "plot": ["plot", str(bad)]}[command]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: cannot read: 'utf-8' codec can't decode"), err
    assert not (tmp_path / "out").exists()
