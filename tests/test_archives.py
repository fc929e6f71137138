"""Damaged caches and checkpoints.

Every damage to an archive is either refused, with exit 1, a message naming
the file and no out-dir, or read back to the very arrays that were written,
so the command's metrics are those of the undamaged run.  An edit of one of
its json documents is refused naming the key, unless the document still
holds what the command needs.
"""

import contextlib
import io
import json
import re
import tempfile
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from srlgan import data as D
from srlgan import nn as NN
from srlgan.cli import main

DESK = ["--max-rounds", "2", "--eval-every", "1", "--pretrain-epochs", "1",
        "--batch-size", "16", "--learning-rate", "1e-3", "--seed", "3",
        "--generator-hidden", "8", "--discriminator-hidden", "8"]
VERSIONS = {"cache": 3, "checkpoint": 3}


def run(argv):
    """(exit code, stderr) of the CLI, stdout swallowed."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def good(tmp_path_factory, synth100k_dir):
    """The fixture cache and a desk-width checkpoint trained on it, and the
    metrics CSV of `eval` on the two."""
    root = tmp_path_factory.mktemp("archives")
    assert run(["prepare", "--dataset", "ml100k", "--raw-dir", synth100k_dir,
                "--out-dir", root])[0] == 0
    assert run(["train", "--cache", root / "ml100k.npz", "--out-dir", root / "train",
                *DESK])[0] == 0
    archives = {"cache": root / "ml100k.npz", "checkpoint": root / "train" / "checkpoint.npz"}
    assert eval_(archives, root / "eval")[0] == 0
    return archives, (root / "eval" / "metrics.model.csv").read_bytes()


def eval_(archives, out):
    return run(["eval", "--checkpoint", archives["checkpoint"], "--cache", archives["cache"],
                "--out-dir", out])


def members(path):
    with np.load(path, allow_pickle=False) as z:
        return {key: z[key] for key in z.files}


def retyped(arr):
    """`arr` as another dtype: float64 as float32, int64 as int32, int32 as
    int64, uint8 as uint16, text as bytes."""
    if arr.dtype.kind == "U":
        return arr.astype(np.bytes_)
    return arr.astype({"float64": np.float32, "int64": np.int32, "int32": np.int64,
                       "uint8": np.uint16}[arr.dtype.name])


def mutate(data, kind, good_path, bad):
    """Write a damaged copy of `good_path` to `bad`, drawn from `data`."""
    raw = good_path.read_bytes()
    how = data.draw(st.sampled_from(["drop", "truncate", "flip", "swap", "version"]))
    if how == "truncate":
        bad.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
        return
    if how == "flip":
        bit = data.draw(st.integers(0, 8 * len(raw) - 1))
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        bad.write_bytes(flipped)
        return
    contents = members(good_path)
    if how == "version":
        header = json.loads(str(contents["header"]))
        header["version"] = data.draw(st.sampled_from(
            [v for v in (0, 1, 2, 3, 4) if v != VERSIONS[kind]] + [str(VERSIONS[kind])]))
        contents["header"] = json.dumps(header)
    else:
        name = data.draw(st.sampled_from(sorted(contents)))
        if how == "drop":
            del contents[name]
        else:
            arr = contents[name]
            contents[name] = data.draw(st.sampled_from(
                [retyped(arr), arr[None], arr.reshape(-1)[:-1]]))
    np.savez(bad, **contents)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(["cache", "checkpoint"]), data=st.data())
def test_damaged_archive_is_refused_or_read_whole(good, kind, data):
    archives, metrics = good
    with tempfile.TemporaryDirectory() as tmp:
        bad, out = Path(tmp) / "bad.npz", Path(tmp) / "out"
        mutate(data, kind, archives[kind], bad)
        rc, err = eval_(archives | {kind: bad}, out)
        assert rc in (0, 1), err
        if rc == 1:
            assert err.startswith(f"error: {kind} {bad}: "), err
            assert not out.exists()
        else:
            assert (out / "metrics.model.csv").read_bytes() == metrics


# The json documents of the archives: the archive and member that carry
# each, the key of the document inside the member's json (None: the whole
# member), and the keys that eval reads from it.
DOCUMENTS = {
    "cache header": ("cache", "header", None, ["version", "dataset", "m", "d", "max_rating"]),
    "schema": ("cache", "schema", None,
               ["dataset", "age_values", "gender_values", "occupation_values", "genre_values"]),
    "checkpoint header": ("checkpoint", "header", None, ["version", "nets", "meta"]),
    "run metadata": ("checkpoint", "header", "meta",
                     ["schema_hash", "split_seed", "cold_fraction", "leakage_free_cold"]),
}
# The edits of a key: dropped, or its value replaced by a json value of each
# kind (a list: the value's list one item short, or the value in a list).
EDITS = ["drop", "null", "bool", "int", "float", "str", "list", "object"]
# The edits after which the document still holds what eval needs: the
# schema's dataset name is only a label (the cache header's names the
# layout whose item count m must be), and the checkpoint's split flags may
# take any value in their range, with which eval then cuts its split.
STILL_VALID = {("schema", "dataset", "str"),
               ("run metadata", "cold_fraction", "float"),
               ("run metadata", "leakage_free_cold", "bool")}


def edited(value, how):
    return {"null": None, "bool": True, "int": -1, "float": 0.5, "str": "x", "object": {},
            "list": value[:-1] if isinstance(value, list) else [value]}[how]


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(document=st.sampled_from(sorted(DOCUMENTS)), data=st.data())
def test_edited_json_document_is_refused_naming_the_key(good, document, data):
    """An archive whose json document has one key dropped, or its value
    replaced by a json value of each kind: eval (ItemPop, with or without
    --leakage-free-cold, for a cache) exits 0 when the edit is in
    STILL_VALID, and otherwise exits 1 naming the archive and the key, with
    no out-dir; never 2."""
    archives, _ = good
    kind, member, inner, keys = DOCUMENTS[document]
    key, how = data.draw(st.sampled_from(keys)), data.draw(st.sampled_from(EDITS))
    contents = members(archives[kind])
    outer = json.loads(str(contents[member]))
    doc = outer[inner] if inner else outer
    if how == "drop":
        del doc[key]
    else:
        doc[key] = edited(doc[key], how)
    contents[member] = json.dumps(outer)
    with tempfile.TemporaryDirectory() as tmp:
        bad, out = Path(tmp) / "bad.npz", Path(tmp) / "out"
        np.savez(bad, **contents)
        if kind == "cache":
            flags = ["--leakage-free-cold"] if data.draw(st.booleans()) else []
            rc, err = run(["eval", "--baseline", "itempop", *flags, "--cache", bad,
                           "--out-dir", out])
        else:
            rc, err = eval_(archives | {kind: bad}, out)
        if (document, key, how) in STILL_VALID:
            assert rc == 0, err
            return
        assert rc == 1, err
        assert err.startswith(f"error: {kind} {bad}: "), err
        assert re.search(rf"[ ']{key}[ ',]", err), err
        assert not out.exists()


def member_offset(path, member):
    """File offset of the stored or compressed bytes of `member` in the zip
    at `path`."""
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(member)
    local = path.read_bytes()[info.header_offset:info.header_offset + 30]
    name_len, extra_len = (int.from_bytes(local[k:k + 2], "little") for k in (26, 28))
    return info.header_offset + 30 + name_len + extra_len


def test_flipped_bit_in_a_deflate_stream_exits_1(good, tmp_path):
    """`prepare` writes stored members, but a cache from elsewhere may be
    deflated: it reads whole, and a damaged deflate stream exits 1."""
    archives, metrics = good
    deflated = tmp_path / "deflated.npz"
    np.savez_compressed(deflated, **members(archives["cache"]))
    assert eval_(archives | {"cache": deflated}, tmp_path / "whole")[0] == 0
    assert (tmp_path / "whole" / "metrics.model.csv").read_bytes() == metrics
    raw = bytearray(deflated.read_bytes())
    # Bits 1-2 of a deflate stream's first byte are the block type: a Huffman
    # block's 01 or 10 is one flip away from the reserved 11.
    start = member_offset(deflated, "items.npy")
    before = raw[start]
    raw[start] |= 0b110
    assert bin(before ^ raw[start]).count("1") == 1
    bad = tmp_path / "bad.npz"
    bad.write_bytes(raw)
    rc, err = eval_(archives | {"cache": bad}, tmp_path / "out")
    assert rc == 1
    assert err.startswith(f"error: cache {bad}: Error -3 while decompressing data"), err
    assert not (tmp_path / "out").exists()


def test_shortened_npy_header_is_refused(good, tmp_path):
    """A flip that shortens a .npy header by 2 bytes shifts the array 2 bytes
    early: numpy reads its full count of values without reaching the
    member's end, where zipfile checks the CRC, so the reader reads on."""
    archives, _ = good
    raw = bytearray(archives["checkpoint"].read_bytes())
    # The uint16 header length follows the 6-byte magic and the 2-byte
    # version; it is 64k - 10, so its bit 1 is set.
    start = member_offset(archives["checkpoint"], "generator/params.npy") + 8
    assert raw[start] & 0b10
    raw[start] ^= 0b10
    bad = tmp_path / "bad.npz"
    bad.write_bytes(raw)
    rc, err = eval_(archives | {"checkpoint": bad}, tmp_path / "out")
    assert rc == 1
    assert err == f"error: checkpoint {bad}: Bad CRC-32 for file 'generator/params.npy'\n"
    assert not (tmp_path / "out").exists()


def test_archive_writer_matches_np_savez_byte_for_byte(good, tmp_path):
    """`data._write_archive` writes each member's buffer itself, yet its files
    are `np.savez`'s byte for byte: the cache and the checkpoint the CLI
    wrote (their 0-d json strings included), and an archive of an empty
    array, an int32 vector and a 2-D float64 matrix."""
    archives, _ = good
    for kind, path in archives.items():
        np.savez(tmp_path / f"{kind}.npz", **members(path))
        assert path.read_bytes() == (tmp_path / f"{kind}.npz").read_bytes(), kind
    arrays = {"empty": np.zeros(0), "ids": np.arange(7, dtype=np.int32),
              "matrix": np.linspace(-1, 1, 12).reshape(3, 4)}
    header = {"version": 1, "name": "café"}
    D._write_archive(tmp_path / "ours.npz", header, **arrays)
    np.savez(tmp_path / "savez.npz", header=json.dumps(header, sort_keys=True), **arrays)
    assert (tmp_path / "ours.npz").read_bytes() == (tmp_path / "savez.npz").read_bytes()


def traced_peak(fn, *args) -> int:
    """The peak bytes traced by tracemalloc while `fn(*args)` runs, above
    what was traced before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_checkpoint_save_and_content_hash_copy_no_array(tmp_path, synth_cache):
    """A checkpoint save writes theta's own buffer and the content hash reads
    the cache's own buffers: neither allocates a tenth of the bytes it
    writes or hashes (`np.savez` and `tobytes` made a copy of each array)."""
    net = NN.MLP([50, 512, 256], np.random.default_rng(0))      # 1.26 MB
    NN.save_checkpoint(tmp_path / "warm-up.npz", {"generator": net}, {"round": 1})
    peak = traced_peak(NN.save_checkpoint, tmp_path / "ckpt.npz", {"generator": net},
                       {"round": 1})
    assert peak < net.theta.nbytes / 10, (peak, net.theta.nbytes)

    rows = synth_cache.purchase
    hashed = 8 * len(synth_cache.user_ids) + sum(
        arr.nbytes for arr in (rows.indptr, rows.items, rows.values, synth_cache.tfidf))
    D.cache_content_hash(synth_cache)
    peak = traced_peak(D.cache_content_hash, synth_cache)
    assert peak < hashed / 10, (peak, hashed)
