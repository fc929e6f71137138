"""Metamorphic relations, end to end through `cli.main`: an input changed in
a way that should not matter gives byte-identical outputs."""

import shutil

import numpy as np
import pytest

from srlgan import data as D

from test_archives import run


@pytest.mark.parametrize("dataset, raw_fixture", [("ml100k", "synth100k_dir"),
                                                  ("ml1m", "synth1m_dir")])
def test_shuffled_raw_lines_prepare_the_same_cache(dataset, raw_fixture, request, tmp_path):
    """Every line of the ratings, users and items files in a seeded random
    order: `prepare` keys users and items by id and orders the ratings by
    (user, item, timestamp), so the cache `.npz`, its schema and its stats
    are byte-identical to the given order's.  (Two ratings of one user and
    item at one timestamp would keep their file order, so the fixture's
    having none is what makes this a relation.)"""
    raw = request.getfixturevalue(raw_fixture)
    shuffled = tmp_path / "shuffled"
    shutil.copytree(raw, shuffled)
    rng = np.random.default_rng(0)
    for role in ("ratings", "users", "items"):
        path = shuffled / D.LAYOUTS[dataset]["files"][role]
        text = path.read_bytes()
        assert text.endswith(b"\n")         # so no two lines join
        lines = text.splitlines(keepends=True)
        order = rng.permutation(len(lines))
        assert (order != np.arange(len(lines))).any()
        path.write_bytes(b"".join(lines[k] for k in order))
    for name, raw_dir in (("given", raw), ("shuffled", shuffled)):
        assert run(["prepare", "--dataset", dataset, "--raw-dir", raw_dir,
                    "--out-dir", tmp_path / name]) == (0, "")
    for suffix in (".npz", ".schema.json", ".stats.json"):
        given, moved = (tmp_path / name / f"{dataset}{suffix}" for name in ("given", "shuffled"))
        assert given.read_bytes() == moved.read_bytes(), suffix
