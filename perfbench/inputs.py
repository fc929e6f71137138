"""Seeded synthetic MovieLens inputs at full dataset shape.

The generator is the one in ``tests/synth.py``: users, items and their
random draws come from its helpers, in the same order.  Only the
per-rating loop and the file writers are vectorized here, because at
ML1M shape the loop makes about a million scalar numpy calls (~20 s).
The files are byte-identical to ``synth.write_ml100k_like`` /
``synth.write_ml1m_like`` for the same arguments; ``test_perfbench.py``
checks that.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import synth
from srlgan.data import ML100K_GENRES, ML1M_AGE_CODES, ML1M_GENRES

# users x items as declared for each dataset; ratings_per_user is chosen
# so the rating count lands near the real one (~100K and ~1M).
SHAPES = {
    "ml100k": {"n_users": 943, "n_items": 1682, "ratings_per_user": 106},
    "ml1m": {"n_users": 6040, "n_items": 3952, "ratings_per_user": 165},
}


def _ratings(users, items, genres, ratings_per_user, rng):
    """Vectorized ``synth._ratings``: same draws, same order, same values.

    Returns (user ids, item ids, ratings, timestamps) as int arrays.
    """
    item_weight = np.zeros((len(items), len(genres)))
    for k, (_, tags) in enumerate(items):
        item_weight[k, tags] = 1.0
    item_ids = np.asarray([iid for iid, _ in items])
    uid_parts, iid_parts, rating_parts = [], [], []
    for uid, _, _, _, pref in users:
        score = item_weight @ pref
        prob = score + 1e-3
        prob /= prob.sum()
        n = int(ratings_per_user + rng.integers(-3, 4))
        n = max(3, min(n, len(items)))
        chosen = rng.choice(len(items), size=n, replace=False, p=prob)
        affinity = score[chosen] / (pref.max() + 1e-12)
        # One normal(0, 0.5) per rating, drawn in the loop's order.
        noise = rng.normal(0, 0.5, size=n)
        # np.rint rounds half to even, like Python's round().
        rating = np.clip(np.rint(2 + 3 * affinity + noise), 1, 5)
        uid_parts.append(np.full(n, uid))
        iid_parts.append(item_ids[chosen])
        rating_parts.append(rating.astype(np.int64))
    uids = np.concatenate(uid_parts)
    timestamps = 880_000_000 + np.arange(1, uids.size + 1)
    return uids, np.concatenate(iid_parts), np.concatenate(rating_parts), timestamps


def _write_rows(path, sep, columns):
    lines = [sep.join(map(str, row)) for row in zip(*(c.tolist() for c in columns))]
    Path(path).write_text("\n".join(lines) + "\n")


def write_raw(dataset: str, out_dir, seed: int, n_users: int, n_items: int,
              ratings_per_user: int) -> int:
    """Write raw files in ``dataset``'s layout; returns the rating count."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    genres = list(ML100K_GENRES if dataset == "ml100k" else ML1M_GENRES)
    rng = np.random.default_rng(seed)
    users = synth._user_rows(n_users, genres, rng)
    items = synth._item_rows(n_items, genres, rng)
    ratings = _ratings(users, items, genres, ratings_per_user, rng)

    if dataset == "ml100k":
        _write_rows(out_dir / "u.data", "\t", ratings)
        (out_dir / "u.user").write_text("".join(
            f"{uid}|{age}|{gender}|{occupation}|00000\n"
            for uid, age, gender, occupation, _ in users))
        with open(out_dir / "u.item", "w", encoding="latin-1") as fh:
            for iid, tags in items:
                flags = ["1" if k in tags else "0" for k in range(len(ML100K_GENRES))]
                fh.write(f"{iid}|Item {iid} (1995)|01-Jan-1995||http://x|"
                         + "|".join(flags) + "\n")
        (out_dir / "u.occupation").write_text("\n".join(synth.OCCUPATIONS) + "\n")
    else:
        _write_rows(out_dir / "ratings.dat", "::", ratings)
        (out_dir / "users.dat").write_text("".join(
            f"{uid}::{gender}::{ML1M_AGE_CODES[age % len(ML1M_AGE_CODES)]}::"
            f"{synth.OCCUPATIONS.index(occupation)}::00000\n"
            for uid, age, gender, occupation, _ in users))
        with open(out_dir / "movies.dat", "w", encoding="latin-1") as fh:
            for iid, tags in items:
                fh.write(f"{iid}::Item {iid} (1995)::"
                         + "|".join(genres[k] for k in tags) + "\n")
    return int(ratings[0].size)
