"""Glue between raw MovieLens directories and the training/eval stages."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import data as D
from . import features as F


def prepare_dataset(raw_dir, dataset: str) -> tuple[D.DatasetCache, dict]:
    """Parse a raw MovieLens directory into a DatasetCache plus stats.  The
    cache has the layout's item count m, never-rated items included, so m
    matches the published dimensionality."""
    if dataset not in D.LAYOUTS:
        raise ValueError(f"unknown dataset {dataset!r}")
    layout = D.LAYOUTS[dataset]
    files = {role: Path(raw_dir) / name for role, name in layout["files"].items()}
    m = layout["m"]

    ratings = D.parse_ratings(files["ratings"], dataset)
    occupations = D.parse_occupations(files["occupations"]) if "occupations" in files else ()
    users = D.parse_users(files["users"], dataset, occupations)
    item_genres = D.parse_item_genres(files["items"], dataset)
    schema = F.layout_schema(dataset, users, occupations)

    try:
        user_ids, purchase = D.build_purchase_matrix(ratings, m=m)
    except ValueError as exc:
        if len(ratings):        # an item id outside 1..m
            _refuse_line(files["ratings"], dataset, 1, lambda i: not 1 <= i <= m,
                         f"outside 1..{m}")
        raise D.ParseError(f"{files['ratings']}: {exc}") from None
    # Every rater and every rated item (1-based, from the purchase rows'
    # 0-based ids) needs a line in its metadata file.
    rated = np.flatnonzero(np.bincount(purchase.items, minlength=m)) + 1
    for column, (ids, listed) in enumerate(((user_ids, users), (rated.tolist(), item_genres))):
        if any(i not in listed for i in ids):
            _refuse_line(files["ratings"], dataset, column, lambda i: i not in listed,
                         f"has no entry in {files[('users', 'items')[column]]}")

    counts = F.attribute_counts(users, user_ids, ratings, item_genres, schema)
    cache = D.DatasetCache(
        dataset=dataset,
        user_ids=user_ids,
        purchase=purchase,
        tfidf=counts * F.inverse_document_frequency(counts),
        schema=schema,
        schema_json=schema.to_json(),
    )
    stats = {
        "dataset": dataset,
        "users": len(user_ids),
        "items": m,
        "ratings": len(ratings),
        "d": schema.d,
        "sparsity_percent": round(D.sparsity_percent(purchase), 2),
    }
    return cache, stats


def _refuse_line(path, dataset: str, column: int, bad, message: str):
    """Raise ParseError("<path>:<line>: <user|item> id <id> <message>") at
    the first line of the ratings file `path`, which is in `parse_ratings`'
    grammar, whose user (column 0) or item (1) id `bad` takes; empty lines
    count toward the line number."""
    sep = D.LAYOUTS[dataset]["sep"].encode()
    for lineno, line in enumerate(D.read_bytes(path).split(b"\n"), 1):
        if line and bad(key := int(line.split(sep)[column])):
            raise D.ParseError(f"{path}:{lineno}: {('user', 'item')[column]} id {key} {message}")


def split_matrices(cache: D.DatasetCache, cold_fraction: float, seed: int,
                   leakage_free_cold: bool = False):
    """Warm/cold rows of the seeded `data.split_rows` cut of the cache rows.

    Returns (cold_ids, x_warm, y_warm, x_cold, y_cold): the attributes as
    dense arrays, the behaviors as `data.PurchaseRows`; cold behaviors are
    the held-out ground truth for evaluation.  `leakage_free_cold` zeroes
    the cold users' genre slots, as if their genre counts were unknown
    (0 * idf = 0).
    """
    warm_rows, cold_rows = D.split_rows(len(cache.user_ids), cold_fraction, seed)
    x_warm = cache.tfidf[warm_rows]
    y_warm = cache.purchase.take(warm_rows)
    x_cold = cache.tfidf[cold_rows]
    if leakage_free_cold:
        x_cold[:, cache.schema.d - len(cache.schema.genre_values):] = 0.0
    y_cold = cache.purchase.take(cold_rows)
    cold_ids = np.asarray(cache.user_ids, dtype=np.int64)[cold_rows]
    return cold_ids, x_warm, y_warm, x_cold, y_cold
