"""Glue between raw MovieLens directories and the training/eval stages."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import data as D
from . import features as F


def prepare_dataset(raw_dir, dataset: str) -> tuple[D.DatasetCache, dict]:
    """Parse a raw MovieLens directory into a DatasetCache plus stats.  The
    cache has the layout's item count m, never-rated items included, so m
    matches the published dimensionality; `dataset` is a `data.LAYOUTS`
    key, which argparse's choices make it."""
    layout = D.LAYOUTS[dataset]
    files = {role: Path(raw_dir) / name for role, name in layout["files"].items()}
    m = layout["m"]

    path = files["ratings"]
    ratings = D.parse_ratings(path, dataset)
    occupations = D.parse_occupations(files["occupations"]) if "occupations" in files else ()
    users = D.parse_users(files["users"], dataset, occupations)
    item_genres = D.parse_item_genres(files["items"], dataset)
    schema = F.layout_schema(dataset, users, occupations)

    if not len(ratings):
        raise D.ParseError(f"{path}: no rating line")
    # Each rating's item lies in 1..m, and its user and item have a line in
    # their metadata files: the first rule broken is refused at its first
    # line.  Each rule reads distinct ids: the range the item column's
    # extremes, before `build_purchase_matrix`, which requires it; the users
    # the matrix's user ids; the items the rated ones.
    items = np.ascontiguousarray(ratings[:, 1])     # a strided pass costs 4x one
    if not 1 <= items.min() <= items.max() <= m:
        _refuse_first_line(path, dataset, 1, range(1, m + 1), f"outside 1..{m}")
    user_ids, purchase = D.build_purchase_matrix(ratings, m=m)
    if not users.keys() >= set(user_ids):
        _refuse_first_line(path, dataset, 0, users, f"has no entry in {files['users']}")
    if not item_genres.keys() >= set(np.flatnonzero(np.bincount(items)).tolist()):
        _refuse_first_line(path, dataset, 1, item_genres, f"has no entry in {files['items']}")

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


def _refuse_first_line(path, dataset: str, column: int, listed, message: str):
    """Raise ParseError at the first line of the ratings file `path` whose
    user (`column` 0) or item (1) id is not in `listed`."""
    lineno, row = next(line for line in D.rating_lines(path, dataset)
                       if line[1][column] not in listed)
    raise D.ParseError(f"{path}:{lineno}: {('user', 'item')[column]} id {row[column]} {message}")


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
    cold_ids = cache.user_ids[cold_rows]
    return cold_ids, x_warm, y_warm, x_cold, y_cold
