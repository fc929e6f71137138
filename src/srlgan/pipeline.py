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
        raise D.ParseError(f"{files['ratings']}: {exc}") from None
    # Every rater and every rated item (1-based, from the purchase rows'
    # 0-based ids) needs a line in its metadata file.
    rated = np.flatnonzero(np.bincount(purchase.items, minlength=m)) + 1
    for what, ids, listed in (("user", user_ids, users), ("item", rated.tolist(), item_genres)):
        unlisted = [i for i in ids if i not in listed]
        if unlisted:
            raise ValueError(f"{files['ratings']}: {what} id {unlisted[0]} has no entry "
                             f"in {files[what + 's']}")

    counts = F.attribute_counts(users, user_ids, ratings, item_genres, schema)
    cache = D.DatasetCache(
        dataset=dataset,
        user_ids=user_ids,
        purchase=purchase,
        tfidf=counts * F.inverse_document_frequency(counts),
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
        schema = F.AttributeSchema.from_json(cache.schema_json)
        x_cold[:, schema.d - len(schema.genre_values):] = 0.0
    y_cold = cache.purchase.take(cold_rows)
    cold_ids = np.asarray(cache.user_ids, dtype=np.int64)[cold_rows]
    return cold_ids, x_warm, y_warm, x_cold, y_cold
