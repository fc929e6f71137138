"""TF-IDF user attribute vectors from demographics and genre preferences.

Each user gets a d-dimensional nonnegative vector: one-hot demographic
slots (age, gender, occupation) followed by one genre slot per dataset
genre, counting the user's ratings of movies carrying that genre (an
integer `np.bincount` over the (user, genre) pairs of the ratings, through
an item -> genre CSR).  Counts are weighted by a smoothed inverse document
frequency computed across all users, then multiplied elementwise (no
further normalization).

`layout_schema` takes the slots from the layout's entry in `data.LAYOUTS`:
103 for ML100K (61 observed ages + 2 genders + 21 occupations + 19
genres; the occupations are the lines of u.occupation, a required file)
and 48 for ML1M (7 age codes + 2 genders + 21 occupation codes + 18
genres), held by `data.AttributeSchema`, whose json document the cache stores.
"""

from __future__ import annotations

import numpy as np

from .data import GENDERS, LAYOUTS, AttributeSchema, UserMeta


# Ratings per bincount of `attribute_counts`.  Each block's pair arrays take
# a few MiB; one bincount over every rating of an ML1M-shape input held
# about 50 MiB of them, above `prepare`'s peak until then.
PAIR_BLOCK = 131072


def layout_schema(dataset: str, users: dict[int, UserMeta],
                  occupations=()) -> AttributeSchema:
    """The schema of the `data.LAYOUTS` layout `dataset`.  Where the layout
    has no code book, the ages are the distinct ages in `users`, and the
    occupations are `occupations` (u.occupation's lines)."""
    layout = LAYOUTS[dataset]
    ages = layout["ages"]
    if ages is None:
        ages = sorted({u.age for u in users.values()})
    return AttributeSchema(dataset, tuple(ages), GENDERS,
                           layout["occupations"] or tuple(occupations), layout["genres"])


def attribute_counts(users: dict[int, UserMeta], user_ids, ratings,
                     item_genres, schema: AttributeSchema) -> np.ndarray:
    """Raw attribute counts, one row per id in `user_ids`: every user of
    the (n, 4) `ratings` array, in `build_purchase_matrix`'s increasing
    int64 array.  Demographic slots are one-hot.  A genre slot counts the
    user's ratings whose movie carries that genre: every rating counts,
    duplicates included, and a multi-genre movie counts once per carried
    genre.  The parsers refuse a value without a slot, and
    `prepare_dataset` a rated item outside 1..m or that `item_genres`
    lacks, so the genre table is indexed by item id."""
    index = schema.slot_index()
    n = len(user_ids)
    counts = np.zeros((n, schema.d), dtype=np.float64)
    demographics = np.fromiter(
        (index[slot] for user in map(users.__getitem__, user_ids) for slot in (
            f"age={user.age}", f"gender={user.gender}", f"occupation={user.occupation}")),
        np.int64, 3 * n)
    counts[np.repeat(np.arange(n), 3), demographics] = 1.0

    # The item -> genre CSR: item id i carries the genre columns
    # columns[start[i]:start[i] + carried[i]], a genre it lists twice twice.
    n_genres = len(schema.genre_values)
    column = {g: k for k, g in enumerate(schema.genre_values)}
    genres_of = [item_genres[i] if rated else () for i, rated in
                 enumerate(np.bincount(ratings[:, 1]).tolist())]
    carried = np.array([len(genres) for genres in genres_of], np.int64)
    columns = np.array([column[g] for genres in genres_of for g in genres], np.int64)
    start = np.cumsum(carried) - carried

    # One (user row, genre column) pair per genre of each rating's movie,
    # counted by one bincount per PAIR_BLOCK ratings, which bounds the pair
    # arrays; the counts are integers, so adding the blocks' is exact.
    # Rating r's pairs are consecutive, and take their columns from
    # columns[start[item of r]] on.
    genre_counts = np.zeros(n * n_genres, np.int64)
    for lo in range(0, len(ratings), PAIR_BLOCK):
        block = ratings[lo:lo + PAIR_BLOCK]
        width = carried[block[:, 1]]
        at = np.repeat(start[block[:, 1]] - np.cumsum(width) + width, width)
        at += np.arange(len(at))
        pairs = np.repeat(np.searchsorted(user_ids, block[:, 0]) * n_genres, width)
        pairs += columns[at]
        genre_counts += np.bincount(pairs, minlength=len(genre_counts))
    counts[:, [index[f"genre={g}"] for g in schema.genre_values]] = genre_counts.reshape(
        n, n_genres)
    return counts


def inverse_document_frequency(counts) -> np.ndarray:
    """Smoothed idf per slot: ln((1+N)/(1+df)) + 1, df = users with a
    nonzero count in that slot, for `attribute_counts`' (N, d) float64
    counts."""
    n_users = counts.shape[0]
    df = np.count_nonzero(counts > 0, axis=0)
    return np.log((1.0 + n_users) / (1.0 + df)) + 1.0
