"""TF-IDF user attribute vectors from demographics and genre preferences.

Each user gets a d-dimensional nonnegative vector: one-hot demographic
slots (age, gender, occupation) followed by one genre slot per dataset
genre, counting the user's ratings of movies carrying that genre (one
`np.bincount` per genre over the ratings array).  Counts are weighted by a
smoothed inverse document frequency computed across all users, then
multiplied elementwise (no further normalization).

`layout_schema` takes the slots from the layout's entry in `data.LAYOUTS`:
103 for ML100K (61 observed ages + 2 genders + 21 occupations + 19
genres; the occupations are the lines of u.occupation, a required file)
and 48 for ML1M (7 age codes + 2 genders + 21 occupation codes + 18
genres), held by `data.AttributeSchema`, whose json document the cache stores.
"""

from __future__ import annotations

import numpy as np

from .data import GENDERS, LAYOUTS, AttributeSchema, UserMeta


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
    for k, uid in enumerate(user_ids):
        user = users[uid]
        for slot in (f"age={user.age}", f"gender={user.gender}",
                     f"occupation={user.occupation}"):
            counts[k, index[slot]] = 1.0

    row = np.searchsorted(user_ids, ratings[:, 0])
    items = ratings[:, 1]
    ratings_of_item = np.bincount(items)

    # tags[i, g]: how often the movie of item id i carries genre g.
    column = {g: k for k, g in enumerate(schema.genre_values)}
    tags = np.zeros((len(ratings_of_item), len(column)), dtype=np.float64)
    for item_id in np.flatnonzero(ratings_of_item).tolist():
        for genre in item_genres[item_id]:
            tags[item_id, column[genre]] += 1.0
    for genre, g in column.items():
        counts[:, index[f"genre={genre}"]] = np.bincount(
            row, weights=tags[items, g], minlength=n)
    return counts


def inverse_document_frequency(counts) -> np.ndarray:
    """Smoothed idf per slot: ln((1+N)/(1+df)) + 1, df = users with a
    nonzero count in that slot, for `attribute_counts`' (N, d) float64
    counts."""
    n_users = counts.shape[0]
    df = np.count_nonzero(counts > 0, axis=0)
    return np.log((1.0 + n_users) / (1.0 + df)) + 1.0
