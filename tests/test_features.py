import hashlib
import math

import numpy as np
import pytest

from srlgan import features as F
from srlgan.data import UserMeta


@pytest.fixture
def schema():
    return F.AttributeSchema(
        dataset="toy",
        age_values=(20, 30),
        gender_values=("M", "F"),
        occupation_values=("artist", "doctor"),
        genre_values=("Action", "Comedy", "Thriller"),
    )


def test_schema_dims():
    assert F.layout_schema("ml1m", {}).d == 48
    users = {1: UserMeta(1, 25, "M", "artist")}
    s = F.layout_schema("ml100k", users, [f"occ{k}" for k in range(21)])
    # 1 observed age + 2 genders + 21 occupations + 19 genres
    assert s.d == 1 + 2 + 21 + 19


@pytest.mark.parametrize("fixture, dataset, digest", [
    ("synth100k_dir", "ml100k", "cb459de1fda8e3a9"),
    ("synth1m_dir", "ml1m", "40a264c1ce23963d"),
])
def test_prepared_schema_json_pinned(request, fixture, dataset, digest):
    """The schema text of each prepared fixture, byte for byte: its slot
    order is the column order of every tfidf row and checkpoint input."""
    from srlgan.pipeline import prepare_dataset

    cache, _ = prepare_dataset(request.getfixturevalue(fixture), dataset)
    assert hashlib.sha256(cache.schema_json.encode()).hexdigest()[:16] == digest


def test_schema_json_round_trip(schema):
    assert F.AttributeSchema.from_json(schema.to_json()) == schema


def test_schema_slot_names_unique(schema):
    names = schema.slot_names()
    assert len(names) == len(set(names)) == schema.d


def term_frequency_oracle(user, rated_item_ids, item_genres, schema):
    """One user's counts, slot by slot and rating by rating."""
    index = schema.slot_index()
    counts = np.zeros(schema.d)
    for slot in (f"age={user.age}", f"gender={user.gender}",
                 f"occupation={user.occupation}"):
        counts[index[slot]] = 1.0
    for item_id in rated_item_ids:
        for genre in item_genres[item_id]:
            counts[index[f"genre={genre}"]] += 1.0
    return counts


def ratings_of(user_id, item_ids):
    return np.array([(user_id, i, 3, 0) for i in item_ids],
                    dtype=np.int64).reshape(-1, 4)


def counts_of(user, rated_item_ids, item_genres, schema):
    """attribute_counts for a single user."""
    return F.attribute_counts({user.user_id: user}, [user.user_id],
                              ratings_of(user.user_id, rated_item_ids),
                              item_genres, schema)[0]


def random_tables(schema, seed, n_users=25, n_items=40, n_ratings=300):
    """Users, rating rows and item genres with duplicate ratings, unrated
    items, items without a genre and multi-genre items."""
    rng = np.random.default_rng(seed)
    users = {
        uid: UserMeta(uid, int(rng.choice(schema.age_values)),
                      str(rng.choice(schema.gender_values)),
                      str(rng.choice(schema.occupation_values)))
        for uid in rng.choice(1000, size=n_users, replace=False).tolist()
    }
    item_genres = {
        i: [str(g) for g in rng.choice(schema.genre_values,
                                       size=rng.integers(0, 4), replace=False)] if i % 7 else []
        for i in range(1, n_items + 1)
    }
    ratings = np.column_stack([
        rng.choice(list(users), size=n_ratings),
        rng.integers(1, n_items - 5, size=n_ratings),     # the last items stay unrated
        rng.integers(1, 6, size=n_ratings),
        rng.integers(0, 3, size=n_ratings),
    ]).astype(np.int64)
    return users, ratings, item_genres


def test_term_frequency_demographics_one_hot(schema):
    user = UserMeta(1, 20, "F", "doctor")
    counts = counts_of(user, [], {}, schema)
    idx = schema.slot_index()
    assert counts[idx["age=20"]] == 1
    assert counts[idx["gender=F"]] == 1
    assert counts[idx["occupation=doctor"]] == 1
    # no rated movies: all genre slots stay zero
    assert counts[-3:].tolist() == [0, 0, 0]
    assert counts.sum() == 3


def test_term_frequency_counts_genres(schema):
    user = UserMeta(1, 30, "M", "artist")
    genres = {10: ["Comedy"], 11: ["Comedy"], 12: ["Comedy"]}
    counts = counts_of(user, [10, 11, 12], genres, schema)
    assert counts[schema.slot_index()["genre=Comedy"]] == 3


def test_term_frequency_counts_duplicate_ratings(schema):
    user = UserMeta(1, 30, "M", "artist")
    counts = counts_of(user, [10, 10, 10], {10: ["Comedy"]}, schema)
    assert counts[schema.slot_index()["genre=Comedy"]] == 3


def test_term_frequency_multi_genre(schema):
    user = UserMeta(1, 30, "M", "artist")
    genres = {5: ["Action", "Thriller"]}
    counts = counts_of(user, [5], genres, schema)
    idx = schema.slot_index()
    assert counts[idx["genre=Action"]] == 1
    assert counts[idx["genre=Thriller"]] == 1


@pytest.mark.parametrize("seed", range(5))
def test_attribute_counts_match_per_user_oracle(schema, seed):
    users, ratings, item_genres = random_tables(schema, seed)
    ids = np.unique(ratings[:, 0]).tolist()
    counts = F.attribute_counts(users, ids, ratings, item_genres, schema)
    want = np.stack([
        term_frequency_oracle(users[uid], ratings[ratings[:, 0] == uid, 1].tolist(),
                              item_genres, schema)
        for uid in ids
    ])
    assert np.array_equal(counts, want)


def test_idf_universal_slot_is_one():
    counts = np.ones((10, 3))
    idf = F.inverse_document_frequency(counts)
    assert np.allclose(idf, 1.0)


def test_idf_absent_slot():
    counts = np.zeros((10, 1))
    idf = F.inverse_document_frequency(counts)
    assert idf[0] == pytest.approx(math.log(11) + 1)


def test_idf_scalar_value():
    # N=100 users, slot present in 9 of them
    counts = np.zeros((100, 1))
    counts[:9, 0] = 2.0
    idf = F.inverse_document_frequency(counts)
    assert idf[0] == pytest.approx(math.log(101 / 10) + 1, abs=1e-4)
    assert idf[0] == pytest.approx(3.3125, abs=1e-3)


def test_tfidf_elementwise_product(synth_cache, synth100k_dir, raw_counts):
    counts = raw_counts(synth100k_dir, synth_cache)
    assert np.array_equal(synth_cache.tfidf, counts * F.inverse_document_frequency(counts))


def test_user_permutation_invariance(schema):
    """A user's row does not depend on the order of the users or of the
    rating rows."""
    users, ratings, item_genres = random_tables(schema, 1)
    ids = np.unique(ratings[:, 0]).tolist()

    def tfidf(user_table, rating_rows):
        counts = F.attribute_counts(user_table, ids, rating_rows, item_genres, schema)
        return counts * F.inverse_document_frequency(counts)

    shuffled = {uid: users[uid] for uid in reversed(list(users))}
    order = np.random.default_rng(1).permutation(len(ratings))
    assert np.array_equal(tfidf(users, ratings), tfidf(shuffled, ratings[order]))


def test_feature_matrix_nonnegative(synth_cache):
    assert (synth_cache.tfidf >= 0).all()
    schema = F.AttributeSchema.from_json(synth_cache.schema_json)
    assert synth_cache.tfidf.shape[1] == schema.d
