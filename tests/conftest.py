import os
from pathlib import Path

import numpy as np
import pytest

from synth import write_ml100k_like, write_ml1m_like

# A floating-point overflow, division by zero, invalid operation or
# underflow fails the test that meets it, instead of passing as an inf or a
# NaN.  Code that expects one says so with np.errstate.
np.seterr(all="raise")

# Real MovieLens raw data is looked up under $SRLGAN_DATA_ROOT (default
# ./data) in ml-100k/ and ml-1m/ subdirectories.  Tests that need the real
# datasets skip when they are absent.
DATA_ROOT = Path(os.environ.get("SRLGAN_DATA_ROOT", Path(__file__).parents[1] / "data"))
ML100K_DIR = DATA_ROOT / "ml-100k"
ML1M_DIR = DATA_ROOT / "ml-1m"


def require_ml100k():
    if not (ML100K_DIR / "u.data").exists():
        pytest.skip(f"real ML100K raw data not present at {ML100K_DIR} "
                    "(set SRLGAN_DATA_ROOT)")
    return ML100K_DIR


def require_ml1m():
    if not (ML1M_DIR / "ratings.dat").exists():
        pytest.skip(f"real ML1M raw data not present at {ML1M_DIR} "
                    "(set SRLGAN_DATA_ROOT)")
    return ML1M_DIR


@pytest.fixture(scope="session")
def synth100k_dir(tmp_path_factory):
    return write_ml100k_like(tmp_path_factory.mktemp("synth100k"))


@pytest.fixture(scope="session")
def synth1m_dir(tmp_path_factory):
    return write_ml1m_like(tmp_path_factory.mktemp("synth1m"))


@pytest.fixture(scope="session")
def synth_cache(synth100k_dir):
    from srlgan.pipeline import prepare_dataset

    cache, _ = prepare_dataset(synth100k_dir, "ml100k")
    return cache


@pytest.fixture(scope="session")
def raw_counts():
    """counts(raw_dir, cache): `features.attribute_counts` over the parsed raw
    files of `raw_dir`, one row per cache user (the cache keeps only tfidf)."""
    from srlgan import data as D
    from srlgan import features as F

    def counts(raw_dir, cache):
        names = D.LAYOUTS[cache.dataset]["files"]
        ratings = D.parse_ratings(raw_dir / names["ratings"], cache.dataset)
        occupations = (D.parse_occupations(raw_dir / names["occupations"])
                       if "occupations" in names else ())
        users = D.parse_users(raw_dir / names["users"], cache.dataset, occupations)
        item_genres = D.parse_item_genres(raw_dir / names["items"], cache.dataset)
        schema = F.AttributeSchema.from_json(cache.schema_json)
        return F.attribute_counts(users, cache.user_ids, ratings, item_genres, schema)
    return counts
