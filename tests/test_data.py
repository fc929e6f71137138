import functools
import hashlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srlgan import data as D
from srlgan.evaluate import item_popularity
from srlgan.model import mean_purchase


def rows(*ratings):
    """(user, item, rating, timestamp) tuples as a ratings array."""
    return np.array(ratings, dtype=np.int64).reshape(-1, 4)


def latest_rating_oracle(ratings, m, max_rating=5):
    """Dict-based purchase matrix: one pass in row order, a later row
    replacing an earlier one when its timestamp is >=."""
    latest = {}
    for user, item, rating, ts in ratings.tolist():
        if not 1 <= item <= m:
            raise ValueError(f"item id {item} outside 1..{m}")
        prev = latest.get((user, item))
        if prev is None or ts >= prev[1]:
            latest[(user, item)] = (rating, ts)
    user_ids = sorted({u for u, _ in latest})
    row_of = {u: k for k, u in enumerate(user_ids)}
    matrix = np.zeros((len(user_ids), m))
    for (u, i), (rating, _) in latest.items():
        matrix[row_of[u], i - 1] = rating / max_rating
    return np.array(user_ids, dtype=np.int64), matrix


def random_ratings(seed, n=400, m=30):
    """Rating rows with gaps in the user ids, many duplicate (user, item)
    pairs and many equal timestamps."""
    rng = np.random.default_rng(seed)
    return np.column_stack([
        rng.choice([1, 2, 5, 9, 40, 41, 300], size=n),
        rng.integers(1, m + 1, size=n),
        rng.integers(1, 6, size=n),
        rng.integers(0, 6, size=n),
    ]).astype(np.int64)


def test_parse_ml100k_line(tmp_path):
    p = tmp_path / "u.data"
    p.write_text("196\t242\t3\t881250949\n")
    ratings = D.parse_ratings(p, "ml100k")
    assert ratings.dtype == np.int64
    assert ratings.tolist() == [[196, 242, 3, 881250949]]


def test_parse_ml1m_line(tmp_path):
    p = tmp_path / "ratings.dat"
    p.write_text("1::1193::5::978300760\n")
    ratings = D.parse_ratings(p, "ml1m")
    assert ratings.dtype == np.int64
    assert ratings.tolist() == [[1, 1193, 5, 978300760]]


def test_parse_empty_file(tmp_path):
    p = tmp_path / "u.data"
    p.write_text("")
    assert D.parse_ratings(p, "ml100k").shape == (0, 4)


def test_parse_skips_blank_lines_keeps_file_order(tmp_path):
    p = tmp_path / "u.data"
    p.write_text("\n5\t6\t1\t8\n\n1\t2\t3\t4\n\n")
    assert D.parse_ratings(p, "ml100k").tolist() == [[5, 6, 1, 8], [1, 2, 3, 4]]


def test_parse_counts_lines(tmp_path, synth100k_dir):
    lines = (synth100k_dir / "u.data").read_text().splitlines()
    ratings = D.parse_ratings(synth100k_dir / "u.data", "ml100k")
    assert len(ratings) == len(lines)


def test_parse_malformed_line_names_lineno(tmp_path):
    p = tmp_path / "u.data"
    p.write_text("1\t2\t3\t4\n1\t2\t3\n")
    with pytest.raises(D.ParseError, match=":2:"):
        D.parse_ratings(p, "ml100k")


GOOD = "1\t2\t3\t4\n"


@pytest.mark.parametrize("fmt, text, lineno, message", [
    ("ml100k", GOOD + "\n1\t2\t3\n", 3, "expected 4 fields, got 3"),
    ("ml100k", "\n\n1\t2\t3\t4\t5\n", 3, "expected 4 fields, got 5"),
    ("ml100k", GOOD + "\n1\tx\t3\t4\n", 3, "non-integer field 'x'"),
    ("ml100k", GOOD * 40 + "\n" + "1\t2\t3\t4.5\n" + GOOD * 9, 42, "non-integer field '4.5'"),
    ("ml100k", "1\t2\t3\t\n", 1, "non-integer field ''"),
    ("ml100k", "1\t2\t3\t99999999999999999999\n", 1,
     "non-integer field '99999999999999999999'"),
    ("ml100k", "\n" + GOOD + "1\t2\t0\t4\n", 3, "rating 0 outside 1..5"),
    ("ml1m", "1::2::3\n", 1, "expected 4 fields, got 3"),
    ("ml1m", "1::2::3::4\n\n1::2::9::4\n", 3, "rating 9 outside 1..5"),
    ("ml1m", "1::2::3::4\n1:2::3::4\n", 2, "expected 4 fields, got 3"),
], ids=["few-fields", "many-fields", "letter", "decimal-after-blank", "empty-field",
        "int64-overflow", "rating-zero", "ml1m-few-fields", "ml1m-rating", "ml1m-single-colon"])
def test_parse_errors_name_path_and_line(tmp_path, fmt, text, lineno, message):
    p = tmp_path / "ratings"
    p.write_text(text)
    with pytest.raises(D.ParseError, match=f"^{re.escape(str(p))}:{lineno}: {message}"):
        D.parse_ratings(p, fmt)


U_ITEM_FLAGS = "|".join(["0"] * len(D.ML100K_GENRES))
# parse_users of a u.user whose occupations u.occupation lists.
parse_u_user = functools.partial(D.parse_users, occupations=("doctor", "other", "writer"))


@pytest.mark.parametrize("parse, fmt, text, lineno, message", [
    (parse_u_user, "ml100k", "1|24|M|writer|00000\n\n2|x|F|other|00000\n",
     3, "non-integer age 'x'"),
    (D.parse_users, "ml1m", "x::F::1::10::48067\n", 1, "non-integer user id 'x'"),
    (D.parse_item_genres, "ml100k", f"1|A (1995)|||u|{U_ITEM_FLAGS}\n"
     f"x|B (1995)|||u|{U_ITEM_FLAGS}\n", 2, "non-integer item id 'x'"),
    (D.parse_item_genres, "ml1m", "1::A (1995)::Drama\n \n1.5::B (1995)::Drama\n",
     3, "non-integer item id '1.5'"),
    (parse_u_user, "ml100k", "1|24|M|writer|00000\n\n1|77|F|doctor|00000\n",
     3, "user id 1 repeats line 1"),
    (D.parse_users, "ml1m", "1::F::1::10::48067\n2::M::56::16::70072\n\n02::M::25::15::55117\n",
     4, "user id 2 repeats line 2"),
    (D.parse_item_genres, "ml100k", f"7|A (1995)|||u|{U_ITEM_FLAGS}\n"
     f"7|B (1995)|||u|{U_ITEM_FLAGS}\n", 2, "item id 7 repeats line 1"),
    (D.parse_item_genres, "ml1m", "\n3::A (1995)::Drama\n4::B (1995)::\n3::C (1995)::Drama\n",
     4, "item id 3 repeats line 2"),
    (parse_u_user, "ml100k", "1|24|M|writer|00000\n2|53|F|other\n",
     2, "expected 5 fields, got 4"),
    (D.parse_item_genres, "ml1m", "1::A (1995)::Drama\n2::B::C (1995)::Drama\n",
     2, "expected 3 fields, got 4"),
    (D.parse_item_genres, "ml100k", f"1|A (1995)|||u|{U_ITEM_FLAGS}\n"
     f"2|B (1995)|||u|x{U_ITEM_FLAGS[1:]}\n", 2, "genre flag 'x' is not 0 or 1"),
    (D.parse_item_genres, "ml100k", f"1|A (1995)|||u|{U_ITEM_FLAGS[:-1]}7\n",
     1, "genre flag '7' is not 0 or 1"),
    (D.parse_users, "ml1m", "1::F::1::10::48067\n2::M::99::16::70072\n",
     2, "age 99 has no attribute slot"),
    (D.parse_users, "ml1m", "1::F::1::10::48067\n\n2::X::56::16::70072\n",
     3, "gender 'X' has no attribute slot"),
    (parse_u_user, "ml100k", "1|24|M|writer|00000\n2|53|F|pilot|00000\n",
     2, "occupation 'pilot' has no attribute slot"),
], ids=["u.user-age", "users.dat-id", "u.item-id", "movies.dat-id", "u.user-repeated-id",
        "users.dat-repeated-id", "u.item-repeated-id", "movies.dat-repeated-id",
        "u.user-few-fields", "movies.dat-many-fields", "u.item-genre-flag-x",
        "u.item-genre-flag-7", "users.dat-age-99", "users.dat-gender-x",
        "u.user-occupation-pilot"])
def test_metadata_parse_errors_name_path_line_and_field(tmp_path, parse, fmt, text,
                                                         lineno, message):
    p = tmp_path / "meta"
    p.write_text(text, encoding="latin-1")
    with pytest.raises(D.ParseError, match=f"^{re.escape(str(p))}:{lineno}: {message}$"):
        parse(p, fmt)


@pytest.mark.parametrize("parse, fmt, line, name", [
    (D.parse_users, "ml100k", "1|{}|M|writer|00000", "age"),
    (D.parse_users, "ml1m", "{}::F::1::10::48067", "user id"),
    (D.parse_item_genres, "ml100k", "{}|A (1995)|||u|" + U_ITEM_FLAGS, "item id"),
    (D.parse_item_genres, "ml1m", "{}::A (1995)::Drama", "item id"),
], ids=["u.user-age", "users.dat-id", "u.item-id", "movies.dat-id"])
@pytest.mark.parametrize("value", ["+5", "-5", " 5", "5 ", "1_0", "\u0665", "9" * 20],
                         ids=["plus", "minus", "leading-space", "trailing-space", "underscore",
                              "arabic-indic-digit", "past-int64"])
def test_metadata_integers_are_ascii_digit_runs(tmp_path, parse, fmt, line, name, value):
    p = tmp_path / "meta"
    p.write_text(line.format(value) + "\n", encoding="utf-8")
    shown = value.encode().decode("latin-1" if parse is D.parse_item_genres else "utf-8")
    with pytest.raises(D.ParseError, match=f"^{re.escape(str(p))}:1: non-integer {name} "
                                           f"{re.escape(repr(shown))}$"):
        parse(p, fmt)


def test_parse_occupations_refuses_a_repeated_name(tmp_path):
    p = tmp_path / "u.occupation"
    p.write_text(" writer\n\nartist \n")
    assert D.parse_occupations(p) == ["writer", "artist"]
    p.write_text("writer\n\nartist\nwriter\n")
    with pytest.raises(D.ParseError,
                       match=f"^{re.escape(str(p))}:4: occupation writer repeats line 1$"):
        D.parse_occupations(p)


def test_parse_rating_out_of_range(tmp_path):
    p = tmp_path / "u.data"
    p.write_text("1\t2\t9\t4\n")
    with pytest.raises(D.ParseError, match="outside"):
        D.parse_ratings(p, "ml100k")


def line_oracle_parse_ratings(path, fmt, max_rating=5):
    """The line-by-line `parse_ratings` from before its loadtxt path, kept
    verbatim as the differential oracle for files in the grammar."""
    sep = {"ml100k": "\t", "ml1m": "::"}[fmt]
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"raw file not found: {path}")
    with open(path, encoding="utf-8", errors="strict") as fh:
        lines = np.array(fh.read().splitlines(), dtype=str)
    nonblank = (lines != "") & ~np.char.isspace(lines)
    linenos = np.flatnonzero(nonblank) + 1
    lines = lines[nonblank]
    n_fields = np.char.count(lines, sep) + 1
    wrong = np.flatnonzero(n_fields != 4)
    if wrong.size:
        k = wrong[0]
        raise D.ParseError(f"{path}:{linenos[k]}: expected 4 fields, got {n_fields[k]}")
    fields = sep.join(lines.tolist()).split(sep) if len(lines) else []
    try:
        ratings = np.array(fields, dtype=np.int64).reshape(-1, 4)
    except (ValueError, OverflowError) as exc:
        lo, hi = 0, len(lines)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                np.array(fields[4 * lo:4 * mid], dtype=np.int64)
                lo = mid
            except (ValueError, OverflowError):
                hi = mid
        raise D.ParseError(f"{path}:{linenos[lo]}: non-integer field ({exc})") from None
    outside = np.flatnonzero((ratings[:, 2] < 1) | (ratings[:, 2] > max_rating))
    if outside.size:
        k = outside[0]
        raise D.ParseError(
            f"{path}:{linenos[k]}: rating {ratings[k, 2]} outside 1..{max_rating}")
    return ratings


RAW_ALPHABET = "0123456789\t:\n\r +-_.\x0cx\u0665"
SEPS = {"ml100k": "\t", "ml1m": "::"}


def first_line_outside_grammar(text, fmt, max_rating=5):
    """The number of the first line of `text` outside `parse_ratings`'
    grammar, or None: lines split at "\n", each empty or four runs of ASCII
    digits joined by the separator, each in int64, the rating in
    1..max_rating."""
    sep = re.escape(SEPS[fmt])
    line_re = re.compile(sep.join(["([0-9]+)"] * 4))
    for lineno, line in enumerate(text.split("\n"), start=1):
        match = line_re.fullmatch(line)
        if line and not (match and all(int(f) < 2**63 for f in match.groups())
                         and 1 <= int(match[3]) <= max_rating):
            return lineno
    return None


@st.composite
def ratings_files(draw):
    """(fmt, text) of a ratings file: free text over the alphabet, a file
    in the grammar, or a noisy one: lines of three to five fields joined by
    a separator, most often the format's, whose fields are ids, ratings,
    int64-sized or past int64, or junk."""
    fmt = draw(st.sampled_from(["ml100k", "ml1m"]))
    kind = draw(st.sampled_from(["free", "clean", "noisy", "noisy"]))
    if kind == "free":
        return fmt, draw(st.text(RAW_ALPHABET, max_size=40))
    sep = SEPS[fmt]
    number = st.one_of(st.integers(0, 99999).map(str),
                       st.text("0123456789", min_size=1, max_size=18))
    if kind == "clean":
        line = st.one_of(st.tuples(number, number, st.integers(1, 5).map(str), number)
                         .map(sep.join), st.just(""))
        eol = "\n"
    else:
        sep = draw(st.sampled_from([sep, sep, "\t", "::", ":", ":::", " "]))
        field = st.one_of(number, st.integers(0, 7).map(str), st.integers(0, 2**64).map(str),
                          st.text("0123456789", min_size=19, max_size=22),
                          st.text(RAW_ALPHABET, max_size=3))
        line = st.one_of(st.tuples(number, number, field, field).map(sep.join),
                         st.lists(field, min_size=3, max_size=5).map(sep.join),
                         st.sampled_from(["", " ", "\t", "\t\t\t", "\x0c"]))
        eol = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    lines = draw(st.lists(line, max_size=6))
    return fmt, eol.join(lines) + draw(st.sampled_from(["", eol]))


def parse_outcome(parse, path, fmt):
    try:
        ratings = parse(path, fmt)
    except D.ParseError as exc:
        return "ParseError", str(exc)
    return ratings.dtype.str, ratings.shape, ratings.tobytes()


@pytest.fixture(scope="module")
def ratings_path(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "ratings"


def assert_parse_follows_grammar(path, fmt):
    """`parse_ratings` gives the line oracle's array for a file in the
    grammar, and for any other file a ParseError at its first line outside
    the grammar, with one of the three messages."""
    bad = first_line_outside_grammar(path.read_bytes().decode(), fmt)
    if bad is None:
        assert (parse_outcome(D.parse_ratings, path, fmt)
                == parse_outcome(line_oracle_parse_ratings, path, fmt))
        return
    messages = r"expected 4 fields, got \d+|non-integer field '.*'|rating \d+ outside 1\.\.5"
    with pytest.raises(D.ParseError, match=f"^{re.escape(str(path))}:{bad}: ({messages})$"):
        D.parse_ratings(path, fmt)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(ratings_files())
def test_parse_ratings_matches_line_oracle(ratings_path, case):
    """In both formats, files in the grammar parse to the line oracle's
    array, and every other file is refused at its first line outside it."""
    fmt, text = case
    ratings_path.write_bytes(text.encode())
    assert_parse_follows_grammar(ratings_path, fmt)


@pytest.mark.parametrize("fmt, text, lineno", [
    ("ml100k", "\n196\t242\t3\t881250949\n\n1\t2\t5\t4", None),
    ("ml1m", "1::1193::5::978300760\n", None),
    ("ml100k", "", None),
    ("ml100k", "\n\n", None),
    ("ml100k", "9223372036854775807\t007\t5\t0\n", None),
    ("ml100k", "1\t2\t3\t4\n196\t242\t3\t881250949\r\n", 2),
    ("ml100k", "1\t2\t3\t4\r5\t6\t1\t8\r", 1),
    ("ml100k", "196\t242\t3\t+881250949\n", 1),
    ("ml100k", "196\t242\t-3\t881250949\n", 1),
    ("ml100k", "196\t 242\t3\t881250949\n", 1),
    ("ml100k", "196\t242 \t3\t881250949\n", 1),
    ("ml100k", "1_96\t242\t3\t881250949\n", 1),
    ("ml100k", "196\t242\t\u0665\t881250949\n", 1),
    ("ml100k", "1\t2\t3\t4\n\x0c\n5\t6\t1\t8\n", 2),
    ("ml100k", "1\t2\t3\t4\n \n5\t6\t1\t8\n", 2),
    ("ml100k", "1\t2\t3\t4\n\t\t\t\n5\t6\t1\t8\n", 2),
    ("ml1m", "1::1193:::5::978300760\n", 1),
    ("ml1m", "1\t1193::5::978300760\n", 1),
    ("ml100k", "1\t2\t6\t4\n", 1),
    ("ml100k", "1\t2\t3\t99999999999999999999\n", 1),
    ("ml100k", "9223372036854775808\t2\t3\t4\n", 1),
], ids=["ml100k-blank-lines", "ml1m", "empty", "only-empty-lines", "int64-max", "crlf",
        "cr", "sign", "minus", "leading-space", "trailing-space", "underscore",
        "arabic-indic-digit", "form-feed-line", "space-line", "tabs-line", "lone-colon",
        "ml1m-tab", "rating-6", "int64-overflow", "int64-max-plus-1"])
def test_parse_fast_path_takes_only_plain_digit_files(tmp_path, fmt, text, lineno):
    """The grammar table: `np.loadtxt`, the one array path, takes exactly
    the plain digit files; each other form is refused at its line."""
    p = tmp_path / "ratings"
    p.write_bytes(text.encode())
    assert first_line_outside_grammar(text, fmt) == lineno
    assert_parse_follows_grammar(p, fmt)


def dense(ratings, m):
    """build_purchase_matrix's (user_ids, dense float64 rows)."""
    user_ids, purchase = D.build_purchase_matrix(ratings, m=m)
    return user_ids, purchase.toarray()


def test_purchase_matrix_normalization():
    ratings = rows((1, 1, 5, 10), (1, 3, 3, 11), (2, 2, 1, 12))
    user_ids, matrix = dense(ratings, m=4)
    assert user_ids.dtype == np.int64 and user_ids.tolist() == [1, 2]
    assert matrix[0, 0] == 1.0       # rating 5 / C=5
    assert matrix[0, 2] == 0.6       # rating 3 / C=5
    assert matrix[0, 1] == 0.0       # unrated
    assert matrix[1, 1] == 0.2
    # every nonzero entry is k/C
    nz = matrix[matrix > 0]
    assert np.allclose(np.round(nz * 5), nz * 5)


def test_purchase_matrix_duplicate_keeps_latest():
    ratings = rows((1, 1, 2, 100), (1, 1, 5, 200), (1, 1, 4, 50))
    _, matrix = dense(ratings, m=1)
    assert matrix[0, 0] == 1.0


def test_purchase_matrix_equal_timestamps_later_row_wins():
    ratings = rows((1, 1, 2, 200), (1, 1, 4, 100), (1, 1, 3, 200))
    _, matrix = dense(ratings, m=1)
    assert matrix[0, 0] == 0.6


def test_purchase_matrix_order_insensitive():
    ratings = rows((1, 1, 2, 100), (2, 1, 3, 101), (1, 2, 4, 102))
    ids_a, a = dense(ratings, m=3)
    ids_b, b = dense(ratings[::-1], m=3)
    assert np.array_equal(ids_a, ids_b)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", range(5))
def test_purchase_matrix_matches_dict_oracle(seed):
    ratings = random_ratings(seed)
    user_ids, purchase = D.build_purchase_matrix(ratings, m=30)
    want_ids, want = latest_rating_oracle(ratings, m=30)
    assert user_ids.dtype == want_ids.dtype and np.array_equal(user_ids, want_ids)
    assert np.array_equal(purchase.toarray(), want)
    # The CSR holds exactly the nonzero entries, row-major.
    assert purchase.toarray().tobytes() == want.tobytes()
    assert purchase.nnz == np.count_nonzero(want)


def test_nonzero_count_matches_distinct_items():
    ratings = random_ratings(0)
    user_ids, matrix = dense(ratings, m=30)
    for k, uid in enumerate(user_ids):
        distinct = np.unique(ratings[ratings[:, 0] == uid, 1])
        assert np.count_nonzero(matrix[k]) == len(distinct)


@st.composite
def purchase_and_rows(draw):
    """A dense purchase matrix of ratings k/5 (some rows empty) and a list of
    its row indices, in any order and with repeats."""
    n, m = draw(st.integers(0, 12)), draw(st.integers(1, 9))
    ratings = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 3, 4, 5]),
                            min_size=n * m, max_size=n * m))
    matrix = np.array(ratings, dtype=np.int64).reshape(n, m) / 5
    rows = draw(st.lists(st.integers(0, n - 1), max_size=15)) if n else []
    return matrix, rows


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(purchase_and_rows())
def test_purchase_rows_match_dense_operations_bit_for_bit(case):
    matrix, rows = case
    csr = D.PurchaseRows.from_dense(matrix)
    assert (len(csr), csr.m, csr.nnz) == (*matrix.shape, np.count_nonzero(matrix))
    assert csr.toarray().tobytes() == matrix.tobytes()
    assert csr.toarray(rows).tobytes() == matrix[rows].tobytes()
    assert csr.take(rows).toarray().tobytes() == matrix[rows].tobytes()
    assert len(csr.take(rows)) == len(rows)
    if not len(matrix):
        return
    assert D.sparsity_percent(csr) == 100.0 * np.count_nonzero(matrix == 0) / matrix.size
    popularity = item_popularity(csr)
    want = np.count_nonzero(matrix, axis=0)
    assert popularity.dtype == want.dtype and popularity.tobytes() == want.tobytes()
    # rho sums each column over the rows in order.  numpy sums a one-column
    # matrix pairwise instead, so the dense mean is compared from m = 2 up.
    in_order = np.zeros(matrix.shape[1])
    for row in matrix:
        in_order = in_order + row
    rho = mean_purchase(csr)
    assert rho.tobytes() == (in_order / len(matrix)).tobytes()
    if matrix.shape[1] > 1:
        assert rho.tobytes() == matrix.mean(axis=0).tobytes()


def split_users_oracle(user_ids, cold_fraction, seed):
    """The id-based warm/cold split: (warm_ids, cold_ids), each sorted, with
    the cold ids at the sorted positions that lead the seeded permutation."""
    if not 0 <= cold_fraction < 1:
        raise ValueError(f"cold_fraction {cold_fraction} outside [0, 1)")
    ids = sorted(user_ids)
    n_cold = int(math.floor(cold_fraction * len(ids) + 0.5))
    perm = np.random.default_rng(seed).permutation(len(ids))
    return sorted(ids[k] for k in perm[n_cold:]), sorted(ids[k] for k in perm[:n_cold])


@pytest.mark.parametrize("n, fraction, seed", [
    (0, 0.2, 0), (1, 0.0, 0), (1, 0.2, 5), (1, 0.5, 1), (3, 0.0, 1), (5, 0.5, 2),
    (100, 0.1, 4), (100, 0.2, 42), (943, 0.2, 3), (6040, 0.2, 7), (754, 0.1, 0),
])
def test_split_rows_matches_id_split_bit_for_bit(n, fraction, seed):
    ids = np.sort(np.random.default_rng(n).choice(10 * n + 1, size=n, replace=False)) + 1
    warm_ids, cold_ids = split_users_oracle(ids.tolist(), fraction, seed)
    kept, held = D.split_rows(n, fraction, seed)
    assert kept.dtype == held.dtype == np.int64
    assert ids[kept].tolist() == warm_ids
    assert ids[held].tolist() == cold_ids


def test_split_matrices_rows_follow_user_ids(synth_cache):
    from srlgan.pipeline import split_matrices

    warm_ids, cold_ids = split_users_oracle(synth_cache.user_ids, 0.2, 3)
    row_of = {u: k for k, u in enumerate(synth_cache.user_ids)}
    warm_rows = [row_of[u] for u in warm_ids]
    cold_rows = [row_of[u] for u in cold_ids]
    got_ids, x_warm, y_warm, x_cold, y_cold = split_matrices(synth_cache, 0.2, 3)
    assert got_ids.tolist() == cold_ids
    assert np.array_equal(x_warm, synth_cache.tfidf[warm_rows])
    purchase = synth_cache.purchase.toarray()
    assert np.array_equal(y_warm.toarray(), purchase[warm_rows])
    assert np.array_equal(x_cold, synth_cache.tfidf[cold_rows])
    assert np.array_equal(y_cold.toarray(), purchase[cold_rows])


def test_split_sizes_round_half_up():
    kept, held = D.split_rows(943, 0.2, seed=3)
    assert len(held) == 189   # round(0.2 * 943)
    assert len(kept) == 754
    assert not set(held) & set(kept)


def test_split_zero_fraction_all_warm():
    kept, held = D.split_rows(3, 0.0, seed=1)
    assert held.tolist() == []
    assert kept.tolist() == [0, 1, 2]


def test_split_deterministic():
    a = D.split_rows(100, 0.2, seed=42)
    b = D.split_rows(100, 0.2, seed=42)
    c = D.split_rows(100, 0.2, seed=43)
    assert np.array_equal(a[1], b[1]) and np.array_equal(a[0], b[0])
    assert not np.array_equal(a[1], c[1])


def test_sparsity_percent():
    csr = D.PurchaseRows.from_dense
    assert D.sparsity_percent(csr(np.zeros((3, 4)))) == 100.0
    m = np.zeros((2, 2))
    m[0, 0] = 1.0
    assert D.sparsity_percent(csr(m)) == 75.0


def test_cache_round_trip(tmp_path, synth_cache):
    path = tmp_path / "cache.npz"
    D.save_cache(synth_cache, path)
    loaded = D.load_cache(path)
    assert loaded.dataset == synth_cache.dataset
    assert loaded.user_ids.dtype == synth_cache.user_ids.dtype == np.int64
    assert np.array_equal(loaded.user_ids, synth_cache.user_ids)
    for name in ("indptr", "items", "values"):
        got, want = getattr(loaded.purchase, name), getattr(synth_cache.purchase, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert loaded.m == synth_cache.m
    assert np.array_equal(loaded.tfidf, synth_cache.tfidf)
    assert loaded.schema_json == synth_cache.schema_json
    # sparsity identical after the disk round trip
    assert D.sparsity_percent(loaded.purchase) == D.sparsity_percent(synth_cache.purchase)
    assert D.cache_content_hash(loaded) == D.cache_content_hash(synth_cache)


def test_cache_with_a_fortran_order_tfidf_loads_the_same_content(tmp_path, synth_cache):
    """np.save writes a Fortran-ordered array as such; load_cache reads it
    back in C order, so the content hash, which hashes each array's buffer,
    is the C-ordered file's."""
    D.save_cache(synth_cache, tmp_path / "c.npz")
    with np.load(tmp_path / "c.npz") as z:
        members = {name: z[name] for name in z.files}
    np.savez(tmp_path / "f.npz", **{**members, "tfidf": np.asfortranarray(members["tfidf"])})
    loaded = D.load_cache(tmp_path / "f.npz")
    assert loaded.tfidf.flags.c_contiguous
    assert D.cache_content_hash(loaded) == D.cache_content_hash(synth_cache)


def test_cache_content_hash_ignores_the_file_format(synth_cache, monkeypatch):
    """The hash names the content: a new file-format version keeps it."""
    before = D.cache_content_hash(synth_cache)
    monkeypatch.setattr(D, "CACHE_VERSION", D.CACHE_VERSION + 1)
    assert D.cache_content_hash(synth_cache) == before


def test_cache_content_hash_covers_every_part(synth_cache):
    """A change to any stored fact changes the hash, the CSR arrays and m
    included."""
    from dataclasses import replace

    rows = synth_cache.purchase
    moved, item, value = rows.indptr.copy(), rows.items.copy(), rows.values.copy()
    moved[1] += 1                     # one entry of user 1 becomes user 0's
    item[0] += 1
    value[0] = 0.4 if value[0] == 0.2 else 0.2
    variants = [
        D.PurchaseRows(moved, rows.items, rows.values, rows.m),
        D.PurchaseRows(rows.indptr, item, rows.values, rows.m),
        D.PurchaseRows(rows.indptr, rows.items, value, rows.m),
        D.PurchaseRows(rows.indptr, rows.items, rows.values, rows.m + 1),
    ]
    caches = [replace(synth_cache, purchase=v) for v in variants] + [
        replace(synth_cache, tfidf=2 * synth_cache.tfidf),
        replace(synth_cache, user_ids=synth_cache.user_ids + 1),
        replace(synth_cache, schema_json=synth_cache.schema_json + " "),
    ]
    hashes = {D.cache_content_hash(c) for c in [synth_cache, *caches]}
    assert len(hashes) == 1 + len(caches)


@pytest.mark.parametrize("fixture, dataset, digest", [
    ("synth100k_dir", "ml100k", "31f13806bcbdb944"),
    ("synth1m_dir", "ml1m", "427648e29a43c9a9"),
])
def test_prepared_arrays_pinned(request, raw_counts, fixture, dataset, digest):
    """user_ids, purchase and raw counts of the fixtures, bit for bit (tfidf
    is left out: np.log may differ by an ulp across numpy builds)."""
    from srlgan.pipeline import prepare_dataset

    raw_dir = request.getfixturevalue(fixture)
    cache, _ = prepare_dataset(raw_dir, dataset)
    h = hashlib.sha256()
    h.update(cache.user_ids.tobytes())
    h.update(cache.purchase.toarray().tobytes())
    h.update(raw_counts(raw_dir, cache).tobytes())
    assert h.hexdigest()[:16] == digest


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("fixture, dataset", [("synth100k_dir", "ml100k"),
                                              ("synth1m_dir", "ml1m")])
def test_leakage_free_cold_features_bit_for_bit(request, raw_counts, fixture, dataset, seed):
    """Leakage-free cold rows are the raw counts with the genre slots zeroed,
    times idf: zeroing the genre slots of tfidf gives the same bits."""
    from srlgan.features import AttributeSchema, inverse_document_frequency
    from srlgan.pipeline import prepare_dataset, split_matrices

    raw_dir = request.getfixturevalue(fixture)
    cache, _ = prepare_dataset(raw_dir, dataset)
    counts = raw_counts(raw_dir, cache)
    _, cold_rows = D.split_rows(len(cache.user_ids), 0.2, seed)
    want = counts[cold_rows]
    want[:, -len(AttributeSchema.from_json(cache.schema_json).genre_values):] = 0.0
    want = want * inverse_document_frequency(counts)
    x_cold = split_matrices(cache, 0.2, seed, leakage_free_cold=True)[3]
    assert x_cold.dtype == want.dtype and x_cold.shape == want.shape
    assert x_cold.tobytes() == want.tobytes()
