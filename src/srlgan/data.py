"""MovieLens ingestion: rating parsers, purchase matrices, seeded row splits.

Supports the 100K layout (``u.data`` / ``u.user`` / ``u.item``, tab- and
pipe-separated) and the 1M layout (``ratings.dat`` / ``users.dat`` /
``movies.dat``, ``::``-separated).  `LAYOUTS` is the one place that knows
each layout: its file names, separators, user columns, item count m and
rating ceiling C; the parsers, `pipeline` and the CLI read it.  Ratings
are one (n, 4) int64 array of (user, item, rating, timestamp) rows,
checked with whole-array operations.
They are normalized to [0, 1] by dividing with the rating ceiling C, so a
purchase-behavior row lives in {0, 1/C, ..., 1} with 0 meaning "not
purchased".  Purchase rows are 96% zeros, so they stay in CSR form
(`PurchaseRows`) from `build_purchase_matrix` to the minibatch: only a
training step's minibatch is made dense, and the scorer reads CSR rows.
`split_rows` draws every seeded split (warm/cold users, the validation
slice); cache rows are users in strictly increasing id order.  The dataset
cache, and `nn`'s checkpoints, are .npz archives written by one writer,
`_write_archive`, and read by one reader, `_read_archive`.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import warnings
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from tokenize import TokenError

import numpy as np

CACHE_VERSION = 3

ML100K_GENRES = [
    "unknown", "Action", "Adventure", "Animation", "Children's", "Comedy",
    "Crime", "Documentary", "Drama", "Fantasy", "Film-Noir", "Horror",
    "Musical", "Mystery", "Romance", "Sci-Fi", "Thriller", "War", "Western",
]

ML1M_GENRES = [
    "Action", "Adventure", "Animation", "Children's", "Comedy", "Crime",
    "Documentary", "Drama", "Fantasy", "Film-Noir", "Horror", "Musical",
    "Mystery", "Romance", "Sci-Fi", "Thriller", "War", "Western",
]

# ML1M code books (see the dataset README).
ML1M_AGE_CODES = [1, 18, 25, 35, 45, 50, 56]
ML1M_OCCUPATION_CODES = list(range(21))


# Each raw layout: its files by role, the ratings and the metadata (users,
# items) separators, the columns of age, gender and occupation in a user
# line, the genres of an item line's 0/1 flags after its first five fields
# (none: a |-list as the third field), the declared item count m (never-rated
# items included) and the rating ceiling C.
LAYOUTS = {
    "ml100k": {"files": {"ratings": "u.data", "users": "u.user", "items": "u.item",
                         "occupations": "u.occupation"},
               "sep": "\t", "meta_sep": "|", "user_columns": (1, 2, 3),
               "genre_flags": tuple(ML100K_GENRES), "m": 1682, "max_rating": 5},
    "ml1m": {"files": {"ratings": "ratings.dat", "users": "users.dat", "items": "movies.dat"},
             "sep": "::", "meta_sep": "::", "user_columns": (2, 1, 3),
             "genre_flags": (), "m": 3952, "max_rating": 5},
}


class ParseError(ValueError):
    """A raw MovieLens file failed to parse; message names the line."""


@dataclass
class UserMeta:
    user_id: int
    age: int            # raw age (100K) or age code (1M)
    gender: str         # "M" or "F"
    occupation: str     # occupation name (100K) or stringified code (1M)


def _read_lines(path, encoding="utf-8"):
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"raw file not found: {path}")
    with open(path, encoding=encoding, errors="strict") as fh:
        return fh.read().splitlines()


def parse_ratings(path, fmt: str, max_rating: int = 5) -> np.ndarray:
    """Parse a ratings file; fmt is a `LAYOUTS` key.

    Returns an (n, 4) int64 array of (user, item, rating, timestamp), one
    row per non-blank line.  The checks run over the whole file in turn
    (field counts, then integers, then ratings), and a ParseError names
    the first line that fails one.

    Fast path: a file whose bytes are only ASCII digits, the format's
    separator and "\n" (an ml1m file: no ':' outside a '::') is read by
    one `np.loadtxt`, kept if it gives four columns with every rating in
    1..max_rating.  Every other file, and every file loadtxt refuses, is
    read line by line.  Both paths give the same array for a file, and
    only the second raises ParseError.
    """
    sep = LAYOUTS[fmt]["sep"]
    ratings = _parse_digit_rows(path, sep, max_rating)
    return _parse_lines(path, sep, max_rating) if ratings is None else ratings


def _parse_digit_rows(path, sep: str, max_rating: int):
    """`parse_ratings`' fast path: the ratings of a file that holds nothing
    but digits, `sep` and "\n", or None for any other file.  With no sign,
    space, underscore or dot in a field, numpy's integer parser and
    Python's `int` agree, in every numpy version."""
    try:
        raw = Path(path).read_bytes()
    except OSError:
        return None
    if raw.translate(None, b"0123456789\n" + sep.encode()):
        return None
    if sep == "::":
        raw = raw.replace(b"::", b"\t")
        if b":" in raw:                 # a ':' outside a '::'
            return None
    try:
        with warnings.catch_warnings():
            # numpy < 2 retries an integer field that fails as a float, with
            # a DeprecationWarning; a file with no rows warns too.
            warnings.simplefilter("error")
            ratings = np.loadtxt(io.StringIO(raw.decode("utf-8")), delimiter="\t",
                                 dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, OverflowError, Warning):
        return None
    if ratings.shape[1] != 4 or np.any((ratings[:, 2] < 1) | (ratings[:, 2] > max_rating)):
        return None
    return ratings


def _parse_lines(path, sep: str, max_rating: int) -> np.ndarray:
    """`parse_ratings` for any file: its checks, line numbers and errors."""
    lines = np.array(_read_lines(path), dtype=str)
    nonblank = (lines != "") & ~np.char.isspace(lines)
    linenos = np.flatnonzero(nonblank) + 1
    lines = lines[nonblank]
    n_fields = np.char.count(lines, sep) + 1
    wrong = np.flatnonzero(n_fields != 4)
    if wrong.size:
        k = wrong[0]
        raise ParseError(f"{path}:{linenos[k]}: expected 4 fields, got {n_fields[k]}")
    # Every line has exactly three separators: four fields per line.
    fields = sep.join(lines.tolist()).split(sep) if len(lines) else []
    try:
        ratings = np.array(fields, dtype=np.int64).reshape(-1, 4)
    except (ValueError, OverflowError) as exc:
        lo, hi = 0, len(lines)        # bisect: lines lo..hi-1 hold the first bad one
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                np.array(fields[4 * lo:4 * mid], dtype=np.int64)
                lo = mid
            except (ValueError, OverflowError):
                hi = mid
        raise ParseError(f"{path}:{linenos[lo]}: non-integer field ({exc})") from None
    outside = np.flatnonzero((ratings[:, 2] < 1) | (ratings[:, 2] > max_rating))
    if outside.size:
        k = outside[0]
        raise ParseError(
            f"{path}:{linenos[k]}: rating {ratings[k, 2]} outside 1..{max_rating}")
    return ratings


def _int_field(raw: str, name: str, path, lineno: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: non-integer {name} {raw!r}") from None


def _metadata_rows(path, sep: str, n_fields: int, what: str, encoding: str):
    """Yields (line number, id, fields) for each non-blank line of a
    metadata file: `n_fields` `sep`-separated fields, the first an integer
    `what` ("user id" or "item id").  A wrong field count, a non-integer id
    and an id that repeats an earlier line raise ParseError."""
    first_line = {}
    for lineno, line in enumerate(_read_lines(path, encoding), start=1):
        if not line.strip():
            continue
        parts = line.split(sep)
        if len(parts) != n_fields:
            raise ParseError(f"{path}:{lineno}: expected {n_fields} fields, got {len(parts)}")
        key = _int_field(parts[0], what, path, lineno)
        if key in first_line:
            raise ParseError(f"{path}:{lineno}: {what} {key} repeats line {first_line[key]}")
        first_line[key] = lineno
        yield lineno, key, parts


def parse_users(path, fmt: str) -> dict[int, UserMeta]:
    """Parse user metadata (u.user or users.dat) keyed by user id."""
    age, gender, occupation = LAYOUTS[fmt]["user_columns"]
    rows = _metadata_rows(path, LAYOUTS[fmt]["meta_sep"], 5, "user id", "utf-8")
    return {uid: UserMeta(uid, _int_field(parts[age], "age", path, lineno),
                          parts[gender], parts[occupation])
            for lineno, uid, parts in rows}


def parse_item_genres(path, fmt: str) -> dict[int, list[str]]:
    """Parse item genre tags (u.item: id|title|release|video-release|url|
    19 genre flags, or movies.dat: id::title::Genre|Genre) keyed by item id."""
    flags = LAYOUTS[fmt]["genre_flags"]
    rows = _metadata_rows(path, LAYOUTS[fmt]["meta_sep"], 5 + len(flags) if flags else 3,
                          "item id", "latin-1")
    if flags:
        return {item: [g for g, f in zip(flags, parts[5:]) if f == "1"]
                for _, item, parts in rows}
    return {item: [g for g in parts[2].split("|") if g] for _, item, parts in rows}


class PurchaseRows:
    """Purchase-behavior rows in CSR form.  Row k holds values[j] = rating/C
    at 0-based item items[j] for j in indptr[k]:indptr[k+1], items
    increasing within the row; every other entry of the row is 0.  Each
    stored entry is a purchase (nonzero), which the scorer relies on."""

    def __init__(self, indptr, items, values, m: int):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.items = np.asarray(items, dtype=np.int32)
        self.values = np.asarray(values, dtype=np.float64)
        self.m = int(m)

    @classmethod
    def from_dense(cls, matrix) -> PurchaseRows:
        """The nonzero entries of a dense (users x m) array."""
        matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
        row, item = np.nonzero(matrix)
        return cls(np.searchsorted(row, np.arange(len(matrix) + 1)), item,
                   matrix[row, item], matrix.shape[1])

    def __len__(self) -> int:
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        return len(self.items)

    def take(self, rows) -> PurchaseRows:
        """The given rows, in the order given."""
        rows = np.asarray(rows, dtype=np.int64)
        start = self.indptr[rows]
        count = self.indptr[rows + 1] - start
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(count, out=indptr[1:])
        at = np.arange(indptr[-1]) + np.repeat(start - indptr[:-1], count)
        return PurchaseRows(indptr, self.items[at], self.values[at], self.m)

    def toarray(self, rows=None) -> np.ndarray:
        """Dense float64 rows: every row, or the given rows in their order."""
        part = self if rows is None else self.take(rows)
        out = np.zeros((len(part), self.m))
        out[np.repeat(np.arange(len(part)), np.diff(part.indptr)), part.items] = part.values
        return out


def as_purchase_rows(rows) -> PurchaseRows:
    """`rows` itself if it is PurchaseRows, else the CSR of the dense array."""
    return rows if isinstance(rows, PurchaseRows) else PurchaseRows.from_dense(rows)


def build_purchase_matrix(ratings, m: int, max_rating: int = 5):
    """Normalized purchase-behavior rows, one per user in `ratings`.

    `ratings` is parse_ratings' (n, 4) array.  Returns (user_ids, rows):
    PurchaseRows whose dense row k has rating/C at column i-1 for user
    user_ids[k] and item i, 0 where unrated.  Duplicate (user, item) pairs
    keep the latest timestamp; on equal timestamps the later row wins.
    """
    user, item, rating, ts = np.asarray(ratings, dtype=np.int64).reshape(-1, 4).T
    outside = (item < 1) | (item > m)
    if outside.any():
        raise ValueError(f"item id {item[outside][0]} outside 1..{m}")
    user_ids, row = np.unique(user, return_inverse=True)
    cell = row * m + (item - 1)
    # Stable sort by cell, then timestamp: each cell's last row is its latest.
    order = np.lexsort((ts, cell))
    latest = order[np.append(cell[order][1:] != cell[order][:-1], True)]
    cells = cell[latest]            # increasing: row-major order
    indptr = np.searchsorted(cells, np.arange(len(user_ids) + 1) * m)
    return user_ids.tolist(), PurchaseRows(indptr, cells % m, rating[latest] / max_rating, m)


def held_count(n: int, fraction: float) -> int:
    """The number of rows `split_rows` holds out of n: round-half-up of
    fraction*n."""
    if not 0 <= fraction < 1:
        raise ValueError(f"split fraction {fraction} outside [0, 1)")
    return int(math.floor(fraction * n + 0.5))


def split_rows(n: int, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded (kept_rows, held_rows) partition of range(n), each sorted
    int64, with `held_count(n, fraction)` held rows."""
    n_held = held_count(n, fraction)
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[n_held:]), np.sort(perm[:n_held])


def sparsity_percent(rows: PurchaseRows) -> float:
    """Percentage of zero entries in the users x items purchase rows."""
    size = len(rows) * rows.m
    if size == 0:
        raise ValueError("empty purchase matrix")
    return 100.0 * float(size - rows.nnz) / size


# ---------------------------------------------------------------------------
# Archives (caches and checkpoints): .npz files with a json `header` member
# that holds the format version, written stored (uncompressed); the reader
# also takes deflated members.  The cache (CACHE_VERSION 3) holds the
# purchase rows in CSR form:
#   header   : json {version, dataset, m, d, max_rating}
#   user_ids : int64 (users,), strictly increasing
#   indptr   : int64 (users + 1,), from 0, never decreasing, ending at nnz
#   items    : int32 (nnz,), 0-based ids in 0..m-1, increasing within a row
#   ratings  : uint8 (nnz,), in 1..max_rating (the purchase value times C)
#   tfidf    : float64 (users x d)
#   schema   : json string (attribute slot list, see features.AttributeSchema)
# ---------------------------------------------------------------------------


def _write_archive(path, header: dict, **arrays) -> None:
    """`np.savez` of the json `header` and `arrays` into a temp file beside
    `path`, renamed over it, so no reader sees a partial file; the file gets
    the umask's mode."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp.npz")
    try:
        np.savez(tmp, header=json.dumps(header, sort_keys=True), **arrays)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@contextmanager
def _read_archive(path, what: str, version: int, writer: str):
    """Yields (header, archive) of the archive at `path`.  Another format
    version, and every failure to read it, here or in the caller's block,
    raise ValueError("<what> <path>: ..."); a missing file raises
    FileNotFoundError."""
    try:
        with np.load(path, allow_pickle=False) as z:
            header = json.loads(str(_archive_array(z, "header", np.str_, ())))
            if not isinstance(header, dict):
                raise ValueError("header is not a json object")
            if header["version"] != version:
                raise ValueError(f"format version {header['version']!r} is not the "
                                 f"supported version {version}; re-run {writer}")
            yield header, z
    except FileNotFoundError:
        raise
    # A damaged byte fails in zipfile (BadZipFile; NotImplementedError for an
    # unknown compression method, RuntimeError for an encryption flag), in
    # zlib or bz2, or in numpy's .npy header parser (SyntaxError, TokenError).
    except (OSError, EOFError, KeyError, ValueError, NotImplementedError, RuntimeError,
            SyntaxError, TokenError, zipfile.BadZipFile, zlib.error) as exc:
        raise ValueError(f"{what} {path}: {exc}") from exc


def _archive_array(z, name: str, dtype, shape: tuple) -> np.ndarray:
    """Member `name` of archive `z`, refused unless it is a `dtype` array of
    `shape` (a None length matches any).  The member is read to its end,
    where zipfile checks its CRC: numpy stops after the array's bytes."""
    if name not in z.files:
        raise ValueError(f"{name} is not a file in the archive")
    with z.zip.open(f"{name}.npy") as member:
        arr = np.lib.format.read_array(member, allow_pickle=False)
        member.read()
    if not (np.issubdtype(arr.dtype, dtype) and len(arr.shape) == len(shape) and all(
            want in (None, got) for got, want in zip(arr.shape, shape))):
        raise ValueError(f"array '{name}' is {arr.dtype} {arr.shape}, "
                         f"expected {np.dtype(dtype).name} {shape}")
    return arr


@dataclass
class DatasetCache:
    dataset: str
    max_rating: int
    user_ids: list[int]
    purchase: PurchaseRows
    tfidf: np.ndarray
    schema_json: str

    @property
    def m(self) -> int:
        return self.purchase.m

    @property
    def d(self) -> int:
        return self.tfidf.shape[1]

    def schema_hash(self) -> str:
        return hashlib.sha256(self.schema_json.encode()).hexdigest()[:16]


def save_cache(cache: DatasetCache, path) -> None:
    """Atomic write of the dataset cache; purchase values that are not a
    rating 1..C divided by C raise ValueError."""
    rows = cache.purchase
    ratings = np.rint(rows.values * cache.max_rating).astype(np.uint8)
    if np.any(ratings == 0) or not np.array_equal(ratings / cache.max_rating, rows.values):
        raise ValueError(f"purchase values are not ratings 1..{cache.max_rating} "
                         f"divided by {cache.max_rating}")
    header = {"version": CACHE_VERSION, "dataset": cache.dataset, "m": cache.m,
              "d": cache.d, "max_rating": cache.max_rating}
    _write_archive(path, header, user_ids=np.asarray(cache.user_ids, dtype=np.int64),
                   indptr=rows.indptr, items=rows.items, ratings=ratings,
                   tfidf=cache.tfidf, schema=cache.schema_json)


def load_cache(path) -> DatasetCache:
    """The cache at `path`.  An unreadable, damaged or truncated file, another
    format version, a missing array, an array of another dtype or of a shape
    that disagrees with the user count and the header's d, user ids that do
    not strictly increase, or purchase rows that break a CSR rule of the
    layout above raise ValueError naming path and problem; a missing file,
    FileNotFoundError."""
    with _read_archive(path, "cache", CACHE_VERSION, "prepare") as (header, z):
        user_ids = _archive_array(z, "user_ids", np.int64, (None,))
        if np.any(np.diff(user_ids) <= 0):
            raise ValueError("user_ids are not strictly increasing")
        n, m, c = len(user_ids), header["m"], header["max_rating"]
        indptr = _archive_array(z, "indptr", np.int64, (n + 1,))
        items = _archive_array(z, "items", np.int32, (None,))
        ratings = _archive_array(z, "ratings", np.uint8, items.shape)
        if indptr[0] != 0:
            raise ValueError(f"indptr starts at {indptr[0]}, not 0")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr decreases")
        if indptr[-1] != len(items):
            raise ValueError(f"indptr ends at {indptr[-1]}, not at the {len(items)} items")
        if np.any((items < 0) | (items >= m)):
            raise ValueError(f"item ids outside 0..{m - 1}")
        # With every id in 0..m-1, row*m + item increases along the whole
        # array exactly when the ids strictly increase within each row.
        row = np.repeat(np.arange(n), np.diff(indptr))
        if np.any(np.diff(row * m + items) <= 0):
            raise ValueError("item ids do not strictly increase within a row")
        if np.any((ratings < 1) | (ratings > c)):
            raise ValueError(f"ratings outside 1..{c}")
        return DatasetCache(
            dataset=header["dataset"],
            max_rating=c,
            user_ids=user_ids.tolist(),
            purchase=PurchaseRows(indptr, items, ratings / c, m),
            tfidf=_archive_array(z, "tfidf", np.float64, (n, header["d"])),
            schema_json=str(_archive_array(z, "schema", np.str_, ())),
        )


def cache_content_hash(cache: DatasetCache) -> str:
    """Hash of the cache payload, the purchase rows in their CSR arrays.
    The file bytes are not a content key: a deflated member's bytes depend
    on the zlib build.  The trailing 2 is the content layout, not
    CACHE_VERSION, so a file-format change keeps every recorded hash."""
    rows = cache.purchase
    h = hashlib.sha256()
    h.update(cache.schema_json.encode())
    h.update(np.asarray(cache.user_ids, dtype=np.int64).tobytes())
    for arr in (rows.indptr, rows.items, rows.values, cache.tfidf):
        h.update(arr.tobytes())
    h.update(f"{cache.dataset}|{cache.max_rating}|{rows.m}|2".encode())
    return h.hexdigest()


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
