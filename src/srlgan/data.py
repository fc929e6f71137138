"""MovieLens ingestion: rating parsers, purchase matrices, seeded row splits.

Supports the 100K layout (``u.data`` / ``u.user`` / ``u.item``, tab- and
pipe-separated) and the 1M layout (``ratings.dat`` / ``users.dat`` /
``movies.dat``, ``::``-separated).  Ratings are one (n, 4) int64 array of
(user, item, rating, timestamp) rows, checked with whole-array operations.
They are normalized to [0, 1] by dividing with the rating ceiling C, so a
purchase-behavior row lives in {0, 1/C, ..., 1} with 0 meaning "not
purchased".
`split_rows` draws every seeded split (warm/cold users, the validation
slice); cache rows are users in strictly increasing id order.  The dataset
cache, and `nn`'s checkpoints, are .npz archives written by one writer,
`_write_archive`, and read by one reader, `_read_archive`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from tokenize import TokenError

import numpy as np

CACHE_VERSION = 2

# Declared dataset-wide constants (item counts include never-rated items).
DATASET_INFO = {
    "ml100k": {"users": 943, "items": 1682, "max_rating": 5},
    "ml1m": {"users": 6040, "items": 3952, "max_rating": 5},
}

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
    """Parse a ratings file; fmt is 'ml100k' or 'ml1m'.

    Returns an (n, 4) int64 array of (user, item, rating, timestamp), one
    row per non-blank line.  The checks run over the whole file in turn
    (field counts, then integers, then ratings), and a ParseError names
    the first line that fails one.
    """
    sep = {"ml100k": "\t", "ml1m": "::"}[fmt]
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


def parse_users(path, fmt: str) -> dict[int, UserMeta]:
    """Parse user metadata (u.user or users.dat) keyed by user id."""
    users = {}
    if fmt == "ml100k":
        for lineno, line in enumerate(_read_lines(path), start=1):
            if not line.strip():
                continue
            parts = line.split("|")
            if len(parts) != 5:
                raise ParseError(f"{path}:{lineno}: expected 5 fields")
            uid, age, gender, occupation, _zip = parts
            uid = _int_field(uid, "user id", path, lineno)
            users[uid] = UserMeta(uid, _int_field(age, "age", path, lineno),
                                  gender, occupation)
    elif fmt == "ml1m":
        for lineno, line in enumerate(_read_lines(path), start=1):
            if not line.strip():
                continue
            parts = line.split("::")
            if len(parts) != 5:
                raise ParseError(f"{path}:{lineno}: expected 5 fields")
            uid, gender, age, occupation, _zip = parts
            uid = _int_field(uid, "user id", path, lineno)
            users[uid] = UserMeta(uid, _int_field(age, "age", path, lineno),
                                  gender, occupation)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return users


def parse_item_genres(path, fmt: str) -> dict[int, list[str]]:
    """Parse item genre tags (u.item or movies.dat) keyed by item id."""
    genres = {}
    if fmt == "ml100k":
        # u.item: id|title|release|video-release|url|19 genre flags
        for lineno, line in enumerate(_read_lines(path, encoding="latin-1"), start=1):
            if not line.strip():
                continue
            parts = line.split("|")
            if len(parts) != 5 + len(ML100K_GENRES):
                raise ParseError(f"{path}:{lineno}: expected {5 + len(ML100K_GENRES)} fields")
            item_id = _int_field(parts[0], "item id", path, lineno)
            flags = parts[5:]
            genres[item_id] = [g for g, f in zip(ML100K_GENRES, flags) if f == "1"]
    elif fmt == "ml1m":
        for lineno, line in enumerate(_read_lines(path, encoding="latin-1"), start=1):
            if not line.strip():
                continue
            parts = line.split("::")
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 fields")
            item_id = _int_field(parts[0], "item id", path, lineno)
            genres[item_id] = [g for g in parts[2].split("|") if g]
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return genres


def build_purchase_matrix(ratings, m: int, max_rating: int = 5):
    """Normalized purchase-behavior rows, one per user in `ratings`.

    `ratings` is parse_ratings' (n, 4) array.  Returns (user_ids, matrix)
    with matrix[k, i-1] = rating/C for user user_ids[k] and item i, 0 where
    unrated.  Duplicate (user, item) pairs keep the latest timestamp; on
    equal timestamps the later row wins.
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
    matrix = np.zeros((len(user_ids), m), dtype=np.float64)
    matrix.flat[cell[latest]] = rating[latest] / max_rating
    return user_ids.tolist(), matrix


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


def sparsity_percent(matrix) -> float:
    """Percentage of zero entries in a users x items purchase matrix."""
    matrix = np.asarray(matrix)
    if matrix.size == 0:
        raise ValueError("empty purchase matrix")
    return 100.0 * float(np.count_nonzero(matrix == 0.0)) / matrix.size


# ---------------------------------------------------------------------------
# Archives (caches and checkpoints): .npz files with a json `header` member
# that holds the format version.  The cache (CACHE_VERSION 2) holds:
#   header   : json {version, dataset, m, d, max_rating}
#   user_ids : int64 (users,), strictly increasing
#   purchase : float64 (users x m)
#   tfidf    : float64 (users x d)
#   schema   : json string (attribute slot list, see features.AttributeSchema)
# ---------------------------------------------------------------------------


def _write_archive(path, header: dict, savez, **arrays) -> None:
    """`savez` of the json `header` and `arrays` into a temp file beside
    `path`, renamed over it, so no reader sees a partial file; the file gets
    the umask's mode."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp.npz")
    try:
        savez(tmp, header=json.dumps(header, sort_keys=True), **arrays)
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
    purchase: np.ndarray
    tfidf: np.ndarray
    schema_json: str

    @property
    def m(self) -> int:
        return self.purchase.shape[1]

    @property
    def d(self) -> int:
        return self.tfidf.shape[1]

    def schema_hash(self) -> str:
        return hashlib.sha256(self.schema_json.encode()).hexdigest()[:16]


def save_cache(cache: DatasetCache, path) -> None:
    """Atomic write of the dataset cache."""
    header = {"version": CACHE_VERSION, "dataset": cache.dataset, "m": cache.m,
              "d": cache.d, "max_rating": cache.max_rating}
    _write_archive(path, header, np.savez_compressed,
                   user_ids=np.asarray(cache.user_ids, dtype=np.int64),
                   purchase=cache.purchase, tfidf=cache.tfidf, schema=cache.schema_json)


def load_cache(path) -> DatasetCache:
    """The cache at `path`.  An unreadable, damaged or truncated file, another
    format version, a missing array, user ids that are not a strictly
    increasing int64 vector, or an array of another dtype or of a shape that
    disagrees with the user count and the header's m and d raise ValueError
    naming path and problem; a missing file, FileNotFoundError."""
    with _read_archive(path, "cache", CACHE_VERSION, "prepare") as (header, z):
        user_ids = _archive_array(z, "user_ids", np.int64, (None,))
        if np.any(np.diff(user_ids) <= 0):
            raise ValueError("user_ids are not strictly increasing")
        n = len(user_ids)
        return DatasetCache(
            dataset=header["dataset"],
            max_rating=header["max_rating"],
            user_ids=user_ids.tolist(),
            purchase=_archive_array(z, "purchase", np.float64, (n, header["m"])),
            tfidf=_archive_array(z, "tfidf", np.float64, (n, header["d"])),
            schema_json=str(_archive_array(z, "schema", np.str_, ())),
        )


def cache_content_hash(cache: DatasetCache) -> str:
    """Hash of the cache payload.  The file bytes are not a content key: the
    zip members carry a fixed 1980 date, but the compressed bytes depend on
    the zlib build.  The trailing 1 is the content layout, not CACHE_VERSION,
    so a file-format change keeps every recorded hash."""
    h = hashlib.sha256()
    h.update(cache.schema_json.encode())
    h.update(np.asarray(cache.user_ids, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(cache.purchase).tobytes())
    h.update(np.ascontiguousarray(cache.tfidf).tobytes())
    h.update(f"{cache.dataset}|{cache.max_rating}|1".encode())
    return h.hexdigest()


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
