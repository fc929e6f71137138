"""MovieLens ingestion: rating parsers, purchase matrices, seeded row splits.

Supports the 100K layout (``u.data`` / ``u.user`` / ``u.item``, tab- and
pipe-separated) and the 1M layout (``ratings.dat`` / ``users.dat`` /
``movies.dat``, ``::``-separated).  `LAYOUTS` is the one place that knows
each layout: its file names (every one required), separators, user
columns, item count m and attribute slots (age and occupation code books,
genres); the parsers, `features.layout_schema`, `pipeline` and the CLI
read it.  Both layouts rate 1..C stars, C = `MAX_RATING`.  A ratings file
has one grammar, lines of four ASCII digit runs (`parse_ratings`): a file
in it is read by one `np.loadtxt` into an (n, 4) int64 array of (user,
item, rating, timestamp) rows, and any other file is refused at its first
line outside it.  Every integer field of a raw file is a run of ASCII
digits that fits in int64.  Ratings are
normalized to [0, 1] by dividing with the rating ceiling C, so a
purchase-behavior row lives in {0, 1/C, ..., 1} with 0 meaning "not
purchased".  Purchase rows are 96% zeros, so they stay in CSR form
(`PurchaseRows`) from `build_purchase_matrix` to the minibatch: only a
training step's minibatch is made dense, and the scorer reads CSR rows.
`split_rows` draws every seeded split (warm/cold users, the validation
slice); cache rows are users in strictly increasing id order.  The dataset
cache, and `nn`'s checkpoints, are .npz archives written by one writer,
`_write_archive`, and read by one reader, `_read_archive`.  Each json
document they carry has one spec (`CACHE_HEADER`, `SCHEMA`,
`nn.CHECKPOINT_HEADER`, `cli.RUN_METADATA`), checked by `check_document`.
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
from dataclasses import asdict, dataclass, fields
from functools import cached_property
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

# ML1M's age code book (see the dataset README).
ML1M_AGE_CODES = [1, 18, 25, 35, 45, 50, 56]

# The gender slots of every layout.
GENDERS = ("M", "F")

# The rating ceiling C of every layout: ratings are 1..C stars.
MAX_RATING = 5


# Each raw layout: its files by role, the ratings and the metadata (users,
# items) separators, the columns of age, gender and occupation in a user
# line, the declared item count m (never-rated items included) and its
# attribute slots: the age and occupation code books (None: the distinct
# ages of the users file, and the lines of u.occupation), the genres, and
# whether an item line flags them 0/1 in that order after its first five
# fields (else a |-list as the third field).
LAYOUTS = {
    "ml100k": {"files": {"ratings": "u.data", "users": "u.user", "items": "u.item",
                         "occupations": "u.occupation"},
               "sep": "\t", "meta_sep": "|", "user_columns": (1, 2, 3),
               "m": 1682, "ages": None, "occupations": None,
               "genres": tuple(ML100K_GENRES), "genre_flags": True},
    "ml1m": {"files": {"ratings": "ratings.dat", "users": "users.dat", "items": "movies.dat"},
             "sep": "::", "meta_sep": "::", "user_columns": (2, 1, 3),
             "m": 3952, "ages": tuple(ML1M_AGE_CODES),
             "occupations": tuple(str(code) for code in range(21)),
             "genres": tuple(ML1M_GENRES), "genre_flags": False},
}


class ParseError(ValueError):
    """A raw MovieLens file failed to parse; message names the line."""


@dataclass
class UserMeta:
    user_id: int
    age: int            # raw age (100K) or age code (1M)
    gender: str         # "M" or "F"
    occupation: str     # occupation name (100K) or stringified code (1M)


def read_bytes(path) -> bytes:
    """The bytes of an input file.  A missing file raises FileNotFoundError;
    a path that is no readable file (a directory, say) raises ValueError
    naming the path."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ValueError(f"{path}: cannot read: {exc.strerror or exc}") from None


def read_text(path, encoding="utf-8") -> str:
    """`read_bytes` decoded; text that does not decode raises ValueError
    naming the path."""
    try:
        return read_bytes(path).decode(encoding)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: cannot read: {exc}") from None


def _raw_file(path):
    """`path`, which names a raw file that must exist."""
    if not Path(path).exists():
        raise FileNotFoundError(f"raw file not found: {path}")
    return path


def parse_ratings(path, fmt: str) -> np.ndarray:
    """The (n, 4) int64 (user, item, rating, timestamp) rows of a ratings
    file, one per non-empty line; fmt is a `LAYOUTS` key.  The grammar:
    lines end in "\n" (the last may lack it), and each is empty or four
    ASCII digit runs joined by the layout's separator, each in int64, the
    rating in 1..MAX_RATING.  A file in it is read by one `np.loadtxt`;
    any other raises ParseError at its first line outside it, which
    `rating_lines` finds."""
    sep = LAYOUTS[fmt]["sep"]
    raw = read_bytes(_raw_file(path))
    if raw.count(b"\n") == len(raw):      # empty or newlines only, found without a copy
        return np.zeros((0, 4), dtype=np.int64)
    # With no sign, space, underscore or dot in a field, numpy's integer
    # parser is the grammar's in every numpy version; a ':' outside a '::'
    # stays in a field, which loadtxt refuses.  It reads bytes: a StringIO
    # of the text would hold a copy at 4 bytes per character.
    if not raw.translate(None, b"0123456789\n" + sep.encode()):
        try:
            with warnings.catch_warnings():
                # numpy < 2 retries an integer field that fails as a float,
                # with a DeprecationWarning.
                warnings.simplefilter("error")
                ratings = np.loadtxt(io.BytesIO(raw.replace(sep.encode(), b"\t")),
                                     delimiter="\t", dtype=np.int64, comments=None, ndmin=2,
                                     encoding="ascii")
        except (ValueError, OverflowError, Warning):
            pass
        else:
            if ratings.shape[1] == 4 and np.all((ratings[:, 2] >= 1)
                                                & (ratings[:, 2] <= MAX_RATING)):
                return ratings
    for _ in rating_lines(path, fmt):
        pass
    raise ParseError(f"{path}: np.loadtxt refused the file, yet no line breaks the grammar")


def rating_lines(path, fmt: str):
    """Yields (line number, [user, item, rating, timestamp]) of each
    non-empty line of the ratings file `path`, empty lines counted; a line
    outside `parse_ratings`' grammar raises ParseError.  No other code
    splits a ratings line."""
    sep = LAYOUTS[fmt]["sep"]
    for lineno, line in enumerate(read_bytes(path).decode("utf-8", "backslashreplace")
                                  .split("\n"), 1):
        if not line:
            continue
        fields = line.split(sep)
        if len(fields) != 4:
            raise ParseError(f"{path}:{lineno}: expected 4 fields, got {len(fields)}")
        row = [_int_field(field, "field", path, lineno) for field in fields]
        if not 1 <= row[2] <= MAX_RATING:
            raise ParseError(f"{path}:{lineno}: rating {row[2]} outside 1..{MAX_RATING}")
        yield lineno, row


def _int_field(raw: str, name: str, path, lineno: int) -> int:
    """A raw file's integer field: a run of ASCII digits that fits in int64."""
    digits = raw.lstrip("0") or "0"
    if raw.isascii() and raw.isdigit() and len(digits) <= 19 and int(digits) < 2**63:
        return int(digits)
    raise ParseError(f"{path}:{lineno}: non-integer {name} {raw!r}")


def _metadata_rows(path, sep: str, n_fields: int, what: str, encoding: str,
                   parse_id=_int_field):
    """Yields (line number, id, fields) for each non-blank line of a
    metadata file: `n_fields` `sep`-separated fields, the first the id
    `parse_id(field, what, path, lineno)`, by default an integer `what`
    ("user id" or "item id").  A wrong field count, a bad id and an id
    that repeats an earlier line raise ParseError."""
    first_line = {}
    for lineno, line in enumerate(read_text(_raw_file(path), encoding).splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split(sep)
        if len(parts) != n_fields:
            raise ParseError(f"{path}:{lineno}: expected {n_fields} fields, got {len(parts)}")
        key = parse_id(parts[0], what, path, lineno)
        if key in first_line:
            raise ParseError(f"{path}:{lineno}: {what} {key} repeats line {first_line[key]}")
        first_line[key] = lineno
        yield lineno, key, parts


def parse_users(path, fmt: str, occupations=()) -> dict[int, UserMeta]:
    """Parse user metadata (u.user or users.dat) keyed by user id.  A user
    attribute with no slot in the layout's schema raises ParseError naming
    the line: a gender other than GENDERS, an age outside the layout's code
    book, or an occupation outside its code book or else `occupations`
    (u.occupation's names, which ML100K needs)."""
    layout = LAYOUTS[fmt]
    age, gender, occupation = layout["user_columns"]
    slots = {"gender": GENDERS, "age": layout["ages"],
             "occupation": layout["occupations"] or tuple(occupations)}
    users = {}
    for lineno, uid, parts in _metadata_rows(path, layout["meta_sep"], 5, "user id", "utf-8"):
        user = UserMeta(uid, _int_field(parts[age], "age", path, lineno),
                        parts[gender], parts[occupation])
        for what, values in slots.items():
            if values is not None and getattr(user, what) not in values:
                raise ParseError(f"{path}:{lineno}: {what} {getattr(user, what)!r} "
                                 f"has no attribute slot")
        users[uid] = user
    return users


def parse_item_genres(path, fmt: str) -> dict[int, list[str]]:
    """Parse item genre tags (u.item: id|title|release|video-release|url|
    19 genre flags, or movies.dat: id::title::Genre|Genre) keyed by item id.
    A flag other than 0 or 1, or a genre outside the layout's genres, raises
    ParseError naming the line."""
    layout = LAYOUTS[fmt]
    flags = layout["genres"] if layout["genre_flags"] else ()
    rows = _metadata_rows(path, layout["meta_sep"], 5 + len(flags) if flags else 3,
                          "item id", "latin-1")
    if flags:
        return {item: [g for g, f in zip(flags, parts[5:]) if _genre_flag(f, path, lineno)]
                for lineno, item, parts in rows}
    items = {}
    for lineno, item, parts in rows:
        items[item] = [g for g in parts[2].split("|") if g]
        unknown = [g for g in items[item] if g not in layout["genres"]]
        if unknown:
            raise ParseError(f"{path}:{lineno}: genre {unknown[0]!r} has no attribute slot")
    return items


def _genre_flag(raw: str, path, lineno: int) -> bool:
    if raw not in ("0", "1"):
        raise ParseError(f"{path}:{lineno}: genre flag {raw!r} is not 0 or 1")
    return raw == "1"


def parse_occupations(path) -> list[str]:
    """The occupation names of u.occupation, one a non-blank line, in file
    order; a name that an earlier line lists raises ParseError."""
    rows = _metadata_rows(path, LAYOUTS["ml100k"]["meta_sep"], 1, "occupation", "utf-8",
                          parse_id=lambda raw, *_: raw.strip())
    return [name for _, name, _ in rows]


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


def build_purchase_matrix(ratings, m: int):
    """Normalized purchase-behavior rows, one per user in `ratings`.

    `ratings` is parse_ratings' (n, 4) int64 array.  Returns (user_ids, rows):
    the strictly increasing int64 array of `np.unique`, which the cache
    keeps as it is, and PurchaseRows whose dense row k has rating/C at
    column i-1 for user user_ids[k] and item i, 0 where unrated.
    Duplicate (user, item) pairs keep the latest timestamp; on equal
    timestamps the later row wins.
    `ratings` holds at least one row and every item id lies in 1..m, as
    `pipeline.prepare_dataset` ensures before it calls this.
    """
    user, item, rating, ts = ratings.T
    user_ids, row = np.unique(user, return_inverse=True)
    cell = row * m + (item - 1)
    # Stable sort by cell, then timestamp: each cell's last row is its latest.
    order = np.lexsort((ts, cell))
    latest = order[np.append(cell[order][1:] != cell[order][:-1], True)]
    cells = cell[latest]            # increasing: row-major order
    indptr = np.searchsorted(cells, np.arange(len(user_ids) + 1) * m)
    return user_ids, PurchaseRows(indptr, cells % m, rating[latest] / MAX_RATING, m)


def held_count(n: int, fraction: float) -> int:
    """The number of rows `split_rows` holds out of n: round-half-up of
    fraction*n, for a fraction in [0, 1), as `cli._load_split` (the cold
    fraction) and `train.TrainConfig` (the validation fraction) check it."""
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
    return 100.0 * float(size - rows.nnz) / size


# ---------------------------------------------------------------------------
# Archives (caches and checkpoints): .npz files with a json `header` member
# that holds the format version, written stored (uncompressed); the reader
# also takes deflated members.  The cache (CACHE_VERSION 3) holds the
# purchase rows in CSR form:
#   header   : json CACHE_HEADER document
#   user_ids : int64 (users,), strictly increasing
#   indptr   : int64 (users + 1,), from 0, never decreasing, ending at nnz
#   items    : int32 (nnz,), 0-based ids in 0..m-1, increasing within a row
#   ratings  : uint8 (nnz,), in 1..C (the purchase value times C)
#   tfidf    : float64 (users x d)
#   schema   : json SCHEMA document, whose slots are the d tfidf columns
# ---------------------------------------------------------------------------

_SIZE = (int, "an integer >= 1", lambda v: v >= 1)
_STRINGS = (list, "a list of strings", lambda v: all(type(s) is str for s in v))
CACHE_HEADER = {
    "version": (int, f"the supported version {CACHE_VERSION}; re-run prepare",
                lambda v: v == CACHE_VERSION),
    "dataset": (str, "a string", None), "m": _SIZE, "d": _SIZE,
    "max_rating": (int, f"the rating ceiling {MAX_RATING}", lambda v: v == MAX_RATING)}
SCHEMA = {"dataset": (str, "a string", None),
          "age_values": (list, "a list of integers", lambda v: all(type(a) is int for a in v)),
          "gender_values": _STRINGS, "occupation_values": _STRINGS, "genre_values": _STRINGS}


def check_document(doc, spec: dict, what: str) -> dict:
    """`doc`, refused unless it is a json object with every key of `spec`,
    which maps a key to (the type `json.loads` gives its value, a bool being
    no int; words for the type and range; the range's test or None)."""
    if type(doc) is not dict:
        raise ValueError(f"{what} is not a json object")
    for key, (kind, words, test) in spec.items():
        if key not in doc:
            raise ValueError(f"{what} has no {key!r}")
        if type(doc[key]) is not kind or not (test is None or test(doc[key])):
            raise ValueError(f"{what} {key} {doc[key]!r} is not {words}")
    return doc


def _write_archive(path, header: dict, **arrays) -> None:
    """The `np.savez` file of the json `header` and the `arrays`, written
    into a temp file beside `path` and renamed over it, so no reader sees a
    partial file; the file gets the umask's mode.  Each member is opened as
    `np.savez` opens it and gets the .npy 1.0 header `np.save` writes, then
    the array's own buffer: `np.savez` copies each array out in chunks of up
    to 16 MiB, a theta-sized copy for a checkpoint.  The bytes are
    `np.savez`'s.  Every array must be C-contiguous, as every caller's is:
    `memoryview.cast` raises TypeError for any other."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp.npz")
    members = {"header": json.dumps(header, sort_keys=True), **arrays}
    try:
        with zipfile.ZipFile(tmp, mode="w", compression=zipfile.ZIP_STORED,
                             allowZip64=True) as zf:
            for name, value in members.items():
                arr = np.asarray(value)
                with zf.open(f"{name}.npy", "w", force_zip64=True) as member:
                    np.lib.format.write_array_header_1_0(
                        member, np.lib.format.header_data_from_array_1_0(arr))
                    member.write(memoryview(arr).cast("B"))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@contextmanager
def _read_archive(path, what: str, spec: dict):
    """Yields (header, archive) of the archive at `path`.  A header that
    breaks `spec` (its format version included), and every failure to read
    the archive, here or in the caller's block, raise ValueError("<what>
    <path>: ..."); a missing file raises FileNotFoundError."""
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as z:
            header = json.loads(str(_archive_array(z, "header", np.str_, ())))
            yield check_document(header, spec, "header"), z
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
    `shape` (a None length matches any), and a float array unless it holds
    no NaN or inf.  The member is read to its end, where zipfile checks its
    CRC: numpy stops after the array's bytes."""
    if name not in z.files:
        raise ValueError(f"{name} is not a file in the archive")
    with z.zip.open(f"{name}.npy") as member:
        arr = np.lib.format.read_array(member, allow_pickle=False)
        member.read()
    if not (np.issubdtype(arr.dtype, dtype) and len(arr.shape) == len(shape) and all(
            want in (None, got) for got, want in zip(arr.shape, shape))):
        raise ValueError(f"array '{name}' is {arr.dtype} {arr.shape}, "
                         f"expected {np.dtype(dtype).name} {shape}")
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise ValueError(f"array '{name}' holds a NaN or an inf")
    return arr


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered attribute slots; slot order defines the vector layout."""

    dataset: str
    age_values: tuple          # observed ages (100K) or age codes (1M)
    gender_values: tuple       # ("M", "F")
    occupation_values: tuple   # names (100K) or stringified codes (1M)
    genre_values: tuple

    @property
    def d(self) -> int:
        return (len(self.age_values) + len(self.gender_values)
                + len(self.occupation_values) + len(self.genre_values))

    def slot_names(self) -> list[str]:
        return ([f"age={a}" for a in self.age_values]
                + [f"gender={g}" for g in self.gender_values]
                + [f"occupation={o}" for o in self.occupation_values]
                + [f"genre={g}" for g in self.genre_values])

    def slot_index(self) -> dict[str, int]:
        return {name: k for k, name in enumerate(self.slot_names())}

    def to_json(self) -> str:
        """The schema's json document, as the cache stores it and its hashes
        read it: made at the first call and kept, since the schema is frozen."""
        return self._json

    @cached_property
    def _json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> AttributeSchema:
        obj = check_document(json.loads(text), SCHEMA, "schema")
        return cls(obj["dataset"], *(tuple(obj[f.name]) for f in fields(cls)[1:]))


@dataclass
class DatasetCache:
    """A prepared dataset: row k of `purchase` and of `tfidf` belongs to the
    user `user_ids[k]`, an int64 array that strictly increases, as
    `build_purchase_matrix` returns it and `load_cache` reads it."""

    dataset: str
    user_ids: np.ndarray
    purchase: PurchaseRows
    tfidf: np.ndarray
    schema: AttributeSchema

    @property
    def m(self) -> int:
        return self.purchase.m

    @property
    def d(self) -> int:
        return self.tfidf.shape[1]

    def schema_hash(self) -> str:
        return hashlib.sha256(self.schema.to_json().encode()).hexdigest()[:16]


def save_cache(cache: DatasetCache, path) -> None:
    """Atomic write of the dataset cache, whose purchase values are
    ratings 1..C divided by C, as `parse_ratings` bounds them."""
    rows = cache.purchase
    ratings = np.rint(rows.values * MAX_RATING).astype(np.uint8)
    header = {"version": CACHE_VERSION, "dataset": cache.dataset, "m": cache.m,
              "d": cache.d, "max_rating": MAX_RATING}
    _write_archive(path, header, user_ids=cache.user_ids, indptr=rows.indptr,
                   items=rows.items, ratings=ratings, tfidf=cache.tfidf,
                   schema=cache.schema.to_json())


def load_cache(path) -> DatasetCache:
    """The cache at `path`.  An unreadable, damaged or truncated file, a
    header or schema that breaks CACHE_HEADER or SCHEMA, a header dataset
    that is no `LAYOUTS` key or an m other than its item count, a schema
    whose slot count is not d, a missing array, an array of another dtype
    or of a shape that disagrees with the user count and the header's d,
    user ids that do not strictly increase, purchase rows that break a
    CSR rule of the layout above, or a tfidf that holds a NaN or an inf
    raise ValueError naming path and problem; a missing file,
    FileNotFoundError."""
    with _read_archive(path, "cache", CACHE_HEADER) as (header, z):
        dataset, m, d = header["dataset"], header["m"], header["d"]
        if dataset not in LAYOUTS:
            raise ValueError(f"header dataset {dataset!r} is not one of {sorted(LAYOUTS)}")
        if m != LAYOUTS[dataset]["m"]:
            raise ValueError(f"header m {m} is not the {dataset} item count "
                             f"{LAYOUTS[dataset]['m']}")
        user_ids = _archive_array(z, "user_ids", np.int64, (None,))
        if np.any(np.diff(user_ids) <= 0):
            raise ValueError("user_ids are not strictly increasing")
        n = len(user_ids)
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
        if np.any((ratings < 1) | (ratings > MAX_RATING)):
            raise ValueError(f"ratings outside 1..{MAX_RATING}")
        # C order, also for a member np.save wrote in Fortran order.
        tfidf = np.ascontiguousarray(_archive_array(z, "tfidf", np.float64, (n, d)))
        schema = AttributeSchema.from_json(str(_archive_array(z, "schema", np.str_, ())))
        if schema.d != d:
            raise ValueError(f"schema age_values, gender_values, occupation_values and "
                             f"genre_values hold {schema.d} slots, not the tfidf width {d}")
        return DatasetCache(
            dataset=dataset,
            user_ids=user_ids,
            purchase=PurchaseRows(indptr, items, ratings / MAX_RATING, m),
            tfidf=tfidf,
            schema=schema,
        )


def cache_content_hash(cache: DatasetCache) -> str:
    """Hash of the cache payload, the purchase rows in their CSR arrays.
    The file bytes are not a content key: a deflated member's bytes depend
    on the zlib build.  The trailing 2 is the content layout, not
    CACHE_VERSION, so a file-format change keeps every recorded hash."""
    rows = cache.purchase
    h = hashlib.sha256()
    h.update(cache.schema.to_json().encode())
    for arr in (cache.user_ids, rows.indptr, rows.items, rows.values, cache.tfidf):
        h.update(arr)       # its buffer: prepare's and load_cache's are C-contiguous
    h.update(f"{cache.dataset}|{MAX_RATING}|{rows.m}|2".encode())
    return h.hexdigest()


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
