"""Top-n ranking metrics (P@n, NDCG@n, MRR@n) and the ItemPop baseline.

Held-out behavior is `data.PurchaseRows`, never made dense: an item is
relevant for a cold user iff the user's row stores it (every stored entry
is a purchase).  NDCG uses binary gains by default (graded 2^(C*r)-1 gains
behind a flag, C being `data.MAX_RATING`, so a stored r = rating/C gains
2^rating - 1; the ideal DCG is built from the user's own sorted gains);
users with no held-out purchases are excluded from the means.  Ranking is
by descending score, tie-broken by ascending item id, so metrics depend
only on the stable argsort of the negated scores; only its first max(ns)
positions are computed (`rank_items`' top-k rule).

One scorer serves every caller: `evaluate_report` takes one score row per
user, or one row shared by all users (ItemPop's popularity counts), ranks
each row it is given once, and finds which ranked items each user stored
with one `np.searchsorted` over the CSR entries.  A score matrix is ranked
in row blocks of about RANK_BLOCK elements, so no temporary of the
matrix's size is made.  DCG sums run left to right over rank positions
(`np.cumsum`), in the order of a per-user loop, so every value has the
bits that loop gives.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import MAX_RATING, PurchaseRows

DEFAULT_NS = (5, 20)

# `evaluate_report` ranks a score matrix in row blocks of about this many
# elements (1 MiB of float64), so the ranking's temporaries (the negated
# scores, their partition, the masks) stay block-sized.
RANK_BLOCK = 131072


def rank_items(scores, k=None) -> np.ndarray:
    """1-based item ids by descending score along the last axis, lower id
    first on ties: a 1-D row gives one ranking, a 2-D batch one per row.
    Only the first k positions are returned, all of them when k is None.

    For a 2-D batch with 0 < k < m the rows are not sorted whole: each is
    partitioned to its k-th score, and only the entries at or above it are
    ordered.  Ties at the k-th score keep the lowest ids that fit.  A NaN
    among the first k, and every other input, takes the full stable sort.
    Either way the result is np.argsort(-scores, kind="stable")[..., :k] + 1.
    """
    neg = -np.asarray(scores, dtype=np.float64)
    ranking = None
    if neg.ndim == 2 and len(neg) and k is not None and 0 < k < neg.shape[1]:
        ranking = _top_k(neg, k)
    if ranking is None:
        ranking = np.argsort(neg, axis=-1, kind="stable")[..., :k]
    ranking += 1
    return ranking


def _top_k(neg, k: int):
    """The first k columns of each row's stable argsort of `neg`, or None
    when a row's k-th value is NaN (NaN sorts last)."""
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1:k]
    if np.isnan(kth).any():
        return None
    keep = neg <= kth
    count = np.count_nonzero(keep, axis=1)
    for row in np.flatnonzero(count > k):
        # Ties at the k-th value overflow the row: the lowest ids rank first.
        tied = np.flatnonzero(neg[row] == kth[row, 0])
        keep[row, tied[k - count[row] + len(tied):]] = False
    items = np.nonzero(keep)[1].reshape(-1, k)      # ascending ids per row
    order = np.argsort(np.take_along_axis(neg, items, axis=1), axis=1, kind="stable")
    return np.take_along_axis(items, order, axis=1)


@dataclass
class MetricReport:
    ns: tuple
    users: np.ndarray    # keys of the users scored, in input order
    values: dict         # "P@5", ... -> float64 array, one value per user
    n_skipped: int = 0   # users with no relevant items

    @property
    def n_users(self) -> int:
        return len(self.users)

    def aggregate(self) -> dict:
        return {key: float(np.mean(vals)) if vals.size else float("nan")
                for key, vals in self.values.items()}

    def write_csv(self, path):
        keys = [f"{p}@{n}" for n in self.ns for p in ("P", "N", "M")]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["user", *keys])
            for i in np.argsort(self.users, kind="stable"):
                w.writerow([self.users[i]] + [f"{self.values[k][i]:.10g}" for k in keys])
            agg = self.aggregate()
            w.writerow(["mean"] + [f"{agg[k]:.10g}" for k in keys])

    def format_table(self) -> str:
        agg = self.aggregate()
        lines = [f"users evaluated: {self.n_users}  (skipped, no relevant: {self.n_skipped})"]
        header = "      " + "".join(f"{'@' + str(n):>10}" for n in self.ns)
        lines.append(header)
        for prefix, label in (("P", "Precision"), ("N", "NDCG"), ("M", "MRR")):
            row = f"{label:<10}" + "".join(
                f"{agg[f'{prefix}@{n}']:>10.4f}" for n in self.ns)
            lines.append(row)
        return "\n".join(lines)


def evaluate_predictions(predictions, held_out, ns=DEFAULT_NS) -> dict:
    """The binary means of `evaluate_report`: a name of its own because the
    benchmark's tracer self-test patches `train.evaluate_predictions`."""
    return evaluate_report(predictions, held_out, ns=ns).aggregate()


def evaluate_report(scores, held_out: PurchaseRows, ns=DEFAULT_NS, user_keys=None,
                    graded: bool = False) -> MetricReport:
    """P@n, NDCG@n and MRR@n for every user with a held-out purchase.

    `scores` is either one row per `held_out` row (n x m) or one row of m
    item scores shared by every user, which every caller ensures (`eval`
    checks a checkpoint's widths against the cache); `ns` holds cutoffs >= 1
    and `user_keys` one key per row.  P@n divides by n even when n exceeds
    the number of items.
    """
    ns = tuple(ns)
    scores = np.asarray(scores, dtype=np.float64)
    n_rows, m = len(held_out), held_out.m
    users = np.asarray(range(n_rows) if user_keys is None else user_keys)

    k = max(ns)
    # Each row is ranked on its own, so row blocks keep every bit.
    step = max(1, RANK_BLOCK // max(m, 1))
    blocks = [scores] if scores.ndim == 1 else [
        scores[a:a + step] for a in range(0, max(n_rows, 1), step)]
    top = np.concatenate([rank_items(block, k) for block in blocks]) - 1
    count = np.diff(held_out.indptr)
    keep = count > 0
    rows = np.flatnonzero(keep)
    top = top[keep] if top.ndim == 2 else top
    # Keys row*m + item increase along the CSR arrays, and the sentinel n*m
    # lies past every query.  Positions past the last item query -1: no hit.
    entry_row = np.repeat(np.arange(n_rows), count)
    keys = np.append(entry_row * m + held_out.items, n_rows * m)
    query = np.full((len(rows), k), -1)
    query[:, :top.shape[-1]] = rows[:, None] * m + top
    at = np.searchsorted(keys, query)
    hit = keys[at] == query
    ideal = np.arange(k) < count[keep][:, None]
    if graded:
        # Only stored entries carry a gain (2^0 - 1 = 0 elsewhere).  The
        # ideal DCG is the DCG of the user's own k largest gains, in
        # descending order.
        gain = 2.0 ** (held_out.values * MAX_RATING) - 1.0
        ranked_gain = np.append(gain, 0.0)[np.where(hit, at, held_out.nnz)]
        descending = np.append(gain[np.lexsort((-gain, entry_row))], 0.0)
        start = held_out.indptr[rows][:, None]
        ideal = descending[np.where(ideal, start + np.arange(k), held_out.nnz)]
    else:
        ranked_gain = hit
    discount = np.log2(np.arange(2, k + 2))
    hits = np.cumsum(hit, axis=1)
    dcg = np.cumsum(ranked_gain / discount, axis=1)
    idcg = np.cumsum(ideal / discount, axis=1)
    first = np.argmax(hit, axis=1) + 1

    values = {}
    for n in ns:
        values[f"P@{n}"] = hits[:, n - 1] / n
        values[f"N@{n}"] = dcg[:, n - 1] / idcg[:, n - 1]
        values[f"M@{n}"] = np.where(hits[:, n - 1] > 0, 1.0 / first, 0.0)
    return MetricReport(ns=ns, users=users[keep], values=values,
                        n_skipped=int(np.count_nonzero(~keep)))


def item_popularity(warm_rows: PurchaseRows) -> np.ndarray:
    """ItemPop's score row: each item's purchase count (stored entries)
    over the warm users."""
    if len(warm_rows) < 1:
        raise ValueError("empty warm purchase matrix")
    return np.bincount(warm_rows.items, minlength=warm_rows.m)

