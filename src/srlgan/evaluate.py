"""Top-n ranking metrics (P@n, NDCG@n, MRR@n) and the ItemPop baseline.

An item is relevant for a cold user iff its held-out normalized rating is
nonzero.  NDCG uses binary gains by default (graded 2^(C*r)-1 gains behind
a flag, with the ideal DCG built from the user's own sorted gains); users
with no held-out purchases are excluded from the means.  Ranking is by
descending score, tie-broken by ascending item id, so metrics depend only
on the stable argsort of the negated scores; only its first max(ns)
positions are computed (`rank_items`' top-k rule).

One scorer serves every caller: `evaluate_report` takes one score row per
user, or one row shared by all users (ItemPop's popularity counts), ranks
each row it is given once, and computes every metric for all users with
whole-array operations.  DCG sums run left to right over rank positions
(`np.cumsum`), in the order of a per-user loop, so every value has the
bits that loop gives.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import as_purchase_rows

DEFAULT_NS = (5, 20)


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


def evaluate_predictions(predictions, held_out, ns=DEFAULT_NS,
                         user_keys=None, graded: bool = False) -> dict:
    """Aggregate metrics for a batch of per-user prediction rows.

    Convenience wrapper over `evaluate_report` returning just the means.
    """
    return evaluate_report(predictions, held_out, ns=ns, user_keys=user_keys,
                           graded=graded).aggregate()


def _at_top(values, top, k: int) -> np.ndarray:
    """values[u, top[u, j]] for the first k rank positions; columns past
    the last item (k > m) are zero."""
    out = np.zeros((values.shape[0], k), dtype=values.dtype)
    out[:, :top.shape[1]] = np.take_along_axis(values, top, axis=1)
    return out


def evaluate_report(scores, held_out, ns=DEFAULT_NS, user_keys=None,
                    graded: bool = False) -> MetricReport:
    """P@n, NDCG@n and MRR@n for every user with a held-out purchase.

    `scores` is either one row per user (the shape of `held_out`) or one
    row of m item scores shared by every user.  P@n divides by n even when
    n exceeds the number of items.
    """
    ns = tuple(ns)
    if not ns or min(ns) < 1:
        raise ValueError(f"n must be >= 1, got {list(ns)}")
    scores = np.asarray(scores, dtype=np.float64)
    held_out = np.atleast_2d(np.asarray(held_out, dtype=np.float64))
    if scores.shape not in (held_out.shape, held_out.shape[1:]):
        raise ValueError(f"shape mismatch: {scores.shape} vs {held_out.shape}")
    users = np.asarray(range(len(held_out)) if user_keys is None else user_keys)
    if users.shape != held_out.shape[:1]:
        raise ValueError(f"{users.size} user keys for {len(held_out)} rows")

    k = max(ns)
    top = rank_items(scores, k) - 1
    relevant = held_out != 0
    keep = relevant.any(axis=1)
    relevant, users = relevant[keep], users[keep]
    top = top[keep] if top.ndim == 2 else top[None]
    hit = _at_top(relevant, top, k)
    if graded:
        # Unrated items carry no gain (2^0 - 1 = 0), so only the rated cells
        # are raised.  The ideal DCG is the DCG of the user's own k largest
        # gains, in descending order.
        gain = np.zeros(relevant.shape)
        gain[relevant] = 2.0 ** (held_out[keep][relevant] * 5.0) - 1.0
        ranked_gain = _at_top(gain, top, k)
        ideal = np.zeros((len(gain), k))
        ideal[:, :gain.shape[1]] = np.sort(gain, axis=1)[:, ::-1][:, :k]
    else:
        ranked_gain = hit
        ideal = np.arange(k) < np.count_nonzero(relevant, axis=1)[:, None]
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
    return MetricReport(ns=ns, users=users, values=values,
                        n_skipped=int(np.count_nonzero(~keep)))


def item_popularity(warm_rows) -> np.ndarray:
    """ItemPop's score row: each item's purchase count (nonzero entries)
    over the warm users, from `data.PurchaseRows` or a dense array."""
    rows = as_purchase_rows(warm_rows)
    if len(rows) < 1 or rows.m == 0:
        raise ValueError("empty warm purchase matrix")
    return np.bincount(rows.items, minlength=rows.m)

