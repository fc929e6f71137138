from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from srlgan import evaluate as E
from srlgan import train as T
from srlgan.data import PurchaseRows

csr = PurchaseRows.from_dense


# -- brute-force oracles: walk the ranked prefix item by item ---------------

def brute_precision(ranked, relevant, n):
    hits = 0
    for item in list(ranked)[:n]:
        if item in relevant:
            hits += 1
    return hits / n


def brute_ndcg(ranked, relevant, n):
    dcg = 0.0
    for pos, item in enumerate(list(ranked)[:n]):
        if item in relevant:
            dcg += 1.0 / np.log2(pos + 2)
    ideal = 0.0
    for pos in range(min(len(relevant), n)):
        ideal += 1.0 / np.log2(pos + 2)
    return dcg / ideal


def brute_mrr(ranked, relevant, n):
    for pos, item in enumerate(list(ranked)[:n]):
        if item in relevant:
            return 1.0 / (pos + 1)
    return 0.0


def test_rank_items_basic():
    assert E.rank_items([0.1, 0.9, 0.5]).tolist() == [2, 3, 1]


def test_rank_items_all_equal_is_id_order():
    assert E.rank_items([0.5] * 6).tolist() == [1, 2, 3, 4, 5, 6]


def test_rank_items_descending_input_identity():
    assert E.rank_items([0.9, 0.7, 0.3, 0.1]).tolist() == [1, 2, 3, 4]


def held_row(relevant, m):
    """A one-row held-out PurchaseRows with rating 1 at each relevant
    1-based item id."""
    row = np.zeros(m)
    row[np.array(sorted(relevant)) - 1] = 1.0
    return csr(row)


def scored(ranked, relevant, n):
    """P/N/M@n from the batched scorer for one user ranked as `ranked`
    (items not in `ranked` come after it, lower id first)."""
    ranked = np.asarray(ranked)
    m = max(ranked.max(), max(relevant))
    scores = np.zeros(m)
    scores[ranked - 1] = np.arange(len(ranked), 0, -1)
    report = E.evaluate_report(scores, held_row(relevant, m), ns=(n,))
    return tuple(float(report.values[f"{p}@{n}"][0]) for p in ("P", "N", "M"))


def test_rank_items_batch_ties_go_to_lower_id():
    scores = np.random.default_rng(3).integers(0, 3, size=(4, 300)) / 2.0
    oracle = [sorted(range(1, 301), key=lambda i: (-row[i - 1], i)) for row in scores]
    assert E.rank_items(scores).tolist() == oracle
    assert [E.rank_items(row).tolist() for row in scores] == oracle


def full_ranking(scores, k=None):
    """The reference `rank_items`: the full stable argsort, cut to k."""
    return np.argsort(-np.asarray(scores, dtype=np.float64), axis=-1, kind="stable")[..., :k] + 1


@st.composite
def tied_scores(draw):
    """A (rows x m) batch, 0 rows included, of quantized scores with heavy
    ties, mixed with NaN, +-inf and +-0.0."""
    rows, m = draw(st.integers(0, 6)), draw(st.integers(1, 30))
    value = st.one_of(st.integers(-2, 2).map(lambda v: v / 2),
                      st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]),
                      st.floats(-1, 1))
    pool = draw(st.lists(value, min_size=1, max_size=6))
    return draw(arrays(np.float64, (rows, m), elements=st.sampled_from(pool)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tied_scores())
def test_rank_items_top_k_is_the_head_of_the_full_ranking(scores):
    m = scores.shape[1]
    for k in (1, m - 1, m, m + 3, None):
        want = full_ranking(scores, k)
        got = E.rank_items(scores, k)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        for row in scores:
            assert np.array_equal(E.rank_items(row, k), full_ranking(row, k))


RATINGS = st.sampled_from([0.0, 0.2, 0.6, 1.0])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(tied_scores(), st.data())
def test_evaluate_report_top_k_same_bits_as_full_ranking(scores, data):
    rows, m = scores.shape
    held = csr(data.draw(arrays(np.float64, (rows, m), elements=RATINGS)))
    ns = (1, data.draw(st.integers(1, m + 3)))
    for graded in (False, True):
        got = E.evaluate_report(scores, held, ns=ns, graded=graded)
        with mock.patch.object(E, "rank_items", full_ranking):
            want = E.evaluate_report(scores, held, ns=ns, graded=graded)
        assert got.users.tolist() == want.users.tolist()
        assert got.n_skipped == want.n_skipped
        for key in want.values:
            assert got.values[key].tobytes() == want.values[key].tobytes()


def dense_at_top(values, top, k: int) -> np.ndarray:
    out = np.zeros((values.shape[0], k), dtype=values.dtype)
    out[:, :top.shape[1]] = np.take_along_axis(values, top, axis=1)
    return out


def dense_oracle_evaluate_report(scores, held_out, ns=E.DEFAULT_NS, user_keys=None,
                                 graded: bool = False) -> E.MetricReport:
    """The `evaluate_report` that read dense held-out rows, from before
    the scorer took `PurchaseRows`, kept verbatim (with its `_at_top`
    helper) as the differential oracle."""
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
    top = E.rank_items(scores, k) - 1
    relevant = held_out != 0
    keep = relevant.any(axis=1)
    relevant, users = relevant[keep], users[keep]
    top = top[keep] if top.ndim == 2 else top[None]
    hit = dense_at_top(relevant, top, k)
    if graded:
        gain = np.zeros(relevant.shape)
        gain[relevant] = 2.0 ** (held_out[keep][relevant] * 5.0) - 1.0
        ranked_gain = dense_at_top(gain, top, k)
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
    return E.MetricReport(ns=ns, users=users, values=values,
                          n_skipped=int(np.count_nonzero(~keep)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tied_scores(), st.data())
def test_csr_scorer_matches_dense_oracle_bit_for_bit(scores, data):
    """Tied, NaN and +-inf scores, rows without a purchase, empty batches,
    cutoffs past m, a shared score row and user keys, binary and graded."""
    rows, m = scores.shape
    held = data.draw(arrays(np.float64, (rows, m), elements=RATINGS))
    held[data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows))] = 0.0
    if data.draw(st.booleans()):
        scores = data.draw(arrays(np.float64, m, elements=st.sampled_from(
            [0.5, 0.0, -0.0, 1.0, np.nan, np.inf, -np.inf])))
    ns = tuple(data.draw(st.lists(st.integers(1, m + 3), min_size=1, max_size=3)))
    keys = data.draw(st.none() | st.lists(st.integers(-50, 50), min_size=rows,
                                          max_size=rows, unique=True))
    for graded in (False, True):
        got = E.evaluate_report(scores, csr(held), ns=ns, user_keys=keys, graded=graded)
        want = dense_oracle_evaluate_report(scores, held, ns=ns, user_keys=keys, graded=graded)
        assert got.users.dtype == want.users.dtype
        assert got.users.tobytes() == want.users.tobytes()
        assert got.n_skipped == want.n_skipped
        assert list(got.values) == list(want.values)
        for key in want.values:
            assert got.values[key].tobytes() == want.values[key].tobytes(), key


def test_precision_values():
    ranked = [1, 2, 3, 4, 5, 6]
    assert scored(ranked, {1, 2, 3, 4, 5}, 5)[0] == 1.0
    assert scored(ranked, {9}, 5)[0] == 0.0
    assert scored(ranked, {2, 4}, 5)[0] == pytest.approx(0.4)


def test_ndcg_values():
    ranked = [1, 2, 3, 4, 5]
    assert scored(ranked, {1, 2, 3, 4, 5}, 5)[1] == pytest.approx(1.0)
    assert scored(ranked, {1}, 5)[1] == pytest.approx(1.0)
    assert scored(ranked, {2}, 5)[1] == pytest.approx(1 / np.log2(3))
    assert scored(ranked, {2}, 5)[1] == pytest.approx(0.6309, abs=1e-4)


def test_mrr_values():
    ranked = [1, 2, 3, 4, 5]
    assert scored(ranked, {1}, 5)[2] == 1.0
    assert scored(ranked, {4}, 5)[2] == 0.25
    assert scored(ranked, {9}, 5)[2] == 0.0


def test_perfect_prefix_all_ones():
    # relevant >= n items ranked first: every metric is 1
    ranked = [3, 1, 4, 2, 5, 6, 7]
    relevant = {1, 2, 3, 4, 5}
    p, ndcg, mrr = scored(ranked, relevant, 5)
    assert p == 1.0
    assert ndcg == pytest.approx(1.0)
    assert mrr == 1.0


def test_metrics_match_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        m = int(rng.integers(1, 21))
        scores = rng.uniform(size=m)
        n_rel = int(rng.integers(1, m + 1))
        relevant = set(rng.choice(m, size=n_rel, replace=False) + 1)
        n = int(rng.integers(1, m + 1))
        ranked = E.rank_items(scores)
        p, ndcg, mrr = E.evaluate_report(scores, held_row(relevant, m), ns=(n,)).values.values()
        assert p[0] == brute_precision(ranked, relevant, n)
        assert ndcg[0] == pytest.approx(brute_ndcg(ranked, relevant, n), abs=1e-12)
        assert mrr[0] == brute_mrr(ranked, relevant, n)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False).map(lambda v: round(v, 3)),
                min_size=2, max_size=15),
       st.data())
def test_argrank_invariance(scores, data):
    """Metrics depend only on the ordering: a strictly monotone transform
    of the scores leaves them unchanged.  Scores are quantized so the
    affine transform stays strictly monotone in float arithmetic."""
    m = len(scores)
    held = held_row({data.draw(st.integers(1, m))}, m)
    n = data.draw(st.integers(1, m))
    base = E.rank_items(scores)
    transformed = [3.0 * s + 1.0 for s in scores]
    assert base.tolist() == E.rank_items(transformed).tolist()
    a = E.evaluate_report(scores, held, ns=(n,)).values
    b = E.evaluate_report(transformed, held, ns=(n,)).values
    for key in a:
        assert a[key].tolist() == b[key].tolist()


def test_metrics_in_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(2, 15))
        scores = rng.uniform(size=m)
        relevant = set(rng.choice(m, size=int(rng.integers(1, m)), replace=False) + 1)
        n = int(rng.integers(1, m))
        for v in E.evaluate_report(scores, held_row(relevant, m), ns=(n,)).values.values():
            assert 0.0 <= v[0] <= 1.0


def brute_graded_ndcg(ranked, gains, n):
    """Graded NDCG@n: `gains` maps item id -> 2^(5r)-1 for the relevant
    items; the ideal DCG orders the user's own gains, largest first."""
    dcg = 0.0
    for pos, item in enumerate(list(ranked)[:n]):
        if item in gains:
            dcg += gains[item] / np.log2(pos + 2)
    ideal = 0.0
    for pos, gain in enumerate(sorted(gains.values(), reverse=True)[:n]):
        ideal += gain / np.log2(pos + 2)
    return dcg / ideal


def random_batch(rng, u, m, empty_rows=0):
    """Quantized scores (many ties) and held-out ratings r in {0.2, ..., 1}
    for u users, the first `empty_rows` of them with no relevant item."""
    scores = rng.integers(0, 4, size=(u, m)) / 4.0
    held = rng.integers(1, 6, size=(u, m)) / 5.0 * (rng.uniform(size=(u, m)) < 0.3)
    held[:empty_rows] = 0.0
    return scores, held


def test_batch_matches_per_row_oracles_bit_for_bit():
    """The whole batch at once, with tied scores, users without a relevant
    item and cutoffs past m, against the per-user oracles."""
    rng = np.random.default_rng(31)
    for m in (1, 3, 9, 25):
        scores, held = random_batch(rng, 40, m, empty_rows=4)
        ns = (1, 2, 5, 30)
        keys = [1000 - u for u in range(40)]
        for graded in (False, True):
            report = E.evaluate_report(scores, csr(held), ns=ns, user_keys=keys, graded=graded)
            kept = [u for u in range(40) if held[u].any()]
            assert report.users.tolist() == [keys[u] for u in kept]
            assert report.n_skipped == 40 - len(kept)
            for row, u in enumerate(kept):
                ranked = E.rank_items(scores[u])
                relevant = set(np.flatnonzero(held[u]) + 1)
                gains = {i: 2.0 ** float(held[u, i - 1] * 5.0) - 1.0 for i in relevant}
                for n in ns:
                    ndcg = (brute_graded_ndcg(ranked, gains, n) if graded
                            else brute_ndcg(ranked, relevant, n))
                    assert report.values[f"P@{n}"][row] == brute_precision(ranked, relevant, n)
                    assert report.values[f"N@{n}"][row] == ndcg
                    assert report.values[f"M@{n}"][row] == brute_mrr(ranked, relevant, n)
            assert report.values["P@30"].max() <= m / 30


def dense_gain_ndcg(scores, held, ns):
    """Graded NDCG@n with 2^(5r)-1 raised on every held-out cell, rated or
    not, and the rest of evaluate_report's arithmetic written out."""
    keep = (held != 0).any(axis=1)
    k = max(ns)
    top = E.rank_items(scores, k)[keep] - 1
    gain = 2.0 ** (held[keep] * 5.0) - 1.0
    ranked = np.zeros((len(gain), k))
    ranked[:, :top.shape[1]] = np.take_along_axis(gain, top, axis=1)
    ideal = np.zeros((len(gain), k))
    ideal[:, :gain.shape[1]] = np.sort(gain, axis=1)[:, ::-1][:, :k]
    discount = np.log2(np.arange(2, k + 2))
    dcg = np.cumsum(ranked / discount, axis=1)
    idcg = np.cumsum(ideal / discount, axis=1)
    return {f"N@{n}": dcg[:, n - 1] / idcg[:, n - 1] for n in ns}


def test_graded_gains_of_rated_cells_only_match_dense_gains_bit_for_bit():
    rng = np.random.default_rng(37)
    ns = (1, 5, 20, 30)
    for m in (1, 3, 9, 25, 400):
        scores, held = random_batch(rng, 60, m, empty_rows=3)
        report = E.evaluate_report(scores, csr(held), ns=ns, graded=True)
        for key, expected in dense_gain_ndcg(scores, held, ns).items():
            assert report.values[key].tobytes() == expected.tobytes(), (m, key)


def test_graded_ndcg_matches_brute_force_oracle():
    rng = np.random.default_rng(23)
    for _ in range(300):
        m = int(rng.integers(1, 21))
        scores = rng.uniform(size=m)
        held = np.zeros(m)
        rel = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
        held[rel] = rng.integers(1, 6, size=rel.size) / 5.0
        n = int(rng.integers(1, m + 1))
        gains = {int(i) + 1: 2.0 ** float(held[i] * 5.0) - 1.0 for i in rel}
        ndcg = E.evaluate_report(scores, csr(held), ns=(n,), graded=True).values[f"N@{n}"]
        assert ndcg[0] == pytest.approx(
            brute_graded_ndcg(E.rank_items(scores), gains, n), abs=1e-12)
        if len(set(gains.values())) == 1:   # one rating level: binary NDCG
            binary = E.evaluate_report(scores, csr(held), ns=(n,)).values[f"N@{n}"]
            assert ndcg[0] == pytest.approx(binary[0], abs=1e-12)


def test_shared_row_scores_like_its_broadcast():
    rng = np.random.default_rng(41)
    scores, held = random_batch(rng, 30, 12, empty_rows=3)
    held, row = csr(held), scores[5]
    for graded in (False, True):
        shared = E.evaluate_report(row, held, ns=(3, 15), graded=graded)
        batch = E.evaluate_report(np.broadcast_to(row, (len(held), held.m)), held,
                                  ns=(3, 15), graded=graded)
        assert shared.users.tolist() == batch.users.tolist()
        assert shared.n_skipped == batch.n_skipped == 3
        for key in batch.values:
            assert np.array_equal(shared.values[key], batch.values[key])


@pytest.mark.parametrize("scores, held, kwargs, message", [
    (np.ones(4), np.ones((2, 4)), {"ns": (5, 0)}, "n must be >= 1"),
    (np.ones(4), np.zeros((2, 4)), {"ns": ()}, "n must be >= 1"),
    (np.ones((1, 4)), np.ones((2, 4)), {}, "shape mismatch"),
    (np.ones(3), np.ones((2, 4)), {}, "shape mismatch"),
    (np.ones(4), np.ones((2, 4)), {"user_keys": [7]}, "1 user keys for 2 rows"),
], ids=["zero-cutoff", "no-cutoffs", "one-row-batch", "short-row", "few-keys"])
def test_evaluate_report_refuses_bad_input(scores, held, kwargs, message):
    with pytest.raises(ValueError, match=message):
        E.evaluate_report(scores, csr(held), **kwargs)


def test_item_pop_ranking():
    warm = csr([
        [1.0, 0.2, 0.0, 0.4],
        [0.6, 0.0, 0.0, 0.4],
        [0.2, 0.0, 0.0, 0.0],
    ])
    assert E.item_popularity(warm).tolist() == [3, 1, 0, 2]
    ranked = E.rank_items(E.item_popularity(warm))
    assert ranked[0] == 1          # purchased by everyone
    assert ranked.tolist() == [1, 4, 2, 3]


def test_item_pop_tie_lower_id_first():
    warm = csr([[0.5, 0.5, 0.0]])
    assert E.rank_items(E.item_popularity(warm)).tolist() == [1, 2, 3]


def test_item_pop_empty_raises():
    with pytest.raises(ValueError):
        E.item_popularity(csr(np.zeros((0, 3))))


def test_evaluate_report_excludes_empty_users():
    preds = np.array([[0.9, 0.1], [0.2, 0.8]])
    held = csr([[1.0, 0.0], [0.0, 0.0]])
    report = E.evaluate_report(preds, held, ns=(1,))
    assert report.n_users == 1
    assert report.n_skipped == 1
    assert report.aggregate()["P@1"] == 1.0


def test_evaluate_report_mean_is_arithmetic_mean():
    rng = np.random.default_rng(8)
    preds = rng.uniform(size=(6, 10))
    held = csr((rng.uniform(size=(6, 10)) < 0.4) * 0.6)
    report = E.evaluate_report(preds, held, ns=(5,))
    agg = report.aggregate()
    for key in ("P@5", "N@5", "M@5"):
        vals = report.values[key].tolist()
        assert agg[key] == pytest.approx(np.mean(vals))


def test_evaluate_twice_identical(tmp_path):
    rng = np.random.default_rng(9)
    preds = rng.uniform(size=(5, 8))
    held = csr((rng.uniform(size=(5, 8)) < 0.5) * 0.4)
    a = E.evaluate_report(preds, held)
    b = E.evaluate_report(preds, held)
    assert a.aggregate() == b.aggregate()
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_csv(pa)
    b.write_csv(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_ablation_config_modes():
    base = T.TrainConfig(beta=0.1)
    s1 = T.ablation_config(base, "S1")
    assert s1.gan_loss == "bce" and not s1.sparsity and s1.beta == 0.0
    s2 = T.ablation_config(base, "S2")
    assert s2.gan_loss == "lsq" and not s2.sparsity
    s3 = T.ablation_config(base, "S3")
    assert s3.gan_loss == "lsq" and s3.sparsity and s3.beta == 0.1


def test_ablation_s1_is_non_saturating():
    base = T.TrainConfig(beta=0.1, nonsaturating=False)
    assert T.ablation_config(base, "S1").nonsaturating
    assert not T.ablation_config(base, "S2").nonsaturating
    assert not T.ablation_config(base, "S3").nonsaturating


def test_s1_with_beta_rejected():
    from srlgan.train import TrainConfig

    with pytest.raises(ValueError):
        TrainConfig(gan_loss="bce", sparsity=True, beta=0.1).validate()
