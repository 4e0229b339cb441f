import numpy as np
import pytest

from conftest import brute_force_match, random_pool

from sidground.codebook import SID
from sidground.errors import InvalidInputError
from sidground.matcher import (
    SIDPrefix,
    fuzzy_match,
    grid_search_delta,
    match_count,
)
from sidground.pool import Article, NewsPool, build_index


def art(i, s1, s2, s3, published=1000.0, category="c"):
    return Article(id=f"m{i}", title="", category=category, tags=(),
                   published_at=published, sid=SID(s1, s2, s3, 0))


class TestFuzzyMatch:
    def test_delta_zero_exact_only(self):
        pool = NewsPool([art(0, 1, 1, 10), art(1, 1, 1, 11), art(2, 1, 1, 10)])
        index = build_index(pool)
        res = fuzzy_match(SIDPrefix(1, 1, 10), index, delta=0, k=10)
        assert {r.article_id for r in res} == {"m0", "m2"}
        assert all(r.score == 1.0 for r in res)

    def test_score_formula_at_distance_five(self):
        pool = NewsPool([art(0, 1, 1, 15)])
        index = build_index(pool)
        res = fuzzy_match(SIDPrefix(1, 1, 10), index, delta=5, k=10)
        assert res[0].s3_distance == 5
        assert res[0].score == pytest.approx(1 - 5 / 6)

    def test_strict_l1_l2(self):
        pool = NewsPool([art(0, 1, 1, 10), art(1, 2, 1, 10), art(2, 1, 2, 10)])
        index = build_index(pool)
        res = fuzzy_match(SIDPrefix(1, 1, 10), index, delta=127, k=10)
        assert [r.article_id for r in res] == ["m0"]

    def test_tie_break_recency_then_id(self):
        # Same score (distance 2 both sides), different published_at.
        pool = NewsPool([
            art(0, 1, 1, 8, published=100.0),
            art(1, 1, 1, 12, published=200.0),
            art(2, 1, 1, 12, published=100.0),
        ])
        index = build_index(pool)
        res = fuzzy_match(SIDPrefix(1, 1, 10), index, delta=5, k=10)
        assert [r.article_id for r in res] == ["m1", "m0", "m2"]

    def test_empty_result_is_not_error(self):
        pool = NewsPool([art(0, 1, 1, 10)])
        index = build_index(pool)
        assert fuzzy_match(SIDPrefix(5, 5, 5), index, delta=10, k=3) == []

    def test_invalid_args(self):
        index = build_index(NewsPool([art(0, 1, 1, 1)]))
        with pytest.raises(InvalidInputError):
            fuzzy_match(SIDPrefix(1, 1, 1), index, delta=-1, k=5)
        with pytest.raises(InvalidInputError):
            fuzzy_match(SIDPrefix(1, 1, 1), index, delta=5, k=0)

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(123)
        for trial in range(60):
            pool = random_pool(seed=int(rng.integers(1 << 31)), n=int(rng.integers(1, 400)))
            index = build_index(pool)
            for _ in range(10):
                prefix = SIDPrefix(int(rng.integers(0, 32)), int(rng.integers(0, 64)),
                                   int(rng.integers(0, 128)))
                delta = int(rng.integers(0, 11))
                k = int(rng.integers(1, 20))
                got = [(r.article_id, r.score, r.s3_distance)
                       for r in fuzzy_match(prefix, index, delta=delta, k=k)]
                want = brute_force_match(prefix, pool, delta, k)
                assert got == want

    def test_monotone_in_delta(self):
        pool = random_pool(seed=77, n=300)
        index = build_index(pool)
        rng = np.random.default_rng(9)
        for _ in range(50):
            prefix = SIDPrefix(int(rng.integers(0, 32)), int(rng.integers(0, 64)),
                               int(rng.integers(0, 128)))
            prev: set = set()
            for delta in range(0, 11):
                cur = {r.article_id for r in fuzzy_match(prefix, index, delta=delta, k=10_000)}
                assert prev <= cur
                prev = cur

    def test_score_bounds(self):
        pool = random_pool(seed=42, n=400)
        index = build_index(pool)
        rng = np.random.default_rng(4)
        for _ in range(100):
            prefix = SIDPrefix(int(rng.integers(0, 4)), int(rng.integers(0, 4)),
                               int(rng.integers(0, 128)))
            delta = int(rng.integers(0, 11))
            for r in fuzzy_match(prefix, index, delta=delta, k=1000):
                assert 1 / (delta + 1) - 1e-12 <= r.score <= 1.0
                assert (r.score == 1.0) == (r.s3_distance == 0)


class TestGridSearch:
    def test_mean_candidates_nondecreasing(self, std_fixture):
        pool = std_fixture.pool
        index = build_index(pool)
        rng = np.random.default_rng(14)
        prefixes = []
        for _ in range(200):
            a = pool.articles[int(rng.integers(len(pool)))]
            prefixes.append(SIDPrefix(a.sid.s1, a.sid.s2, a.sid.s3))
        rows = grid_search_delta(prefixes, [1, 3, 5, 7, 10], index)
        assert [r["delta"] for r in rows] == [1, 3, 5, 7, 10]
        means = [r["mean_candidates"] for r in rows]
        assert all(b >= a for a, b in zip(means, means[1:]))
        # Pool-drawn prefixes always have at least their own article.
        assert all(r["empty_match_rate"] == 0.0 for r in rows)

    def test_empty_rate_matches_recount(self):
        pool = random_pool(seed=31, n=200)
        index = build_index(pool)
        rng = np.random.default_rng(3)
        prefixes = [
            SIDPrefix(int(rng.integers(0, 32)), int(rng.integers(0, 64)),
                      int(rng.integers(0, 128)))
            for _ in range(100)
        ]
        for row in grid_search_delta(prefixes, [0, 2, 5], index):
            empties = sum(1 for p in prefixes if match_count(p, index, row["delta"]) == 0)
            assert row["empty_match_rate"] == pytest.approx(empties / len(prefixes))

    def test_requires_deltas(self):
        index = build_index(NewsPool([art(0, 1, 1, 1)]))
        with pytest.raises(InvalidInputError):
            grid_search_delta([SIDPrefix(1, 1, 1)], [], index)
