import math

import pytest

from sidground.codebook import SID
from sidground.errors import ConsistencyError, InvalidInputError
from sidground.matcher import MatchResult
from sidground.padr import BehaviorHistory, Click, UserProfile
from sidground.pool import Article, NewsPool
from sidground.ranking import freshness, rank, score_candidates

NOW = 1_700_000_000.0


def art(i, category="c", tags=(), age_hours=0.0):
    return Article(id=f"r{i}", title="", category=category, tags=tuple(tags),
                   published_at=NOW - age_hours * 3600.0, sid=SID(0, 0, 0, 0))


def match(i, score=1.0):
    return MatchResult(article_id=f"r{i}", score=score, s3_distance=0)


def profile(declared=("technology",)):
    return UserProfile(user_id="u", declared_interests=tuple(declared))


def served_points(a, p, pool=None):
    """The interest points score_candidates gives article a for profile p."""
    scored = score_candidates([MatchResult(a.id, 1.0, 0)], pool or NewsPool([a]), p)
    return scored.points[0]


class TestInterestPoints:
    def test_category_plus_two_tags(self):
        a = art(0, category="technology", tags=("ai", "iphone"))
        p = UserProfile(user_id="u", declared_interests=("technology", "ai", "iphone"))
        assert served_points(a, p) == 3 + 1 + 1

    def test_no_overlap(self):
        assert served_points(art(0, category="sports"), profile()) == 0

    def test_set_intersection_oracle(self, std_fixture):
        import numpy as np
        rng = np.random.default_rng(5)
        pool = std_fixture.pool
        profiles = list(std_fixture.profiles.values())
        for _ in range(1000):
            a = pool.articles[int(rng.integers(len(pool)))]
            p = profiles[int(rng.integers(len(profiles)))]
            cats = set(p.declared_interests) | {c for c, _ in p.longterm_prefs_30d} \
                | {c for c, _ in p.longterm_prefs_7d}
            keywords = set(p.declared_interests)
            want = 3 * int(a.category in cats) + len(set(a.tags) & keywords)
            assert served_points(a, p, pool) == want

    @staticmethod
    def history_of(*ids):
        return BehaviorHistory(clicks=tuple(
            Click(i, SID(0, 0, 0, 0), timestamp=float(t)) for t, i in enumerate(ids)))

    def test_recent_click_tags_count(self):
        clicked = art(1, tags=("ai", "chips"))
        a = art(0, tags=("ai", "chips", "golf"))
        pool = NewsPool([a, clicked])
        scored = score_candidates([match(0)], pool, profile(()), self.history_of("r1"))
        assert scored.points[0] == 2

    def test_only_the_last_20_clicks_count(self):
        pool = NewsPool([art(0, tags=("ai",)), art(1, tags=("ai",)), art(2, tags=("golf",))])
        older = self.history_of("r1", *["r2"] * 20)
        recent = self.history_of(*["r2"] * 20, "r1")
        assert score_candidates([match(0)], pool, profile(()), older).points[0] == 0
        assert score_candidates([match(0)], pool, profile(()), recent).points[0] == 1

    def test_click_outside_the_pool_adds_nothing(self):
        pool = NewsPool([art(0, tags=("ai",))])
        scored = score_candidates([match(0)], pool, profile(()), self.history_of("gone"))
        assert scored.points[0] == 0


class TestRank:
    def test_lambda_zero_relevance_only(self):
        pool = NewsPool([art(0, category="technology", age_hours=100),
                         art(1, category="sports", age_hours=0)])
        ranked = rank([match(0, 0.5), match(1, 0.5)], pool, profile(), now=NOW, lam=0.0)
        # Equal match scores; category hit wins regardless of freshness.
        assert ranked[0].article_id == "r0"

    def test_lambda_one_freshness_only(self):
        pool = NewsPool([art(0, age_hours=48), art(1, age_hours=1)])
        ranked = rank([match(0, 1.0), match(1, 0.1)], pool, profile(()), now=NOW, lam=1.0)
        assert ranked[0].article_id == "r1"

    def test_fresher_wins_at_default_lambda(self):
        # Equal relevance, ages 0h vs 24h: freshness 1.0 vs 1/e.
        pool = NewsPool([art(0, age_hours=24), art(1, age_hours=0)])
        ranked = rank([match(0), match(1)], pool, profile(()), now=NOW, lam=0.1)
        assert ranked[0].article_id == "r1"
        f0 = next(r for r in ranked if r.article_id == "r0")
        assert f0.freshness == pytest.approx(math.exp(-1.0))

    def test_scale_free_at_lambda_zero(self):
        pool = NewsPool([art(i, category="technology" if i % 2 else "sports",
                             age_hours=i) for i in range(6)])
        matches = [match(i, score=0.2 + 0.1 * i) for i in range(6)]
        base = [r.article_id for r in rank(matches, pool, profile(), now=NOW, lam=0.0)]
        scaled = [MatchResult(m.article_id, m.score * 0.37, m.s3_distance) for m in matches]
        got = [r.article_id for r in rank(scaled, pool, profile(), now=NOW, lam=0.0)]
        assert got == base

    def test_bounds(self, std_fixture):
        import numpy as np
        rng = np.random.default_rng(11)
        pool = std_fixture.pool
        profiles = list(std_fixture.profiles.values())
        arts = [pool.articles[int(i)] for i in rng.integers(0, len(pool), 30)]
        matches = [MatchResult(a.id, float(rng.uniform(0.1, 1.0)), 0) for a in arts]
        ranked = rank(matches, pool, profiles[0], now=pool.as_of, lam=0.1)
        for r in ranked:
            assert 0.0 < r.freshness <= 1.0
            assert 0.0 <= r.final_score <= 1.0

    def test_deterministic_total_order(self):
        pool = NewsPool([art(i, age_hours=2.0) for i in range(8)])
        matches = [match(i, 0.5) for i in range(8)]
        a = [r.article_id for r in rank(matches, pool, profile(()), now=NOW)]
        b = [r.article_id for r in rank(list(reversed(matches)), pool, profile(()), now=NOW)]
        assert a == b == sorted(a)   # full tie falls to id ascending

    def test_missing_article_is_consistency_error(self):
        pool = NewsPool([art(0)])
        with pytest.raises(ConsistencyError):
            rank([match(99)], pool, profile(), now=NOW)

    def test_lambda_validated(self):
        pool = NewsPool([art(0)])
        with pytest.raises(InvalidInputError):
            rank([match(0)], pool, profile(), now=NOW, lam=1.5)
        with pytest.raises(InvalidInputError):
            rank([match(0)], pool, profile(), now=NOW, k=0)

    def test_future_article_freshness_clamped(self):
        assert freshness(NOW + 3600.0, NOW) == 1.0


class TestTopK:
    """rank(..., k=k) is the full ranking cut to k, field for field, and
    so is rank over the candidates' Scored, at any other time too."""

    @staticmethod
    def check_every_k(candidates, pool, prof, now, lam=0.1, history=None):
        full = rank(candidates, pool, prof, now=now, lam=lam, history=history)
        scored = score_candidates(candidates, pool, prof, history)
        assert len(scored) == len(candidates)
        later = rank(candidates, pool, prof, now=now + 5_000.0, lam=lam, history=history)
        for k in range(1, len(candidates) + 2):
            assert rank(candidates, pool, prof, now=now, lam=lam, history=history, k=k) == full[:k]
            assert rank(scored, pool, prof, now=now, lam=lam, history=history, k=k) == full[:k]
            assert rank(scored, pool, prof, now=now + 5_000.0, lam=lam, k=k) == later[:k]
        return full

    def test_random_std_fixture_sets(self, std_fixture):
        import numpy as np
        rng = np.random.default_rng(17)
        pool = std_fixture.pool
        profiles = list(std_fixture.profiles.values())
        for trial in range(60):
            n = int(rng.integers(1, 40))
            picks = rng.choice(len(pool), n, replace=False)
            # Half the sets draw scores from two values, forcing score ties.
            scores = rng.choice([0.5, 1.0], n) if trial % 2 else rng.uniform(0.1, 1.0, n)
            cands = [MatchResult(pool.articles[int(i)].id, float(s), 0)
                     for i, s in zip(picks, scores)]
            prof = profiles[int(rng.integers(len(profiles)))]
            self.check_every_k(cands, pool, prof, now=pool.as_of,
                               history=std_fixture.histories.get(prof.user_id))

    @pytest.mark.parametrize("lam", [0.0, 0.1])
    def test_forced_ties_fall_to_recency_then_id(self, lam):
        # Same category, tags and match score: the final score ties within
        # an age, recency decides across ages (alone at lam=0), and equal
        # published_at falls through to the id.
        pool = NewsPool([art(i, age_hours=float(i % 3)) for i in range(12)])
        cands = [match(i, 0.5) for i in reversed(range(12))]
        full = self.check_every_k(cands, pool, profile(()), now=NOW, lam=lam)
        want = sorted((f"r{i}" for i in range(12)), key=lambda a: (int(a[1:]) % 3, a))
        assert [r.article_id for r in full] == want
