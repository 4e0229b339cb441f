import gc
import hashlib
import json
import logging
import random
import threading
import time
import weakref

import pytest

from sidground.codebook import SID
from sidground.dualtrack import (
    CacheEntry,
    EnhanceWorkers,
    LatencyBreakdown,
    MetricsCollector,
    ServeResponse,
    SIDCache,
    TrackMetrics,
    _most_recent,
    ctx_hash,
    enhance_track,
    fast_track,
    merge_matches,
    warm_cache,
)
from sidground.errors import EmptyPoolError, SidRangeError
from sidground.generator import GeneratorOutput, PoolSampledGenerator
from sidground.hashing import fnv1a_64
from sidground.matcher import MatchResult, SIDPrefix, fuzzy_match
from sidground.padr import EMPTY_HISTORY, BehaviorHistory, Click, UserProfile, route
from sidground.pool import Article, NewsPool, build_index, refresh
from sidground.ranking import rank
from sidground.server import RecommendService

NOW = 1_700_000_000.0


def art(i, s1=1, s2=1, s3=10, category="technology", age_hours=1.0):
    return Article(id=f"d{i:03d}", title=f"t{i}", category=category, tags=(),
                   published_at=NOW - age_hours * 3600.0, sid=SID(s1, s2, s3, 0))


def ctx(query="q", profile=None):
    profile = profile or UserProfile(user_id="u1", declared_interests=("technology",))
    return route(profile, EMPTY_HISTORY, query, tau=10)


def entry_for(context, prefixes, ts=NOW, ttl=86_400):
    return CacheEntry(ctx_hash=ctx_hash(context), prefixes=tuple(prefixes),
                      reason="", ts=ts, ttl_seconds=ttl)


class StaticGenerator:
    def __init__(self, prefixes, reason="static"):
        self._out = GeneratorOutput(prefixes=tuple(prefixes), reason=reason)

    def generate(self, context):
        return self._out


class FailingGenerator:
    def generate(self, context):
        raise RuntimeError("model down")


class TestCtxHash:
    def test_identical_contexts_same_hash(self):
        assert ctx_hash(ctx()) == ctx_hash(ctx())

    def test_empty_string_constant(self):
        # FNV-1a 64 offset basis: the algorithm's published empty-input value.
        assert fnv1a_64("") == 14695981039346656037

    def test_collisions_match_birthday_expectation(self):
        # 10^6 distinct contexts in a 64-bit space: expected collisions
        # ~n^2 / 2^65 = 2.7e-8, so observing even one would be a defect.
        seen = set()
        for i in range(1_000_000):
            seen.add(fnv1a_64(f"user u{i % 997} | query {i} | session {i * 31:x}"))
        assert len(seen) == 1_000_000


class TestCache:
    def test_ttl_expiry_absolute(self):
        cache = SIDCache()
        c = ctx()
        cache.put(entry_for(c, [SIDPrefix(1, 1, 10)], ts=NOW, ttl=100))
        assert cache.get(ctx_hash(c), NOW + 100) is not None
        assert cache.get(ctx_hash(c), NOW + 101) is None

    def test_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = SIDCache(persist_path=path)
        c = ctx()
        cache.put(entry_for(c, [SIDPrefix(1, 1, 10)]))
        cache.put(entry_for(c, [SIDPrefix(2, 2, 20)]))   # overwrite, later line wins
        restored = SIDCache()
        restored.load(path)
        got = restored.get(ctx_hash(c), NOW)
        assert got is not None and got.prefixes == (SIDPrefix(2, 2, 20),)


class TestMergeMatches:
    def test_dedupes_keeping_best_score(self):
        a = [MatchResult("x", 0.5, 3), MatchResult("y", 1.0, 0)]
        b = [MatchResult("x", 0.8, 1)]
        merged = {m.article_id: m for m in merge_matches([a, b])}
        assert merged["x"].score == 0.8
        assert merged["y"].score == 1.0


class TestFastTrack:
    def make_world(self, n_extra=10):
        arts = [art(i, s3=10 + (i % 3)) for i in range(n_extra)]
        pool = NewsPool(arts)
        return pool, build_index(pool)

    def test_warm_cache_hit(self):
        pool, index = self.make_world()
        cache = SIDCache()
        c = ctx()
        cache.put(entry_for(c, [SIDPrefix(1, 1, 10)]))
        resp = fast_track(c, cache, index, now=NOW)
        assert resp.served_from == "cache"
        assert len(resp.articles) >= 1
        assert resp.pool_version == pool.version
        assert resp.latency.total_ms > 0

    def test_miss_schedules_enhance_and_serves_level3(self):
        pool, index = self.make_world()
        cache = SIDCache()
        scheduled = []
        resp = fast_track(ctx(), cache, index, now=NOW,
                          schedule_enhance=scheduled.append)
        assert resp.served_from == "fallback_level_3"
        assert len(scheduled) == 1

    def test_miss_without_profile_categories_goes_trending(self):
        pool, index = self.make_world()
        profile = UserProfile(user_id="nobody")
        c = route(profile, EMPTY_HISTORY, "q", tau=10)
        resp = fast_track(c, SIDCache(), index, now=NOW)
        assert resp.served_from == "fallback_level_4"

    def test_expired_entry_is_a_miss(self):
        pool, index = self.make_world()
        cache = SIDCache()
        c = ctx()
        cache.put(entry_for(c, [SIDPrefix(1, 1, 10)], ts=NOW - 90_000))
        resp = fast_track(c, cache, index, now=NOW)
        assert resp.served_from == "fallback_level_3"

    def test_insufficient_level1_descends_to_level2(self):
        # Exactly 2 articles inside delta=5; 1 more at distance 8 that only
        # the broadened delta=10 window reaches.
        arts = [art(0, s3=10), art(1, s3=12), art(2, s3=18)]
        pool = NewsPool(arts)
        index = build_index(pool)
        cache = SIDCache()
        c = ctx()
        cache.put(entry_for(c, [SIDPrefix(1, 1, 10)]))
        resp = fast_track(c, cache, index, now=NOW)
        assert resp.served_from == "fallback_level_2"
        assert {a.article_id for a in resp.articles} == {"d000", "d001", "d002"}

    def test_vanished_bucket_cascades_to_level3(self):
        pool, index = self.make_world()
        c = ctx()
        cache = SIDCache()
        cache.put(entry_for(c, [SIDPrefix(1, 1, 10)]))
        # Refresh removes every article in bucket (1,1); add one in another
        # bucket with the profile's category so level 3 can serve.
        survivor = Article(id="other", title="", category="technology", tags=(),
                           published_at=NOW, sid=SID(5, 5, 5, 0))
        new_pool = refresh(pool, add=[survivor], remove=[a.id for a in pool.articles])
        new_index = build_index(new_pool)
        resp = fast_track(c, cache, new_index, now=NOW)
        assert resp.served_from == "fallback_level_3"
        assert resp.articles[0].article_id == "other"

    def test_empty_pool_is_error(self):
        pool = NewsPool([])
        index = build_index(pool)
        with pytest.raises(EmptyPoolError):
            fast_track(ctx(), SIDCache(), index, now=NOW)


class TestFallbackCascade:
    def test_level_sequence_2_then_3(self):
        # The cached bucket does not exist; level 2 broadening stays empty;
        # level 3 serves the profile category.
        pool = NewsPool([art(0, s1=9, s2=9, s3=9)])
        cache = SIDCache()
        c = ctx()
        cache.put(entry_for(c, [SIDPrefix(1, 1, 10)]))
        resp = fast_track(c, cache, build_index(pool), now=NOW)
        assert resp.served_from == "fallback_level_3"

    def test_terminal_trending(self):
        pool = NewsPool([art(0, category="weather")])
        index = build_index(pool)
        profile = UserProfile(user_id="u", declared_interests=("sports",))
        c = route(profile, EMPTY_HISTORY, "q", tau=10)
        resp = fast_track(c, SIDCache(), index, now=NOW)
        assert resp.served_from == "fallback_level_4"
        assert len(resp.articles) == 1

    def test_empty_pool(self):
        # A cached entry does not get an empty pool past the check.
        pool = NewsPool([])
        cache = SIDCache()
        c = ctx()
        cache.put(entry_for(c, [SIDPrefix(1, 1, 10)]))
        with pytest.raises(EmptyPoolError):
            fast_track(c, cache, build_index(pool), now=NOW)

    def test_levels_3_and_4_pick_newest_eligible(self):
        # Oracle: level 3 serves the k newest articles (ties by id) in the
        # profile's categories; with none in the pool, level 4 serves the
        # k newest of the whole pool.
        rng = random.Random(17)
        categories = ["a", "b", "c", "d", "e"]
        for _ in range(300):
            n = rng.randint(1, 25)
            pool = NewsPool([
                Article(id=f"r{i:02d}", title="", category=rng.choice(categories), tags=(),
                        published_at=NOW - 3600.0 * rng.randint(0, 4),
                        sid=SID(rng.randrange(4), rng.randrange(4), rng.randrange(128), 0))
                for i in range(n)
            ])
            interests = tuple(rng.sample(categories, rng.randint(1, 3)))
            profile = UserProfile(user_id="u", declared_interests=interests)
            k = rng.randint(1, n + 3)
            eligible = [a for a in pool.articles if a.category in interests]
            level = "fallback_level_3" if eligible else "fallback_level_4"
            eligible = eligible or list(pool.articles)
            want = sorted(eligible, key=lambda a: (-a.published_at, a.id))[:k]
            c = route(profile, EMPTY_HISTORY, "q", tau=10)
            resp = fast_track(c, SIDCache(), build_index(pool), k=k, now=NOW)
            assert resp.served_from == level
            assert {a.article_id for a in resp.articles} == {a.id for a in want}

    def test_recency_merge_equals_sort_then_slice(self):
        # Oracle: merging the snapshot's per-category recency lists gives
        # the pool-wide sort (newest first, ties by id), kept to the asked
        # categories and cut at k: with tied times, articles without a
        # category, asked categories the pool lacks and k past the pool.
        rng = random.Random(23)
        categories = ["a", "b", "c", ""]
        for _ in range(200):
            n = rng.randint(0, 30)
            pool = NewsPool([
                Article(id=f"r{i:03d}", title="", category=rng.choice(categories), tags=(),
                        published_at=NOW - 3600.0 * rng.randint(0, 3), sid=SID(0, 0, 0, 0))
                for i in rng.sample(range(200), n)
            ])
            newest = sorted(pool.articles, key=lambda a: (-a.published_at, a.id))
            asked = rng.sample(categories + ["unknown"], rng.randint(0, 3))
            for cats in (asked, list(pool.by_category)):
                k = rng.randint(1, n + 5)
                want = [a for a in newest if a.category in cats][:k]
                assert _most_recent(pool, k, cats) == want

    def test_fallbacks_write_nothing_to_the_snapshot(self):
        pool = NewsPool([art(0), art(1, age_hours=2.0), art(2, category="weather")])
        index = build_index(pool)
        before = dict(vars(pool))
        lists = {cat: list(group) for cat, group in pool.by_category.items()}
        for interests, level in ((("technology",), "fallback_level_3"),
                                 (("sports",), "fallback_level_4")):
            c = route(UserProfile(user_id="u", declared_interests=interests), EMPTY_HISTORY,
                      "q", tau=10)
            assert fast_track(c, SIDCache(), index, now=NOW).served_from == level
        assert vars(pool).keys() == before.keys()
        assert all(vars(pool)[key] is value for key, value in before.items())
        assert pool.by_category == lists


class TestServingGolden:
    def test_replies_frozen(self, std_fixture):
        # sha256 of every reply (latency aside) over contexts that reach the
        # cache and fallback levels 2, 3 and 4, on the standard pool and on
        # a refresh keeping one article in ten, for k in {1, 5, 10}.
        fx = std_fixture
        profiles = [fx.profiles[u] for u in sorted(fx.profiles)][:80]
        profiles += [UserProfile(user_id=f"anon{i}") for i in range(4)]
        contexts = [route(p, fx.histories.get(p.user_id, EMPTY_HISTORY), q, tau=10)
                    for p in profiles for q in ("recommend news", "what happened today")]
        cache = SIDCache()
        gen = PoolSampledGenerator(fx.pool, seed=31)
        for c in contexts[::2]:
            enhance_track(c, gen, cache, now=NOW)
        thin = refresh(fx.pool, remove=[a.id for i, a in enumerate(fx.pool.articles) if i % 10])
        digest = hashlib.sha256()
        served = {}
        for pool in (fx.pool, thin):
            index = build_index(pool)
            for k in (1, 5, 10):
                for c in contexts:
                    rec = fast_track(c, cache, index, k=k, now=NOW).to_record()
                    del rec["latency_breakdown"]
                    served[rec["served_from"]] = served.get(rec["served_from"], 0) + 1
                    digest.update(json.dumps(rec, sort_keys=True).encode())
        assert served == {"cache": 257, "fallback_level_2": 166,
                          "fallback_level_3": 558, "fallback_level_4": 27}
        assert digest.hexdigest() == (
            "e5d9464efcecd1bc2a2cae9ab408fd763cb474a842b4d04490dfeecbe33e7262")


def fresh_rank(c, profile, entry, index, pool, now, lam=0.1, k=10, delta=5):
    """What a cache hit must reply: a fresh match, merge and rank."""
    merged = merge_matches(fuzzy_match(p, index, delta=delta, k=k) for p in entry.prefixes)
    return tuple(rank(merged, pool, profile, now=now, lam=lam, history=c.history, k=k))


class TestHitPlans:
    """A returning context reuses its hit plan only on the same entry and
    history objects with an equal profile and equal delta and k. Each test
    fails if one of those checks is dropped."""

    def std_world(self, fx, n=60):
        profiles = [fx.profiles[u] for u in sorted(fx.profiles)][:n]
        contexts = [(route(p, fx.histories.get(p.user_id, EMPTY_HISTORY), "recommend news",
                           tau=10), p) for p in profiles]
        cache = SIDCache()
        gen = PoolSampledGenerator(fx.pool, seed=31)
        for c, _ in contexts:
            enhance_track(c, gen, cache, now=NOW)
        return cache, build_index(fx.pool), contexts

    def test_replies_equal_a_fresh_rank_across_reuse(self, std_fixture):
        fx = std_fixture
        cache, index, contexts = self.std_world(fx)
        plans = {}
        for now, lam, k in ((NOW, 0.1, 10), (NOW + 3_600, 0.5, 10), (NOW + 36_000, 0.9, 3)):
            reused = 0
            for c, profile in contexts:
                resp = fast_track(c, cache, index, k=k, lam=lam, now=now)
                if resp.served_from != "cache":
                    continue
                key = ctx_hash(c)
                entry = cache.get(key, now)
                assert resp.articles == fresh_rank(c, profile, entry, index, fx.pool, now, lam, k)
                reused += index.hit_plans[key] is plans.get(key)
                assert (resp.latency.match_ms == 0.0) == (index.hit_plans[key] is plans.get(key))
                plans[key] = index.hit_plans[key]
            # the second round reuses every plan of the first; the third has another k
            assert reused == (len(plans) if k == 10 and now > NOW else 0)
        assert len(plans) > 20

    def test_replaced_entry_rebuilds(self, std_fixture):
        fx = std_fixture
        cache, index, contexts = self.std_world(fx)
        (c, profile), (other, _) = contexts[0], contexts[1]
        assert fast_track(c, cache, index, now=NOW).served_from == "cache"
        # A later enhance run installs other prefixes for the same context.
        enhance_track(c, StaticGenerator(cache.get(ctx_hash(other), NOW).prefixes), cache,
                      now=NOW + 60)
        entry = cache.get(ctx_hash(c), NOW + 120)
        resp = fast_track(c, cache, index, now=NOW + 120)
        assert resp.served_from == "cache"
        assert resp.articles == fresh_rank(c, profile, entry, index, fx.pool, NOW + 120)
        assert index.hit_plans[ctx_hash(c)].entry is entry

    def test_other_k_or_delta_rebuilds(self, std_fixture):
        fx = std_fixture
        cache, index, contexts = self.std_world(fx)
        c, profile = contexts[0]
        key = ctx_hash(c)
        entry = cache.get(key, NOW)
        for delta, k in ((5, 10), (5, 4), (1, 4), (1, 4)):
            before = index.hit_plans.get(key)
            resp = fast_track(c, cache, index, delta=delta, k=k, now=NOW)
            plan = index.hit_plans[key]
            assert (plan is before) == (before is not None and (before.delta, before.k) == (delta, k))
            if resp.served_from == "cache":
                assert resp.articles == fresh_rank(c, profile, entry, index, fx.pool, NOW,
                                                   k=k, delta=delta)
            assert (plan.delta, plan.k) == (delta, k)

    def small_world(self):
        # Six candidates in one bucket, alternately tagged alpha and beta,
        # and two click targets elsewhere carrying one tag each.
        cands = [Article(id=f"c{i}", title="", category="technology",
                         tags=("alpha",) if i % 2 else ("beta",),
                         published_at=NOW - 3600.0 * i, sid=SID(1, 1, 10, 0)) for i in range(6)]
        targets = [Article(id=aid, title="", category="x", tags=(tag,), published_at=NOW,
                           sid=SID(9, 9, 0, 0)) for aid, tag in (("ta", "alpha"), ("tb", "beta"))]
        pool = NewsPool(cands + targets)
        return pool, build_index(pool)

    def test_other_profile_object_rebuilds(self):
        # Both profiles render "declared_interests: technology, sports", so
        # their contexts share one ctx_hash, but only the second one names
        # the candidates' category.
        pool, index = self.small_world()
        profiles = [UserProfile(user_id="u1", declared_interests=interests)
                    for interests in (("technology, sports",), ("technology", "sports"))]
        contexts = [route(p, EMPTY_HISTORY, "q", tau=10) for p in profiles]
        assert ctx_hash(contexts[0]) == ctx_hash(contexts[1])
        cache = SIDCache()
        cache.put(entry_for(contexts[0], [SIDPrefix(1, 1, 10)]))
        points = []
        for c, profile in zip(contexts, profiles):
            resp = fast_track(c, cache, index, now=NOW)
            assert resp.articles == fresh_rank(c, profile, cache.get(ctx_hash(c), NOW),
                                               index, pool, NOW)
            assert index.hit_plans[ctx_hash(c)].profile is profile
            points.append({a.interest_points for a in resp.articles})
        assert points == [{0}, {3}]

    def test_other_history_object_rebuilds(self):
        # The two histories render alike (a click's article id is not
        # rendered), so both contexts share one ctx_hash, but their clicks
        # resolve to articles with different tags.
        pool, index = self.small_world()
        profile = UserProfile(user_id="u1", declared_interests=("technology",))
        histories = [BehaviorHistory(clicks=(Click(aid, SID(9, 9, 0, 0), timestamp=NOW - 60,
                                                   title="t", category="x"),))
                     for aid in ("ta", "tb")]
        contexts = [route(profile, h, "q", tau=10) for h in histories]
        assert ctx_hash(contexts[0]) == ctx_hash(contexts[1])
        cache = SIDCache()
        cache.put(entry_for(contexts[0], [SIDPrefix(1, 1, 10)]))
        tops = []
        for c in contexts:
            resp = fast_track(c, cache, index, lam=0.0, now=NOW)
            assert resp.articles == fresh_rank(c, profile, cache.get(ctx_hash(c), NOW),
                                               index, pool, NOW, lam=0.0)
            tops.append(resp.articles[0].article_id)
        assert tops == ["c1", "c0"]      # the newest alpha, then the newest beta article

    def test_unknown_user_reuses_plan(self, std_fixture):
        fx = std_fixture
        service = RecommendService(fx.pool, fx.profiles, StaticGenerator([]),
                                   histories=fx.histories, enhance_workers=1)
        try:
            stranger = route(UserProfile(user_id="stranger"), EMPTY_HISTORY, "q",
                             tau=service.tau)
            known = fx.profiles[sorted(fx.profiles)[0]]
            prefixes = PoolSampledGenerator(fx.pool, seed=31).generate(
                route(known, EMPTY_HISTORY, "q", tau=service.tau)).prefixes
            service.cache.put(CacheEntry(ctx_hash(stranger), tuple(prefixes), "", time.time()))
            index = service.index
            seen = []
            for _ in range(2):
                assert service.recommend("stranger", "q").served_from == "cache"
                seen.append(index.hit_plans[ctx_hash(stranger)])
            # Each request made its own UserProfile; the second, equal one
            # reused the plan of the first.
            assert seen[0] is seen[1]
            assert len(index.hit_plans) == 1
        finally:
            service.close()

    def test_too_few_matches_plan_still_descends_to_level2(self):
        pool = NewsPool([art(0, s3=10), art(1, s3=12), art(2, s3=18)])
        index = build_index(pool)
        cache = SIDCache()
        c = ctx()
        cache.put(entry_for(c, [SIDPrefix(1, 1, 10)]))
        replies = [fast_track(c, cache, index, now=NOW + i * 600)
                   for i in range(2)]
        plan = index.hit_plans[ctx_hash(c)]
        assert plan.scored is None
        assert [r.served_from for r in replies] == ["fallback_level_2"] * 2
        assert {a.article_id for a in replies[1].articles} == {"d000", "d001", "d002"}

    def test_at_most_one_plan_per_served_hit_context(self, std_fixture):
        fx = std_fixture
        cache, index, contexts = self.std_world(fx, n=40)
        rng = random.Random(3)
        misses = [(route(p, EMPTY_HISTORY, "what happened today", tau=10), p)
                  for p in list(fx.profiles.values())[40:60]]
        stream = [rng.choice(contexts + misses) for _ in range(300)]
        hit_keys = set()
        for i, (c, profile) in enumerate(stream):
            k = (10, 5)[i % 2]
            fast_track(c, cache, index, k=k, now=NOW)
            if cache.get(ctx_hash(c), NOW) is not None:
                hit_keys.add(ctx_hash(c))
        assert set(index.hit_plans) == hit_keys
        assert len(index.hit_plans) <= len({ctx_hash(c) for c, _ in stream})

    def test_refresh_drops_old_plans_with_their_snapshot(self, std_fixture):
        fx = std_fixture
        own = NewsPool(fx.pool.articles, version=fx.pool.version, as_of=fx.pool.as_of)
        service = RecommendService(own, fx.profiles, StaticGenerator([]),
                                   histories=fx.histories, enhance_workers=1)
        try:
            gen = PoolSampledGenerator(fx.pool, seed=31)
            for uid in sorted(fx.profiles)[:10]:
                c = route(fx.profiles[uid], fx.histories.get(uid, EMPTY_HISTORY), "q",
                          tau=service.tau)
                enhance_track(c, gen, service.cache)
                service.recommend(uid, "q")
                service.recommend(uid, "q")
            old_index = service.index
            assert old_index.hit_plans
            refs = weakref.ref(old_index.pool), weakref.ref(old_index)
            service.refresh_pool(refresh(old_index.pool))
            del old_index, own
            gc.collect()
            assert [r() for r in refs] == [None, None]
            assert service.index.hit_plans == {}
        finally:
            service.close()


class TestEnhanceTrack:
    def test_installs_entry_and_read_through(self):
        pool = NewsPool([art(i) for i in range(5)])
        index = build_index(pool)
        cache = SIDCache()
        c = ctx()
        missed = fast_track(c, cache, index, now=NOW)
        assert missed.served_from == "fallback_level_3"
        entry = enhance_track(c, StaticGenerator([SIDPrefix(1, 1, 10)]), cache, now=NOW)
        assert entry is not None
        hit = fast_track(c, cache, index, now=NOW)
        assert hit.served_from == "cache"

    def test_empty_output_no_write(self):
        cache = SIDCache()
        assert enhance_track(ctx(), StaticGenerator([]), cache, now=NOW) is None
        assert len(cache) == 0

    def test_generator_failure_leaves_cache_untouched(self, caplog):
        cache = SIDCache()
        with caplog.at_level("ERROR"):
            assert enhance_track(ctx(), FailingGenerator(), cache, now=NOW) is None
        assert len(cache) == 0

    def test_prefix_cap(self):
        cache = SIDCache()
        many = [SIDPrefix(1, 1, i) for i in range(30)]
        entry = enhance_track(ctx(), StaticGenerator(many), cache, now=NOW)
        assert len(entry.prefixes) == 10

    def test_concurrent_last_writer_wins(self):
        cache = SIDCache()
        c = ctx()
        h = ctx_hash(c)
        workers = []
        outputs = [[SIDPrefix(i % 32, i % 64, i % 128)] for i in range(16)]

        def run(prefixes):
            enhance_track(c, StaticGenerator(prefixes), cache, now=NOW)

        for out in outputs:
            workers.append(threading.Thread(target=run, args=(out,)))
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        final = cache.get(h, NOW)
        # Entry must be one of the complete written values, never a blend.
        assert final.prefixes in {tuple(o) for o in outputs}


class TestWarmCache:
    def test_presets_installed_and_served(self):
        pool = NewsPool([art(i) for i in range(6)])
        index = build_index(pool)
        profile = UserProfile(user_id="u1", declared_interests=("technology",))
        cache = SIDCache()
        n = warm_cache([profile], PoolSampledGenerator(pool, seed=1), cache, now=NOW)
        assert n == 1
        preset_ctx = route(profile, EMPTY_HISTORY, "recommend technology news", tau=10)
        resp = fast_track(preset_ctx, cache, index, now=NOW)
        assert resp.served_from == "cache"

    def test_no_signal_no_entries(self):
        cache = SIDCache()
        n = warm_cache([UserProfile(user_id="u")], StaticGenerator([SIDPrefix(1, 1, 1)]),
                       cache, now=NOW)
        assert n == 0 and len(cache) == 0

    def test_at_most_one_per_preset(self):
        profile = UserProfile(
            user_id="u1",
            declared_interests=("a", "b"),
            longterm_prefs_30d=(("c", 0.2),),
        )
        cache = SIDCache()
        n = warm_cache([profile], StaticGenerator([SIDPrefix(1, 1, 1)]), cache, now=NOW)
        assert n == 3 and len(cache) == 3


class TestMetrics:
    def test_percentile(self):
        # Nearest rank: index round(q * (n - 1)) into the sorted window.
        collector = MetricsCollector()
        assert collector.snapshot() == TrackMetrics()
        for ms in range(100, 0, -1):
            collector.record(ServeResponse(articles=(), served_from="cache",
                                           latency=LatencyBreakdown(total_ms=float(ms)),
                                           pool_version=1))
        snap = collector.snapshot()
        assert (snap.latency_p50_ms, snap.latency_p95_ms, snap.latency_max_ms) == (51.0, 95.0, 100.0)

    def test_collector_rates(self):
        pool = NewsPool([art(i) for i in range(5)])
        index = build_index(pool)
        cache = SIDCache()
        collector = MetricsCollector()
        c = ctx()
        cache.put(entry_for(c, [SIDPrefix(1, 1, 10)]))
        collector.record(fast_track(c, cache, index, now=NOW))
        c2 = ctx(query="other")
        collector.record(fast_track(c2, cache, index, now=NOW))
        snap = collector.snapshot()
        assert snap.requests == 2
        assert snap.cache_hit_rate == pytest.approx(0.5)
        assert snap.fallback_level_rates["cache"] == pytest.approx(0.5)
        assert snap.fallback_level_rates["fallback_level_3"] == pytest.approx(0.5)
        assert snap.latency_max_ms >= snap.latency_p95_ms >= snap.latency_p50_ms >= 0.0

    def test_latency_window_follows_traffic(self):
        def reply(total_ms):
            return ServeResponse(articles=(), served_from="cache",
                                 latency=LatencyBreakdown(total_ms=total_ms), pool_version=1)

        collector = MetricsCollector()
        slow, fast = reply(50.0), reply(1.0)
        for _ in range(200_000):
            collector.record(slow)
        for _ in range(200_000):
            collector.record(fast)
        snap = collector.snapshot()
        assert snap.requests == 400_000
        assert snap.fallback_level_rates == {"cache": 1.0}
        assert snap.latency_p50_ms == 1.0
        assert snap.latency_max_ms == 1.0


class TestEnhanceWorkers:
    def test_async_install(self):
        cache = SIDCache()
        gen = StaticGenerator([SIDPrefix(2, 2, 2)])
        with EnhanceWorkers(cache, gen, workers=2) as workers:
            for i in range(8):
                workers.schedule(ctx(query=f"q{i}"))
        assert workers.scheduled == 8
        assert len(cache) == 8

    def test_yields_interpreter_after_every_task_and_keeps_errors(self, monkeypatch):
        # A task that raises outside the generator (an out-of-range prefix
        # fails validate_prefix) still yields, and its future still
        # carries the exception.
        real_sleep = time.sleep
        yields = []

        def recording_sleep(secs):
            if threading.current_thread().name.startswith("enhance"):
                yields.append(secs)
            real_sleep(secs)

        monkeypatch.setattr(time, "sleep", recording_sleep)

        class ByQuery:
            def generate(self, context):
                s1 = 99 if context.query == "bad" else 2
                return GeneratorOutput(prefixes=(SIDPrefix(s1, 2, 2),))

        cache = SIDCache()
        workers = EnhanceWorkers(cache, ByQuery(), workers=1)
        try:
            workers.schedule(ctx(query="good"))
            workers.drain()
            workers.schedule(ctx(query="bad"))
            with pytest.raises(SidRangeError):
                workers.drain()
        finally:
            workers.close()
        assert workers.scheduled == 2
        assert len(cache) == 1
        assert yields == [0, 0]

    def test_counts_logs_and_reports_failed_tasks(self, caplog):
        # SIDPrefix(99, ...) is outside the default 32 layer-1 codes, so
        # validate_sid raises after the generator has returned.
        workers = EnhanceWorkers(SIDCache(), StaticGenerator([SIDPrefix(99, 2, 2)]), workers=1)
        with caplog.at_level(logging.ERROR, logger="sidground.dualtrack"):
            workers.schedule(ctx())
            workers.close()     # the task has finished and left the pending set
        assert workers.failed == 1
        assert len([r for r in caplog.records if r.levelno >= logging.ERROR]) == 1
        with pytest.raises(SidRangeError):
            workers.drain()
        workers.drain()         # each failure is raised once
