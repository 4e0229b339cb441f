import json
from collections import Counter

import numpy as np
import pytest

from sidground.codebook import SID
from sidground.errors import MissingRecordError, RecordParseError, SidRangeError
from sidground.generator import (
    GeneratorOutput,
    HistPopGenerator,
    PoolSampledGenerator,
    PopularGenerator,
    ProfileCategoryGenerator,
    RandomGenerator,
    ReplayRecord,
    build_category_map,
    from_spec,
    load_replay,
    popular_prefixes,
    write_replay,
)
from sidground.hashing import derive_seed
from sidground.matcher import SIDPrefix
from sidground.padr import (
    BehaviorHistory,
    Click,
    EMPTY_HISTORY,
    UserProfile,
    route,
)
from sidground.pool import Article, NewsPool, refresh


def art(i, s1, s2, s3, category="c", published=1000.0):
    return Article(id=f"g{i}", title="", category=category, tags=(),
                   published_at=published, sid=SID(s1, s2, s3, 0))


def ctx_for(history=EMPTY_HISTORY, profile=None, query="q"):
    profile = profile or UserProfile(user_id="u1")
    return route(profile, history, query, tau=10)


def clicks(*prefixes, start=100.0):
    return BehaviorHistory(clicks=tuple(
        Click(article_id=f"a{i}", sid=SID(p[0], p[1], p[2], 0), timestamp=start + i)
        for i, p in enumerate(prefixes)
    ))


class TestRandomGenerator:
    def test_ranges_and_k(self):
        gen = RandomGenerator(seed=3)
        out = gen.generate(ctx_for())
        assert len(out.prefixes) == 10
        for p in out.prefixes:
            assert 0 <= p.s1 < 32 and 0 <= p.s2 < 64 and 0 <= p.s3 < 128

    def test_seeded_determinism(self):
        c = ctx_for()
        assert RandomGenerator(seed=5).generate(c) == RandomGenerator(seed=5).generate(c)
        assert RandomGenerator(seed=5).generate(c) != RandomGenerator(seed=6).generate(c)

    def test_distinct_contexts_diverge(self):
        gen = RandomGenerator(seed=5)
        assert gen.generate(ctx_for(query="a")) != gen.generate(ctx_for(query="b"))


class TestPopularGenerator:
    def test_frequency_order_with_ties(self):
        pool = NewsPool([
            art(0, 1, 1, 1), art(1, 1, 1, 1), art(2, 1, 1, 1),
            art(3, 2, 2, 2), art(4, 2, 2, 2),
            art(5, 0, 9, 9), art(6, 0, 3, 3),   # singles: tie broken lexicographically
        ])
        prefixes = popular_prefixes(pool, k=4)
        assert prefixes == (
            SIDPrefix(1, 1, 1), SIDPrefix(2, 2, 2), SIDPrefix(0, 3, 3), SIDPrefix(0, 9, 9),
        )

    def test_oracle_on_random_pool(self, std_fixture):
        pool = std_fixture.pool
        got = popular_prefixes(pool, k=10)
        counts = Counter(SIDPrefix(a.sid.s1, a.sid.s2, a.sid.s3) for a in pool.articles)
        want = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        assert list(got) == [p for p, _ in want]

    def test_context_independent(self, std_fixture):
        gen = PopularGenerator(std_fixture.pool)
        assert gen.generate(ctx_for(query="x")) == gen.generate(ctx_for(query="y"))


class TestHistPopGenerator:
    def test_mode(self):
        h = clicks((1, 2, 3), (1, 2, 3), (4, 5, 6))
        out = HistPopGenerator().generate(ctx_for(history=h))
        assert out.prefixes[0] == SIDPrefix(1, 2, 3)
        assert out.prefixes == (SIDPrefix(1, 2, 3), SIDPrefix(4, 5, 6))

    def test_tie_prefers_most_recent(self):
        h = clicks((1, 1, 1), (2, 2, 2))   # both once; (2,2,2) clicked later
        out = HistPopGenerator().generate(ctx_for(history=h))
        assert out.prefixes[0] == SIDPrefix(2, 2, 2)

    def test_mode_matches_brute_force(self, std_fixture):
        for uid, history in list(std_fixture.histories.items())[:50]:
            if len(history) == 0:
                continue
            out = HistPopGenerator().generate(
                ctx_for(history=history, profile=std_fixture.profiles[uid]))
            counts = Counter(
                SIDPrefix(c.sid.s1, c.sid.s2, c.sid.s3) for c in history.clicks)
            assert counts[out.prefixes[0]] == max(counts.values())

    def test_cold_context_empty(self):
        out = HistPopGenerator().generate(ctx_for(history=EMPTY_HISTORY))
        assert out.prefixes == ()


class TestProfileCategoryGenerator:
    def test_top_category_lookup(self):
        cat_map = {"technology": (SIDPrefix(1, 1, 1), SIDPrefix(1, 1, 2), SIDPrefix(1, 2, 1))}
        profile = UserProfile(user_id="u", declared_interests=("technology",))
        out = ProfileCategoryGenerator(cat_map).generate(ctx_for(profile=profile))
        assert out.prefixes == cat_map["technology"]

    def test_empty_signal(self):
        out = ProfileCategoryGenerator({}).generate(ctx_for())
        assert out.prefixes == ()

    def test_category_map_counting_oracle(self):
        pool = NewsPool([
            art(0, 3, 0, 0, category="x"), art(1, 3, 0, 0, category="x"),
            art(2, 4, 4, 4, category="x"), art(3, 5, 5, 5, category="y"),
        ])
        cat_map = build_category_map(pool)
        assert cat_map["x"][0] == SIDPrefix(3, 0, 0)
        assert cat_map["y"] == (SIDPrefix(5, 5, 5),)


class TestPoolSampledGenerator:
    def test_prefixes_exist_in_pool(self, std_fixture):
        gen = PoolSampledGenerator(std_fixture.pool, seed=2)
        existing = {
            SIDPrefix(a.sid.s1, a.sid.s2, a.sid.s3) for a in std_fixture.pool.articles
        }
        out = gen.generate(ctx_for())
        assert set(out.prefixes) <= existing

    @pytest.mark.parametrize("seed", [0, 7, 31])
    def test_same_draws_as_indexing_the_articles(self, std_fixture, seed):
        arts = std_fixture.pool.articles
        gen = PoolSampledGenerator(std_fixture.pool, seed=seed)
        for query in ("q", "world cup", "rates"):
            ctx = ctx_for(query=query)
            rng = np.random.default_rng(derive_seed(seed, "pool-sample", ctx.rendered))
            want = tuple(SIDPrefix(arts[i].sid.s1, arts[i].sid.s2, arts[i].sid.s3)
                         for i in rng.integers(0, len(arts), size=gen.k).tolist())
            assert gen.generate(ctx).prefixes == want

    # The codes are kept in the narrowest integer type the layer sizes
    # allow; the largest code of a layer must survive it, and come back as
    # a Python int that JSON can write.
    @pytest.mark.parametrize("size", [256, 257, 65537])
    def test_largest_code_survives_the_narrow_type(self, size):
        top = size - 1
        pool = NewsPool([art(0, top, 0, top), art(1, 0, top, 0)],
                        layer_sizes=(size, size, size, 4))
        out = PoolSampledGenerator(pool, seed=1, k=8).generate(ctx_for())
        assert set(out.prefixes) == {SIDPrefix(top, 0, top), SIDPrefix(0, top, 0)}
        assert all(type(v) is int for p in out.prefixes for v in (p.s1, p.s2, p.s3))
        json.dumps([[p.s1, p.s2, p.s3] for p in out.prefixes])

    def test_keeps_its_snapshot_after_a_refresh(self):
        old = NewsPool([art(0, 1, 2, 3)])
        gen = PoolSampledGenerator(old, seed=4, k=3)
        new = refresh(old, add=[art(1, 4, 5, 6)], remove=["g0"])
        assert new.articles[0].sid[:3] == (4, 5, 6)
        assert gen.generate(ctx_for()).prefixes == (SIDPrefix(1, 2, 3),) * 3


class TestReplay:
    def test_roundtrip(self, tmp_path):
        records = [
            ReplayRecord("s1", (SIDPrefix(1, 2, 3),), "because"),
            ReplayRecord("s2", (SIDPrefix(4, 5, 6), SIDPrefix(7, 8, 9)), ""),
        ]
        path = tmp_path / "replay.jsonl"
        write_replay(records, path)
        gen = load_replay(path)
        assert len(gen) == 2
        from dataclasses import replace
        ctx = replace(ctx_for(), sample_id="s2")
        out = gen.generate(ctx)
        assert out.prefixes == (SIDPrefix(4, 5, 6), SIDPrefix(7, 8, 9))

    def test_unknown_sample_id(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        write_replay([ReplayRecord("s1", (SIDPrefix(1, 2, 3),))], path)
        gen = load_replay(path)
        with pytest.raises(MissingRecordError):
            gen.generate(ctx_for())   # no sample_id attached

    def test_duplicate_sample_id_rejected(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        lines = ['{"sample_id": "s1", "prefixes": [[1,2,3]]}'] * 2
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecordParseError) as exc:
            load_replay(path)
        assert "line 2" in str(exc.value)

    def test_out_of_range_prefix_rejected(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        path.write_text('{"sample_id": "s1", "prefixes": [[32,2,3]]}\n')
        with pytest.raises(SidRangeError):
            load_replay(path)


class TestFromSpec:
    def test_specs(self, std_fixture, tmp_path):
        pool = std_fixture.pool
        assert isinstance(from_spec("random", seed=1).generate(ctx_for()), GeneratorOutput)
        assert from_spec("popular", training_pool=pool)
        assert from_spec("histpop")
        assert from_spec("profile", training_pool=pool)
        path = tmp_path / "r.jsonl"
        write_replay([ReplayRecord("s1", (SIDPrefix(1, 2, 3),))], path)
        assert from_spec(f"replay:{path}")
        with pytest.raises(RecordParseError):
            from_spec("nonsense")
        with pytest.raises(RecordParseError):
            from_spec("popular")
