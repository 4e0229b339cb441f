import hashlib
import json
import math

import numpy as np
import pytest

from sidground.codebook import SID
from sidground.errors import InvalidInputError, RecordParseError
from sidground.evaluation import (
    EvalSample,
    GeneratorChooser,
    OracleChooser,
    UniformChooser,
    bootstrap_ci,
    bootstrap_cis,
    category_indicators,
    draw_candidates,
    expected_random_l1,
    hallucination_rate,
    hit_at_1,
    l1_indicators,
    l2_indicators,
    load_samples,
    partial_match_analysis,
    write_samples,
)
from sidground.fixture import FixtureSpec, make_synthetic_fixture
from sidground.generator import HistPopGenerator, RandomGenerator
from sidground.hashing import derive_seed
from sidground.matcher import SIDPrefix
from sidground.pool import Article, NewsPool, build_index
from sidground.report import run_eval


def art(i, s1=0, s2=0, s3=0, category="c"):
    return Article(id=f"e{i}", title="", category=category, tags=(),
                   published_at=1000.0 + i, sid=SID(s1, s2, s3, 0))


def sid(s1, s2=0, s3=0, s4=0):
    return SID(s1, s2, s3, s4)


def mean(indicators):
    return sum(indicators) / len(indicators)


def by_category(pool):
    out = {}
    for a in pool.articles:
        out.setdefault(a.category, []).append(a.id)
    return out


class TestMatchMetrics:
    def test_perfect_predictions(self):
        preds = [SIDPrefix(1, 2, 3), SIDPrefix(4, 5, 6)]
        targets = [sid(1, 2, 3), sid(4, 5, 6)]
        assert mean(l1_indicators(preds, targets)) == 1.0
        assert mean(l2_indicators(preds, targets)) == 1.0

    def test_empty_prediction_is_miss(self):
        preds = [None, SIDPrefix(1, 0, 0)]
        targets = [sid(1), sid(1)]
        assert mean(l1_indicators(preds, targets)) == 0.5

    def test_l2_implies_l1(self):
        rng = np.random.default_rng(3)
        preds = [SIDPrefix(int(rng.integers(4)), int(rng.integers(4)), 0) for _ in range(500)]
        targets = [sid(int(rng.integers(4)), int(rng.integers(4))) for _ in range(500)]
        assert mean(l2_indicators(preds, targets)) <= mean(l1_indicators(preds, targets))

    def test_uniform_random_near_one_over_32(self):
        rng = np.random.default_rng(6)
        n = 20_000
        preds = [SIDPrefix(int(rng.integers(32)), 0, 0) for _ in range(n)]
        targets = [sid(int(rng.integers(32))) for _ in range(n)]
        rate = mean(l1_indicators(preds, targets))
        _, lo, hi = bootstrap_ci(
            [int(p.s1 == t.s1) for p, t in zip(preds, targets)], resamples=2000, seed=1)
        assert lo <= 1 / 32 <= hi
        assert abs(rate - 1 / 32) < 0.005

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            l1_indicators([None], [sid(1), sid(2)])

    def test_category_match_via_top_candidate(self):
        pool = NewsPool([art(0, 1, 1, 10, category="x"), art(1, 2, 2, 20, category="y")])
        index = build_index(pool)
        # Prediction lands on the bucket of article 0 => category "x".
        assert mean(category_indicators([SIDPrefix(1, 1, 12)], ["x"], index, delta=5)) == 1.0
        assert mean(category_indicators([SIDPrefix(1, 1, 12)], ["y"], index, delta=5)) == 0.0
        # No match at all counts as a miss.
        assert mean(category_indicators([SIDPrefix(9, 9, 9)], ["x"], index, delta=5)) == 0.0


class TestHallucination:
    def test_prefixes_from_pool_zero(self):
        pool = NewsPool([art(i, 1, 1, i) for i in range(5)])
        index = build_index(pool)
        preds = [SIDPrefix(1, 1, i) for i in range(5)]
        assert hallucination_rate(preds, index) == 0.0

    def test_absent_bucket_full_rate(self):
        pool = NewsPool([art(0, 1, 1, 0)])
        index = build_index(pool)
        assert hallucination_rate([SIDPrefix(9, 9, 9)] * 4, index) == 1.0

    def test_rate_matches_occupancy_count(self):
        rng = np.random.default_rng(7)
        pool = NewsPool([
            art(i, int(rng.integers(4)), int(rng.integers(4)), int(rng.integers(16)))
            for i in range(200)
        ])
        index = build_index(pool)
        occupied = {(a.sid.s1, a.sid.s2, a.sid.s3) for a in pool.articles}
        preds = [
            SIDPrefix(int(rng.integers(4)), int(rng.integers(4)), int(rng.integers(16)))
            for _ in range(2000)
        ]
        want = sum(1 for p in preds if tuple(p) not in occupied) / len(preds)
        assert hallucination_rate(preds, index) == pytest.approx(want)

    def test_exact_existence_not_fuzzy(self):
        # Neighbor at distance 1 exists, exact prefix does not: counted
        # as hallucinated because the test is delta=0.
        pool = NewsPool([art(0, 1, 1, 11)])
        index = build_index(pool)
        assert hallucination_rate([SIDPrefix(1, 1, 10)], index) == 1.0


class TestExpectedRandomL1:
    def test_uniform_32(self):
        targets = [sid(i % 32) for i in range(3200)]
        expected, _, _ = expected_random_l1(targets)
        assert expected == pytest.approx(1 / 32)

    def test_pairwise_agreement_oracle(self):
        rng = np.random.default_rng(5)
        targets = [sid(int(rng.integers(6))) for _ in range(300)]
        expected, _, _ = expected_random_l1(targets)
        # O(n^2) probability that two independent draws from the target
        # empirical distribution agree.
        n = len(targets)
        agree = sum(
            1 for i in range(n) for j in range(n) if targets[i].s1 == targets[j].s1
        )
        assert expected == pytest.approx(agree / (n * n), abs=1e-12)

    def test_adjusted_and_lift(self):
        targets = [sid(0)] * 10
        expected, adjusted, lift = expected_random_l1(targets, actual=0.5)
        assert expected == 1.0 and adjusted == -0.5 and lift == 0.5

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            expected_random_l1([])


class TestBootstrap:
    def test_degenerate_all_ones(self):
        point, lo, hi = bootstrap_ci([1.0] * 50)
        assert (point, lo, hi) == (1.0, 1.0, 1.0)

    def test_seeded_bit_identical(self):
        values = list(np.random.default_rng(3).random(500))
        a = bootstrap_ci(values, resamples=2000, seed=42)
        b = bootstrap_ci(values, resamples=2000, seed=42)
        assert a == b

    def test_bernoulli_width_analytic(self):
        rng = np.random.default_rng(7)
        values = (rng.random(1000) < 0.5).astype(float)
        point, lo, hi = bootstrap_ci(values, resamples=10_000, seed=42)
        assert lo <= 0.5 <= hi
        width = hi - lo
        expect = 2 * 1.96 * math.sqrt(0.25 / 1000)
        assert abs(width - expect) / expect < 0.20

    def test_chunking_invariant(self):
        # The chunked resampler must agree with a one-shot draw.
        values = np.arange(10.0)
        rng = np.random.default_rng(9)
        idx = rng.integers(0, 10, size=(777, 10))
        want = values[idx].mean(axis=1)
        from sidground.evaluation import _resample_means
        got = _resample_means(values[None, :], 777, 9)
        assert np.array_equal(got, [want])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            bootstrap_ci([])


class TestSharedBootstrap:
    """bootstrap_cis draws each index matrix once for all rows; every row
    must still get exactly the CI bootstrap_ci gives it alone."""

    @pytest.mark.parametrize("resamples", [1, 256, 777, 2000])
    def test_rows_equal_single_row_ci(self, resamples):
        rng = np.random.default_rng(21)
        rows = [
            list(rng.random(301)),                        # non-0/1 floats
            [float(v) for v in rng.integers(0, 2, 301)],
            list(rng.normal(5.0, 3.0, 301)),
        ]
        got = bootstrap_cis(rows, resamples=resamples, seed=13)
        assert got == [bootstrap_ci(r, resamples=resamples, seed=13) for r in rows]

    def test_single_row_is_bootstrap_ci(self):
        values = list(np.random.default_rng(4).random(90))
        assert bootstrap_cis([values], resamples=500, seed=8) == [
            bootstrap_ci(values, resamples=500, seed=8)]

    def test_bad_rows_rejected(self):
        with pytest.raises(InvalidInputError):
            bootstrap_cis([[]])
        with pytest.raises(InvalidInputError):
            bootstrap_cis([[1.0, 0.0]], resamples=0)


def cs_sample(i, target, pool_arts):
    ids = [a.id for a in pool_arts[:4] if a.id != target] + [target]
    while len(ids) < 5:
        ids.append(pool_arts[len(ids)].id)
    return EvalSample(
        sample_id=f"cs{i}", intent="candidate_selection", user_id="u1",
        query="recommend news", target_article_id=target,
        target_sid=sid(0), history_len=12, candidates=tuple(ids[:5]),
    )


class TestHitAtOne:
    @pytest.fixture()
    def world(self):
        rng = np.random.default_rng(3)
        arts = [art(i, int(rng.integers(32)), int(rng.integers(64)), int(rng.integers(128)),
                    category=f"cat{int(rng.integers(3))}")
                for i in range(60)]
        pool = NewsPool(arts)
        samples = [cs_sample(i, arts[int(rng.integers(len(arts)))].id, arts)
                   for i in range(300)]
        return pool, samples

    def test_oracle_hits_everything(self, world):
        pool, samples = world
        for res in hit_at_1(samples, OracleChooser(), pool, seed=1, resamples=500):
            assert res.rate == 1.0 and (res.ci_lo, res.ci_hi) == (1.0, 1.0)

    def test_uniform_near_20_percent(self, world):
        pool, samples = world
        res, _ = hit_at_1(samples, UniformChooser(seed=5), pool, seed=1, resamples=2000)
        assert res.ci_lo <= 0.2 <= res.ci_hi

    def test_candidate_sets_fixed_per_seed(self, world):
        pool, samples = world
        by_cat = by_category(pool)
        a, _ = draw_candidates(samples[0], pool, "rand", 9, by_cat)
        b, _ = draw_candidates(samples[0], pool, "rand", 9, by_cat)
        c, _ = draw_candidates(samples[0], pool, "rand", 10, by_cat)
        assert a == b
        assert a != c

    def test_candidates_include_target_and_four_distinct(self, world):
        pool, samples = world
        by_cat = by_category(pool)
        for s in samples[:50]:
            ids, _ = draw_candidates(s, pool, "align", 3, by_cat)
            assert len(ids) == len(set(ids)) == 5
            assert s.target_article_id in ids

    def test_align_draws_same_category(self, world):
        pool, samples = world
        by_cat = by_category(pool)
        for s in samples[:50]:
            ids, fell_back = draw_candidates(s, pool, "align", 3, by_cat)
            if fell_back:
                continue
            target_cat = pool.by_id[s.target_article_id].category
            same = [i for i in ids if i != s.target_article_id
                    and pool.by_id[i].category == target_cat]
            assert len(same) >= 2

    def test_align_fallback_counted(self):
        arts = [art(0, category="solo")] + [art(i, category="common") for i in range(1, 10)]
        pool = NewsPool(arts)
        s = cs_sample(0, "e0", arts)
        rand, align = hit_at_1([s], OracleChooser(), pool, seed=1, resamples=100)
        assert (rand.n_align_fallback, align.n_align_fallback) == (0, 1)

    def test_generator_chooser_prefers_matching_prefix(self, world):
        pool, samples = world

        class TargetedGenerator:
            def generate(self, context):
                from sidground.generator import GeneratorOutput
                target = pool.by_id[self.target]
                return GeneratorOutput(prefixes=(
                    SIDPrefix(target.sid.s1, target.sid.s2, target.sid.s3),))

        gen = TargetedGenerator()
        chooser = GeneratorChooser(gen)
        by_cat = by_category(pool)
        hits = 0
        for s in samples[:100]:
            gen.target = s.target_article_id
            ids, _ = draw_candidates(s, pool, "rand", 4, by_cat)
            [picked] = chooser.choose(s, [[pool.by_id[i] for i in ids]], None)
            hits += int(picked == s.target_article_id)
        # Occasional exact-prefix collisions among negatives can steal a
        # tie, but the chooser must be near-perfect on diverse prefixes.
        assert hits >= 95


def list_copy_draw(sample, pool, negative_mode, seed, by_category):
    """draw_candidates as it was before align drew by index: the same-
    category list is copied without the target, then sampled."""
    rng = np.random.default_rng(derive_seed(seed, "hit1-negatives", sample.sample_id))
    target = pool.by_id[sample.target_article_id]
    fell_back = False
    chosen = []
    if negative_mode == "align":
        same_cat = [i for i in by_category.get(target.category, []) if i != target.id]
        if len(same_cat) >= 2:
            picks = rng.choice(len(same_cat), size=2, replace=False)
            chosen.extend(same_cat[int(i)] for i in picks)
        else:
            fell_back = True
    exclude = {target.id, *chosen}
    n = len(pool.articles)
    while len(chosen) < 4:
        cand = pool.articles[int(rng.integers(n))].id
        if cand not in exclude:
            chosen.append(cand)
            exclude.add(cand)
    ids = [target.id] + chosen
    return [ids[int(i)] for i in rng.permutation(5)], fell_back


class TestAlignDrawByIndex:
    @pytest.fixture()
    def world(self):
        cats = ["thin", "common", "solo", "common", "thin"] + ["common"] * 10 + ["wide"] * 9
        arts = [art(i, category=c) for i, c in enumerate(cats)]
        pool = NewsPool(arts)
        by_cat = {}
        for a in arts:
            by_cat.setdefault(a.category, []).append(a.id)
        return pool, arts, by_cat

    def assert_same_draws(self, pool, arts, by_cat, target, fallback):
        for seed in range(25):
            s = cs_sample(seed, target, arts)
            want = list_copy_draw(s, pool, "align", seed, by_cat)
            assert want[1] == fallback
            assert draw_candidates(s, pool, "align", seed, by_cat) == want

    @pytest.mark.parametrize("where", [0, 5, -1])
    def test_target_first_middle_last(self, world, where):
        pool, arts, by_cat = world
        self.assert_same_draws(pool, arts, by_cat, by_cat["common"][where], False)

    @pytest.mark.parametrize("cat", ["thin", "solo"])
    def test_thin_category_falls_back(self, world, cat):
        pool, arts, by_cat = world
        self.assert_same_draws(pool, arts, by_cat, by_cat[cat][0], True)

    def test_category_list_without_target(self, world):
        pool, arts, by_cat = world
        target = by_cat["wide"][4]
        without = dict(by_cat, wide=[i for i in by_cat["wide"] if i != target])
        for seed in range(10):
            s = cs_sample(seed, target, arts)
            assert (draw_candidates(s, pool, "align", seed, without)
                    == list_copy_draw(s, pool, "align", seed, without))


@pytest.fixture(scope="module")
def golden_world():
    return make_synthetic_fixture(FixtureSpec(seed=3, n_articles=1500, n_users=120,
                                              n_samples=400, embeddings=False))


def report_sha256(report) -> str:
    return hashlib.sha256(json.dumps(report.to_record(), sort_keys=True).encode()).hexdigest()


class TestRunEvalGoldens:
    """Reports frozen before the eval stopped repeating work (shared
    bootstrap draws, one generator call per sample, lazy rendering)."""

    @pytest.mark.parametrize("generator, want", [
        (HistPopGenerator(),
         "089c164d9980cf997d811eec404df240c57c974de6d37b3790aacf496a62ced9"),
        (RandomGenerator(seed=5),     # reads the rendered context
         "5c890c82e2a0cb092e4a657012f0cead75095c88dea30bc4015341c77c14b012"),
    ])
    def test_report_digest_frozen(self, golden_world, generator, want):
        w = golden_world
        report = run_eval(w.samples, w.pool, generator, profiles=w.profiles,
                          histories=w.histories, resamples=500)
        assert report_sha256(report) == want

    def test_generator_called_once_per_sample(self, golden_world):
        w = golden_world

        class Counting(HistPopGenerator):
            calls = 0

            def generate(self, context):
                self.calls += 1
                return super().generate(context)

        gen = Counting()
        report = run_eval(w.samples, w.pool, gen, profiles=w.profiles,
                          histories=w.histories, resamples=50)
        assert report.hit_rand.n_evaluated == report.intent_counts["candidate_selection"] > 0
        assert gen.calls == len(w.samples)


class TestPartialMatch:
    def test_all_exact_no_partials(self):
        pool = NewsPool([art(0, 1, 1, 1)])
        index = build_index(pool)
        preds = [SIDPrefix(1, 1, 1)]
        stats = partial_match_analysis(preds, [sid(1, 1, 1)], ["c"], index)
        assert stats.l1_only_rate == 0.0 and stats.n_partial == 0

    def test_counts_match_recount(self):
        rng = np.random.default_rng(13)
        pool = NewsPool([
            art(i, int(rng.integers(3)), int(rng.integers(3)), int(rng.integers(32)))
            for i in range(300)
        ])
        index = build_index(pool)
        preds, targets, cats = [], [], []
        for _ in range(200):
            preds.append(SIDPrefix(int(rng.integers(3)), int(rng.integers(3)),
                                   int(rng.integers(32))))
            targets.append(sid(int(rng.integers(3)), int(rng.integers(3))))
            cats.append("c")
        stats = partial_match_analysis(preds, targets, cats, index, delta=5)
        # Brute-force recount of the partial set and its candidate counts.
        partials = [p for p, t in zip(preds, targets)
                    if p.s1 == t.s1 and p.s2 != t.s2]
        assert stats.n_partial == len(partials)
        counts = []
        for p in partials:
            c = sum(1 for a in pool.articles
                    if a.sid.s1 == p.s1 and a.sid.s2 == p.s2 and abs(a.sid.s3 - p.s3) <= 5)
            counts.append(c)
        assert stats.mean_candidates == pytest.approx(float(np.mean(counts)))
        assert stats.median_candidates == pytest.approx(float(np.median(counts)))


class TestSampleIO:
    def test_roundtrip(self, tmp_path):
        samples = [
            EvalSample("s1", "next_item", "u1", "what else?", "a1", sid(1, 2, 3, 4),
                       history_len=12),
            EvalSample("s2", "pure_coldstart", "u2", "recommend news", "a2",
                       sid(4, 5, 6, 7), history_len=0),
        ]
        path = tmp_path / "samples.jsonl"
        write_samples(samples, path)
        assert load_samples(path) == samples

    def test_candidate_invariant_enforced(self):
        with pytest.raises(InvalidInputError):
            EvalSample("s1", "candidate_selection", "u", "q", "a1", sid(0),
                       candidates=("a1", "a2"))
        with pytest.raises(InvalidInputError):
            EvalSample("s1", "candidate_selection", "u", "q", "a1", sid(0),
                       candidates=("a2", "a3", "a4", "a5", "a6"))

    def test_negative_history_len_rejected(self):
        with pytest.raises(InvalidInputError, match="history_len"):
            EvalSample("s1", "next_item", "u", "q", "a1", sid(0), history_len=-2)

    def test_pure_coldstart_invariant(self):
        with pytest.raises(InvalidInputError):
            EvalSample("s1", "pure_coldstart", "u", "q", "a1", sid(0), history_len=3)

    def test_duplicate_sample_id(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        s = EvalSample("s1", "next_item", "u1", "q", "a1", sid(1))
        write_samples([s], path)
        with open(path, "a") as f:
            import json
            f.write(json.dumps({
                "sample_id": "s1", "intent": "next_item", "user_id": "u1",
                "query": "q", "target": {"article_id": "a1", "sid": [1, 0, 0, 0]},
                "history_len": 0,
            }) + "\n")
        with pytest.raises(RecordParseError):
            load_samples(path)
