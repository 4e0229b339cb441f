import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidground.codebook import DEFAULT_LAYER_SIZES, SID
from sidground.errors import InvalidInputError, RecordParseError
from sidground.evaluation import load_samples
from sidground.padr import (
    BehaviorHistory,
    Click,
    Demographics,
    EMPTY_HISTORY,
    UserProfile,
    history_from_record,
    history_to_record,
    load_histories,
    load_profiles,
    path_distribution,
    preset_queries,
    profile_from_record,
    profile_to_record,
    route,
)
from sidground.report import build_contexts

DEMO = Path(__file__).resolve().parent.parent / "assets" / "demo"


def make_history(n, start=100.0):
    return BehaviorHistory(clicks=tuple(
        Click(article_id=f"a{i}", sid=SID(1, 2, 3, 4), timestamp=start + i,
              title=f"t{i}", category="technology")
        for i in range(n)
    ))


def make_profile(uid="u1", declared=("technology",), prefs30=(), prefs7=()):
    return UserProfile(
        user_id=uid,
        demographics=Demographics(age_range="25-34", gender="female", location="beijing"),
        declared_interests=tuple(declared),
        longterm_prefs_30d=tuple(prefs30),
        longterm_prefs_7d=tuple(prefs7),
    )


class TestRoute:
    def test_zero_history_is_cold(self):
        ctx = route(make_profile(), EMPTY_HISTORY, "recommend news", tau=10)
        assert ctx.path == "cold"
        assert ctx.indicator == "no history"
        assert "INDICATOR\nno history" in ctx.rendered
        assert "HISTORY" not in ctx.rendered

    def test_boundary_is_warm(self):
        ctx = route(make_profile(), make_history(10), "q", tau=10)
        assert ctx.path == "warm"
        assert ctx.indicator is None
        assert "INDICATOR" not in ctx.rendered

    def test_below_boundary_is_hybrid(self):
        ctx = route(make_profile(), make_history(9), "q", tau=10)
        assert ctx.path == "hybrid"
        assert ctx.indicator == "sparse"
        assert "INDICATOR\nsparse" in ctx.rendered
        assert "HISTORY" in ctx.rendered

    def test_rendered_deterministic(self):
        p, h = make_profile(), make_history(5)
        assert route(p, h, "q", tau=10).rendered == route(p, h, "q", tau=10).rendered

    def test_history_render_capped_at_20(self):
        ctx = route(make_profile(), make_history(30), "q", tau=10)
        assert ctx.rendered.count("click:") == 20
        # The most recent clicks are kept.
        assert "t29" in ctx.rendered and "t9" not in ctx.rendered

    def test_sections_in_order(self):
        ctx = route(make_profile(), make_history(3), "the query", tau=10)
        r = ctx.rendered
        assert r.index("PROFILE") < r.index("HISTORY") < r.index("QUERY") < r.index("INDICATOR")
        assert "the query" in r

    def test_demo_renderings_frozen(self):
        # Every demo sample's context and every demo user's full-history
        # context, byte for byte as rendered before rendering became lazy.
        samples = load_samples(DEMO / "samples.jsonl")
        profiles = load_profiles(DEMO / "profiles.jsonl")
        histories = load_histories(DEMO / "histories.jsonl")
        contexts = build_contexts(samples, profiles, histories)
        h = hashlib.sha256()
        for s in samples:
            h.update(contexts[s.sample_id].rendered.encode() + b"\0")
        for uid, p in profiles.items():
            ctx = route(p, histories.get(uid, EMPTY_HISTORY), "q", tau=10)
            h.update(ctx.rendered.encode() + b"\0")
        assert h.hexdigest() == "affa60935d263548ca79a60d27edc6d0b7d422ff58463aa728cefe5594f802bf"

    def test_rendered_once_on_first_read(self):
        ctx = route(make_profile(), make_history(3), "q", tau=10)
        assert "_rendered" not in ctx.__dict__
        assert ctx.rendered is ctx.rendered
        assert ctx.__dict__["_rendered"] is ctx.rendered

    def test_tau_validation(self):
        with pytest.raises(InvalidInputError):
            route(make_profile(), EMPTY_HISTORY, "q", tau=0)

    @given(n=st.integers(0, 30), tau=st.sampled_from([5, 10, 15, 20]))
    @settings(max_examples=200, deadline=None)
    def test_branch_exactness(self, n, tau):
        ctx = route(make_profile(), make_history(n), "q", tau=tau)
        if n >= tau:
            assert ctx.path == "warm" and ctx.indicator is None
        elif n > 0:
            assert ctx.path == "hybrid" and ctx.indicator == "sparse"
        else:
            assert ctx.path == "cold" and ctx.indicator == "no history"
        # Indicator token appears in the rendering iff the path requires it.
        assert ("INDICATOR" in ctx.rendered) == (ctx.indicator is not None)

    @given(n=st.integers(0, 40), tau_lo=st.integers(1, 20), bump=st.integers(0, 10))
    @settings(max_examples=100, deadline=None)
    def test_raising_tau_never_promotes_to_warm(self, n, tau_lo, bump):
        path_lo = route(make_profile(), make_history(n), "q", tau=tau_lo).path
        path_hi = route(make_profile(), make_history(n), "q", tau=tau_lo + bump).path
        if path_lo != "warm":
            assert path_hi != "warm"


class TestPathDistribution:
    def test_all_cold(self):
        users = [(make_profile(uid=f"u{i}"), EMPTY_HISTORY) for i in range(5)]
        assert path_distribution(users, tau=10) == (1.0, 0.0, 0.0)

    def test_cold_fraction_constant_in_tau(self):
        users = [
            (make_profile(uid=f"u{i}"), make_history(n))
            for i, n in enumerate([0, 0, 3, 7, 12, 18, 25, 0, 9, 40])
        ]
        colds = {path_distribution(users, tau=t)[0] for t in (5, 10, 15, 20)}
        assert colds == {0.3}

    def test_fractions_sum_to_one(self):
        users = [(make_profile(uid=f"u{i}"), make_history(i)) for i in range(25)]
        cold, hybrid, warm = path_distribution(users, tau=10)
        assert cold + hybrid + warm == pytest.approx(1.0, abs=1e-9)

    def test_production_proportions_at_tau_10(self):
        # Population engineered to the production path split at tau=10:
        # 18.2% zero history, 12.3% sparse, 69.5% warm. Checks the router,
        # not the data.
        users = []
        i = 0
        for count, n in ((182, 0), (123, 5), (695, 15)):
            for _ in range(count):
                users.append((make_profile(uid=f"u{i}"), make_history(n)))
                i += 1
        assert path_distribution(users, tau=10) == pytest.approx((0.182, 0.123, 0.695))

    def test_empty_population_rejected(self):
        with pytest.raises(InvalidInputError):
            path_distribution([], tau=10)


class TestPresetQueries:
    def test_single_declared_interest(self):
        presets = preset_queries(make_profile(declared=("technology",)))
        assert len(presets) == 1
        assert "technology" in presets[0].query
        assert presets[0].path == "cold"

    def test_three_distinct_categories(self):
        p = make_profile(declared=("a",), prefs30=(("b", 0.5),), prefs7=(("c", 0.4),))
        assert len(preset_queries(p)) == 3

    def test_deduplicated_against_union(self):
        p = make_profile(
            declared=("technology", "sports"),
            prefs30=(("technology", 0.6), ("finance", 0.2)),
            prefs7=(("sports", 0.5),),
        )
        presets = preset_queries(p)
        # Set-union oracle over the profile's category fields.
        want = {"technology", "sports", "finance"}
        got = {ctx.query.split()[1] for ctx in presets}
        assert got == want
        assert len(presets) == len(want)

    def test_no_signal_empty(self):
        assert preset_queries(make_profile(declared=())) == []


class TestIO:
    def test_profile_roundtrip(self):
        p = make_profile(prefs30=(("technology", 0.5), ("sports", 0.25)))
        assert profile_from_record(profile_to_record(p)) == p

    def test_history_roundtrip(self):
        h = make_history(4)
        uid, loaded = history_from_record(history_to_record("u9", h), DEFAULT_LAYER_SIZES)
        assert uid == "u9" and loaded == h

    # str() would load them as 'None' and '5', ids the pool never resolves,
    # so profile_keywords would silently drop the click's tags.
    @pytest.mark.parametrize("article_id", [None, 5])
    def test_click_article_id_must_be_string(self, tmp_path, article_id):
        rec = history_to_record("u9", make_history(2))
        rec["clicks"][1]["article_id"] = article_id
        path = tmp_path / "histories.jsonl"
        path.write_text(json.dumps(history_to_record("u8", make_history(1))) + "\n"
                        + json.dumps(rec) + "\n")
        with pytest.raises(RecordParseError, match="line 2: .*article_id must be a string"):
            load_histories(path, DEFAULT_LAYER_SIZES)

    def test_invariant_violations(self):
        with pytest.raises(InvalidInputError):
            BehaviorHistory(clicks=(
                Click("a", SID(0, 0, 0, 0), timestamp=5.0),
                Click("b", SID(0, 0, 0, 0), timestamp=4.0),
            ))
        with pytest.raises(InvalidInputError):
            UserProfile(user_id="x", longterm_prefs_30d=(
                ("a", 0.1), ("b", 0.1), ("c", 0.1), ("d", 0.1)))
        with pytest.raises(InvalidInputError):
            UserProfile(user_id="x", longterm_prefs_7d=(("a", -0.1),))
