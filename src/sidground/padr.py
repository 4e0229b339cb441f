"""Profile-aware dual-signal routing and context construction.

Each request is routed by history length against the sufficiency
threshold tau:

    |history| >= tau  -> warm    context [profile; history; query]
    0 < |history| < tau -> hybrid  context [profile; history; query; "sparse"]
    |history| == 0    -> cold    context [profile; query; "no history"]

The routed context is rendered to one canonical string (labeled PROFILE /
HISTORY / QUERY / INDICATOR sections, newline separated, history capped
at the 20 most recent clicks). The rendering is byte-deterministic for
identical inputs because the cache keys on a hash of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .codebook import DEFAULT_LAYER_SIZES, SID, validate_sid
from .errors import InvalidInputError
from .jsonl import (
    iter_jsonl,
    json_int,
    json_list,
    json_num,
    json_obj,
    json_str,
    json_strs,
    read_keyed,
)

DEFAULT_TAU = 10
HISTORY_RENDER_LIMIT = 20

INDICATOR_SPARSE = "sparse"
INDICATOR_NO_HISTORY = "no history"


@dataclass(frozen=True)
class Demographics:
    age_range: str = ""
    gender: str = ""
    location: str = ""


@dataclass(frozen=True)
class UserProfile:
    user_id: str
    demographics: Demographics = Demographics()
    declared_interests: tuple[str, ...] = ()
    longterm_prefs_30d: tuple[tuple[str, float], ...] = ()   # top-3 (category, weight)
    longterm_prefs_7d: tuple[tuple[str, float], ...] = ()
    active_hours: tuple[int, ...] = ()
    daily_duration_minutes: float = 0.0
    engagement_level: str = ""
    video_affinity: float = 0.0
    text_affinity: float = 0.0

    def __post_init__(self):
        for name, prefs in (("longterm_prefs_30d", self.longterm_prefs_30d),
                            ("longterm_prefs_7d", self.longterm_prefs_7d)):
            if len(prefs) > 3:
                raise InvalidInputError(f"{name} holds top-3 entries, got {len(prefs)}")
            if any(w < 0 for _, w in prefs):
                raise InvalidInputError(f"{name} weights must be >= 0")

    def top_categories(self) -> list[str]:
        """Declared interests then 30d then 7d top categories, deduplicated,
        order preserved."""
        out: list[str] = []
        seen = set()
        for cat in (*self.declared_interests,
                    *(c for c, _ in self.longterm_prefs_30d),
                    *(c for c, _ in self.longterm_prefs_7d)):
            if cat and cat not in seen:
                seen.add(cat)
                out.append(cat)
        return out


@dataclass(frozen=True)
class Click:
    article_id: str
    sid: SID
    timestamp: float
    dwell_seconds: float = 0.0
    title: str = ""        # optional denormalized metadata for rendering
    category: str = ""


@dataclass(frozen=True)
class BehaviorHistory:
    clicks: tuple[Click, ...] = ()

    def __post_init__(self):
        ts = [c.timestamp for c in self.clicks]
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise InvalidInputError("click timestamps must be non-decreasing")
        if any(c.dwell_seconds < 0 for c in self.clicks):
            raise InvalidInputError("dwell_seconds must be >= 0")

    def __len__(self) -> int:
        return len(self.clicks)


EMPTY_HISTORY = BehaviorHistory()


@dataclass(frozen=True)
class UserContext:
    """Routed request context (route builds it) for generators and the cache."""

    path: str                     # "warm" | "hybrid" | "cold"
    query: str
    profile: UserProfile = field(repr=False)
    history: BehaviorHistory = field(repr=False)
    indicator: Optional[str] = None
    sample_id: Optional[str] = None   # set by the eval harness for replay

    @property
    def rendered(self) -> str:
        """Canonical serialized context, rendered on first read and kept.

        Generators that never read it (HistPop) never pay for it. Lazy
        init is benign under concurrent readers: a race renders the same
        string twice.
        """
        text = self.__dict__.get("_rendered")
        if text is None:
            sections = _render_profile(self.profile)
            if self.history:
                sections += _render_history(self.history)
            sections += ["QUERY", self.query]
            if self.indicator is not None:
                sections += ["INDICATOR", self.indicator]
            text = self.__dict__["_rendered"] = "\n".join(sections)
        return text


def _render_profile(p: UserProfile) -> list[str]:
    d = p.demographics
    lines = [
        "PROFILE",
        f"user_id: {p.user_id}",
        f"demographics: age_range={d.age_range} gender={d.gender} location={d.location}",
        f"declared_interests: {', '.join(p.declared_interests)}",
        "longterm_30d: " + ", ".join(f"{c}={w:.4f}" for c, w in p.longterm_prefs_30d),
        "longterm_7d: " + ", ".join(f"{c}={w:.4f}" for c, w in p.longterm_prefs_7d),
        f"activity: hours={','.join(map(str, p.active_hours))}"
        f" daily_minutes={p.daily_duration_minutes:.1f} engagement={p.engagement_level}",
        f"format_affinity: video={p.video_affinity:.2f} text={p.text_affinity:.2f}",
    ]
    return lines


def _render_history(h: BehaviorHistory) -> list[str]:
    lines = ["HISTORY"]
    for c in h.clicks[-HISTORY_RENDER_LIMIT:]:
        sid = ",".join(map(str, c.sid))
        lines.append(f"click: title={c.title} category={c.category} sid={sid}")
    return lines


def route(
    profile: UserProfile,
    history: BehaviorHistory,
    query: str,
    tau: int = DEFAULT_TAU,
) -> UserContext:
    """Route one request to the warm, hybrid, or cold path.

    The boundary is inclusive: |history| == tau is warm.
    """
    if tau < 1:
        raise InvalidInputError("tau must be >= 1")
    n = len(history)
    if n >= tau:
        path, indicator = "warm", None
    elif n > 0:
        path, indicator = "hybrid", INDICATOR_SPARSE
    else:
        path, indicator = "cold", INDICATOR_NO_HISTORY

    return UserContext(
        path=path,
        query=query,
        indicator=indicator,
        profile=profile,
        history=history,
    )


def path_distribution(
    users: Iterable[tuple[UserProfile, BehaviorHistory]],
    tau: int = DEFAULT_TAU,
) -> tuple[float, float, float]:
    """Fraction of users landing on each path: (cold, hybrid, warm)."""
    counts = {"cold": 0, "hybrid": 0, "warm": 0}
    total = 0
    for profile, history in users:
        ctx = route(profile, history, query="", tau=tau)
        counts[ctx.path] += 1
        total += 1
    if total == 0:
        raise InvalidInputError("path_distribution needs a nonempty population")
    return counts["cold"] / total, counts["hybrid"] / total, counts["warm"] / total


def preset_queries(profile: UserProfile, tau: int = DEFAULT_TAU) -> list[UserContext]:
    """Proactive cache-warming contexts, one per top profile category.

    Presets are built before any dialogue exists, so they route as cold
    contexts with a synthesized "recommend <category> news" query. A
    profile with no category signal yields an empty list and the caller
    falls back to trending.
    """
    return [
        route(profile, EMPTY_HISTORY, f"recommend {cat} news", tau=tau)
        for cat in profile.top_categories()
    ]


# -- JSONL IO ------------------------------------------------------------


def profile_from_record(rec: dict) -> UserProfile:
    demo = json_obj(rec.get("demographics", {}), "demographics")
    activity = json_obj(rec.get("activity", {}), "activity")
    fmt = json_obj(rec.get("format_affinity", {}), "format_affinity")

    def prefs(key):
        return tuple((json_str(c, f"{key} category"), json_num(w, f"{key} weight"))
                     for c, w in json_list(rec.get(key, []), key))

    return UserProfile(
        user_id=json_str(rec["user_id"], "user_id"),
        demographics=Demographics(
            age_range=json_str(demo.get("age_range", ""), "age_range"),
            gender=json_str(demo.get("gender", ""), "gender"),
            location=json_str(demo.get("location", ""), "location"),
        ),
        declared_interests=json_strs(rec.get("declared_interests", []), "declared_interests"),
        longterm_prefs_30d=prefs("longterm_prefs_30d"),
        longterm_prefs_7d=prefs("longterm_prefs_7d"),
        active_hours=tuple(json_int(h, "active_hours entry") for h in
                           json_list(activity.get("active_hours", []), "active_hours")),
        daily_duration_minutes=json_num(activity.get("daily_duration_minutes", 0.0),
                                        "daily_duration_minutes"),
        engagement_level=json_str(activity.get("engagement_level", ""), "engagement_level"),
        video_affinity=json_num(fmt.get("video", 0.0), "format_affinity video"),
        text_affinity=json_num(fmt.get("text", 0.0), "format_affinity text"),
    )


def profile_to_record(p: UserProfile) -> dict:
    return {
        "user_id": p.user_id,
        "demographics": {
            "age_range": p.demographics.age_range,
            "gender": p.demographics.gender,
            "location": p.demographics.location,
        },
        "declared_interests": list(p.declared_interests),
        "longterm_prefs_30d": [[c, w] for c, w in p.longterm_prefs_30d],
        "longterm_prefs_7d": [[c, w] for c, w in p.longterm_prefs_7d],
        "activity": {
            "active_hours": list(p.active_hours),
            "daily_duration_minutes": p.daily_duration_minutes,
            "engagement_level": p.engagement_level,
        },
        "format_affinity": {"video": p.video_affinity, "text": p.text_affinity},
    }


def history_from_record(rec: dict, layer_sizes) -> tuple[str, BehaviorHistory]:
    """Parse a history record; click SIDs are range-checked against layer_sizes."""
    clicks = []
    for c in json_list(rec.get("clicks", []), "clicks"):
        c = json_obj(c, "clicks entry")
        clicks.append(Click(
            article_id=json_str(c["article_id"], "article_id"),
            sid=validate_sid(c["sid"], layer_sizes, what="click sid"),
            timestamp=json_num(c["timestamp"], "timestamp"),
            dwell_seconds=json_num(c.get("dwell_seconds", 0.0), "dwell_seconds"),
            title=json_str(c.get("title", ""), "title"),
            category=json_str(c.get("category", ""), "category"),
        ))
    return json_str(rec["user_id"], "user_id"), BehaviorHistory(clicks=tuple(clicks))


def history_to_record(user_id: str, h: BehaviorHistory) -> dict:
    return {
        "user_id": user_id,
        "clicks": [
            {
                "article_id": c.article_id,
                "sid": list(c.sid),
                "timestamp": c.timestamp,
                "dwell_seconds": c.dwell_seconds,
                "title": c.title,
                "category": c.category,
            }
            for c in h.clicks
        ],
    }


def load_profiles(path) -> dict[str, UserProfile]:
    return read_keyed(path, profile_from_record, "user_id")


def load_histories(path, layer_sizes=DEFAULT_LAYER_SIZES) -> dict[str, BehaviorHistory]:
    """Read history JSONL; a later record for the same user replaces an earlier one."""
    return dict(h for _, h in iter_jsonl(path, lambda rec: history_from_record(rec, layer_sizes)))
