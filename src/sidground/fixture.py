"""Synthetic fixture generation: pools, profiles, histories, eval samples.

Everything is drawn from seeded generators with section-local seeds, so
a fixture regenerates byte-identically from its spec and enlarging one
section never reshuffles another. The generated world is internally
consistent the way the real platform data is:

  * each editorial category owns one canonical coarse code, and an
    article's s1 equals its category's code with probability
    category_l1_purity (categories correlate with L1 codes);
  * embeddings are hierarchical Gaussians centered per (s1), (s1,s2),
    and (s1,s2,s3), so residual quantization can recover the layers;
  * users draw clicks and targets from a per-user category preference
    (Dirichlet around the pool distribution), so history popularity is
    predictive exactly when preferences are concentrated.

category_alpha controls user concentration (large = near uniform users,
small = sharp preferences) and pool_category_skew tilts the pool
distribution (0 = uniform categories).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .codebook import DEFAULT_LAYER_SIZES, SID
from .config import check_fields
from .errors import FixtureSpecError
from .evaluation import (
    INTENT_CANDIDATE_SELECTION,
    INTENT_COLDSTART_PADR,
    INTENT_DIVERSITY,
    INTENT_FEEDBACK,
    INTENT_NEXT_ITEM,
    INTENT_PURE_COLDSTART,
    INTENTS,
    EvalSample,
    write_samples,
)
from .hashing import derive_seed
from .jsonl import read_json, write_jsonl
from .padr import (
    BehaviorHistory,
    Click,
    Demographics,
    UserProfile,
    history_to_record,
    profile_to_record,
)
from .pool import Article, NewsPool, write_article_jsonl

CATEGORIES = (
    "technology", "sports", "finance", "entertainment", "politics", "health",
    "science", "travel", "food", "fashion", "education", "automotive",
    "real_estate", "military", "gaming", "music", "movies", "culture",
    "society", "weather", "international", "business", "startups", "ai",
    "mobile", "lifestyle", "parenting", "pets", "history", "art",
    "environment", "law",
)

_AGE_RANGES = ("18-24", "25-34", "35-44", "45-54", "55+")
_GENDERS = ("female", "male", "unspecified")
_LOCATIONS = ("beijing", "shanghai", "guangzhou", "shenzhen", "chengdu",
              "hangzhou", "wuhan", "xian")
_ENGAGEMENT = ("low", "medium", "high")

DEFAULT_INTENT_MIX = {
    INTENT_CANDIDATE_SELECTION: 0.22,
    INTENT_NEXT_ITEM: 0.50,
    INTENT_DIVERSITY: 0.09,
    INTENT_FEEDBACK: 0.06,
    INTENT_COLDSTART_PADR: 0.06,
    INTENT_PURE_COLDSTART: 0.07,
}


@dataclass
class FixtureSpec:
    """Sizes and shape of one synthetic world. Each intent draws its users
    from one group (warm users, or sparse ones for coldstart_padr, or ones
    with no history for pure_coldstart); an intent whose group is empty
    gets no samples, so a fixture can hold fewer than n_samples."""

    seed: int = 42
    n_articles: int = 5_000
    n_users: int = 500
    n_samples: int = 2_000
    n_categories: int = 32
    layer_sizes: tuple[int, int, int, int] = DEFAULT_LAYER_SIZES
    dim: int = 64
    embeddings: bool = True
    embedding_cap: int = 20_000            # cap on embedding corpus size
    category_l1_purity: float = 0.9
    pool_category_skew: float = 0.0        # zipf-ish exponent; 0 = uniform
    category_alpha: float = 20.0           # user preference concentration
    pure_cold_frac: float = 0.18
    sparse_frac: float = 0.12
    tau: int = 10
    warm_history_max: int = 40
    pool_age_hours: float = 48.0
    as_of: float = 1_700_000_000.0         # fixed epoch keeps output reproducible
    intent_mix: dict = field(default_factory=lambda: dict(DEFAULT_INTENT_MIX))

    def validate(self):
        if not (1 <= self.n_categories <= len(CATEGORIES)):
            raise FixtureSpecError(f"n_categories must be in [1, {len(CATEGORIES)}]")
        if self.n_categories > self.layer_sizes[0]:
            raise FixtureSpecError("n_categories cannot exceed the layer-1 code count")
        if not (0.0 <= self.category_l1_purity <= 1.0):
            raise FixtureSpecError("category_l1_purity must be in [0, 1]")
        if self.pure_cold_frac + self.sparse_frac > 1.0:
            raise FixtureSpecError("pure_cold_frac + sparse_frac cannot exceed 1")
        if self.tau < 2 or self.warm_history_max < self.tau:
            raise FixtureSpecError("need tau >= 2 and warm_history_max >= tau")
        if self.n_articles < 1 or self.n_users < 0 or self.n_samples < 0 or self.dim < 1:
            raise FixtureSpecError("sizes must be nonnegative (n_articles >= 1, dim >= 1)")
        if self.n_samples > 0 and self.n_users < 1:
            raise FixtureSpecError("n_samples > 0 needs n_users >= 1")
        if self.intent_mix.get(INTENT_CANDIDATE_SELECTION, 0) > 0 and self.n_articles < 5:
            raise FixtureSpecError("candidate_selection samples need at least 5 articles")
        unknown = set(self.intent_mix) - set(DEFAULT_INTENT_MIX)
        if unknown:
            raise FixtureSpecError(f"unknown intents in mix: {sorted(unknown)}")

    @classmethod
    def from_file(cls, path) -> "FixtureSpec":
        spec = read_json(path, lambda doc: cls(**check_fields(
            cls, doc, "fixture spec", FixtureSpecError)))
        spec.validate()
        return spec


@dataclass
class Fixture:
    spec: FixtureSpec
    pool: NewsPool
    profiles: dict[str, UserProfile]
    histories: dict[str, BehaviorHistory]
    samples: list[EvalSample]
    embedding_ids: list[str]
    embeddings: np.ndarray | None
    categories: tuple[str, ...]


def _category_probs(spec: FixtureSpec) -> np.ndarray:
    ranks = np.arange(1, spec.n_categories + 1, dtype=np.float64)
    weights = ranks ** (-spec.pool_category_skew)
    return weights / weights.sum()


def _make_articles(spec: FixtureSpec, cat_probs: np.ndarray) -> list[Article]:
    rng = np.random.default_rng(derive_seed(spec.seed, "articles"))
    n = spec.n_articles
    k1, k2, k3, k4 = spec.layer_sizes
    cats = rng.choice(spec.n_categories, size=n, p=cat_probs)
    pure = rng.random(n) < spec.category_l1_purity
    noise_l1 = rng.integers(0, k1, size=n)
    s1 = np.where(pure, cats, noise_l1)
    s2 = rng.integers(0, k2, size=n)
    s3 = rng.integers(0, k3, size=n)
    s4 = rng.integers(0, k4, size=n)
    ages = rng.random(n) * spec.pool_age_hours * 3600.0
    n_tags = rng.integers(1, 4, size=n)
    tag_picks = rng.integers(0, 10, size=(n, 3))

    articles = []
    for i in range(n):
        cat = CATEGORIES[cats[i]]
        tags = tuple(f"{cat}_tag{tag_picks[i, j]}" for j in range(n_tags[i]))
        articles.append(
            Article(
                id=f"a{i:06d}",
                title=f"{cat} story {i}",
                category=cat,
                tags=tuple(dict.fromkeys(tags)),
                published_at=spec.as_of - float(ages[i]),
                sid=SID(int(s1[i]), int(s2[i]), int(s3[i]), int(s4[i])),
            )
        )
    return articles


def _make_embeddings(spec: FixtureSpec, articles: list[Article]) -> tuple[list[str], np.ndarray]:
    """Hierarchical Gaussian embeddings consistent with article SIDs."""
    rng = np.random.default_rng(derive_seed(spec.seed, "embeddings"))
    k1, k2, _, _ = spec.layer_sizes
    dim = spec.dim
    c1 = rng.normal(0.0, 10.0, size=(k1, dim))
    c2 = rng.normal(0.0, 3.0, size=(k1 * k2, dim))
    subset = articles[: min(len(articles), spec.embedding_cap)]
    l3_cache: dict[tuple[int, int, int], np.ndarray] = {}

    vecs = np.empty((len(subset), dim), dtype=np.float64)
    noise = rng.normal(0.0, 0.2, size=(len(subset), dim))
    for i, art in enumerate(subset):
        s = art.sid
        key = (s.s1, s.s2, s.s3)
        off3 = l3_cache.get(key)
        if off3 is None:
            sub_rng = np.random.default_rng(derive_seed(spec.seed, "l3", *map(str, key)))
            off3 = sub_rng.normal(0.0, 0.8, size=dim)
            l3_cache[key] = off3
        vecs[i] = c1[s.s1] + c2[s.s1 * k2 + s.s2] + off3 + noise[i]
    return [a.id for a in subset], vecs


def _make_users(
    spec: FixtureSpec, cat_probs: np.ndarray
) -> tuple[dict[str, UserProfile], dict[str, np.ndarray]]:
    rng = np.random.default_rng(derive_seed(spec.seed, "users"))
    dirichlet_params = np.maximum(spec.category_alpha * spec.n_categories * cat_probs, 1e-4)
    profiles: dict[str, UserProfile] = {}
    prefs: dict[str, np.ndarray] = {}
    for i in range(spec.n_users):
        uid = f"u{i:05d}"
        pref = rng.dirichlet(dirichlet_params)
        top = np.argsort(-pref, kind="stable")
        declared = tuple(CATEGORIES[int(c)] for c in top[: int(rng.integers(1, 4))])
        top3_30d = tuple((CATEGORIES[int(c)], round(float(pref[c]), 4)) for c in top[:3])
        pref_7d = pref + rng.normal(0.0, 0.01, size=len(pref))
        top_7d = np.argsort(-pref_7d, kind="stable")
        top3_7d = tuple(
            (CATEGORIES[int(c)], round(float(max(pref_7d[c], 0.0)), 4)) for c in top_7d[:3]
        )
        duration = float(rng.lognormal(3.0, 0.6))
        video = round(float(rng.random()), 2)
        profiles[uid] = UserProfile(
            user_id=uid,
            demographics=Demographics(
                age_range=_AGE_RANGES[int(rng.integers(len(_AGE_RANGES)))],
                gender=_GENDERS[int(rng.integers(len(_GENDERS)))],
                location=_LOCATIONS[int(rng.integers(len(_LOCATIONS)))],
            ),
            declared_interests=declared,
            longterm_prefs_30d=top3_30d,
            longterm_prefs_7d=top3_7d,
            active_hours=tuple(sorted(int(h) for h in rng.choice(24, size=3, replace=False))),
            daily_duration_minutes=round(duration, 1),
            engagement_level=_ENGAGEMENT[min(2, int(duration // 25))],
            video_affinity=video,
            text_affinity=round(1.0 - video, 2),
        )
        prefs[uid] = pref
    return profiles, prefs


def _draw_article(rng, by_category: list[list[int]], articles: list[Article],
                  cat: int) -> Article:
    ids = by_category[cat]
    if not ids:
        return articles[int(rng.integers(len(articles)))]
    return articles[ids[int(rng.integers(len(ids)))]]


def _make_histories(
    spec: FixtureSpec,
    articles: list[Article],
    by_category: list[list[int]],
    prefs: dict[str, np.ndarray],
) -> dict[str, BehaviorHistory]:
    rng = np.random.default_rng(derive_seed(spec.seed, "histories"))
    histories: dict[str, BehaviorHistory] = {}
    span = spec.pool_age_hours * 3600.0
    for uid, pref in prefs.items():
        u = rng.random()
        if u < spec.pure_cold_frac:
            length = 0
        elif u < spec.pure_cold_frac + spec.sparse_frac:
            length = int(rng.integers(1, spec.tau))
        else:
            length = int(rng.integers(spec.tau, spec.warm_history_max + 1))
        if length == 0:
            histories[uid] = BehaviorHistory()
            continue
        cats = rng.choice(spec.n_categories, size=length, p=pref)
        offsets = np.sort(rng.random(length)) * span
        clicks = []
        for j in range(length):
            art = _draw_article(rng, by_category, articles, int(cats[j]))
            clicks.append(
                Click(
                    article_id=art.id,
                    sid=art.sid,
                    timestamp=spec.as_of - span + float(offsets[j]),
                    dwell_seconds=round(float(rng.exponential(45.0)), 1),
                    title=art.title,
                    category=art.category,
                )
            )
        histories[uid] = BehaviorHistory(clicks=tuple(clicks))
    return histories


def _intent_counts(spec: FixtureSpec) -> dict[str, int]:
    weights = {k: v for k, v in spec.intent_mix.items() if v > 0}
    total_w = sum(weights.values())
    if not weights or spec.n_samples == 0:
        return {}
    raw = {k: spec.n_samples * v / total_w for k, v in weights.items()}
    counts = {k: int(v) for k, v in raw.items()}
    remainder = spec.n_samples - sum(counts.values())
    for k in sorted(weights, key=lambda k: -(raw[k] - counts[k]))[:remainder]:
        counts[k] += 1
    return counts


def _make_samples(
    spec: FixtureSpec,
    articles: list[Article],
    by_category: list[list[int]],
    prefs: dict[str, np.ndarray],
    histories: dict[str, BehaviorHistory],
) -> list[EvalSample]:
    rng = np.random.default_rng(derive_seed(spec.seed, "samples"))
    pure_cold = [u for u, h in histories.items() if len(h) == 0]
    sparse = [u for u, h in histories.items() if 0 < len(h) < spec.tau]
    warm = [u for u, h in histories.items() if len(h) >= spec.tau]
    eligible = {
        INTENT_CANDIDATE_SELECTION: warm,
        INTENT_NEXT_ITEM: warm,
        INTENT_DIVERSITY: warm,
        INTENT_FEEDBACK: warm,
        INTENT_COLDSTART_PADR: sparse,
        INTENT_PURE_COLDSTART: pure_cold,
    }

    counts = _intent_counts(spec)
    samples: list[EvalSample] = []
    idx = 0
    for intent in INTENTS:
        count = counts.get(intent, 0)
        users = eligible[intent]
        if count == 0 or not users:
            continue
        for _ in range(count):
            uid = users[int(rng.integers(len(users)))]
            pref = prefs[uid]
            if intent == INTENT_DIVERSITY or intent == INTENT_FEEDBACK:
                # Target deliberately avoids the user's dominant category.
                avoid = int(np.argmax(pref))
                adjusted = pref.copy()
                adjusted[avoid] = 0.0
                total = adjusted.sum()
                adjusted = adjusted / total if total > 0 else np.full_like(pref, 1 / len(pref))
                cat = int(rng.choice(spec.n_categories, p=adjusted))
            else:
                cat = int(rng.choice(spec.n_categories, p=pref))
            target = _draw_article(rng, by_category, articles, cat)

            if intent == INTENT_CANDIDATE_SELECTION:
                query = f"recommend {target.category} news"
            elif intent == INTENT_NEXT_ITEM:
                query = "what else?"
            elif intent == INTENT_DIVERSITY:
                query = "something different"
            elif intent == INTENT_FEEDBACK:
                query = f"not {CATEGORIES[int(np.argmax(pref))]}"
            else:
                query = "recommend news"

            candidates = None
            if intent == INTENT_CANDIDATE_SELECTION:
                chosen = {target.id}
                while len(chosen) < 5:
                    chosen.add(articles[int(rng.integers(len(articles)))].id)
                order = rng.permutation(5)
                ids = sorted(chosen)
                candidates = tuple(ids[int(i)] for i in order)

            samples.append(
                EvalSample(
                    sample_id=f"s{idx:06d}",
                    intent=intent,
                    user_id=uid,
                    query=query,
                    target_article_id=target.id,
                    target_sid=target.sid,
                    history_len=len(histories[uid]),
                    candidates=candidates,
                )
            )
            idx += 1
    return samples


def make_synthetic_fixture(spec: FixtureSpec) -> Fixture:
    """Generate a complete, internally consistent synthetic world."""
    spec.validate()
    cat_probs = _category_probs(spec)
    articles = _make_articles(spec, cat_probs)
    by_category: list[list[int]] = [[] for _ in range(spec.n_categories)]
    for i, a in enumerate(articles):
        by_category[CATEGORIES.index(a.category)].append(i)

    profiles, prefs = _make_users(spec, cat_probs)
    histories = _make_histories(spec, articles, by_category, prefs)
    samples = _make_samples(spec, articles, by_category, prefs, histories)

    if spec.embeddings:
        emb_ids, emb = _make_embeddings(spec, articles)
    else:
        emb_ids, emb = [], None

    return Fixture(
        spec=spec,
        pool=NewsPool(articles, version=1, as_of=spec.as_of, layer_sizes=spec.layer_sizes),
        profiles=profiles,
        histories=histories,
        samples=samples,
        embedding_ids=emb_ids,
        embeddings=emb,
        categories=CATEGORIES[: spec.n_categories],
    )


def write_fixture(fixture: Fixture, outdir) -> dict[str, str]:
    """Write a fixture to a directory; returns the path map."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "spec": str(outdir / "spec.json"),
        "pool": str(outdir / "pool.jsonl"),
        "profiles": str(outdir / "profiles.jsonl"),
        "histories": str(outdir / "histories.jsonl"),
        "samples": str(outdir / "samples.jsonl"),
    }
    with open(paths["spec"], "w", encoding="utf-8") as f:
        json.dump(asdict(fixture.spec), f, indent=2, sort_keys=True)
        f.write("\n")
    write_article_jsonl(fixture.pool.articles, paths["pool"])
    write_jsonl(paths["profiles"], (profile_to_record(p) for p in fixture.profiles.values()))
    write_jsonl(paths["histories"],
                (history_to_record(uid, h) for uid, h in fixture.histories.items()))
    write_samples(fixture.samples, paths["samples"])
    if fixture.embeddings is not None:
        paths["embeddings"] = str(outdir / "embeddings.jsonl")
        write_jsonl(paths["embeddings"], (
            {"id": aid, "embedding": [round(x, 6) for x in vec.tolist()]}
            for aid, vec in zip(fixture.embedding_ids, fixture.embeddings)))
    return paths
