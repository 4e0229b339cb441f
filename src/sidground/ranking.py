"""Interest-aware presentation ranking of matched candidates.

Combines three signals into one score:

    interest_points = 3 * [category hit] + 1 * |tag overlap with keywords|
    relevance       = match_score * (1 + points) / (1 + max points)
    freshness       = exp(-age_hours / 24)
    final           = (1 - lam) * relevance + lam * freshness

Category hits weigh 3 and keyword hits 1; lam (default 0.1) trades
relevance against recency. The 24h freshness half-life mirrors how fast
the pool itself turns over. Normalizing interest by the in-candidate-set
maximum keeps final scores in [0, 1] and makes the lam=0 ordering
scale-free in match_score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConsistencyError, InvalidInputError
from .matcher import MatchResult
from .padr import BehaviorHistory, UserProfile
from .pool import Article, NewsPool

DEFAULT_LAMBDA = 0.1
_KEYWORD_CLICK_LIMIT = 20

CATEGORY_WEIGHT = 3
KEYWORD_WEIGHT = 1


@dataclass(frozen=True)
class RankedCandidate:
    article_id: str
    match_score: float
    interest_points: int
    freshness: float
    final_score: float


def profile_keywords(
    profile: UserProfile,
    history: BehaviorHistory | None = None,
    pool: NewsPool | None = None,
) -> frozenset[str]:
    """Keyword set for tag matching: declared interests plus tags of the
    20 most recent clicks still resolvable in the pool."""
    words = set(profile.declared_interests)
    if history is not None and pool is not None:
        for click in history.clicks[-_KEYWORD_CLICK_LIMIT:]:
            art = pool.by_id.get(click.article_id)
            if art is not None:
                words.update(art.tags)
    return frozenset(words)


def _points(article: Article, categories: set[str], keywords: frozenset[str]) -> int:
    tags = article.tags     # most articles share no tag with the keywords: skip the set
    tag_hits = 0 if keywords.isdisjoint(tags) else len(keywords.intersection(tags))
    return CATEGORY_WEIGHT * (article.category in categories) + KEYWORD_WEIGHT * tag_hits


def interest_points(
    article: Article,
    profile: UserProfile,
    keywords: frozenset[str] | None = None,
) -> int:
    """Profile alignment points: 3 per category-level hit, 1 per keyword
    (tag) hit. keywords defaults to the declared interests alone."""
    if keywords is None:
        keywords = frozenset(profile.declared_interests)
    return _points(article, set(profile.top_categories()), keywords)


def freshness(published_at: float, now: float) -> float:
    """exp(-age_hours/24), clamped into (0, 1] for future timestamps."""
    age_hours = (now - published_at) / 3600.0    # max(0.0, age) without the call
    return math.exp(-(age_hours if age_hours > 0.0 else 0.0) / 24.0)


def rank(
    candidates: list[MatchResult],
    pool: NewsPool,
    profile: UserProfile,
    now: float,
    lam: float = DEFAULT_LAMBDA,
    history: BehaviorHistory | None = None,
    k: int | None = None,
) -> list[RankedCandidate]:
    """Order match candidates by the combined relevance/freshness score.

    Ties break by match_score, then published_at descending, then id, so
    the ordering is total and deterministic: each candidate is scored as
    the plain tuple (-final, -match_score, -published_at, id, ...), whose
    natural order is that chain. With k, RankedCandidate is built for the
    top k rows only: rank(..., k=k) == rank(...)[:k].
    """
    if not (0.0 <= lam <= 1.0):
        raise InvalidInputError("lambda must be in [0, 1]")
    if k is not None and k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    by_id = pool.by_id
    missing = [c.article_id for c in candidates if c.article_id not in by_id]
    if missing:
        raise ConsistencyError(f"candidates reference articles not in pool: {missing[:5]}")
    arts = [by_id[c.article_id] for c in candidates]
    keywords = profile_keywords(profile, history, pool)
    categories = set(profile.top_categories())
    points = [_points(a, categories, keywords) for a in arts]
    denom = 1 + max(points, default=0)

    rows = []
    for (aid, score, _), art, pts in zip(candidates, arts, points):
        relevance = score * (1 + pts) / denom
        fresh = freshness(art.published_at, now)
        final = (1.0 - lam) * relevance + lam * fresh
        rows.append((-final, -score, -art.published_at, aid, pts, fresh))
    rows.sort()
    return [
        RankedCandidate(article_id=aid, match_score=-neg_score, interest_points=pts,
                        freshness=fresh, final_score=-neg_final)
        for neg_final, neg_score, _, aid, pts, fresh in rows[:k]
    ]
