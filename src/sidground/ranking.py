"""Interest-aware presentation ranking of matched candidates.

Combines three signals into one score:

    interest_points = 3 * [category hit] + 1 * |tag overlap with keywords|
    relevance       = match_score * (1 + points) / (1 + max points)
    freshness       = exp(-age_hours / 24)
    final           = (1 - lam) * relevance + lam * freshness

The categories are the profile's top categories; the keywords are its
declared interests plus the tags of the user's 20 most recent clicks
(profile_keywords). score_candidates is the one place interest points
are computed: the served `interest_points` field is its column.

Category hits weigh 3 and keyword hits 1; lam (default 0.1) trades
relevance against recency. The 24h freshness half-life mirrors how fast
the pool itself turns over. Normalizing interest by the in-candidate-set
maximum keeps final scores in [0, 1] and makes the lam=0 ordering
scale-free in match_score.

Only freshness depends on the request time, so ranking is two steps:
score_candidates computes points and relevance once per candidate set,
and rank adds freshness and sorts for one `now`. rank() given match
results runs both; given a Scored it runs only the second, so a serving
path that meets the same candidate set again repeats only that step.
"""

from __future__ import annotations

import math
from array import array
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
    history: BehaviorHistory | None,
    pool: NewsPool,
) -> frozenset[str]:
    """Keyword set for tag matching: declared interests plus tags of the
    20 most recent clicks still resolvable in the pool."""
    words = set(profile.declared_interests)
    if history is not None:
        for click in history.clicks[-_KEYWORD_CLICK_LIMIT:]:
            art = pool.by_id.get(click.article_id)
            if art is not None:
                words.update(art.tags)
    return frozenset(words)


def _points(article: Article, categories: set[str], keywords: frozenset[str]) -> int:
    tags = article.tags     # most articles share no tag with the keywords: skip the set
    tag_hits = 0 if keywords.isdisjoint(tags) else len(keywords.intersection(tags))
    return CATEGORY_WEIGHT * (article.category in categories) + KEYWORD_WEIGHT * tag_hits


def freshness(published_at: float, now: float) -> float:
    """exp(-age_hours/24), clamped into (0, 1] for future timestamps."""
    age_hours = (now - published_at) / 3600.0    # max(0.0, age) without the call
    return math.exp(-(age_hours if age_hours > 0.0 else 0.0) / 24.0)


@dataclass(frozen=True, slots=True)
class Scored:
    """The half of rank() that does not depend on `now`, for a set of
    candidates: one column per field, in candidate order. Columns are
    arrays (plus one tuple of ids) so that a hit plan holding them stays
    small. len() is the number of candidates."""

    ids: tuple[str, ...]
    scores: array            # match scores
    published_at: array
    points: array            # interest points
    relevance: array         # score * (1 + points) / (1 + max points)

    def __len__(self) -> int:
        return len(self.ids)


def score_candidates(
    candidates: list[MatchResult],
    pool: NewsPool,
    profile: UserProfile,
    history: BehaviorHistory | None = None,
) -> Scored:
    """rank()'s first step: check pool membership and score interest and
    relevance. Nothing here depends on the request time."""
    by_id = pool.by_id
    missing = [c.article_id for c in candidates if c.article_id not in by_id]
    if missing:
        raise ConsistencyError(f"candidates reference articles not in pool: {missing[:5]}")
    arts = [by_id[c.article_id] for c in candidates]
    keywords = profile_keywords(profile, history, pool)
    categories = set(profile.top_categories())
    points = [_points(a, categories, keywords) for a in arts]
    denom = 1 + max(points, default=0)
    return Scored(
        ids=tuple(c.article_id for c in candidates),
        scores=array("d", [c.score for c in candidates]),
        published_at=array("d", [a.published_at for a in arts]),
        points=array("l", points),
        relevance=array("d", [c.score * (1 + pts) / denom for c, pts in zip(candidates, points)]),
    )


def rank(
    candidates: list[MatchResult] | Scored,
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

    Match results are first scored with score_candidates. A Scored that
    score_candidates made for the same pool, profile and history skips
    that step: only freshness, the final score and the sort run, and
    pool, profile and history are not read.
    """
    if not (0.0 <= lam <= 1.0):
        raise InvalidInputError("lambda must be in [0, 1]")
    if k is not None and k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    if not isinstance(candidates, Scored):
        candidates = score_candidates(candidates, pool, profile, history)
    c = candidates
    keep = 1.0 - lam
    rows = []
    for aid, score, pub, pts, relevance in zip(c.ids, c.scores, c.published_at, c.points,
                                               c.relevance):
        fresh = freshness(pub, now)
        rows.append((-(keep * relevance + lam * fresh), -score, -pub, aid, pts, fresh))
    rows.sort()
    return [
        RankedCandidate(article_id=aid, match_score=-neg_score, interest_points=pts,
                        freshness=fresh, final_score=-neg_final)
        for neg_final, neg_score, _, aid, pts, fresh in rows[:k]
    ]
