"""SID-prefix fuzzy matching against a prefix index.

The match predicate keeps layers 1 and 2 strict and tolerates up to
delta on layer 3: adjacent s1/s2 codes can encode unrelated regions,
while neighboring s3 codes inside one (s1,s2) group stay topically
close. Candidates are scored 1 - |s3' - s3| / (delta + 1), so an exact
s3 hit scores 1.0 and the farthest admitted candidate scores
1/(delta+1) > 0.

Ordering is total: score descending, then published_at descending (news
favors recency), then id ascending. Empty results are a normal outcome
and signal the caller's fallback path, never an error.
"""

from __future__ import annotations

from typing import NamedTuple

from .codebook import SIDPrefix
from .errors import InvalidInputError
from .pool import PrefixIndex


class MatchResult(NamedTuple):
    article_id: str
    score: float
    s3_distance: int


def _order_and_truncate(index: PrefixIndex, scored: list[tuple[float, int, str]], k: int) -> list[MatchResult]:
    """Sort (score, distance, id) candidates by the documented tie-break
    chain and truncate to k."""
    by_id = index.pool.by_id
    scored.sort(key=lambda c: (-c[0], -by_id[c[2]].published_at, c[2]))
    return [MatchResult(article_id=i, score=s, s3_distance=d) for s, d, i in scored[:k]]


def fuzzy_match(prefix: SIDPrefix, index: PrefixIndex, delta: int = 5, k: int = 10) -> list[MatchResult]:
    """Match a 3-layer prefix with strict s1/s2 and |s3' - s3| <= delta.

    Returns at most k results ordered by score desc, published_at desc,
    id asc. An empty list means nothing in the pool satisfies the
    predicate (fallback territory for the caller).
    """
    if delta < 0:
        raise InvalidInputError("delta must be >= 0")
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    s1, s2, s3 = prefix
    window = index.bucket_window(s1, s2, s3 - delta, s3 + delta)
    denom = delta + 1.0
    scored = [(1.0 - abs(c3 - s3) / denom, abs(c3 - s3), aid) for c3, aid in window]
    return _order_and_truncate(index, scored, k)


def match_count(prefix: SIDPrefix, index: PrefixIndex, delta: int) -> int:
    """Size of the full candidate set before truncation."""
    s1, s2, s3 = prefix
    return len(index.bucket_window(s1, s2, s3 - delta, s3 + delta))


def hierarchical_match(
    prefix: SIDPrefix,
    index: PrefixIndex,
    delta1: int,
    delta2: int,
    delta3: int,
    k: int = 10,
) -> list[MatchResult]:
    """Experimental variant tolerating all three layers.

    Predicate: |s1'-s1| <= delta1 and |s2'-s2| <= delta2 and
    |s3'-s3| <= delta3. Scores still come from s3 distance alone, so
    (0, 0, delta) reduces exactly to fuzzy_match.
    """
    if min(delta1, delta2, delta3) < 0:
        raise InvalidInputError("deltas must be >= 0")
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    s1, s2, s3 = prefix
    denom = delta3 + 1.0
    scored: list[tuple[float, int, str]] = []
    for b1 in range(max(0, s1 - delta1), s1 + delta1 + 1):
        for b2 in range(max(0, s2 - delta2), s2 + delta2 + 1):
            for c3, aid in index.bucket_window(b1, b2, s3 - delta3, s3 + delta3):
                d = abs(c3 - s3)
                scored.append((1.0 - d / denom, d, aid))
    return _order_and_truncate(index, scored, k)


def grid_search_delta(
    prefixes: list[SIDPrefix],
    deltas: list[int],
    index: PrefixIndex,
) -> list[dict]:
    """Sweep tolerance values over a prefix sample.

    One row per delta (ascending): the fraction of prefixes with zero
    candidates, and the mean candidate-set size over non-empty results.
    Candidate counts are pre-truncation set sizes.
    """
    if not deltas:
        raise InvalidInputError("deltas must be nonempty")
    rows = []
    for delta in sorted(deltas):
        counts = [match_count(p, index, delta) for p in prefixes]
        nonempty = [c for c in counts if c > 0]
        rows.append(
            {
                "delta": delta,
                "empty_match_rate": (len(counts) - len(nonempty)) / len(counts) if counts else 0.0,
                "mean_candidates": sum(nonempty) / len(nonempty) if nonempty else 0.0,
            }
        )
    return rows
