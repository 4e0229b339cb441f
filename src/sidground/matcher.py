"""SID-prefix fuzzy matching against a prefix index.

The match predicate keeps layers 1 and 2 strict and tolerates up to
delta on layer 3: adjacent s1/s2 codes can encode unrelated regions,
while neighboring s3 codes inside one (s1,s2) group stay topically
close. Candidates are scored 1 - |s3' - s3| / (delta + 1), so an exact
s3 hit scores 1.0 and the farthest admitted candidate scores
1/(delta+1) > 0.

Ordering is total: score descending, then published_at descending (news
favors recency), then id ascending. Since the score strictly decreases
in the s3 distance, candidates are ordered on the integer-led key
(s3_distance, -published_at, id), read straight from the prefix index's
triples; only the k kept rows are scored. Empty results are a normal
outcome and signal the caller's fallback path, never an error.
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


def _top_k(keyed: list[tuple[int, float, str]], delta: int, k: int) -> list[MatchResult]:
    """Sort (s3_distance, -published_at, id) keys, keep the first k and
    score only those. The score strictly decreases in the distance, so
    this is the documented score-desc, published_at-desc, id-asc order."""
    keyed.sort()
    denom = delta + 1.0
    return [MatchResult(article_id=i, score=1.0 - d / denom, s3_distance=d) for d, _, i in keyed[:k]]


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
    return _top_k([(abs(c3 - s3), -pub, aid) for c3, aid, pub in window], delta, k)


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
    keyed = [
        (abs(c3 - s3), -pub, aid)
        for b1 in range(max(0, s1 - delta1), s1 + delta1 + 1)
        for b2 in range(max(0, s2 - delta2), s2 + delta2 + 1)
        for c3, aid, pub in index.bucket_window(b1, b2, s3 - delta3, s3 + delta3)
    ]
    return _top_k(keyed, delta3, k)


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
