"""News pool data model: articles, immutable snapshots, prefix index.

A NewsPool is an immutable snapshot with a monotonically increasing
version. Refreshing builds a whole new snapshot and leaves the old one
untouched, so any number of readers can keep serving from the snapshot
they grabbed while a writer publishes the next one (atomic reference
swap of the snapshot's PrefixIndex; see server).

The PrefixIndex realizes the (s1,s2) -> sorted-s3 lookup the matcher
needs: one bucket per (s1,s2) pair holding (s3, article_id,
published_at) triples sorted ascending, so a tolerance window on s3 is a
binary search plus a short scan regardless of pool size, and ordering
the window needs no per-article pool lookup.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from itertools import chain
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .codebook import SID, DEFAULT_LAYER_SIZES, check_layer_sizes, validate_sid
from .errors import DuplicateKeyError, RecordParseError
from .jsonl import json_int, json_num, json_obj, json_str, json_strs, read_keyed, write_jsonl

logger = logging.getLogger(__name__)

_SNAPSHOT_META_KEY = "snapshot_meta"

ARTICLE_FIELDS = ("id", "title", "category", "tags", "published_at", "sid")


@dataclass(frozen=True)
class Article:
    id: str
    title: str
    category: str
    tags: tuple[str, ...]
    published_at: float        # UTC seconds
    sid: SID

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "title": self.title,
            "category": self.category,
            "tags": list(self.tags),
            "published_at": self.published_at,
            "sid": list(self.sid),
        }


class NewsPool:
    """Immutable article snapshot. Do not mutate after construction.

    layer_sizes is the codebook the snapshot's SIDs come from; every SID
    or prefix served against the snapshot is range-checked against it.
    """

    def __init__(self, articles: Iterable[Article], version: int = 1, as_of: float = 0.0,
                 layer_sizes: Sequence[int] = DEFAULT_LAYER_SIZES):
        self.articles: tuple[Article, ...] = tuple(articles)
        self.by_id: dict[str, Article] = {a.id: a for a in self.articles}
        if len(self.by_id) < len(self.articles):
            seen: set[str] = set()
            for a in self.articles:
                if a.id in seen:
                    raise DuplicateKeyError(f"duplicate article id {a.id!r}")
                seen.add(a.id)
        self.version = int(version)
        self.as_of = float(as_of)
        self.layer_sizes = tuple(layer_sizes)
        self._recency: tuple[Article, ...] | None = None
        self._by_category: dict[str, list[Article]] | None = None

    def __len__(self) -> int:
        return len(self.articles)

    def __contains__(self, article_id: str) -> bool:
        return article_id in self.by_id

    def recency_order(self) -> tuple[Article, ...]:
        """Articles newest-first (ties by id), computed once per snapshot.

        Lazy init is benign under concurrent readers: a race recomputes
        the same tuple.
        """
        if self._recency is None:
            self._recency = tuple(
                sorted(self.articles, key=lambda a: (-a.published_at, a.id))
            )
        return self._recency

    def category_recency(self) -> dict[str, list[Article]]:
        """Per-category newest-first article lists, computed once."""
        if self._by_category is None:
            grouped: dict[str, list[Article]] = {}
            for a in self.recency_order():
                grouped.setdefault(a.category, []).append(a)
            self._by_category = grouped
        return self._by_category


@dataclass(frozen=True)
class PrefixIndex:
    """(s1,s2)-keyed index over one pool snapshot.

    buckets[(s1,s2)] is a list of (s3, article_id, published_at) triples
    sorted ascending by (s3, id); ids are unique, so published_at never
    decides the order. The triple carries the recency the matcher's
    tie-break needs. pool is the snapshot it was built from, so an index
    is a whole serving snapshot; the serving fast track (dualtrack) keeps
    its cache-hit plans for it in hit_plans, keyed by ctx_hash.
    """

    buckets: dict[tuple[int, int], list[tuple[int, str, float]]]
    pool: NewsPool = field(repr=False)
    hit_plans: dict = field(default_factory=dict, repr=False, compare=False)

    def bucket_window(self, s1: int, s2: int, s3_lo: int, s3_hi: int) -> list[tuple[int, str, float]]:
        """Entries with s3 in [s3_lo, s3_hi] from one bucket (may be empty)."""
        bucket = self.buckets.get((s1, s2))
        if not bucket:
            return []
        return bucket[bisect_left(bucket, (s3_lo,)):bisect_left(bucket, (s3_hi + 1,))]


def build_index(pool: NewsPool) -> PrefixIndex:
    """Index every pool article into exactly one (s1,s2) bucket."""
    buckets: dict[tuple[int, int], list[tuple[int, str, float]]] = {}
    for a in pool.articles:
        buckets.setdefault((a.sid.s1, a.sid.s2), []).append((a.sid.s3, a.id, a.published_at))
    for bucket in buckets.values():
        bucket.sort()
    return PrefixIndex(buckets=buckets, pool=pool)


def refresh(
    pool: NewsPool,
    add: Iterable[Article] = (),
    remove: Iterable[str] = (),
    as_of: float | None = None,
) -> NewsPool:
    """Produce the next snapshot: version+1, prior snapshot untouched.

    Removing a missing id logs a warning and continues; adding an id that
    survives the removal set raises DuplicateKeyError (from NewsPool).
    """
    remove_set = set(remove)
    for rid in remove_set:
        if rid not in pool.by_id:
            logger.warning("refresh: removing unknown article id %r", rid)
    surviving = [a for a in pool.articles if a.id not in remove_set]
    return NewsPool(
        surviving + list(add),
        version=pool.version + 1,
        as_of=pool.as_of if as_of is None else as_of,
        layer_sizes=pool.layer_sizes,
    )


def temporal_split(corpus: Iterable[Article], cutoff: float) -> tuple[list[Article], list[Article]]:
    """Split by publication time: train <= cutoff < test. Disjoint by
    construction; articles exactly at the cutoff go to train."""
    train, test = [], []
    for a in corpus:
        (train if a.published_at <= cutoff else test).append(a)
    return train, test


# -- Snapshot persistence ------------------------------------------------
#
# Snapshot file = one meta line ({"snapshot_meta": {...}}) followed by
# plain article JSONL. A file without a meta line (raw article JSONL)
# loads as version 1 with the configured layer sizes, so raw article
# files and snapshots share one reader.


def save_snapshot(pool: NewsPool, path):
    meta = {"version": pool.version, "as_of": pool.as_of, "layer_sizes": list(pool.layer_sizes)}
    write_jsonl(path, chain([{_SNAPSHOT_META_KEY: meta}], (a.to_record() for a in pool.articles)))


def load_snapshot(path, layer_sizes=DEFAULT_LAYER_SIZES) -> NewsPool:
    """Read a snapshot or raw article JSONL. The meta line's layer sizes,
    when it stores them, take precedence over `layer_sizes`.

    Rejects malformed records, out-of-range SIDs and duplicate ids with
    the offending line number.
    """
    meta = {"version": 1, "as_of": 0.0, "layer_sizes": tuple(layer_sizes)}
    first = True        # only the first record may be the meta line

    def parse(rec) -> Article | None:
        nonlocal first
        if first:
            first = False
            if _SNAPSHOT_META_KEY in rec:
                got = json_obj(rec[_SNAPSHOT_META_KEY], _SNAPSHOT_META_KEY)
                meta.update(version=json_int(got.get("version", 1), "version"),
                            as_of=json_num(got.get("as_of", 0.0), "as_of"),
                            layer_sizes=check_layer_sizes(
                                got.get("layer_sizes", meta["layer_sizes"])))
                return None
        published_at = json_num(rec["published_at"], "published_at")
        if published_at <= 0:
            raise RecordParseError("published_at must be > 0")
        return Article(
            id=json_str(rec["id"], "id"),
            title=json_str(rec.get("title", ""), "title"),
            category=json_str(rec.get("category", ""), "category"),
            tags=json_strs(rec.get("tags", []), "tags"),
            published_at=published_at,
            sid=validate_sid(rec["sid"], meta["layer_sizes"]),
        )

    return NewsPool(read_keyed(path, parse, "id").values(), **meta)


def write_article_jsonl(articles: Iterable[Article], path):
    write_jsonl(path, (a.to_record() for a in articles))
