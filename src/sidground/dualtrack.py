"""Dual-track serving: cached fast path, async enhance path, fallbacks.

The fast track never waits on a generator. It hashes the routed context,
looks up cached SID prefixes, fuzzy-matches them against the current
snapshot, and ranks; anything that goes wrong descends a four-level
cascade that terminates at the pool's most recent articles. A cache hit
keeps its match and the time-free half of its ranking as a hit plan on
the snapshot's index, so a context that returns to the same snapshot
recomputes only freshness and the final sort. The enhance
track runs generators on a bounded worker pool off the request path and
installs fresh cache entries (last writer wins per context hash).

Enhance workers are threads in the serving interpreter. Each one gives
up the interpreter after every task, before it takes the next, so a
saturated enhance track yields to serving threads instead of taking the
GIL each time a serving thread blocks. A generator that is CPU-bound
within a single call still shares the GIL for the length of that call.

Grounding is structural: a request reads one PrefixIndex, and every
article id in its ServeResponse comes out of that index's pool at every
cascade level, so nothing nonexistent can ever be recommended.
"""

from __future__ import annotations

import heapq
import itertools
import json
import logging
import threading
import time
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Optional

from .codebook import DEFAULT_LAYER_SIZES, validate_sid
from .errors import EmptyPoolError, InvalidInputError
from .hashing import fnv1a_64
from .jsonl import iter_jsonl, json_int, json_num, json_str
from .matcher import MatchResult, SIDPrefix, fuzzy_match
from .padr import DEFAULT_TAU, BehaviorHistory, UserContext, UserProfile, preset_queries
from .pool import NewsPool, PrefixIndex
from .ranking import RankedCandidate, Scored, rank, score_candidates

logger = logging.getLogger(__name__)

DEFAULT_TTL_SECONDS = 86_400
CACHE_PREFIX_CAP = 10
MIN_LEVEL1_RESULTS = 3       # fewer level-1 matches than this triggers the cascade
LEVEL2_DELTA_BONUS = 5       # level 2 broadens matching to delta + 5

SERVED_CACHE = "cache"
SERVED_FALLBACK_2 = "fallback_level_2"
SERVED_FALLBACK_3 = "fallback_level_3"
SERVED_FALLBACK_4 = "fallback_level_4"


@lru_cache(maxsize=32_768)
def _hash_rendered(rendered: str) -> int:
    return fnv1a_64(rendered)


def ctx_hash(context: UserContext) -> int:
    """64-bit FNV-1a of the canonical rendered context string."""
    return _hash_rendered(context.rendered)


@dataclass(frozen=True)
class CacheEntry:
    ctx_hash: int
    prefixes: tuple[SIDPrefix, ...]
    reason: str
    ts: float
    ttl_seconds: int = DEFAULT_TTL_SECONDS

    def expired(self, now: float) -> bool:
        return (now - self.ts) > self.ttl_seconds


class SIDCache:
    """In-process concurrent cache of prefix entries keyed by ctx_hash.

    Entries are immutable and replaced whole, so readers never observe a
    torn entry; expiry is absolute (a hit does not refresh ts). An
    optional append-log persists entries across restarts. layer_sizes is
    the codebook of the snapshot the cache serves; every prefix installed
    by enhance_track or replayed by load is range-checked against it.
    """

    def __init__(self, persist_path=None, layer_sizes=DEFAULT_LAYER_SIZES):
        self._entries: dict[int, CacheEntry] = {}
        self._lock = threading.Lock()
        self._persist_path = persist_path
        self.layer_sizes = tuple(layer_sizes)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: int, now: float) -> Optional[CacheEntry]:
        entry = self._entries.get(key)
        if entry is None or entry.expired(now):
            return None
        return entry

    def put(self, entry: CacheEntry):
        with self._lock:
            self._entries[entry.ctx_hash] = entry
            if self._persist_path is not None:
                with open(self._persist_path, "a", encoding="utf-8") as f:
                    f.write(json.dumps(_entry_record(entry)) + "\n")

    def load(self, path):
        """Replay a persistence log; later lines win."""
        for _, entry in iter_jsonl(path, self._entry_from_record):
            self._entries[entry.ctx_hash] = entry

    def _entry_from_record(self, rec: dict) -> CacheEntry:
        return CacheEntry(
            ctx_hash=json_int(rec["ctx_hash"], "ctx_hash"),
            prefixes=tuple(validate_sid(p, self.layer_sizes[:3], what="cache prefix")
                           for p in rec["prefixes"]),
            reason=json_str(rec.get("reason", ""), "reason"),
            ts=json_num(rec["ts"], "ts"),
            ttl_seconds=json_int(rec.get("ttl_seconds", DEFAULT_TTL_SECONDS), "ttl_seconds"),
        )


def _entry_record(entry: CacheEntry) -> dict:
    return {
        "ctx_hash": entry.ctx_hash,
        "prefixes": [list(p) for p in entry.prefixes],
        "reason": entry.reason,
        "ts": entry.ts,
        "ttl_seconds": entry.ttl_seconds,
    }


@dataclass(frozen=True)
class LatencyBreakdown:
    lookup_ms: float = 0.0
    match_ms: float = 0.0
    rank_ms: float = 0.0
    total_ms: float = 0.0


@dataclass(frozen=True)
class ServeResponse:
    articles: tuple[RankedCandidate, ...]
    served_from: str
    latency: LatencyBreakdown
    pool_version: int

    def to_record(self) -> dict:
        return {
            "articles": [
                {
                    "article_id": a.article_id,
                    "match_score": a.match_score,
                    "interest_points": a.interest_points,
                    "freshness": a.freshness,
                    "final_score": a.final_score,
                }
                for a in self.articles
            ],
            "served_from": self.served_from,
            "latency_breakdown": {
                "lookup_ms": self.latency.lookup_ms,
                "match_ms": self.latency.match_ms,
                "rank_ms": self.latency.rank_ms,
                "total_ms": self.latency.total_ms,
            },
            "pool_version": self.pool_version,
        }


def merge_matches(per_prefix: Iterable[list[MatchResult]]) -> list[MatchResult]:
    """Union match lists from several prefixes, keeping each article once
    at its best score."""
    best: dict[str, MatchResult] = {}
    for results in per_prefix:
        for r in results:
            cur = best.get(r.article_id)
            if cur is None or r.score > cur.score:
                best[r.article_id] = r
    return list(best.values())


def _most_recent(pool: NewsPool, k: int, categories=None) -> list:
    """The k newest articles (ties by id), pool-wide or in the given
    categories. Rides the pool's cached recency orderings, so a fallback
    serve costs O(k), not a pool-wide sort per request."""
    if categories is None:
        return list(pool.recency_order()[:k])
    groups = pool.category_recency()
    merged = heapq.merge(*(groups.get(cat, []) for cat in categories),
                         key=lambda a: (-a.published_at, a.id))
    return list(itertools.islice(merged, k))


def _as_matches(articles) -> list[MatchResult]:
    # Fallback-selected articles carry no matcher signal; score 1.0 is
    # neutral under the rank() normalization.
    return [MatchResult(article_id=a.id, score=1.0, s3_distance=0) for a in articles]


@dataclass(frozen=True, eq=False)
class _HitPlan:
    """A cache hit's level-1 match of one context on one snapshot, scored
    up to the `now`-dependent step (scored is None when fewer than
    MIN_LEVEL1_RESULTS articles matched), kept on that snapshot's index.
    It serves a later request only if that request meets the same entry
    and history objects, an equal profile and equal delta and k."""

    entry: CacheEntry
    profile: UserProfile
    history: BehaviorHistory
    delta: int
    k: int
    scored: Optional[Scored]

    def serves(self, entry: CacheEntry, req: "_Request", delta: int) -> bool:
        ctx = req.context
        return (self.entry is entry and self.history is ctx.history and self.delta == delta
                and self.k == req.k and self.profile == ctx.profile)


class _Request:
    """One serve call on one index: its stage timings from its start, and
    the one place its ServeResponse is assembled."""

    def __init__(self, context: UserContext, index: PrefixIndex, k: int, lam: float,
                 now: float | None):
        if k < 1:
            raise InvalidInputError(f"k must be >= 1, got {k}")
        self.context, self.index, self.pool, self.k, self.lam = context, index, index.pool, k, lam
        self.now = time.time() if now is None else now
        self.t0 = time.perf_counter()
        self.lookup_ms = 0.0
        self.match_ms = 0.0
        self.rank_ms = 0.0

    def match(self, prefixes: Iterable[SIDPrefix], delta: int) -> list[MatchResult]:
        t = time.perf_counter()
        merged = merge_matches(fuzzy_match(p, self.index, delta=delta, k=self.k) for p in prefixes)
        self.match_ms += (time.perf_counter() - t) * 1000.0
        return merged

    def plan(self, entry: CacheEntry, delta: int) -> _HitPlan:
        """Match the entry's prefixes and score the result free of `now`."""
        ctx = self.context
        merged = self.match(entry.prefixes, delta)
        scored = None
        if len(merged) >= MIN_LEVEL1_RESULTS:
            t = time.perf_counter()
            scored = score_candidates(merged, self.pool, ctx.profile, ctx.history)
            self.rank_ms += (time.perf_counter() - t) * 1000.0
        return _HitPlan(entry, ctx.profile, ctx.history, delta, self.k, scored)

    def respond(self, candidates: list[MatchResult] | Scored, served_from: str) -> ServeResponse:
        t_rank = time.perf_counter()
        ranked = rank(candidates, self.pool, self.context.profile, now=self.now, lam=self.lam,
                      history=self.context.history, k=self.k)
        t_end = time.perf_counter()
        return ServeResponse(
            articles=tuple(ranked),
            served_from=served_from,
            latency=LatencyBreakdown(
                lookup_ms=self.lookup_ms,
                match_ms=self.match_ms,
                rank_ms=self.rank_ms + (t_end - t_rank) * 1000.0,
                total_ms=(t_end - self.t0) * 1000.0,
            ),
            pool_version=self.pool.version,
        )


def fallback_cascade(req: _Request, prefixes: tuple[SIDPrefix, ...] = (),
                     delta: int = 5) -> ServeResponse:
    """Levels 2..4 of one request; the first level with an article serves.

    Level 2: broadened matching (delta + 5) on the cached prefixes; a
    cache miss has none and starts at level 3.
    Level 3: the most recent articles in the profile's top categories.
    Level 4: the most recent articles pool-wide.

    Levels 3 and 4 pick exactly the top k; rank() then only orders the
    picked set for presentation.
    """
    if prefixes:
        merged = req.match(prefixes, delta + LEVEL2_DELTA_BONUS)
        if merged:
            return req.respond(merged, SERVED_FALLBACK_2)
    chosen = _most_recent(req.pool, req.k, req.context.profile.top_categories())
    if chosen:
        return req.respond(_as_matches(chosen), SERVED_FALLBACK_3)
    return req.respond(_as_matches(_most_recent(req.pool, req.k)), SERVED_FALLBACK_4)


def fast_track(
    context: UserContext,
    cache: SIDCache,
    index: PrefixIndex,
    delta: int = 5,
    k: int = 10,
    lam: float = 0.1,
    now: float | None = None,
    schedule_enhance: Callable[[UserContext], None] | None = None,
) -> ServeResponse:
    """Serve one request from the cache-and-match path.

    Cache hit: fuzzy-match the cached prefixes and rank; fewer than
    MIN_LEVEL1_RESULTS matches descends fallback_cascade from level 2.
    The match and the `now`-free half of ranking are kept as a hit plan
    in index.hit_plans, one per ctx_hash, so a returning context on the
    same snapshot only recomputes freshness and sorts (match_ms reads 0).
    A plan is rebuilt when the entry or history object differs, or the
    profile, delta or k is unequal.
    Cache miss: schedule the enhance track (if a scheduler is wired) and
    serve fallback_cascade from level 3 immediately. The request ranks for
    the context's profile and history on one snapshot: index.pool.
    """
    if len(index.pool) == 0:
        raise EmptyPoolError("cannot serve from an empty pool")
    req = _Request(context, index, k, lam, now)
    key = ctx_hash(context)
    entry = cache.get(key, req.now)
    req.lookup_ms = (time.perf_counter() - req.t0) * 1000.0

    if entry is None:
        if schedule_enhance is not None:
            schedule_enhance(context)
        return fallback_cascade(req)

    # No lock: threads that rebuild one key at once each serve from their
    # own plan, and whichever is stored last is as valid as the other.
    plan = index.hit_plans.get(key)
    if plan is None or not plan.serves(entry, req, delta):
        plan = index.hit_plans[key] = req.plan(entry, delta)
    if plan.scored is None:
        return fallback_cascade(req, entry.prefixes, delta)
    return req.respond(plan.scored, SERVED_CACHE)


def enhance_track(
    context: UserContext,
    generator,
    cache: SIDCache,
    now: float | None = None,
    ttl_seconds: int = DEFAULT_TTL_SECONDS,
) -> Optional[CacheEntry]:
    """Run the generator and install a fresh cache entry.

    Runs off the request path (callers submit it to a worker pool). A
    failing generator or an empty output leaves the cache untouched and
    the fallback keeps serving. Generated prefixes are range-checked
    against the cache's layer sizes.
    """
    now = time.time() if now is None else now
    try:
        output = generator.generate(context)
    except Exception:
        logger.exception("enhance track: generator failed for user %r", context.profile.user_id)
        return None
    prefixes = tuple(
        validate_sid(tuple(p), cache.layer_sizes[:3], what="generated prefix")
        for p in output.prefixes
    )[:CACHE_PREFIX_CAP]
    if not prefixes:
        return None
    entry = CacheEntry(
        ctx_hash=ctx_hash(context),
        prefixes=prefixes,
        reason=output.reason,
        ts=now,
        ttl_seconds=ttl_seconds,
    )
    cache.put(entry)
    return entry


class EnhanceWorkers:
    """Bounded worker pool for enhance-track tasks.

    Per-key ordering is last-writer-wins at the cache, so concurrent
    tasks for one ctx_hash are safe; they just race to be the final entry.

    A worker gives up the interpreter after every task, whether the task
    returned or raised, so a saturated pool lets waiting serving threads
    run between generator calls. A task that raises is counted in
    `failed` and logged, its future keeps the exception, and the next
    drain() raises the first such error, finished or not.
    """

    def __init__(self, cache: SIDCache, generator, workers: int = 2,
                 ttl_seconds: int = DEFAULT_TTL_SECONDS):
        self._cache = cache
        self._generator = generator
        self._ttl = ttl_seconds
        self._executor = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="enhance")
        self._pending: set = set()
        self.scheduled = 0
        self.failed = 0
        self._error: Exception | None = None    # first failure drain() has not raised
        self._lock = threading.Lock()

    def schedule(self, context: UserContext):
        future = self._executor.submit(self._run, context)
        with self._lock:
            self.scheduled += 1
            self._pending.add(future)
        future.add_done_callback(self._discard)

    def _run(self, context: UserContext) -> Optional[CacheEntry]:
        try:
            return enhance_track(context, self._generator, self._cache, None, self._ttl)
        except Exception as e:
            with self._lock:
                self.failed += 1
                self._error = self._error or e
            logger.exception("enhance track: task failed for user %r", context.profile.user_id)
            raise
        finally:
            # A worker that never blocks takes the GIL each time a serving
            # thread blocks and keeps it until preempted; releasing it
            # between tasks lets a waiting serving thread take it.
            time.sleep(0)

    def _discard(self, future):
        with self._lock:
            self._pending.discard(future)

    def drain(self, timeout: float | None = None):
        """Wait for currently scheduled tasks, then raise the first error of
        a task that failed since the last drain; the pool stays usable."""
        with self._lock:
            pending = list(self._pending)
        for future in pending:
            future.exception(timeout=timeout)
        with self._lock:
            error, self._error = self._error, None
        if error is not None:
            raise error

    def close(self, cancel_pending: bool = False):
        self._executor.shutdown(wait=True, cancel_futures=cancel_pending)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.drain()
        self.close()


def warm_cache(
    profiles: Iterable[UserProfile],
    generator,
    cache: SIDCache,
    tau: int = DEFAULT_TAU,
    ttl_seconds: int = DEFAULT_TTL_SECONDS,
    now: float | None = None,
) -> int:
    """Proactively install entries for every profile's preset queries.

    Returns the number of entries written (empty generator outputs write
    nothing).
    """
    installed = 0
    for profile in profiles:
        for preset in preset_queries(profile, tau=tau):
            if enhance_track(preset, generator, cache, now=now, ttl_seconds=ttl_seconds):
                installed += 1
    return installed


# -- Metrics -------------------------------------------------------------


@dataclass
class TrackMetrics:
    requests: int = 0
    cache_hit_rate: float = 0.0
    fallback_level_rates: dict = field(default_factory=dict)
    latency_p50_ms: float = 0.0
    latency_p95_ms: float = 0.0
    latency_max_ms: float = 0.0

    def to_record(self) -> dict:
        return asdict(self)


def _nearest_rank(ordered: list[float], q: float) -> float:
    return ordered[max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))]


class MetricsCollector:
    """Thread-safe aggregate of serve outcomes: every request is counted
    by served_from, and the latency percentiles and max cover the latest
    WINDOW requests, so they follow the traffic in fixed memory."""

    WINDOW = 200_000

    def __init__(self):
        self._lock = threading.Lock()
        self._by_source: Counter[str] = Counter()
        self._latencies: deque[float] = deque(maxlen=self.WINDOW)

    def record(self, response: ServeResponse):
        with self._lock:
            self._by_source[response.served_from] += 1
            self._latencies.append(response.latency.total_ms)

    def snapshot(self) -> TrackMetrics:
        # Copy under the lock and sort outside it, so serving threads
        # recording their replies wait only for the copy.
        with self._lock:
            counts = dict(self._by_source)
            ordered = list(self._latencies)
        ordered.sort()
        total = sum(counts.values())
        if not total:
            return TrackMetrics()
        return TrackMetrics(
            requests=total,
            cache_hit_rate=counts.get(SERVED_CACHE, 0) / total,
            fallback_level_rates={src: n / total for src, n in sorted(counts.items())},
            latency_p50_ms=_nearest_rank(ordered, 0.50),
            latency_p95_ms=_nearest_rank(ordered, 0.95),
            latency_max_ms=ordered[-1],
        )


# -- In-process benchmark -------------------------------------------------


def run_benchmark(
    contexts: list[UserContext],
    cache: SIDCache,
    index: PrefixIndex,
    requests: int,
    concurrency: int,
    delta: int = 5,
    k: int = 10,
    lam: float = 0.1,
    now: float | None = None,
) -> dict:
    """Drive fast_track from `concurrency` threads over the cycled
    contexts; returns the GET /metrics record plus `concurrency`. A fixed
    `now` judges cache entries independently of the wall clock."""
    metrics = MetricsCollector()

    def worker(idx: int):
        metrics.record(fast_track(contexts[idx % len(contexts)], cache, index,
                                  delta=delta, k=k, lam=lam, now=now))

    with ThreadPoolExecutor(max_workers=concurrency) as ex:
        list(ex.map(worker, range(requests)))
    return {"concurrency": concurrency, **metrics.snapshot().to_record()}
