"""Prefix generators: the pluggable seat the LLM would occupy.

A generator turns a routed UserContext into an ordered list of at most K
3-layer SID prefixes plus an optional natural-language reason. The
trained model itself is out of scope here; it is represented by the
replay generator, which serves prefixes recorded offline so real model
outputs can flow through the same matching and evaluation machinery.

Shipped implementations:
    RandomGenerator          uniform prefixes, seeded, context-stable
    PopularGenerator         top-K most frequent prefixes in a training pool
    HistPopGenerator         most frequent prefixes of the user's own history
    ProfileCategoryGenerator dominant training-pool prefixes of the user's
                             top profile category (cold-start heuristic)
    ReplayGenerator          recorded outputs keyed by sample_id
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Protocol

import numpy as np

from .codebook import DEFAULT_LAYER_SIZES, SIDPrefix, validate_sid
from .errors import DuplicateKeyError, MissingRecordError, RecordParseError
from .hashing import derive_seed
from .jsonl import json_list, json_str, read_keyed, write_jsonl
from .padr import UserContext
from .pool import Article, NewsPool

DEFAULT_K = 10


@dataclass(frozen=True)
class GeneratorOutput:
    prefixes: tuple[SIDPrefix, ...]
    reason: str = ""


class Generator(Protocol):
    def generate(self, context: UserContext) -> GeneratorOutput: ...


def _capped(prefixes, k: int) -> tuple[SIDPrefix, ...]:
    return tuple(prefixes[:k])


class RandomGenerator:
    """Uniform prefixes over the full code space.

    The per-call RNG is derived from (seed, rendered context), so the
    same context always yields the same prefixes while distinct contexts
    diverge. Duplicate prefixes within one output are allowed; the code
    space is large enough that K draws rarely collide.
    """

    def __init__(self, seed: int = 0, layer_sizes=DEFAULT_LAYER_SIZES, k: int = DEFAULT_K):
        self.seed = seed
        self.layer_sizes = layer_sizes
        self.k = k

    def generate(self, context: UserContext) -> GeneratorOutput:
        rng = np.random.default_rng(derive_seed(self.seed, context.rendered))
        k1, k2, k3, _ = self.layer_sizes
        draws = rng.integers(0, (k1, k2, k3), size=(self.k, 3))
        prefixes = tuple(SIDPrefix(*map(int, row)) for row in draws)
        return GeneratorOutput(prefixes=prefixes, reason="uniform random prefixes")


def _top_prefixes(articles: Iterable[Article], k: int) -> tuple[SIDPrefix, ...]:
    """Top-k most frequent (s1,s2,s3) prefixes of `articles`; frequency
    ties break by lexicographic prefix order."""
    counts = Counter(SIDPrefix(a.sid.s1, a.sid.s2, a.sid.s3) for a in articles)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(p for p, _ in ranked[:k])


def popular_prefixes(pool: NewsPool, k: int = DEFAULT_K) -> tuple[SIDPrefix, ...]:
    """Top-k most frequent (s1,s2,s3) prefixes of the pool, as _top_prefixes."""
    return _top_prefixes(pool.articles, k)


class PopularGenerator:
    """Global popularity baseline: same top-K prefixes for every context."""

    def __init__(self, training_pool: NewsPool, k: int = DEFAULT_K):
        self._prefixes = popular_prefixes(training_pool, k)

    def generate(self, context: UserContext) -> GeneratorOutput:
        return GeneratorOutput(prefixes=self._prefixes, reason="training-pool popular prefixes")


class HistPopGenerator:
    """History-popularity baseline.

    Emits the user's history prefixes ranked by click frequency, mode
    first. Equal frequencies prefer the prefix whose latest click is most
    recent. Unavailable for cold contexts: zero history yields an empty
    output, which downstream treats as fallback.
    """

    def __init__(self, k: int = DEFAULT_K):
        self.k = k

    def generate(self, context: UserContext) -> GeneratorOutput:
        if not context.history:
            return GeneratorOutput(prefixes=(), reason="no history")
        freq: Counter[SIDPrefix] = Counter()
        latest: dict[SIDPrefix, float] = {}
        for click in context.history.clicks:
            p = SIDPrefix(click.sid.s1, click.sid.s2, click.sid.s3)
            freq[p] += 1
            latest[p] = max(latest.get(p, float("-inf")), click.timestamp)
        ranked = sorted(freq.items(), key=lambda kv: (-kv[1], -latest[kv[0]], kv[0]))
        return GeneratorOutput(
            prefixes=_capped([p for p, _ in ranked], self.k),
            reason="most frequent history prefixes",
        )


def build_category_map(pool: NewsPool, per_category: int = DEFAULT_K) -> dict[str, tuple[SIDPrefix, ...]]:
    """Dominant prefixes per editorial category, ranked by in-category
    frequency (ties lexicographic)."""
    by_category: dict[str, list[Article]] = {}
    for a in pool.articles:
        by_category.setdefault(a.category, []).append(a)
    return {cat: _top_prefixes(arts, per_category) for cat, arts in by_category.items()}


class ProfileCategoryGenerator:
    """Cold-start heuristic: map the user's top profile category to that
    category's dominant training-pool prefixes. Stands in for the learned
    profile-to-cluster inference; returns empty when the profile carries
    no category signal."""

    def __init__(self, category_map: dict[str, tuple[SIDPrefix, ...]], k: int = DEFAULT_K):
        self.category_map = category_map
        self.k = k

    def generate(self, context: UserContext) -> GeneratorOutput:
        for cat in context.profile.top_categories():
            prefixes = self.category_map.get(cat)
            if prefixes:
                return GeneratorOutput(
                    prefixes=_capped(prefixes, self.k),
                    reason=f"dominant prefixes of category {cat}",
                )
        return GeneratorOutput(prefixes=(), reason="no category signal")


class PoolSampledGenerator:
    """Emits prefixes of randomly sampled pool articles: a perfectly
    grounded generator with no personalization. Used by the benchmark and
    by grounding tests, where generation quality is irrelevant but pool
    existence matters."""

    def __init__(self, pool: NewsPool, seed: int = 0, k: int = DEFAULT_K):
        self._articles = pool.articles
        self.seed = seed
        self.k = k

    def generate(self, context: UserContext) -> GeneratorOutput:
        rng = np.random.default_rng(derive_seed(self.seed, "pool-sample", context.rendered))
        idx = rng.integers(0, len(self._articles), size=self.k)
        prefixes = tuple(
            SIDPrefix(a.sid.s1, a.sid.s2, a.sid.s3)
            for a in (self._articles[int(i)] for i in idx)
        )
        return GeneratorOutput(prefixes=prefixes, reason="sampled from pool")


@dataclass(frozen=True)
class ReplayRecord:
    sample_id: str
    prefixes: tuple[SIDPrefix, ...]
    reason: str = ""


class ReplayGenerator:
    """Serves recorded generator outputs, keyed by context.sample_id."""

    def __init__(self, records: dict[str, ReplayRecord]):
        self._records = records

    def __len__(self) -> int:
        return len(self._records)

    def generate(self, context: UserContext) -> GeneratorOutput:
        sid = context.sample_id
        if sid is None or sid not in self._records:
            raise MissingRecordError(f"no replay record for sample_id {sid!r}")
        rec = self._records[sid]
        return GeneratorOutput(prefixes=rec.prefixes, reason=rec.reason)


def load_replay(path, layer_sizes=DEFAULT_LAYER_SIZES) -> ReplayGenerator:
    """Load a replay JSONL file; duplicate sample ids and out-of-range
    prefixes are rejected with line numbers."""

    def parse(rec) -> ReplayRecord:
        return ReplayRecord(
            sample_id=json_str(rec["sample_id"], "sample_id"),
            prefixes=tuple(validate_sid(p, layer_sizes[:3], what="replay prefix")
                           for p in json_list(rec["prefixes"], "prefixes")),
            reason=json_str(rec.get("reason", ""), "reason"),
        )

    return ReplayGenerator(read_keyed(path, parse, "sample_id"))


def from_spec(
    spec: str,
    training_pool: NewsPool | None = None,
    seed: int = 0,
    k: int = DEFAULT_K,
    layer_sizes=DEFAULT_LAYER_SIZES,
):
    """Build a generator from a CLI spec string.

    Accepted: random | popular | histpop | profile | replay:<path>.
    popular and profile need a training pool.
    """
    if spec == "random":
        return RandomGenerator(seed=seed, layer_sizes=layer_sizes, k=k)
    if spec == "histpop":
        return HistPopGenerator(k=k)
    if spec == "popular":
        if training_pool is None:
            raise RecordParseError("generator 'popular' needs a training pool")
        return PopularGenerator(training_pool, k=k)
    if spec == "profile":
        if training_pool is None:
            raise RecordParseError("generator 'profile' needs a training pool")
        return ProfileCategoryGenerator(build_category_map(training_pool, per_category=k), k=k)
    if spec.startswith("replay:"):
        return load_replay(spec.split(":", 1)[1], layer_sizes=layer_sizes)
    raise RecordParseError(
        f"unknown generator spec {spec!r}; expected random|popular|histpop|profile|replay:<path>"
    )


def write_replay(records: list[ReplayRecord], path):
    seen = set()
    for r in records:
        if r.sample_id in seen:
            raise DuplicateKeyError(f"duplicate sample_id {r.sample_id!r}")
        seen.add(r.sample_id)
    write_jsonl(path, ({"sample_id": r.sample_id, "prefixes": [list(p) for p in r.prefixes],
                        "reason": r.reason} for r in records))
