"""Evaluation harness: intent-labeled samples, metrics, statistics.

Open generation is scored on the top generated prefix per sample:
L1 (coarse code), L2 (coarse + mid), Category (editorial category of the
top fuzzy-matched candidate), and hallucination (exact-prefix absence
from the pool, measured on raw generations before fuzzy matching).
Candidate selection is scored as Hit@1 over 5-way candidate sets with
random and with category-aligned negatives, both in one walk.

All sampling (negatives, bootstrap resamples, fixtures) is seeded and
per-sample seeds derive from the master seed plus the sample id, so
results do not depend on iteration or parallel schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .codebook import DEFAULT_LAYER_SIZES, SID, validate_sid
from .errors import InvalidInputError
from .hashing import derive_seed
from .jsonl import json_int, json_obj, json_str, json_strs, read_keyed, write_jsonl
from .matcher import SIDPrefix, fuzzy_match, match_count
from .pool import Article, NewsPool, PrefixIndex

INTENT_CANDIDATE_SELECTION = "candidate_selection"
INTENT_NEXT_ITEM = "next_item"
INTENT_DIVERSITY = "diversity"
INTENT_FEEDBACK = "feedback"
INTENT_COLDSTART_PADR = "coldstart_padr"
INTENT_PURE_COLDSTART = "pure_coldstart"

INTENTS = (
    INTENT_CANDIDATE_SELECTION,
    INTENT_NEXT_ITEM,
    INTENT_DIVERSITY,
    INTENT_FEEDBACK,
    INTENT_COLDSTART_PADR,
    INTENT_PURE_COLDSTART,
)

# Intents scored by open generation; candidate_selection is Hit@1.
OPEN_GENERATION_INTENTS = (
    INTENT_NEXT_ITEM,
    INTENT_DIVERSITY,
    INTENT_FEEDBACK,
    INTENT_COLDSTART_PADR,
    INTENT_PURE_COLDSTART,
)

# Group analysis mirrors the warm/cold/pure breakdown: feedback samples
# are dialogue-style and sit outside the warm/cold grouping.
GROUP_INTENTS = {
    "warm": (INTENT_NEXT_ITEM, INTENT_DIVERSITY),
    "cold": (INTENT_COLDSTART_PADR, INTENT_PURE_COLDSTART),
    "pure_cold": (INTENT_PURE_COLDSTART,),
}

DEFAULT_RESAMPLES = 10_000
DEFAULT_SEED = 42
_BOOTSTRAP_CHUNK = 256

# Production-reported headline numbers for the trained model. Shown in
# reports next to replayed model outputs for comparison; never targets.
PRODUCTION_REFERENCE = {
    "l1_match": 0.124,
    "l2_match": 0.010,
    "category_match": 0.200,
    "hallucination_rate": 0.0,
    "hit_at_1_rand": 0.593,
    "hit_at_1_align": 0.308,
    "pure_coldstart_l1": 0.180,
}


@dataclass(frozen=True)
class EvalSample:
    sample_id: str
    intent: str
    user_id: str
    query: str
    target_article_id: str
    target_sid: SID
    history_len: int = 0
    candidates: Optional[tuple[str, ...]] = None   # candidate_selection only

    def __post_init__(self):
        if self.intent not in INTENTS:
            raise InvalidInputError(f"unknown intent {self.intent!r}")
        if self.intent == INTENT_CANDIDATE_SELECTION:
            if self.candidates is None or len(self.candidates) != 5:
                raise InvalidInputError(
                    f"sample {self.sample_id}: candidate_selection needs exactly 5 candidates"
                )
            if self.target_article_id not in self.candidates:
                raise InvalidInputError(
                    f"sample {self.sample_id}: candidates must include the target"
                )
        if self.history_len < 0:
            raise InvalidInputError(
                f"sample {self.sample_id}: history_len must be >= 0, got {self.history_len}"
            )
        if self.intent == INTENT_PURE_COLDSTART and self.history_len != 0:
            raise InvalidInputError(
                f"sample {self.sample_id}: pure_coldstart requires history_len 0"
            )


def sample_to_record(s: EvalSample) -> dict:
    rec = {
        "sample_id": s.sample_id,
        "intent": s.intent,
        "user_id": s.user_id,
        "query": s.query,
        "target": {"article_id": s.target_article_id, "sid": list(s.target_sid)},
        "history_len": s.history_len,
    }
    if s.candidates is not None:
        rec["candidates"] = list(s.candidates)
    return rec


def load_samples(path, layer_sizes=DEFAULT_LAYER_SIZES) -> list[EvalSample]:
    """Read eval-sample JSONL; target SIDs are range-checked against layer_sizes."""

    def parse(rec) -> EvalSample:
        target = json_obj(rec["target"], "target")
        return EvalSample(
            sample_id=json_str(rec["sample_id"], "sample_id"),
            intent=json_str(rec["intent"], "intent"),
            user_id=json_str(rec["user_id"], "user_id"),
            query=json_str(rec.get("query", ""), "query"),
            target_article_id=json_str(target["article_id"], "target article_id"),
            target_sid=validate_sid(target["sid"], layer_sizes, what="target sid"),
            history_len=json_int(rec.get("history_len", 0), "history_len"),
            candidates=(json_strs(rec["candidates"], "candidates")
                        if "candidates" in rec else None),
        )

    return list(read_keyed(path, parse, "sample_id").values())


def write_samples(samples: Iterable[EvalSample], path):
    write_jsonl(path, (sample_to_record(s) for s in samples))


# -- Open-generation metrics ---------------------------------------------


def _check_aligned(predictions, targets):
    if len(predictions) != len(targets):
        raise InvalidInputError(
            f"predictions ({len(predictions)}) and targets ({len(targets)}) differ in length"
        )


def l1_indicators(predictions: Sequence[Optional[SIDPrefix]], targets: Sequence[SID]) -> list[int]:
    _check_aligned(predictions, targets)
    return [int(p is not None and p.s1 == t.s1) for p, t in zip(predictions, targets)]


def l2_indicators(predictions: Sequence[Optional[SIDPrefix]], targets: Sequence[SID]) -> list[int]:
    _check_aligned(predictions, targets)
    return [
        int(p is not None and p.s1 == t.s1 and p.s2 == t.s2)
        for p, t in zip(predictions, targets)
    ]


def category_indicators(
    predictions: Sequence[Optional[SIDPrefix]],
    target_categories: Sequence[str],
    index: PrefixIndex,
    delta: int = 5,
) -> list[int]:
    """1 when the top fuzzy-matched candidate's editorial category equals
    the target's; empty predictions and empty matches count as misses."""
    _check_aligned(predictions, target_categories)
    out = []
    for p, cat in zip(predictions, target_categories):
        if p is None:
            out.append(0)
            continue
        top = fuzzy_match(p, index, delta=delta, k=1)
        out.append(int(bool(top) and index.pool.by_id[top[0].article_id].category == cat))
    return out


def hallucination_rate(
    raw_generations: Sequence[Optional[SIDPrefix]], index: PrefixIndex
) -> float:
    """Fraction of generated prefixes with no exact (s1,s2,s3) article in
    the pool. Measured on raw outputs before fuzzy matching; samples that
    generated nothing are not hallucinations and are excluded."""
    produced = [p for p in raw_generations if p is not None]
    if not produced:
        return 0.0
    absent = sum(1 for p in produced if match_count(p, index, delta=0) == 0)
    return absent / len(produced)


def expected_random_l1(
    targets: Sequence[SID], actual: float | None = None
) -> tuple[float, Optional[float], Optional[float]]:
    """Concentration-corrected chance rate: sum of squared L1-code
    proportions. With an observed rate, also returns (actual - expected)
    and actual / expected."""
    if not targets:
        raise InvalidInputError("expected_random_l1 needs nonempty targets")
    counts: dict[int, int] = {}
    for t in targets:
        counts[t.s1] = counts.get(t.s1, 0) + 1
    n = len(targets)
    expected = sum((c / n) ** 2 for c in counts.values())
    if actual is None:
        return expected, None, None
    return expected, actual - expected, (actual / expected if expected > 0 else math.inf)


# -- Bootstrap statistics -------------------------------------------------


def _resample_means(rows: np.ndarray, resamples: int, seed: int) -> np.ndarray:
    """Means of `resamples` bootstrap draws for each of the equal-length
    rows (r, n), chunked to bound memory; returns shape (r, resamples).

    Every row is reduced over the same index draws, one `row[idx]` gather
    each (a stacked gather is slower). Chunking does not change the
    stream: the generator yields the same index sequence whether drawn at
    once or in pieces.
    """
    rng = np.random.default_rng(seed)
    n = rows.shape[1]
    means = np.empty((len(rows), resamples), dtype=np.float64)
    done = 0
    while done < resamples:
        m = min(_BOOTSTRAP_CHUNK, resamples - done)
        idx = rng.integers(0, n, size=(m, n))
        for row, out in zip(rows, means):
            out[done : done + m] = row[idx].mean(axis=1)
        done += m
    return means


def bootstrap_cis(
    rows: Sequence[Sequence[float]],
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = DEFAULT_SEED,
) -> list[tuple[float, float, float]]:
    """Percentile-bootstrap 95% CIs for the means of equal-length rows,
    one (point, lo, hi) per row. The rows share one index draw per
    resample, so each result equals bootstrap_ci(row, resamples, seed)."""
    if resamples < 1:
        raise InvalidInputError("resamples must be >= 1")
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] == 0:
        raise InvalidInputError("bootstrap needs nonempty equal-length rows of values")
    out = []
    for row, means in zip(arr, _resample_means(arr, resamples, seed)):
        lo, hi = np.percentile(means, [2.5, 97.5])
        out.append((float(row.mean()), float(lo), float(hi)))
    return out


def bootstrap_ci(
    values: Sequence[float],
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = DEFAULT_SEED,
) -> tuple[float, float, float]:
    """Percentile-bootstrap 95% CI for the mean: (point, lo, hi)."""
    if len(values) == 0:
        raise InvalidInputError("bootstrap_ci needs nonempty values")
    return bootstrap_cis([values], resamples, seed)[0]


# -- Hit@1 ---------------------------------------------------------------


NEGATIVE_MODE_RAND = "rand"
NEGATIVE_MODE_ALIGN = "align"


class OracleChooser:
    """Always picks the target; calibrates the harness upper bound."""

    def choose(self, sample: EvalSample, candidate_sets: list[list[Article]], context) -> list[str]:
        return [sample.target_article_id] * len(candidate_sets)


class UniformChooser:
    """Uniform pick among the 5 candidates, a fresh draw per set; calibrates the 20% floor."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def choose(self, sample: EvalSample, candidate_sets: list[list[Article]], context) -> list[str]:
        sample_seed = derive_seed(self.seed, "uniform-choice", sample.sample_id)
        return [c[int(np.random.default_rng(sample_seed).integers(len(c)))].id
                for c in candidate_sets]


class GeneratorChooser:
    """Picks, in each set, the candidate whose prefix best agrees with the
    generator's output: exact (s1,s2) beats s1-only beats no signal; closer
    s3 wins within an exact (s1,s2) hit; the first candidate wins ties. The
    generator runs once per call, however many sets it is given."""

    def __init__(self, generator):
        self.generator = generator

    def choose(self, sample: EvalSample, candidate_sets: list[list[Article]], context) -> list[str]:
        prefixes = self.generator.generate(context).prefixes
        picks = []
        for candidates in candidate_sets:
            best_id, best_score = candidates[0].id, float("-inf")
            for art in candidates:
                score = float("-inf")
                for p in prefixes:
                    if p.s1 == art.sid.s1 and p.s2 == art.sid.s2:
                        s = 1000.0 - abs(p.s3 - art.sid.s3)
                    elif p.s1 == art.sid.s1:
                        s = 1.0
                    else:
                        s = 0.0
                    score = max(score, s)
                if score > best_score:
                    best_id, best_score = art.id, score
            picks.append(best_id)
        return picks


@dataclass(frozen=True)
class HitAtOneResult:
    rate: float
    ci_lo: float
    ci_hi: float
    n_evaluated: int
    n_skipped: int
    n_align_fallback: int


def draw_candidates(
    sample: EvalSample,
    pool: NewsPool,
    negative_mode: str,
    seed: int,
    by_category: dict[str, list[str]],
) -> tuple[list[str], bool]:
    """Fixed candidate set for (sample, seed): the target plus 4 negatives.

    rand: 4 uniform non-target articles. align: 2 same-category
    non-targets + 2 uniform; falls back to uniform negatives when the
    category is too thin (flagged in the second return value).
    by_category maps each category to its article ids in pool order, as
    hit_at_1 builds it once per pool.
    """
    rng = np.random.default_rng(derive_seed(seed, "hit1-negatives", sample.sample_id))
    target = pool.by_id[sample.target_article_id]
    fell_back = False
    chosen: list[str] = []

    if negative_mode == NEGATIVE_MODE_ALIGN:
        same_cat = by_category.get(target.category, [])
        # Draw by index into the category list, stepping over the target.
        try:
            skip = same_cat.index(target.id)
        except ValueError:
            skip = len(same_cat)
        others = len(same_cat) - (skip < len(same_cat))
        if others >= 2:
            picks = rng.choice(others, size=2, replace=False)
            chosen.extend(same_cat[j + (j >= skip)] for j in map(int, picks))
        else:
            fell_back = True
    elif negative_mode != NEGATIVE_MODE_RAND:
        raise InvalidInputError(f"unknown negative_mode {negative_mode!r}")

    exclude = {target.id, *chosen}
    # Uniform negatives drawn by index with rejection on the exclusion set.
    n = len(pool.articles)
    while len(chosen) < 4:
        cand = pool.articles[int(rng.integers(n))].id
        if cand not in exclude:
            chosen.append(cand)
            exclude.add(cand)

    ids = [target.id] + chosen
    order = rng.permutation(5)
    return [ids[int(i)] for i in order], fell_back


def hit_at_1(
    samples: Sequence[EvalSample],
    chooser,
    pool: NewsPool,
    seed: int = DEFAULT_SEED,
    resamples: int = DEFAULT_RESAMPLES,
    contexts: dict | None = None,
) -> tuple[HitAtOneResult, HitAtOneResult]:
    """Score a chooser under random and category-aligned negatives in one walk;
    returns (rand, align). Each sample makes one chooser.choose(sample,
    [rand_set, align_set], context) call, which picks once per set; one bootstrap
    draw gives both CIs. Samples whose target is not in the pool are skipped and
    counted; a pool of fewer than 5 articles raises InvalidInputError."""
    if len(pool) < 5:
        raise InvalidInputError("hit_at_1 needs a pool of at least 5 articles")
    by_category: dict[str, list[str]] = {}
    for a in pool.articles:
        by_category.setdefault(a.category, []).append(a.id)

    hits: tuple[list[int], list[int]] = ([], [])    # rand, align
    skipped = 0
    align_fallbacks = 0
    for sample in samples:
        if sample.target_article_id not in pool.by_id:
            skipped += 1
            continue
        rand_ids, _ = draw_candidates(sample, pool, NEGATIVE_MODE_RAND, seed, by_category)
        align_ids, fell_back = draw_candidates(sample, pool, NEGATIVE_MODE_ALIGN, seed, by_category)
        align_fallbacks += int(fell_back)
        context = contexts.get(sample.sample_id) if contexts else None
        picks = chooser.choose(
            sample, [[pool.by_id[i] for i in ids] for ids in (rand_ids, align_ids)], context)
        for row, picked in zip(hits, picks):
            row.append(int(picked == sample.target_article_id))

    n = len(hits[0])
    cis = bootstrap_cis(hits, resamples=resamples, seed=seed) if n else [(0.0, 0.0, 0.0)] * 2
    return (HitAtOneResult(*cis[0], n, skipped, 0),
            HitAtOneResult(*cis[1], n, skipped, align_fallbacks))


# -- Partial-match analysis ------------------------------------------------


@dataclass(frozen=True)
class PartialMatchStats:
    l1_only_rate: float
    n_partial: int
    mean_candidates: float
    median_candidates: float
    category_overlap: float

    def to_record(self) -> dict:
        return {
            "l1_only_rate": self.l1_only_rate,
            "n_partial": self.n_partial,
            "mean_candidates": self.mean_candidates,
            "median_candidates": self.median_candidates,
            "category_overlap": self.category_overlap,
        }


def partial_match_analysis(
    predictions: Sequence[Optional[SIDPrefix]],
    targets: Sequence[SID],
    target_categories: Sequence[str],
    index: PrefixIndex,
    delta: int = 5,
) -> PartialMatchStats:
    """Statistics over L1-correct-but-L2-wrong predictions: how many
    candidates fuzzy matching returns for them and how often those
    candidates share the target's category (mean per-sample fraction over
    partials with at least one candidate)."""
    _check_aligned(predictions, targets)
    counts: list[int] = []
    overlaps: list[float] = []
    n_partial = 0
    for p, t, cat in zip(predictions, targets, target_categories):
        if p is None or p.s1 != t.s1 or p.s2 == t.s2:
            continue
        n_partial += 1
        results = fuzzy_match(p, index, delta=delta, k=len(index.pool) or 1)
        counts.append(len(results))
        if results:
            share = sum(
                1 for r in results if index.pool.by_id[r.article_id].category == cat
            )
            overlaps.append(share / len(results))
    total = len(predictions)
    return PartialMatchStats(
        l1_only_rate=n_partial / total if total else 0.0,
        n_partial=n_partial,
        mean_candidates=float(np.mean(counts)) if counts else 0.0,
        median_candidates=float(np.median(counts)) if counts else 0.0,
        category_overlap=float(np.mean(overlaps)) if overlaps else 0.0,
    )
