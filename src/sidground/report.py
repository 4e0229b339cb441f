"""End-to-end evaluation runs and report assembly.

run_eval routes every sample through PADR, asks the generator for
prefixes, and scores open generation (top prefix) plus candidate
selection (Hit@1 under both negative settings). The report carries point
estimates with bootstrap CIs, the per-task breakdown, the
distribution-corrected random baseline per user group, partial-match
statistics, and the production-reported reference numbers for
side-by-side comparison with replayed model outputs (reference values
are context, never targets).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .evaluation import (
    DEFAULT_RESAMPLES,
    DEFAULT_SEED,
    GROUP_INTENTS,
    INTENT_CANDIDATE_SELECTION,
    OPEN_GENERATION_INTENTS,
    PRODUCTION_REFERENCE,
    EvalSample,
    GeneratorChooser,
    HitAtOneResult,
    PartialMatchStats,
    bootstrap_ci,
    bootstrap_cis,
    category_indicators,
    expected_random_l1,
    hallucination_rate,
    hit_at_1,
    l1_indicators,
    l2_indicators,
    partial_match_analysis,
)
from .codebook import validate_sid
from .matcher import match_count
from .padr import DEFAULT_TAU, EMPTY_HISTORY, BehaviorHistory, UserProfile, route
from .pool import NewsPool, build_index


@dataclass
class MetricCI:
    point: float
    lo: float
    hi: float
    n: int

    def to_record(self) -> dict:
        return {"point": self.point, "ci_lo": self.lo, "ci_hi": self.hi, "n": self.n}


@dataclass
class EvalReport:
    n_samples: int
    intent_counts: dict[str, int]
    open_gen: dict[str, MetricCI]
    hallucination: float
    empty_generation_rate: float
    post_match_empty_rate: float
    hit_rand: HitAtOneResult | None
    hit_align: HitAtOneResult | None
    per_task: list[dict]
    groups: list[dict]
    partial: PartialMatchStats
    config: dict
    reference: dict = field(default_factory=lambda: dict(PRODUCTION_REFERENCE))

    def to_record(self) -> dict:
        def hit_rec(h):
            if h is None:
                return None
            return {
                "rate": h.rate, "ci_lo": h.ci_lo, "ci_hi": h.ci_hi,
                "n_evaluated": h.n_evaluated, "n_skipped": h.n_skipped,
                "n_align_fallback": h.n_align_fallback,
            }

        return {
            "n_samples": self.n_samples,
            "intent_counts": dict(self.intent_counts),
            "open_generation": {k: v.to_record() for k, v in self.open_gen.items()},
            "hallucination_rate": self.hallucination,
            "empty_generation_rate": self.empty_generation_rate,
            "post_match_empty_rate": self.post_match_empty_rate,
            "hit_at_1": {"rand": hit_rec(self.hit_rand), "align": hit_rec(self.hit_align)},
            "per_task": list(self.per_task),
            "distribution_corrected_l1": list(self.groups),
            "partial_match": self.partial.to_record(),
            "config": dict(self.config),
            "production_reference": dict(self.reference),
        }

    def render_text(self) -> str:
        lines = []
        lines.append(f"Evaluation report  (N={self.n_samples})")
        lines.append("")
        lines.append("Open generation")
        lines.append(f"  {'metric':<14}{'value':>9}   95% CI            ref")
        for key, label, ref in (
            ("l1_match", "L1", self.reference.get("l1_match", 0.0)),
            ("l2_match", "L2", self.reference.get("l2_match", 0.0)),
            ("category_match", "Category", self.reference.get("category_match", 0.0)),
        ):
            m = self.open_gen.get(key)
            if m is None:
                continue
            lines.append(
                f"  {label:<14}{m.point:>8.1%}   [{m.lo:.1%}, {m.hi:.1%}]    {ref:.1%}"
            )
        lines.append(
            f"  {'Hallucination':<14}{self.hallucination:>8.1%}"
            f"{'':<22}{self.reference.get('hallucination_rate', 0.0):>7.1%}"
        )
        lines.append(f"  {'Empty output':<14}{self.empty_generation_rate:>8.1%}")
        lines.append(f"  {'Empty match':<14}{self.post_match_empty_rate:>8.1%}")
        lines.append("")
        if self.hit_rand or self.hit_align:
            lines.append("Candidate selection Hit@1")
            for label, h, ref in (
                ("Rand", self.hit_rand, self.reference.get("hit_at_1_rand")),
                ("Align", self.hit_align, self.reference.get("hit_at_1_align")),
            ):
                if h is None or h.n_evaluated == 0:
                    continue
                extra = f"  (skipped={h.n_skipped}, align_fallback={h.n_align_fallback})"
                lines.append(
                    f"  {label:<14}{h.rate:>8.1%}   [{h.ci_lo:.1%}, {h.ci_hi:.1%}]"
                    f"    {ref:.1%}{extra}"
                )
            lines.append("")
        lines.append("Per-task breakdown")
        lines.append(f"  {'task':<28}{'N':>7}  {'metric':<8}{'value':>9}   95% CI")
        for row in self.per_task:
            lines.append(
                f"  {row['task']:<28}{row['n']:>7}  {row['metric']:<8}"
                f"{row['value']:>8.1%}   [{row['ci_lo']:.1%}, {row['ci_hi']:.1%}]"
            )
        lines.append("")
        lines.append("Distribution-corrected L1 (expected random = sum p_i^2)")
        lines.append(f"  {'group':<12}{'N':>7}{'actual':>9}{'E[rand]':>9}{'adj':>9}{'lift':>7}")
        for g in self.groups:
            lines.append(
                f"  {g['group']:<12}{g['n']:>7}{g['actual']:>9.1%}{g['expected']:>9.1%}"
                f"{g['adjusted']:>9.1%}{g['lift']:>6.2f}x"
            )
        lines.append("")
        p = self.partial
        lines.append("Partial matches (L1 correct, L2 wrong)")
        lines.append(
            f"  rate={p.l1_only_rate:.1%}  n={p.n_partial}  "
            f"candidates mean={p.mean_candidates:.1f} median={p.median_candidates:.1f}  "
            f"category overlap={p.category_overlap:.1%}"
        )
        lines.append("")
        lines.append("Reference values are production-reported numbers for the trained")
        lines.append("model on production data; they contextualize replayed outputs and")
        lines.append("are not reproduction targets.")
        return "\n".join(lines)


def build_contexts(
    samples: list[EvalSample],
    profiles: dict[str, UserProfile] | None,
    histories: dict[str, BehaviorHistory] | None,
    tau: int = DEFAULT_TAU,
) -> dict[str, object]:
    """Route one context per sample, truncating each user's history to the
    sample's history_len (the chronological prefix: the state the user was
    in when the sample was logged)."""
    profiles = profiles or {}
    histories = histories or {}
    contexts = {}
    for s in samples:
        profile = profiles.get(s.user_id) or UserProfile(user_id=s.user_id)
        hist = histories.get(s.user_id, EMPTY_HISTORY)
        if s.history_len < len(hist):
            hist = BehaviorHistory(clicks=hist.clicks[: s.history_len])
        ctx = route(profile, hist, s.query, tau=tau)
        contexts[s.sample_id] = replace(ctx, sample_id=s.sample_id)
    return contexts


def run_eval(
    samples: list[EvalSample],
    pool: NewsPool,
    generator,
    profiles: dict[str, UserProfile] | None = None,
    histories: dict[str, BehaviorHistory] | None = None,
    tau: int = DEFAULT_TAU,
    delta: int = 5,
    seed: int = DEFAULT_SEED,
    resamples: int = DEFAULT_RESAMPLES,
) -> EvalReport:
    index = build_index(pool)
    contexts = build_contexts(samples, profiles, histories, tau=tau)

    open_samples = [s for s in samples if s.intent in OPEN_GENERATION_INTENTS]
    predictions = []
    for s in open_samples:
        out = generator.generate(contexts[s.sample_id])
        if out.prefixes:
            predictions.append(
                validate_sid(tuple(out.prefixes[0]), pool.layer_sizes[:3], what="generated prefix"))
        else:
            predictions.append(None)
    targets = [s.target_sid for s in open_samples]
    target_cats = [
        pool.by_id[s.target_article_id].category if s.target_article_id in pool.by_id else ""
        for s in open_samples
    ]

    open_gen: dict[str, MetricCI] = {}
    l1_vals = l1_indicators(predictions, targets)
    rows = {
        "l1_match": l1_vals,
        "l2_match": l2_indicators(predictions, targets),
        "category_match": category_indicators(predictions, target_cats, index, delta=delta),
    }
    if open_samples:
        # Same n and seed: one bootstrap index draw serves all three CIs.
        cis = bootstrap_cis(list(rows.values()), resamples=resamples, seed=seed)
        for key, (point, lo, hi) in zip(rows, cis):
            open_gen[key] = MetricCI(point, lo, hi, len(open_samples))

    halluc = hallucination_rate(predictions, index)
    empty_rate = (
        sum(1 for p in predictions if p is None) / len(predictions) if predictions else 0.0
    )
    # Companion reading of grounding failure: how often the *tolerant*
    # match still came back empty (raw hallucination is the delta=0 test).
    post_empty = (
        sum(1 for p in predictions if p is not None and match_count(p, index, delta) == 0)
        / len(predictions)
        if predictions else 0.0
    )

    cs_samples = [s for s in samples if s.intent == INTENT_CANDIDATE_SELECTION]
    hit_rand = hit_align = None
    if cs_samples:
        hit_rand, hit_align = hit_at_1(cs_samples, GeneratorChooser(generator), pool, seed=seed,
                                       resamples=resamples, contexts=contexts)

    intent_counts: dict[str, int] = {}
    for s in samples:
        intent_counts[s.intent] = intent_counts.get(s.intent, 0) + 1

    per_task = []
    for mode, h in (("rand", hit_rand), ("align", hit_align)):
        if h and h.n_evaluated:
            per_task.append({"task": f"candidate_selection ({mode})", "n": h.n_evaluated,
                             "metric": "hit@1", "value": h.rate,
                             "ci_lo": h.ci_lo, "ci_hi": h.ci_hi})
    by_intent_l1: dict[str, list[int]] = {}
    for s, v in zip(open_samples, l1_vals):
        by_intent_l1.setdefault(s.intent, []).append(v)
    for intent in OPEN_GENERATION_INTENTS:
        vals = by_intent_l1.get(intent)
        if not vals:
            continue
        point, lo, hi = bootstrap_ci(vals, resamples=resamples, seed=seed)
        per_task.append({"task": intent, "n": len(vals), "metric": "l1",
                         "value": point, "ci_lo": lo, "ci_hi": hi})

    groups = []
    for group, intents in GROUP_INTENTS.items():
        sub = [(s, v) for s, v in zip(open_samples, l1_vals) if s.intent in intents]
        if not sub:
            continue
        actual = sum(v for _, v in sub) / len(sub)
        expected, adjusted, lift = expected_random_l1([s.target_sid for s, _ in sub], actual)
        groups.append({"group": group, "n": len(sub), "actual": actual,
                       "expected": expected, "adjusted": adjusted, "lift": lift})

    partial = partial_match_analysis(predictions, targets, target_cats, index, delta=delta)

    return EvalReport(
        n_samples=len(samples),
        intent_counts=intent_counts,
        open_gen=open_gen,
        hallucination=halluc,
        empty_generation_rate=empty_rate,
        post_match_empty_rate=post_empty,
        hit_rand=hit_rand,
        hit_align=hit_align,
        per_task=per_task,
        groups=groups,
        partial=partial,
        config={"delta": delta, "tau": tau, "seed": seed, "resamples": resamples},
    )


def write_report(report: EvalReport, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report.to_record(), f, indent=2)
        f.write("\n")
