"""Metric catalog and the per-layer numbers derived from recorded spans.

Metric names, units, directions and bounds are read from BENCHMARK.json
at the repository root. LAYER_EFFECTS records, for each per-layer
metric, the end-to-end metric and workload it is expected to move.

Per-layer metrics are averaged over the calls of one traced run. A
layer that does no work on a workload reports 0.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from .spans import RAISED, Span, self_times

_BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
END_TO_END: list[dict] = _BENCHMARK["end_to_end"]
PER_LAYER: list[dict] = _BENCHMARK["per_layer"]

SERVED_LEVELS = ("cache", "enhance", "fallback_level_2", "fallback_level_3", "fallback_level_4")

_SERVE = "serve_hit and serve_churn"
_P50_SHARE = "latency_p50_ms, personalized_share on serve_churn"
_OFFLINE = "throughput_rps on offline_eval"
LAYER_EFFECTS = {
    "server.handle_us": f"latency_p50_ms on {_SERVE}",
    "server.recommend_us": f"latency_p50_ms on {_SERVE}",
    "padr.route_us": f"latency_p50_ms on {_SERVE}",
    "dualtrack.ctx_hash_us": "latency_p50_ms on serve_churn",
    "dualtrack.cache_get_us": "personalized_share on serve_churn",
    "dualtrack.cache_hit_ratio": "personalized_share on serve_churn",
    "dualtrack.cache_put_us": "peak_rss_mb on serve_churn",
    "dualtrack.cache_entries": "peak_rss_mb on serve_churn",
    "dualtrack.fast_track_us": "latency_p50_ms, throughput_rps on serve_hit",
    "dualtrack.merge_us": "latency_p50_ms, throughput_rps on serve_hit",
    "dualtrack.merged_per_request": "throughput_rps on serve_hit",
    "dualtrack.fallback_cascade_us": "latency_p50_ms on serve_churn",
    **{f"dualtrack.served_from.{lvl}": f"latency_p50_ms, throughput_rps on {_SERVE}"
       for lvl in SERVED_LEVELS},
    "dualtrack.enhance_scheduled": _P50_SHARE,
    "dualtrack.enhance_completed": _P50_SHARE,
    "dualtrack.enhance_queue_wait_ms": _P50_SHARE,
    "dualtrack.enhance_redundant_ratio": _P50_SHARE,
    "matcher.fuzzy_match_us": "throughput_rps on serve_hit",
    "matcher.calls_per_request": "throughput_rps on serve_hit",
    "matcher.candidates_per_request": "throughput_rps on serve_hit",
    "ranking.rank_us": "throughput_rps, latency_p50_ms on serve_hit",
    "ranking.kept_ratio": "throughput_rps, latency_p50_ms on serve_hit",
    "generator.generate_us": f"latency_p50_ms on serve_churn; {_OFFLINE}",
    "generator.calls_per_sample": _OFFLINE,
    "pool.load_snapshot_s": "setup_s on every workload",
    "pool.build_index_s": "setup_s on every workload",
    "codebook.train_s": _OFFLINE,
    "codebook.assign_s": _OFFLINE,
    "report.run_eval_s": "throughput_rps, latency_p50_ms on offline_eval",
    "evaluation.bootstrap_ci_s": _OFFLINE,
    "evaluation.bootstrap_ci_calls": _OFFLINE,
    "evaluation.hit_at_1_s": _OFFLINE,
    "evaluation.draw_candidates_us": _OFFLINE,
    **{f"trace.overhead.{m['name']}": f"tracing cost of {m['name']} on every workload"
       for m in END_TO_END},
}


def percentile_ms(seconds: list[float], q: int) -> float:
    """q-th percentile (inclusive method) of durations in seconds, in ms."""
    if len(seconds) < 2:
        return seconds[0] * 1e3
    return statistics.quantiles(seconds, n=100, method="inclusive")[q - 1] * 1e3


def _mean(values, scale: float = 1.0) -> float:
    values = list(values)
    return statistics.fmean(values) * scale if values else 0.0


def _durations(spans, name, scale=1.0):
    return _mean((s.duration for s in spans if s.name == name), scale)


def _infos(spans):
    return [s.info for s in spans if s.info != RAISED]


def empty_layers() -> dict[str, float]:
    return {m["name"]: 0.0 for m in PER_LAYER}


def serve_layers(spans: list[Span], measure_start: float, measure_end: float,
                 k: int, cache_entries: int) -> dict[str, float]:
    """Per-layer metrics of one traced serving run.

    Request-path metrics use spans of requests whose handler started in
    the measured window; enhance-track metrics use runs that started in it.
    """
    out = empty_layers()
    setup = [s for s in spans if s.start < measure_start]
    out["pool.load_snapshot_s"] = _durations(setup, "pool.load_snapshot")
    out["pool.build_index_s"] = _durations(setup, "pool.build_index")
    out["dualtrack.cache_entries"] = float(cache_entries)

    window = [s for s in spans if measure_start <= s.start < measure_end]
    handles = [s for s in window if s.name == "server.handle"]
    if not handles:
        return out
    n = len(handles)
    requests = {s.request_id for s in handles}
    req = [s for s in window if s.request_id in requests]
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in req:
        by_name[s.name].append(s)

    selfs = self_times(req)
    out["server.handle_us"] = _mean((selfs[s.span_id] for s in handles), 1e6)
    out["server.recommend_us"] = _durations(req, "server.recommend", 1e6)
    out["padr.route_us"] = _durations(req, "padr.route", 1e6)
    out["dualtrack.ctx_hash_us"] = _durations(req, "dualtrack.ctx_hash", 1e6)
    gets = by_name["dualtrack.cache_get"]
    out["dualtrack.cache_get_us"] = _durations(gets, "dualtrack.cache_get", 1e6)
    out["dualtrack.cache_hit_ratio"] = sum(s.info is True for s in gets) / len(gets) if gets else 0.0
    out["dualtrack.fast_track_us"] = _durations(req, "dualtrack.fast_track", 1e6)
    merges = by_name["dualtrack.merge_matches"]
    out["dualtrack.merge_us"] = _mean((selfs[s.span_id] for s in merges), 1e6)
    out["dualtrack.merged_per_request"] = sum(_infos(merges)) / n
    out["dualtrack.fallback_cascade_us"] = _durations(req, "dualtrack.fallback_cascade", 1e6)
    served = _infos(by_name["dualtrack.fast_track"])
    for lvl in SERVED_LEVELS:
        out[f"dualtrack.served_from.{lvl}"] = served.count(lvl) / len(served) if served else 0.0

    matches = by_name["matcher.fuzzy_match"]
    out["matcher.fuzzy_match_us"] = _durations(matches, "matcher.fuzzy_match", 1e6)
    out["matcher.calls_per_request"] = len(matches) / n
    out["matcher.candidates_per_request"] = sum(_infos(matches)) / n
    ranks = by_name["ranking.rank"]
    out["ranking.rank_us"] = _durations(ranks, "ranking.rank", 1e6)
    ranked = _infos(ranks)
    out["ranking.kept_ratio"] = sum(min(k, r) for r in ranked) / sum(ranked) if sum(ranked) else 0.0

    schedules = {s.span_id: s for s in by_name["dualtrack.enhance_schedule"]}
    out["dualtrack.enhance_scheduled"] = float(len(schedules))
    runs = [s for s in window if s.name == "dualtrack.enhance_track"]
    out["dualtrack.enhance_completed"] = float(sum(s.end <= measure_end for s in runs))
    waits = [s.start - schedules[s.parent_id].start for s in runs if s.parent_id in schedules]
    out["dualtrack.enhance_queue_wait_ms"] = _mean(waits, 1e3)
    out["dualtrack.enhance_redundant_ratio"] = _redundant_share(runs)
    out["dualtrack.cache_put_us"] = _durations(window, "dualtrack.cache_put", 1e6)
    out["generator.generate_us"] = _durations(window, "generator.generate", 1e6)
    return out


def _redundant_share(runs: list[Span]) -> float:
    """Share of enhance runs whose context already had an installed entry
    or a run in flight when they started. A run's info is
    (context key, installed an entry)."""
    if not runs:
        return 0.0
    by_key: dict[object, list[Span]] = defaultdict(list)
    for s in runs:
        if s.info != RAISED:
            by_key[s.info[0]].append(s)
    redundant = 0
    for group in by_key.values():
        group.sort(key=lambda s: s.start)
        for i, s in enumerate(group):
            redundant += any(p.end > s.start or p.info[1] for p in group[:i])
    return redundant / len(runs)


def offline_layers(spans: list[Span], candidates_evaluated: int) -> dict[str, float]:
    """Per-layer metrics of one traced offline run.

    Evaluation totals are per run_eval call (one shard) and codebook
    totals per training run, so they do not grow with run length.
    """
    out = empty_layers()
    out["pool.load_snapshot_s"] = _durations(spans, "pool.load_snapshot")
    out["pool.build_index_s"] = _durations(spans, "pool.build_index")
    out["padr.route_us"] = _durations(spans, "padr.route", 1e6)
    out["matcher.fuzzy_match_us"] = _durations(spans, "matcher.fuzzy_match", 1e6)
    out["generator.generate_us"] = _durations(spans, "generator.generate", 1e6)
    out["evaluation.draw_candidates_us"] = _durations(spans, "evaluation.draw_candidates", 1e6)
    out["codebook.train_s"] = _durations(spans, "codebook.train_codebook")
    out["codebook.assign_s"] = _durations(spans, "codebook.assign_sids")
    out["report.run_eval_s"] = _durations(spans, "report.run_eval")
    evals = sum(s.name == "report.run_eval" for s in spans)
    if evals:
        boot = [s for s in spans if s.name == "evaluation.bootstrap_ci"]
        out["evaluation.bootstrap_ci_s"] = sum(s.duration for s in boot) / evals
        out["evaluation.bootstrap_ci_calls"] = len(boot) / evals
        out["evaluation.hit_at_1_s"] = sum(
            s.duration for s in spans if s.name == "evaluation.hit_at_1") / evals

    hit_spans = {s.span_id for s in spans if s.name == "evaluation.hit_at_1"}
    parent = {s.span_id: s.parent_id for s in spans}

    def under_hit_at_1(s: Span) -> bool:
        p = s.parent_id
        while p:
            if p in hit_spans:
                return True
            p = parent.get(p, 0)
        return False

    selection_calls = sum(1 for s in spans if s.name == "generator.generate" and under_hit_at_1(s))
    out["generator.calls_per_sample"] = (
        selection_calls / candidates_evaluated if candidates_evaluated else 0.0
    )
    return out
