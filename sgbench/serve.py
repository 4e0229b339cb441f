"""Serving workloads: an HTTP server child driven by the client in this process.

Both run a closed loop with one request in flight (see client.py) over
the fixture's own (user, query) stream (see inputs.py).
serve_hit   cycles through the stream's first requests, every one of whose
            contexts is in the cache before the clock starts.
serve_churn walks the whole stream from its start with an empty cache and
            one enhance worker filling it: a context is new the first
            time the stream reaches it and a cache candidate after that.

An open loop at a fixed rate was tried for serve_churn and dropped: its
idle gaps let the shared host's wake-up delays into the latency. At 200
requests/s its p95 ranged 2.7-19.5 ms over ten seeds; at 150 requests/s
its p50 spread 0.79 (IQR over median) over five seeds.

The server and the client each run on a core of their own, so the load
generator never takes the program's core, and the server's threads hand
the GIL to each other on one core instead of waking each other across
cores. The GIL lets one of them run Python at a time either way. Over
five seeds run in turn with and without it, serve_hit's p50 spread 0.09
pinned and 0.16 unpinned (IQR over median), and both workloads' median
p50 was 12% lower pinned.

Throughput and p50 are medians over requests, so a stall that hits a
few requests moves neither. The whole-run rate and tail (p90-p99, max)
are printed ungated in the record: on the shared host the whole-run
rate spread 0.19-0.45 and the p95 0.77 over five seeds of one commit.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import checks, client, inputs
from .layers import SERVED_LEVELS, percentile_ms
from .proc import Child

PERSONALIZED = ("cache", "enhance")
ENHANCE_WORKERS = 1       # serve_hit schedules no run, so only serve_churn uses it
K = 10                    # articles per reply
SETUPS = 3                # server spawns per run; setup_s is their median
HIT_WARMUP_S = 1.0        # serve_hit: closed loop before the clock starts
CHURN_WARMUP_REQUESTS = 4 # serve_churn: contexts outside the stream, sent first


def _cores() -> tuple[int | None, int | None]:
    """(server core, client core): the first two cores this process may
    use, or no pinning when it has only one."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else (None, None)


@dataclass(frozen=True)
class ServeParams:
    warm_cache: bool              # serve_hit; else serve_churn
    n_articles: int = 163_560
    n_users: int = 2_000


def _spawn(config: dict, workdir: Path, tag: str) -> tuple[Child, dict, float]:
    child = Child("server_child", config, workdir / f"server-{tag}.json")
    try:
        ready = child.expect("READY")
    except BaseException:
        child.close()
        raise
    return child, ready, time.perf_counter() - child.started


def _measure(params: ServeParams, seed: int, seconds: float, trace: bool,
             srv: inputs.ServeInputs, plan, workdir: Path, trace_file: Path, setups: int,
             server_cpu: int | None):
    preinstall = list(dict.fromkeys(plan)) if params.warm_cache else []
    config = {
        "paths": srv.paths, "seed": seed, "k": K, "cpu": server_cpu,
        "enhance_workers": ENHANCE_WORKERS, "preinstall": preinstall,
        "trace": trace, "trace_file": str(trace_file),
    }

    def check(status, body):
        return checks.check_reply(status, body, K, srv.snapshots)

    setup_times = []
    for i in range(setups - 1):
        child, _, elapsed = _spawn(config, workdir, f"probe{i}")
        setup_times.append(elapsed)
        child.close()
    child, ready, elapsed = _spawn(config, workdir, "main")
    setup_times.append(elapsed)
    with child:
        port = ready["port"]
        if params.warm_cache:
            warm = client.closed_loop(port, plan, HIT_WARMUP_S, check)
        else:
            warm = [client.send_one(port, pair, check)
                    for pair in inputs.warmup_pairs(srv, CHURN_WARMUP_REQUESTS)]
            time.sleep(0.5)     # let the warm-up enhance runs finish
        child.send("MEASURE")
        outcomes = client.closed_loop(port, plan, seconds, check)
        child.send("STOP")
        stats = child.expect("STATS")
    return setup_times, ready["phases"], warm, outcomes, stats


def _returning(outcomes: list[client.Outcome]) -> list[client.Outcome]:
    """Outcomes of requests whose context was already sent in the window."""
    seen: set[tuple[str, str]] = set()
    out = []
    for o in outcomes:
        if o.context in seen:
            out.append(o)
        seen.add(o.context)
    return out


def _summarize(outcomes: list[client.Outcome], warm, setup_times, stats) -> tuple[dict, dict]:
    latencies = [o.latency for o in outcomes]
    elapsed = max(o.done for o in outcomes) - min(o.sent for o in outcomes)
    served = Counter(o.served_from for o in outcomes)
    failures = Counter(o.failure for o in (*warm, *outcomes) if o.failure)
    returning = _returning(outcomes)
    # One request in flight: a request's cycle runs from its send to the
    # next send, so the closed loop's rate at the median cycle is
    # 1 / median cycle.
    cycles = [b.sent - a.sent for a, b in zip(outcomes, outcomes[1:])]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput_rps": 1.0 / statistics.median(cycles) if cycles else len(outcomes) / elapsed,
        "latency_p50_ms": percentile_ms(latencies, 50),
        # Over returning contexts only: the share over all replies follows
        # the stream's repeat share, so it would rise with throughput.
        "personalized_share": (sum(o.served_from in PERSONALIZED for o in returning)
                               / len(returning) if returning else 0.0),
        "peak_rss_mb": stats["peak_rss_mb"],
    }
    props = {
        "personalized_share_all": sum(served[s] for s in PERSONALIZED) / len(outcomes),
        "throughput_whole_run_rps": len(outcomes) / elapsed,
        "requests_sent": len(outcomes),
        "requests_succeeded": sum(o.failure is None for o in outcomes),
        "requests_failed": sum(o.failure is not None for o in outcomes),
        "warmup_requests": len(warm),
        "error_rate": sum(failures.values()) / (len(warm) + len(outcomes)),
        "failures": dict(failures),
        "grounding_violations": failures.get(checks.GROUNDING, 0),
        "served_from": {lvl: served[lvl] / len(outcomes) for lvl in SERVED_LEVELS},
        "latency_samples": len(latencies),
        "latency_tail_ms": {**{f"p{q}": percentile_ms(latencies, q) for q in (90, 95, 98, 99)},
                            "max": max(latencies) * 1e3},
        "setup_runs_s": setup_times,
        "cache_entries": stats["cache_entries"],
        "enhance_scheduled": stats["enhance_scheduled"],
    }
    return metrics, props


def run(params: ServeParams, seed: int, seconds: float, trace: bool, workdir: Path,
        trace_file: Path) -> dict:
    srv = inputs.make_serve_inputs(seed, workdir / "inputs", params.n_articles, params.n_users)
    plan = inputs.hit_plan(srv) if params.warm_cache else srv.stream
    allowed = os.sched_getaffinity(0)
    server_cpu, client_cpu = _cores()
    try:
        if client_cpu is not None:
            os.sched_setaffinity(0, {client_cpu})   # inherited by the server until it pins itself
        result = _run_pinned(params, seed, seconds, trace, srv, plan, workdir, trace_file,
                             server_cpu)
    finally:
        os.sched_setaffinity(0, allowed)
    result["params"].update(server_cpu=server_cpu, client_cpu=client_cpu)
    return result


def _run_pinned(params: ServeParams, seed: int, seconds: float, trace: bool,
                srv: inputs.ServeInputs, plan, workdir: Path, trace_file: Path,
                server_cpu: int | None) -> dict:
    setup_times, phases, warm, outcomes, stats = _measure(
        params, seed, seconds, False, srv, plan, workdir, trace_file, SETUPS, server_cpu)
    metrics, props = _summarize(outcomes, warm, setup_times, stats)
    props.update(inputs.plan_properties([o.context for o in outcomes], srv))
    props["stream_cycled"] = len(outcomes) > len(plan) and not params.warm_cache
    props["setup_phases_s"] = phases
    result = {
        "metrics": metrics,
        "attempted": len(warm) + len(outcomes),
        "failed": sum(o.failure is not None for o in (*warm, *outcomes)),
        "properties": props,
        "fixture": srv.spec,
        "params": {**params.__dict__, "seconds": seconds, "k": K,
                   "enhance_workers": ENHANCE_WORKERS, "setups": SETUPS},
    }
    if trace:
        t_setup, _, t_warm, t_outcomes, t_stats = _measure(
            params, seed, seconds, True, srv, plan, workdir, trace_file, 1, server_cpu)
        t_metrics, _ = _summarize(t_outcomes, t_warm, t_setup, t_stats)
        layers = t_stats["layers"]
        layers.update({f"trace.overhead.{m}": t_metrics[m] - metrics[m] for m in metrics})
        result["layers"] = layers
        result["traced_metrics"] = t_metrics
        result["trace"] = {"file": str(trace_file), "spans": t_stats["spans"]}
        result["attempted"] += len(t_warm) + len(t_outcomes)
        result["failed"] += sum(o.failure is not None for o in (*t_warm, *t_outcomes))
    return result
