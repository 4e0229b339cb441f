"""Serving child process: load generated files, serve HTTP, report on exit.

Run as ``python3 -m sgbench.server_child CONFIG.json`` from the repository
root with ``src`` on PYTHONPATH. It talks to the harness one line at a
time:

    child  -> READY {"port": ..., "phases": {...}}
    parent -> MEASURE          (start of the measured window)
    parent -> STOP
    child  -> STATS {...}      (peak RSS, cache size, per-layer metrics)

With "trace" set, library functions are wrapped before anything loads,
spans are kept in memory, and they are written to "trace_file" at STOP.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time

from sidground import dualtrack, padr, pool, server
from sidground.generator import PoolSampledGenerator

from .layers import serve_layers
from .spans import Tracer


def _wrap_serving(tracer: Tracer):
    """Wrap each layer at the attribute its caller resolves at call time."""
    w = tracer.wrap
    w(server._Handler, "do_POST", "server.handle")
    w(server.RecommendService, "recommend", "server.recommend")
    w(server, "route", "padr.route")
    w(server, "fast_track", "dualtrack.fast_track", info=lambda a, kw, r: r.served_from)
    w(server, "build_index", "pool.build_index")
    w(pool, "load_snapshot", "pool.load_snapshot")
    w(dualtrack, "ctx_hash", "dualtrack.ctx_hash")
    w(dualtrack.SIDCache, "get", "dualtrack.cache_get", info=lambda a, kw, r: r is not None)
    w(dualtrack.SIDCache, "put", "dualtrack.cache_put")
    w(dualtrack, "fuzzy_match", "matcher.fuzzy_match", info=lambda a, kw, r: len(r))
    w(dualtrack, "merge_matches", "dualtrack.merge_matches", info=lambda a, kw, r: len(r))
    w(dualtrack, "rank", "ranking.rank", info=lambda a, kw, r: len(a[0]))
    w(dualtrack, "fallback_cascade", "dualtrack.fallback_cascade")


def _wrap_enhance(tracer: Tracer, service, generator):
    """Enhance runs start on worker threads; link each to the request that
    scheduled it so queue wait and redundancy can be measured."""
    links: dict[int, tuple[int, int] | None] = {}
    schedule = service.enhance.schedule

    def schedule_and_link(context):
        links[id(context)] = tracer.current()
        return schedule(context)

    service.enhance.schedule = schedule_and_link
    tracer.wrap(service.enhance, "schedule", "dualtrack.enhance_schedule")
    tracer.wrap(dualtrack, "enhance_track", "dualtrack.enhance_track",
                info=lambda a, kw, r: (hash(a[0].rendered), r is not None),
                link=lambda a, kw: links.pop(id(a[0]), None))
    tracer.wrap(generator, "generate", "generator.generate")


def main(config_path: str) -> int:
    with open(config_path, encoding="utf-8") as f:
        cfg = json.load(f)
    if cfg["cpu"] is not None:      # before any thread starts, so all of them inherit it
        os.sched_setaffinity(0, {cfg["cpu"]})
    tracer = Tracer() if cfg["trace"] else None
    if tracer is not None:
        _wrap_serving(tracer)

    phases = {}
    t = time.perf_counter()
    snapshot = pool.load_snapshot(cfg["paths"]["pool"])
    phases["load_snapshot_s"] = time.perf_counter() - t
    t = time.perf_counter()
    profiles = padr.load_profiles(cfg["paths"]["profiles"])
    histories = padr.load_histories(cfg["paths"]["histories"])
    phases["load_users_s"] = time.perf_counter() - t

    t = time.perf_counter()
    generator = PoolSampledGenerator(snapshot, seed=cfg["seed"])
    service = server.RecommendService(snapshot, profiles, generator, histories=histories,
                                      k=cfg["k"], enhance_workers=cfg["enhance_workers"])
    phases["service_s"] = time.perf_counter() - t
    if tracer is not None:
        _wrap_enhance(tracer, service, generator)

    t = time.perf_counter()
    for user_id, query in cfg["preinstall"]:
        context = padr.route(profiles[user_id], histories[user_id], query, tau=service.tau)
        dualtrack.enhance_track(context, generator, service.cache)
    phases["preinstall_s"] = time.perf_counter() - t

    httpd = server.make_http_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, name="http")
    thread.start()
    print("READY " + json.dumps({"port": httpd.server_address[1], "phases": phases}),
          flush=True)

    measure_start = time.perf_counter()
    for line in sys.stdin:
        if line.strip() == "MEASURE":
            measure_start = time.perf_counter()
        elif line.strip() == "STOP":
            break
    measure_end = time.perf_counter()
    httpd.shutdown()
    thread.join()
    httpd.server_close()
    service.close()

    stats = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cache_entries": len(service.cache),
        "enhance_scheduled": service.enhance.scheduled,
    }
    if tracer is not None:
        tracer.unwrap_all()
        stats["layers"] = serve_layers(tracer.spans, measure_start, measure_end,
                                       k=cfg["k"], cache_entries=len(service.cache))
        stats["spans"] = len(tracer.spans)
        tracer.write(cfg["trace_file"])
    print("STATS " + json.dumps(stats), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
