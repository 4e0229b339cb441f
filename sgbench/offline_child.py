"""Offline child process: data load, codebook train/assign, sharded run_eval.

Run as ``python3 -m sgbench.offline_child CONFIG.json`` from the
repository root with ``src`` on PYTHONPATH. Prints one line,
``RESULT {json}``, with the timings, the check failures and a digest of
every report so two commits can be compared bit for bit.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from sidground import codebook, evaluation, padr, pool, report
from sidground.evaluation import INTENT_CANDIDATE_SELECTION, OPEN_GENERATION_INTENTS
from sidground.generator import HistPopGenerator

from .checks import check_report, check_sids, digest
from .layers import offline_layers
from .spans import Tracer


def _wrap_offline(tracer: Tracer):
    """Wrap each layer at the attribute its caller resolves at call time."""
    w = tracer.wrap
    w(pool, "load_snapshot", "pool.load_snapshot")
    w(codebook, "train_codebook", "codebook.train_codebook")
    w(codebook, "assign_sids", "codebook.assign_sids")
    w(report, "run_eval", "report.run_eval")
    w(report, "build_index", "pool.build_index")
    w(report, "route", "padr.route")
    w(report, "bootstrap_ci", "evaluation.bootstrap_ci")
    w(evaluation, "bootstrap_ci", "evaluation.bootstrap_ci")
    w(report, "hit_at_1", "evaluation.hit_at_1")
    w(evaluation, "draw_candidates", "evaluation.draw_candidates")
    w(evaluation, "fuzzy_match", "matcher.fuzzy_match")


def _load(paths: dict):
    return (
        pool.load_snapshot(paths["pool"]),
        padr.load_profiles(paths["profiles"]),
        padr.load_histories(paths["histories"]),
        evaluation.load_samples(paths["samples"]),
        codebook.load_embedding_corpus(paths["embeddings"])[1],
    )


def main(config_path: str) -> int:
    with open(config_path, encoding="utf-8") as f:
        cfg = json.load(f)
    tracer = Tracer() if cfg["trace"] else None
    if tracer is not None:
        _wrap_offline(tracer)

    load_times, data = [], None
    for _ in range(cfg["loads"]):
        data = None     # drop the previous copy so peak RSS holds one
        t = time.perf_counter()
        data = _load(cfg["paths"])
        load_times.append(time.perf_counter() - t)
    snapshot, profiles, histories, samples, vectors = data

    codebook_runs, sid_digests = [], set()
    for _ in range(cfg["codebook_runs"]):
        t = time.perf_counter()
        book = codebook.train_codebook(vectors, layer_sizes=cfg["layer_sizes"], seed=cfg["seed"])
        sids = codebook.assign_sids(book, vectors)
        codebook_runs.append(time.perf_counter() - t)
        sid_digests.add(digest([list(s) for s in sids]))
    failures = {"codebook": check_sids(sids, len(vectors), cfg["layer_sizes"])}
    if len(sid_digests) != 1:
        failures["codebook"].append("retraining on the same input changed the SIDs")

    # Shards are evaluated round-robin until the time is up, each at least
    # once; a repeated shard must reproduce its first report bit for bit.
    generator = HistPopGenerator()
    if tracer is not None:
        tracer.wrap(generator, "generate", "generator.generate")
    n = cfg["shards"]
    shards = [samples[i::n] for i in range(n)]
    shard_s, digests = [], []
    n_open = n_personalized = candidates_evaluated = 0
    deadline = time.perf_counter() + cfg["seconds"]
    while len(shard_s) < n or time.perf_counter() < deadline:
        rnd, i = divmod(len(shard_s), n)
        shard = shards[i]
        t = time.perf_counter()
        rep = report.run_eval(shard, snapshot, generator, profiles, histories,
                              seed=cfg["seed"], resamples=cfg["resamples"])
        shard_s.append(time.perf_counter() - t)
        record = rep.to_record()
        selected = sum(s.intent == INTENT_CANDIDATE_SELECTION for s in shard)
        candidates_evaluated += selected
        run = f"shard{i}.run{rnd}"
        if rnd == 0:
            opened = sum(s.intent in OPEN_GENERATION_INTENTS for s in shard)
            failures[run] = check_report(record, len(shard), opened, selected)
            digests.append(digest(record))
            n_open += opened
            n_personalized += round(opened * (1.0 - record["empty_generation_rate"]))
        elif digest(record) != digests[i]:
            failures[run] = ["report changed on repeat"]

    result = {
        "load_s": load_times,
        "codebook_s": codebook_runs,
        "shard_s": shard_s,
        "samples": len(samples),
        "open_samples": n_open,
        "personalized_samples": n_personalized,
        "candidate_samples": sum(s.intent == INTENT_CANDIDATE_SELECTION for s in samples),
        "failures": {k: v for k, v in failures.items() if v},
        "failed_units": sum(bool(v) for v in failures.values()),
        "units": 1 + len(shard_s),
        "sid_digest": sid_digests.pop(),
        "report_digest": digest(digests),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.unwrap_all()
        result["layers"] = offline_layers(tracer.spans, candidates_evaluated)
        result["spans"] = len(tracer.spans)
        tracer.write(cfg["trace_file"])
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
