"""offline_eval: the offline path in a child process, no server.

The child loads the generated files LOADS times (setup_s is the
median), trains and assigns a codebook on the fixture embeddings
CODEBOOK_RUNS times, then runs run_eval with HistPopGenerator on SHARDS
round-robin shards of the eval samples, the way an evaluation is split
across jobs, cycling through the shards for `seconds`. Every shard has
the same intent mix, so shard times are comparable: latency is the time
of one shard, and throughput is samples per second of one offline pass
(one codebook build plus every shard once) at median step times.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from pathlib import Path

from . import inputs
from .layers import percentile_ms
from .proc import Child

RESULT_TIMEOUT_S = 170.0
RESAMPLES = 2_000         # bootstrap resamples per run_eval
SHARDS = 10
LOADS = 3                 # data loads per run; setup_s is their median
CODEBOOK_RUNS = 3


@dataclass(frozen=True)
class OfflineParams:
    n_articles: int = 20_000
    n_users: int = 4_000
    n_samples: int = 20_000
    n_vectors: int = 5_000


def _child_run(params: OfflineParams, data: inputs.OfflineInputs, seed: int, seconds: float,
               trace: bool, workdir: Path, trace_file: Path) -> dict:
    config = {
        "paths": data.paths, "seed": seed, "layer_sizes": data.spec["layer_sizes"],
        "loads": 1 if trace else LOADS,
        "codebook_runs": 1 if trace else CODEBOOK_RUNS,
        "shards": SHARDS, "resamples": RESAMPLES, "seconds": seconds,
        "trace": trace, "trace_file": str(trace_file),
    }
    with Child("offline_child", config, workdir / "offline.json") as child:
        return child.expect("RESULT", timeout=RESULT_TIMEOUT_S)


def _pass_s(out: dict) -> float:
    """One offline pass at median step times: a codebook build, every shard once."""
    return statistics.median(out["codebook_s"]) + SHARDS * statistics.median(out["shard_s"])


def _metrics(out: dict) -> dict:
    return {
        "setup_s": statistics.median(out["load_s"]),
        "throughput_rps": out["samples"] / _pass_s(out),
        "latency_p50_ms": percentile_ms(out["shard_s"], 50),
        "personalized_share": out["personalized_samples"] / out["open_samples"],
        "peak_rss_mb": out["peak_rss_mb"],
    }


def run(params: OfflineParams, seed: int, seconds: float, trace: bool, workdir: Path,
        trace_file: Path) -> dict:
    data = inputs.make_offline_inputs(seed, workdir / "inputs", params.n_articles,
                                      params.n_users, params.n_samples, params.n_vectors)
    out = _child_run(params, data, seed, seconds, False, workdir, trace_file)
    metrics = _metrics(out)
    result = {
        "metrics": metrics,
        "attempted": out["units"],
        "failed": out["failed_units"],
        "properties": {
            "offline_pass_s": _pass_s(out),
            "codebook_runs_s": out["codebook_s"],
            "shard_runs_s": out["shard_s"],
            "shard_p95_ms": percentile_ms(out["shard_s"], 95),
            "setup_runs_s": out["load_s"],
            "samples": out["samples"],
            "candidate_selection_samples": out["candidate_samples"],
            "error_rate": out["failed_units"] / out["units"],
            "failures": out["failures"],
            "report_digest": out["report_digest"],
            "sid_digest": out["sid_digest"],
        },
        "fixture": data.spec,
        "params": {**params.__dict__, "seconds": seconds, "resamples": RESAMPLES,
                   "shards": SHARDS, "loads": LOADS, "codebook_runs": CODEBOOK_RUNS},
    }
    if trace:
        t_out = _child_run(params, data, seed, seconds, True, workdir, trace_file)
        t_metrics = _metrics(t_out)
        layers = t_out["layers"]
        layers.update({f"trace.overhead.{m}": t_metrics[m] - metrics[m] for m in metrics})
        result["layers"] = layers
        result["traced_metrics"] = t_metrics
        result["trace"] = {"file": str(trace_file), "spans": t_out["spans"]}
        result["attempted"] += t_out["units"]
        result["failed"] += t_out["failed_units"]
        if t_out["report_digest"] != out["report_digest"]:
            result["failed"] += 1
            result["properties"]["failures"]["traced_digest"] = ["traced run changed the report"]
    return result
