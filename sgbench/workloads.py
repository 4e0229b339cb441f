"""The named workloads and the JSON result line printed last."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy

from . import offline, serve
from .layers import END_TO_END, LAYER_EFFECTS, PER_LAYER

WORKLOADS = {
    # Warm cache: match + rank + JSON carry every request.
    "serve_hit": serve.ServeParams(warm_cache=True),
    # Empty cache, one enhance worker: misses hash, fall back and schedule
    # generator runs beside the reads.
    "serve_churn": serve.ServeParams(warm_cache=False),
    # No server: data load, codebook train/assign, sharded run_eval.
    "offline_eval": offline.OfflineParams(),
}


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 trace_file: Path, params=None) -> dict:
    params = params if params is not None else WORKLOADS[name]
    runner = offline.run if isinstance(params, offline.OfflineParams) else serve.run
    record = runner(params, seed, seconds, trace, workdir, trace_file)
    record.update(workload=name, seed=seed, trace=trace, machine=machine_facts())
    record["correct"] = record["failed"] == 0
    if trace:
        record["layer_effects"] = LAYER_EFFECTS
    return record


def final_line(record: dict, trace: bool) -> dict:
    values = record["layers"] if trace else record["metrics"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in (PER_LAYER if trace else END_TO_END)},
    }
