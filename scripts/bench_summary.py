#!/usr/bin/env python3
"""Summarise sgbench records into committed BENCH_<workload>.json files.

Reads the records `python3 sgbench/run.py` keeps under .sgbench/results/
and, for each workload found, writes one entry into BENCH_<workload>.json:
the commit measured, the machine facts the records stamp, the seeds, and
the median and quartiles over runs of every end-to-end metric (and of
every per-layer metric, over the traced runs). Under "ungated" it adds
two serving properties that no gate reads: the latency tail
(latency_tail_ms p99 and max) and the setup phases (setup_phases_s).
An entry for the same commit is replaced and any other entry is kept,
so the files hold the trajectory of the numbers across commits.

    python3 scripts/bench_summary.py [--results DIR] [--out DIR] [--commit NAME]

--commit defaults to `git describe --always --dirty --abbrev=40` in the
current directory: a sha, with "-dirty" for uncommitted changes on top of
it. Pass it explicitly for records made in a checkout without git.
Records of one workload must come from one machine and one run length.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path


def spread(values: list[float]) -> dict:
    """Median, quartiles and IQR (inclusive quartiles; one run gives IQR 0)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": len(values)}


def ungated(record: dict) -> dict:
    """The record's latency tail (p99, max) and setup phases, by name."""
    props = record.get("properties", {})
    tail = props.get("latency_tail_ms", {})
    return {**{f"latency_tail_ms.{q}": tail[q] for q in ("p99", "max") if q in tail},
            **{f"setup_phases_s.{phase}": s
               for phase, s in props.get("setup_phases_s", {}).items()}}


def summarise(records: list[dict], commit: str) -> dict:
    setups = {json.dumps([r["machine"], r["params"]["seconds"]], sort_keys=True) for r in records}
    if len(setups) > 1:
        raise SystemExit(f"bench_summary: {records[0]['workload']} records differ in machine "
                         f"or run length: {sorted(setups)}")

    def spreads(pick) -> dict:
        values = defaultdict(list)
        for r in records:
            for name, v in pick(r).items():
                if isinstance(v, (int, float)):
                    values[name].append(float(v))
        return {name: spread(vs) for name, vs in sorted(values.items())}

    return {
        "commit": commit,
        "machine": records[0]["machine"],
        "seconds": records[0]["params"]["seconds"],
        "seeds": sorted(r["seed"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": spreads(lambda r: r.get("metrics", {})),
        "layers": spreads(lambda r: r.get("layers", {})),
        "ungated": spreads(ungated),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--results", type=Path, default=Path(".sgbench/results"))
    p.add_argument("--out", type=Path, default=Path("."))
    p.add_argument("--commit")
    args = p.parse_args(argv)
    commit = args.commit or subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=40"],
        capture_output=True, text=True, check=True).stdout.strip()

    by_workload = defaultdict(list)
    for path in sorted(args.results.glob("*.json")):
        record = json.loads(path.read_text())
        by_workload[record["workload"]].append(record)
    if not by_workload:
        print(f"bench_summary: no records under {args.results}", file=sys.stderr)
        return 2

    for workload, records in sorted(by_workload.items()):
        out = args.out / f"BENCH_{workload}.json"
        doc = json.loads(out.read_text()) if out.exists() else {"workload": workload, "entries": []}
        entry = summarise(records, commit)
        doc["entries"] = [e for e in doc["entries"] if e["commit"] != commit] + [entry]
        out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"{out}: {commit}, {len(records)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
