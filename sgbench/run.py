"""Run one benchmark workload and print its metrics.

    python3 sgbench/run.py --workload serve_hit --seed 1 --seconds 15 --trace 0

Workloads: serve_hit, serve_churn, offline_eval (see sgbench/README.md).
With --trace 0 the last line of stdout is a JSON object holding every
end-to-end metric; with --trace 1 it holds every per-layer metric from a
traced run, made after an untraced one so that the tracing overhead can
be reported. The full record (machine facts, fixture parameters, workload
properties, check failures) is printed before it and kept under
.sgbench/results/. Exit status 0 means a result was printed; its
"correct" field says whether every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".sgbench"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "sidground").is_dir():
        print(f"sgbench: no sidground sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]     # in place of sgbench/ itself
    from sgbench.workloads import WORKLOADS, final_line, run_workload

    if args.workload not in WORKLOADS:
        print(f"sgbench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("sgbench: --seconds must be > 0", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = WORK / "runs" / tag
    workdir.mkdir(parents=True, exist_ok=True)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              workdir, WORK / "traces" / f"{tag}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(json.dumps(final_line(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
