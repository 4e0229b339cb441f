import json
import runpy
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_summary.py"
MACHINE = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "machine": "x86_64"}


@pytest.fixture(scope="module")
def bench_summary():
    return runpy.run_path(str(SCRIPT))


def record(seed, rps, workload="serve_hit", seconds=15.0, layers=None):
    rec = {"workload": workload, "seed": seed, "machine": MACHINE,
           "params": {"seconds": seconds}, "attempted": 100, "failed": 0,
           "metrics": {"throughput_rps": rps, "setup_s": 5.0}}
    if layers is not None:
        rec["layers"] = layers
    return rec


def write(results: Path, records):
    results.mkdir(exist_ok=True)
    for i, rec in enumerate(records):
        (results / f"r{i}.json").write_text(json.dumps(rec))


def test_median_and_iqr_per_workload(bench_summary, tmp_path):
    write(tmp_path / "res", [record(1, 100.0), record(2, 300.0, layers={"ranking.rank_us": 4.0}),
                             record(3, 200.0), record(4, 400.0),
                             record(1, 7.0, workload="offline_eval")])
    assert bench_summary["main"](["--results", str(tmp_path / "res"), "--out", str(tmp_path),
                                  "--commit", "abc"]) == 0
    doc = json.loads((tmp_path / "BENCH_serve_hit.json").read_text())
    (entry,) = doc["entries"]
    assert entry["commit"] == "abc" and entry["machine"] == MACHINE and entry["seconds"] == 15.0
    assert entry["seeds"] == [1, 2, 3, 4] and entry["attempted"] == 400 and entry["failed"] == 0
    assert entry["metrics"]["throughput_rps"] == {
        "median": 250.0, "q1": 175.0, "q3": 325.0, "iqr": 150.0, "runs": 4}
    assert entry["layers"]["ranking.rank_us"]["median"] == 4.0
    assert (tmp_path / "BENCH_offline_eval.json").exists()


def test_tail_and_setup_phases_summarised_ungated(bench_summary, tmp_path):
    runs = []
    for seed, (p99, worst, load) in enumerate([(2.0, 250.0, 1.5), (3.0, 30.0, 2.5),
                                               (4.0, 20.0, 2.0)], start=1):
        rec = record(seed, 100.0)
        rec["properties"] = {"latency_tail_ms": {"p90": 1.0, "p99": p99, "max": worst},
                             "setup_phases_s": {"load_snapshot_s": load}}
        runs.append(rec)
    write(tmp_path / "res", runs + [record(1, 7.0, workload="offline_eval")])
    bench_summary["main"](["--results", str(tmp_path / "res"), "--out", str(tmp_path),
                           "--commit", "abc"])
    (entry,) = json.loads((tmp_path / "BENCH_serve_hit.json").read_text())["entries"]
    assert set(entry["ungated"]) == {"latency_tail_ms.p99", "latency_tail_ms.max",
                                     "setup_phases_s.load_snapshot_s"}
    assert entry["ungated"]["latency_tail_ms.max"] == {
        "median": 30.0, "q1": 25.0, "q3": 140.0, "iqr": 115.0, "runs": 3}
    assert entry["ungated"]["setup_phases_s.load_snapshot_s"]["median"] == 2.0
    assert "throughput_rps" in entry["metrics"] and "latency_tail_ms.max" not in entry["metrics"]
    (offline,) = json.loads((tmp_path / "BENCH_offline_eval.json").read_text())["entries"]
    assert offline["ungated"] == {}


def test_same_commit_replaced_other_kept(bench_summary, tmp_path):
    write(tmp_path / "a", [record(1, 100.0)])
    write(tmp_path / "b", [record(1, 200.0)])
    for results, commit in (("a", "parent"), ("b", "change"), ("b", "parent")):
        bench_summary["main"](["--results", str(tmp_path / results), "--out", str(tmp_path),
                               "--commit", commit])
    doc = json.loads((tmp_path / "BENCH_serve_hit.json").read_text())
    assert [(e["commit"], e["metrics"]["throughput_rps"]["median"]) for e in doc["entries"]] \
        == [("change", 200.0), ("parent", 200.0)]


def test_mixed_run_lengths_refused(bench_summary, tmp_path):
    write(tmp_path / "res", [record(1, 100.0), record(2, 100.0, seconds=5.0)])
    with pytest.raises(SystemExit, match="run length"):
        bench_summary["main"](["--results", str(tmp_path / "res"), "--out", str(tmp_path),
                               "--commit", "x"])
