"""Smoke tests for the benchmark harness itself, at tiny fixture sizes.

Run from the repository root: python3 -m pytest -q sgbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
import threading
import types
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from sgbench import checks, client, serve
from sgbench.layers import END_TO_END, LAYER_EFFECTS, PER_LAYER
from sgbench.spans import RAISED, Tracer, self_times
from sgbench.workloads import WORKLOADS, final_line, run_workload

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

TINY = {
    "serve_hit": dict(n_articles=20_000, n_users=60),
    "serve_churn": dict(n_articles=20_000, n_users=60),
    "offline_eval": dict(n_articles=2_000, n_users=200, n_samples=400, n_vectors=1_100),
}


def test_benchmark_json_names_every_workload_and_layer_effect():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert set(LAYER_EFFECTS) == {m["name"] for m in PER_LAYER}
    names = [m["name"] for m in (*doc["end_to_end"], *doc["per_layer"], *doc["workloads"])]
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_each_workload_runs_checks_and_traces(workload, tmp_path):
    params = dataclasses.replace(WORKLOADS[workload], **TINY[workload])
    trace_file = tmp_path / "trace.jsonl"
    record = run_workload(workload, 7, 1.0, True, tmp_path / "run", trace_file, params=params)

    assert record["correct"], record["properties"]["failures"]
    assert record["attempted"] > 0 and record["failed"] == 0
    metrics = final_line(record, trace=False)["metrics"]
    assert [m["name"] for m in END_TO_END] == list(metrics)
    assert all(v["value"] > 0 for v in metrics.values())
    layers = final_line(record, trace=True)["metrics"]
    assert [m["name"] for m in PER_LAYER] == list(layers)
    assert set(record["machine"]) >= {"nproc", "python", "numpy"}
    assert record["seed"] == 7 and record["fixture"]["seed"] == 7

    spans = [json.loads(line) for line in trace_file.read_text().splitlines()]
    assert spans and set(spans[0]) == {"span_id", "parent_id", "request_id", "name",
                                       "start", "end", "info"}
    lv = {k: v["value"] for k, v in layers.items()}
    if workload == "serve_hit":
        assert lv["dualtrack.cache_hit_ratio"] == 1.0
        assert lv["dualtrack.enhance_scheduled"] == 0.0
        assert lv["ranking.rank_us"] > 0 and lv["matcher.calls_per_request"] > 0
        assert record["properties"]["grounding_violations"] == 0
    elif workload == "serve_churn":
        assert lv["dualtrack.enhance_scheduled"] > 0
        assert lv["dualtrack.fallback_cascade_us"] > 0
        assert lv["dualtrack.served_from.fallback_level_3"] > 0
    else:
        assert lv["generator.calls_per_sample"] == 2.0
        assert lv["evaluation.bootstrap_ci_calls"] > 0 and lv["codebook.train_s"] > 0
        assert len(record["properties"]["report_digest"]) == 64


def _reply(ids, served_from="cache", version=1):
    doc = {"articles": [{"article_id": i} for i in ids], "served_from": served_from,
           "pool_version": version}
    return json.dumps(doc).encode()


def test_check_reply_flags_each_violation():
    snap = {1: frozenset({"a", "b", "c"})}
    assert checks.check_reply(200, _reply(["a", "b"]), 2, snap) == (None, "cache")
    assert checks.check_reply(200, _reply(["a", "zz"]), 2, snap)[0] == checks.GROUNDING
    assert checks.check_reply(200, _reply(["a"]), 2, snap)[0] == "wrong_count"
    assert checks.check_reply(200, _reply(["a", "b"], "oracle"), 2, snap)[0] \
        == "unknown_served_from"
    assert checks.check_reply(200, _reply(["a", "b"], version=2), 2, snap)[0] \
        == "unknown_pool_version"
    assert checks.check_reply(500, b"{}", 2, snap)[0] == "status_500"
    assert checks.check_reply(200, b"not json", 2, snap)[0] == "bad_json"


class _BadServer(BaseHTTPRequestHandler):
    """Replies with an article that is not in the snapshot, or drops the
    connection for user "drop"."""

    def log_message(self, *args):
        pass

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if body["user_id"] == "drop":
            self.close_connection = True
            return
        reply = _reply(["a", "not-in-pool"])
        self.send_response(200)
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)


def test_forced_bad_replies_count_in_error_rate():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _BadServer)
    thread = threading.Thread(target=httpd.serve_forever)
    thread.start()
    try:
        snap = {1: frozenset({"a", "b"})}
        plan = [("u1", "q"), ("drop", "q")]
        outcomes = client.closed_loop(httpd.server_address[1], plan, 0.2,
                                      lambda status, body: checks.check_reply(status, body, 2, snap))
    finally:
        httpd.shutdown()
        thread.join(timeout=10)
        httpd.server_close()
    assert not thread.is_alive()
    assert {o.failure for o in outcomes} == {"connection", checks.GROUNDING}
    _, props = serve._summarize(outcomes, [], [1.0], {"peak_rss_mb": 1.0, "cache_entries": 0,
                                                       "enhance_scheduled": 0})
    assert props["error_rate"] == 1.0
    assert props["grounding_violations"] == sum(o.failure == checks.GROUNDING for o in outcomes)


def test_gated_rate_is_the_median_cycle_and_the_whole_run_rate_is_printed():
    def outcome(sent, latency):
        return client.Outcome(sent, sent + latency, None, "cache", ("u", "q"))

    steady = [outcome(0.002 * i, 0.001) for i in range(100)]
    stalled = steady[:50] + [outcome(0.3 + 0.002 * i, 0.001) for i in range(50)]
    stats = {"peak_rss_mb": 1.0, "cache_entries": 0, "enhance_scheduled": 0}
    m_steady, p_steady = serve._summarize(steady, [], [1.0], stats)
    m_stalled, p_stalled = serve._summarize(stalled, [], [1.0], stats)
    assert m_steady["throughput_rps"] == pytest.approx(500.0)
    assert m_stalled["throughput_rps"] == pytest.approx(500.0)
    assert p_stalled["throughput_whole_run_rps"] < p_steady["throughput_whole_run_rps"]


def test_tracer_nests_links_and_unwraps(tmp_path):
    mod = types.SimpleNamespace(inner=lambda x: x + 1)
    mod.outer = lambda x: mod.inner(x) * 2

    def boom():
        raise ValueError("boom")

    mod.boom = boom
    tracer = Tracer()
    original_inner = mod.inner
    tracer.wrap(mod, "inner", "inner", info=lambda a, kw, r: r)
    tracer.wrap(mod, "outer", "outer")
    tracer.wrap(mod, "boom", "boom", link=lambda a, kw: (99, 7))
    assert mod.outer(1) == 4
    with pytest.raises(ValueError):
        mod.boom()
    inner, outer, raised = tracer.spans
    assert inner.parent_id == outer.span_id and inner.request_id == outer.request_id
    assert outer.parent_id == 0 and inner.info == 2
    assert (raised.parent_id, raised.request_id, raised.info) == (99, 7, RAISED)
    selfs = self_times(tracer.spans)
    assert 0 <= selfs[outer.span_id] <= outer.duration - inner.duration + 1e-9
    tracer.unwrap_all()
    assert mod.inner is original_inner
    tracer.write(tmp_path / "t.jsonl")
    assert len((tmp_path / "t.jsonl").read_text().splitlines()) == 3


def test_check_report_flags_broken_invariants():
    good = {
        "n_samples": 3, "intent_counts": {"next_item": 2, "candidate_selection": 1},
        "open_generation": {"l1_match": {"point": 0.5, "ci_lo": 0.0, "ci_hi": 1.0, "n": 2}},
        "hit_at_1": {"rand": {"rate": 1.0, "ci_lo": 1.0, "ci_hi": 1.0, "n_evaluated": 1},
                     "align": {"rate": 1.0, "ci_lo": 1.0, "ci_hi": 1.0, "n_evaluated": 1}},
        "per_task": [],
    }
    assert checks.check_report(good, 3, 2, 1) == []
    bad = json.loads(json.dumps(good))
    bad["open_generation"]["l1_match"]["ci_lo"] = 0.6
    bad["hit_at_1"]["align"]["n_evaluated"] = 0
    assert len(checks.check_report(bad, 3, 2, 1)) == 2
    assert checks.check_report(good, 4, 2, 1)


def test_run_fails_without_the_program_sources(tmp_path):
    (tmp_path / "sgbench").mkdir()
    for f in (ROOT / "sgbench").glob("*.py"):
        (tmp_path / "sgbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    out = subprocess.run([sys.executable, "sgbench/run.py", "--workload", "serve_hit",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
