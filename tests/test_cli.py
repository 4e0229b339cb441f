import json
from collections import Counter

import pytest

from sidground.cli import dispatch
from sidground.config import Config, resolve_config
from sidground.dualtrack import TrackMetrics


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("fx")
    spec = {
        "seed": 9, "n_articles": 600, "n_users": 80, "n_samples": 240,
        "embeddings": True, "embedding_cap": 600, "dim": 16,
    }
    spec_path = outdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code = dispatch(["eval", "fixture", "--spec", str(spec_path), "--out", str(outdir)])
    assert code == 0
    return outdir


class TestConfig:
    def test_defaults_match_tuned_values(self):
        cfg = Config()
        assert (cfg.delta, cfg.k, cfg.tau, cfg.lam) == (5, 10, 10, 0.1)
        assert cfg.ttl_seconds == 86_400
        assert cfg.layer_sizes == (32, 64, 128, 1024)

    def test_precedence_flag_over_file_over_default(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"delta": 7, "k": 20}))
        cfg = resolve_config(flags={"delta": 9}, config_path=path, env={})
        assert cfg.delta == 9      # flag wins
        assert cfg.k == 20         # file beats default
        assert cfg.tau == 10       # default

    @pytest.mark.parametrize("knob,file_value,flag_value", [
        ("delta", 7, 9),
        ("k", 20, 15),
        ("tau", 12, 8),
        ("lam", 0.3, 0.2),
        ("ttl_seconds", 3600, 7200),
        ("layer_sizes", [16, 16, 16, 16], (8, 8, 8, 8)),
        ("seed", 1, 2),
        ("resamples", 500, 800),
        ("port", 1111, 2222),
        ("data_dir", "/a", "/b"),
    ])
    def test_precedence_every_knob(self, tmp_path, knob, file_value, flag_value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({knob: file_value}))
        from_file = resolve_config(flags={}, config_path=path, env={})
        want_file = tuple(file_value) if knob == "layer_sizes" else file_value
        assert getattr(from_file, knob) == want_file
        from_flag = resolve_config(flags={knob: flag_value}, config_path=path, env={})
        assert getattr(from_flag, knob) == flag_value
        assert getattr(Config(), knob) != want_file   # file value really overrode

    def test_env_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"port": 1111, "seed": 5}))
        env = {"SIDGROUND_PORT": "2222", "SIDGROUND_SEED": "7", "SIDGROUND_DATA_DIR": "/d"}
        cfg = resolve_config(flags={}, config_path=path, env=env)
        assert cfg.port == 2222 and cfg.seed == 7 and cfg.data_dir == "/d"
        cfg = resolve_config(flags={"port": 3333}, config_path=path, env=env)
        assert cfg.port == 3333    # flag still beats env

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bogus": 1}))
        code = dispatch(["--config", str(path), "match", "--index", "x", "--prefix", "1,2,3"])
        assert code == 2

    def test_data_dir_resolves_relative_paths(self, fixture_dir, capsys, monkeypatch):
        monkeypatch.setenv("SIDGROUND_DATA_DIR", str(fixture_dir))
        doc = run_json(capsys, "match", "--index", "pool.jsonl", "--prefix", "1,1,1")
        assert "results" in doc


# Each bad input: the content of the file "{doc}" (None: no file), the argv
# ("{fx}" is the fixture directory, "{tmp}" a scratch directory) and a
# phrase the error line must hold.
_CONFIG_MATCH = ["--config", "{doc}", "match", "--index", "{fx}/pool.jsonl", "--prefix", "1,1,1"]
_GEN = ["gen", "run", "--generator", "random", "--context", "{doc}"]
_SPEC = ["eval", "fixture", "--spec", "{doc}", "--out", "{tmp}/out"]
_TRAIN = ["codebook", "train", "--corpus", "{doc}", "--layers", "4,4,4,4",
          "--out", "{tmp}/book.json"]
_ASSIGN = ["codebook", "assign", "--codebook", "{doc}", "--corpus", "{fx}/embeddings.jsonl",
           "--out", "{tmp}/sids.jsonl"]
BAD_INPUTS = {
    "gen_context_bad_json": ("{nope", _GEN, "bad JSON"),
    "gen_context_not_object": ("[1,2]", _GEN, "expected a JSON object"),
    "gen_context_float_tau": ('{"profile": {"user_id": "u"}, "tau": 2.7}', _GEN, "2.7"),
    "gen_context_string_tau": ('{"profile": {"user_id": "u"}, "tau": "3"}', _GEN,
                               "tau from the context file"),
    "gen_context_bool_tau": ('{"profile": {"user_id": "u"}, "tau": true}', _GEN,
                             "tau from the context file"),
    # str() would route the query 'None' and name the sample '7'.
    "gen_context_null_query": ('{"profile": {"user_id": "u"}, "query": null}', _GEN,
                               "query must be a string"),
    "gen_context_int_sample_id": ('{"profile": {"user_id": "u"}, "sample_id": 7}', _GEN,
                                  "sample_id must be a string"),
    "spec_bad_json": ("{nope", _SPEC, "bad JSON"),
    "spec_string_int": ('{"n_articles": "x"}', _SPEC, "n_articles"),
    "spec_short_layer_sizes": ('{"layer_sizes": [1,2]}', _SPEC, "layer_sizes"),
    "spec_not_object": ("[1,2]", _SPEC, "expected a JSON object"),
    "spec_zero_dim": ('{"dim": 0, "n_articles": 50, "n_users": 10, "n_samples": 20}', _SPEC,
                      "dim >= 1"),
    "spec_samples_without_users": ('{"n_users": 0, "n_samples": 5}', _SPEC, "n_users >= 1"),
    "train_zero_dim_corpus": ("".join(f'{{"id": "a{i}", "embedding": []}}\n' for i in range(8)),
                              _TRAIN, "nonempty vectors"),
    "split_bad_cutoff": (None, ["pool", "split", "--in", "{fx}/pool.jsonl",
                                "--cutoff", "notadate", "--train-out", "{tmp}/a.jsonl",
                                "--test-out", "{tmp}/b.jsonl"], "--cutoff"),
    "match_bad_deltas": (None, ["match", "--index", "{fx}/pool.jsonl", "--prefix", "1,1,1",
                                "--deltas", "a,b"], "--deltas"),
    "train_bad_layers": (None, ["codebook", "train", "--corpus", "{fx}/embeddings.jsonl",
                                "--layers", "a,b,c,d", "--out", "{tmp}/book.json"],
                         "layer_sizes"),
    "config_string_k": ('{"k": "abc"}', _CONFIG_MATCH, "k from the config file"),
    "config_int_layer_sizes": ('{"layer_sizes": 5}', _CONFIG_MATCH, "layer_sizes"),
    "config_null_delta": ('{"delta": null}', _CONFIG_MATCH, "delta"),
    "config_float_k": ('{"k": 2.7}', _CONFIG_MATCH, "2.7"),
    "config_not_object": ("[1,2]", _CONFIG_MATCH, "expected a JSON object"),
    "codebook_not_object": ("[1,2]", _ASSIGN, "expected a JSON object"),
    "codebook_no_layer_sizes": (
        json.dumps({"format": "sidground-codebook", "format_version": 1}), _ASSIGN,
        "missing field 'layer_sizes'"),
}


class TestBadInput:
    """Every bad setting or document at the CLI boundary is a data error:
    exit 2 and one `sidground: error:` line, never a traceback."""

    @pytest.mark.parametrize("name", list(BAD_INPUTS))
    def test_exits_2_with_error_line(self, fixture_dir, tmp_path, capsys, name):
        content, argv, phrase = BAD_INPUTS[name]
        doc = tmp_path / "doc.json"
        if content is not None:
            doc.write_text(content)
        argv = [a.format(doc=doc, fx=fixture_dir, tmp=tmp_path) for a in argv]
        code = dispatch(argv)
        err = capsys.readouterr().err
        assert code == 2, err
        assert "Traceback" not in err
        lines = [line for line in err.splitlines() if line.startswith("sidground: error:")]
        assert len(lines) == 1 and phrase in lines[0], err

    def test_flag_beats_config_file(self, fixture_dir, tmp_path, capsys):
        pool_jsonl = str(fixture_dir / "pool.jsonl")
        buckets = Counter(tuple(json.loads(line)["sid"][:2]) for line in open(pool_jsonl))
        (s1, s2), _ = buckets.most_common(1)[0]
        s3 = 64
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"k": 20}))
        argv = ["--config", str(path), "match", "--index", pool_jsonl,
                "--prefix", f"{s1},{s2},{s3}", "--delta", "127"]
        assert run_json(capsys, *argv)["k"] == 20
        doc = run_json(capsys, *argv, "--k", "3")
        assert doc["k"] == 3 and len(doc["results"]) == 3


class TestDispatchBasics:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["--help"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("argv", [
        ["codebook", "--help"], ["codebook", "train", "--help"],
        ["pool", "--help"], ["pool", "split", "--help"],
        ["match", "--help"], ["padr", "route", "--help"],
        ["gen", "run", "--help"], ["rank", "--help"],
        ["serve", "--help"], ["bench", "--help"],
        ["eval", "--help"], ["eval", "run", "--help"],
    ])
    def test_help_on_every_level(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(argv)
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out.lower()

    def test_no_command_prints_help(self, capsys):
        code, out = run(capsys)
        assert code == 0 and "codebook" in out

    def test_unknown_flag_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            dispatch(["match", "--nonsense"])
        assert exc.value.code == 1

    def test_unknown_subcommand_suggests(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dispatch(["matcch"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "did you mean" in err and "match" in err

    def test_missing_file_exit_2(self, capsys):
        code, _ = run(capsys, "pool", "ingest", "--in", "/no/such/file", "--out", "/tmp/x")
        assert code == 2


class TestPipeline:
    def test_codebook_commands(self, fixture_dir, capsys, tmp_path):
        emb = str(fixture_dir / "embeddings.jsonl")
        book = str(tmp_path / "book.json")
        doc = run_json(capsys, "codebook", "train", "--corpus", emb,
                       "--layers", "16,8,8,8", "--seed", "3", "--out", book)
        assert doc["layer_sizes"] == [16, 8, 8, 8]
        assigned = str(tmp_path / "sids.jsonl")
        doc = run_json(capsys, "codebook", "assign", "--codebook", book,
                       "--corpus", emb, "--out", assigned)
        assert doc["assigned"] == 600
        doc = run_json(capsys, "codebook", "stats", "--codebook", book, "--corpus", emb)
        assert len(doc["occupancy"]) == 4
        err = doc["reconstruction_error"]
        assert err[0] >= err[1] >= err[2] >= err[3]

    def test_pool_ingest_refresh_split(self, fixture_dir, capsys, tmp_path):
        pool_jsonl = str(fixture_dir / "pool.jsonl")
        snap = str(tmp_path / "snap.jsonl")
        doc = run_json(capsys, "pool", "ingest", "--in", pool_jsonl, "--out", snap)
        assert doc["articles"] == 600 and doc["version"] == 1

        remove = tmp_path / "remove.txt"
        first_id = json.loads(open(pool_jsonl).readline())["id"]
        remove.write_text(first_id + "\n")
        snap2 = str(tmp_path / "snap2.jsonl")
        doc = run_json(capsys, "pool", "refresh", "--base", snap,
                       "--remove", str(remove), "--out", snap2)
        assert doc["articles"] == 599 and doc["version"] == 2

        doc = run_json(capsys, "pool", "split", "--in", snap,
                       "--cutoff", "1699990000",
                       "--train-out", str(tmp_path / "train.jsonl"),
                       "--test-out", str(tmp_path / "test.jsonl"))
        assert doc["train"]["articles"] + doc["test"]["articles"] == 600

    def test_match_and_grid(self, fixture_dir, capsys, tmp_path):
        pool_jsonl = str(fixture_dir / "pool.jsonl")
        first = json.loads(open(pool_jsonl).readline())
        s1, s2, s3, _ = first["sid"]
        doc = run_json(capsys, "match", "--index", pool_jsonl,
                       "--prefix", f"{s1},{s2},{s3}", "--delta", "5", "--k", "10")
        assert doc["results"]
        assert doc["results"][0]["score"] <= 1.0
        doc = run_json(capsys, "match", "--index", pool_jsonl,
                       "--prefix", f"{s1},{s2},{s3}", "--deltas", "1,3,5")
        means = [row["mean_candidates"] for row in doc["grid"]]
        assert means == sorted(means)

    def test_padr_route(self, fixture_dir, capsys):
        doc = run_json(capsys, "padr", "route",
                       "--profile", str(fixture_dir / "profiles.jsonl"),
                       "--history", str(fixture_dir / "histories.jsonl"),
                       "--query", "recommend news", "--tau", "10")
        assert doc["path"] in ("warm", "hybrid", "cold")
        assert "QUERY" in doc["rendered"]

    def test_gen_run(self, fixture_dir, capsys, tmp_path):
        profile = json.loads(open(fixture_dir / "profiles.jsonl").readline())
        ctx_file = tmp_path / "ctx.json"
        ctx_file.write_text(json.dumps({"profile": profile, "clicks": [],
                                        "query": "recommend news"}))
        doc = run_json(capsys, "gen", "run", "--generator", "random",
                       "--context", str(ctx_file), "--seed", "3")
        assert len(doc["prefixes"]) == 10
        doc = run_json(capsys, "gen", "run", "--generator", "profile",
                       "--context", str(ctx_file), "--pool",
                       str(fixture_dir / "pool.jsonl"))
        assert doc["path"] == "cold"

    def test_rank(self, fixture_dir, capsys):
        pool_jsonl = str(fixture_dir / "pool.jsonl")
        first = json.loads(open(pool_jsonl).readline())
        s1, s2, s3, _ = first["sid"]
        doc = run_json(capsys, "rank", "--index", pool_jsonl,
                       "--profile", str(fixture_dir / "profiles.jsonl"),
                       "--prefix", f"{s1},{s2},{s3}", "--delta", "5", "--k", "5",
                       "--lambda", "0.1")
        assert doc["results"]
        scores = [r["final_score"] for r in doc["results"]]
        assert scores == sorted(scores, reverse=True)

    def test_eval_run_histpop_smoke(self, fixture_dir, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, text = run(capsys, "eval", "run",
                         "--samples", str(fixture_dir / "samples.jsonl"),
                         "--pool", str(fixture_dir / "pool.jsonl"),
                         "--generator", "histpop",
                         "--profiles", str(fixture_dir / "profiles.jsonl"),
                         "--histories", str(fixture_dir / "histories.jsonl"),
                         "--resamples", "300", "--out", str(out))
        assert code == 0
        assert "Open generation" in text
        report = json.loads(out.read_text())
        assert report["n_samples"] == 240
        assert report["hallucination_rate"] == 0.0   # histpop replays pool prefixes

    def test_bench_small(self, fixture_dir, capsys, tmp_path):
        snap = str(tmp_path / "snap.jsonl")
        run_json(capsys, "pool", "ingest", "--in", str(fixture_dir / "pool.jsonl"),
                 "--out", snap)
        doc = run_json(capsys, "bench", "--pool", snap, "--requests", "200",
                       "--concurrency", "4", "--users", "20")
        assert doc["requests"] == 200
        assert doc["latency_p95_ms"] >= doc["latency_p50_ms"] > 0
        assert doc["fallback_level_rates"].get("cache", 0) > 0

    def test_bench_prints_the_metrics_record(self, fixture_dir, capsys):
        doc = run_json(capsys, "bench", "--pool", str(fixture_dir / "pool.jsonl"),
                       "--requests", "50", "--concurrency", "2", "--users", "5")
        assert set(doc) == {"concurrency"} | set(TrackMetrics().to_record())

    def test_bench_pool_without_categories(self, capsys, tmp_path):
        # Articles may omit their category; bench then warms "news" contexts.
        pool = tmp_path / "pool.jsonl"
        rows = ({"id": f"a{i}", "published_at": 1e9, "sid": [1, 1, 1, i]} for i in range(20))
        pool.write_text("".join(json.dumps(row) + "\n" for row in rows))
        doc = run_json(capsys, "bench", "--pool", str(pool), "--requests", "20",
                       "--concurrency", "1", "--users", "3")
        assert doc["requests"] == 20


class TestFullSmokePipeline:
    def test_fixture_codebook_pool_eval_under_two_minutes(self, capsys, tmp_path):
        import time
        t0 = time.monotonic()
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "seed": 33, "n_articles": 5000, "n_users": 400, "n_samples": 1200,
            "embeddings": True, "embedding_cap": 5000, "dim": 16,
        }))
        fx_dir = tmp_path / "fx"
        run_json(capsys, "eval", "fixture", "--spec", str(spec), "--out", str(fx_dir))

        book = str(tmp_path / "book.json")
        run_json(capsys, "codebook", "train", "--corpus", str(fx_dir / "embeddings.jsonl"),
                 "--layers", "32,16,16,16", "--seed", "3", "--out", book)
        run_json(capsys, "codebook", "stats", "--codebook", book,
                 "--corpus", str(fx_dir / "embeddings.jsonl"))

        snap = str(tmp_path / "snap.jsonl")
        doc = run_json(capsys, "pool", "ingest", "--in", str(fx_dir / "pool.jsonl"),
                       "--out", snap)
        assert doc["articles"] == 5000

        code, text = run(capsys, "eval", "run",
                         "--samples", str(fx_dir / "samples.jsonl"),
                         "--pool", snap, "--generator", "histpop",
                         "--profiles", str(fx_dir / "profiles.jsonl"),
                         "--histories", str(fx_dir / "histories.jsonl"),
                         "--resamples", "1000")
        assert code == 0 and "Open generation" in text
        assert time.monotonic() - t0 < 120.0


class TestShippedDemoCommands:
    """The README walkthrough runs against the shipped demo assets."""

    @pytest.fixture()
    def demo(self):
        from pathlib import Path
        d = Path(__file__).resolve().parent.parent / "assets" / "demo"
        if not d.exists():
            pytest.skip("demo assets not present")
        return d

    def test_readme_walkthrough(self, demo, capsys, tmp_path):
        book = str(tmp_path / "codebook.json")
        run_json(capsys, "codebook", "train", "--corpus", str(demo / "embeddings.jsonl"),
                 "--layers", "32,64,128,1024", "--seed", "42", "--out", book)

        snap = str(tmp_path / "pool-v1.jsonl")
        run_json(capsys, "pool", "ingest", "--in", str(demo / "pool.jsonl"), "--out", snap)

        first = json.loads(open(demo / "pool.jsonl").readline())
        s1, s2, s3, _ = first["sid"]
        run_json(capsys, "--config", str(demo / "config.json"), "match",
                 "--index", snap, "--prefix", f"{s1},{s2},{s3}", "--delta", "5", "--k", "10")

        run_json(capsys, "padr", "route", "--profile", str(demo / "profiles.jsonl"),
                 "--history", str(demo / "histories.jsonl"),
                 "--query", "recommend news", "--tau", "10")

        run_json(capsys, "rank", "--index", snap, "--profile", str(demo / "profiles.jsonl"),
                 "--prefix", f"{s1},{s2},{s3}", "--delta", "5", "--k", "10",
                 "--lambda", "0.1")

        code, text = run(capsys, "eval", "run", "--samples", str(demo / "samples.jsonl"),
                         "--pool", str(demo / "pool.jsonl"),
                         "--generator", f"replay:{demo / 'replay.jsonl'}",
                         "--profiles", str(demo / "profiles.jsonl"),
                         "--histories", str(demo / "histories.jsonl"),
                         "--resamples", "1000")
        assert code == 0 and "Open generation" in text

        doc = run_json(capsys, "bench", "--pool", snap, "--requests", "100",
                       "--concurrency", "2", "--users", "10")
        assert doc["requests"] == 100
