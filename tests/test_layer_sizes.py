"""A codebook other than 32/64/128/1024: the serving snapshot's layer
sizes are the ones every SID and prefix is checked against."""

import json
import time

import pytest

from sidground.cli import dispatch
from sidground.dualtrack import CacheEntry, SIDCache, ctx_hash
from sidground.errors import InvalidInputError, SidRangeError
from sidground.evaluation import load_samples
from sidground.generator import GeneratorOutput, RandomGenerator
from sidground.matcher import SIDPrefix
from sidground.padr import EMPTY_HISTORY, UserProfile, load_histories, route
from sidground.pool import NewsPool, load_snapshot, save_snapshot
from sidground.server import RecommendService

SIZES = (64, 64, 128, 1024)


def article(i, s1):
    return {"id": f"n{i}", "title": f"t{i}", "category": "technology", "tags": [],
            "published_at": 1_700_000_000.0 - i, "sid": [s1, 1, 1, 0]}


@pytest.fixture()
def pool_path(tmp_path):
    """Raw article JSONL whose s1 spans 0..63."""
    path = tmp_path / "pool.jsonl"
    path.write_text("".join(json.dumps(article(i, i % 64)) + "\n" for i in range(128)))
    return path


def write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


class OneShot:
    def __init__(self, prefix):
        self.prefix = prefix

    def generate(self, context):
        return GeneratorOutput(prefixes=(self.prefix,))


def test_snapshot_carries_configured_sizes_and_meta_wins(pool_path, tmp_path):
    pool = load_snapshot(pool_path, layer_sizes=SIZES)
    assert pool.layer_sizes == SIZES
    snap = tmp_path / "snap.jsonl"
    save_snapshot(pool, snap)
    assert load_snapshot(snap).layer_sizes == SIZES      # stored on the meta line
    with pytest.raises(SidRangeError):
        load_snapshot(pool_path)                          # default sizes reject s1=32


def test_service_caches_random_generator_output(pool_path):
    pool = load_snapshot(pool_path, layer_sizes=SIZES)
    service = RecommendService(pool, {}, RandomGenerator(seed=1, layer_sizes=SIZES),
                               enhance_workers=1)
    try:
        contexts = []
        for i in range(20):
            service.recommend(f"u{i}", "recommend technology news")
            contexts.append(route(UserProfile(user_id=f"u{i}"), EMPTY_HISTORY,
                                  "recommend technology news", tau=service.tau))
        service.enhance.drain()
        entries = [service.cache.get(ctx_hash(c), time.time()) for c in contexts]
        assert all(e is not None for e in entries)
        s1s = [p.s1 for e in entries for p in e.prefixes]
        assert max(s1s) >= 32 and max(s1s) < 64
    finally:
        service.close()


@pytest.mark.parametrize("s1,ok", [(32, True), (63, True), (64, False)])
def test_service_enhance_range(pool_path, s1, ok):
    pool = load_snapshot(pool_path, layer_sizes=SIZES)
    service = RecommendService(pool, {}, OneShot(SIDPrefix(s1, 1, 1)), enhance_workers=1)
    try:
        service.recommend("u0", "q")
        if ok:
            service.enhance.drain()
            assert len(service.cache) == 1
        else:
            with pytest.raises(SidRangeError):
                service.enhance.drain()
            assert len(service.cache) == 0
    finally:
        service.close()


@pytest.mark.parametrize("s1,ok", [(32, True), (63, True), (64, False)])
def test_loaders_use_given_sizes(tmp_path, s1, ok):
    histories = write(tmp_path / "h.jsonl", [{"user_id": "u0", "clicks": [
        {"article_id": "a", "sid": [s1, 0, 0, 0], "timestamp": 1.0}]}])
    samples = write(tmp_path / "s.jsonl", [{
        "sample_id": "s0", "intent": "next_item", "user_id": "u0", "query": "q",
        "target": {"article_id": "a", "sid": [s1, 0, 0, 0]}, "history_len": 0}])
    log = tmp_path / "cache.jsonl"
    SIDCache(persist_path=log, layer_sizes=SIZES).put(
        CacheEntry(ctx_hash=7, prefixes=(SIDPrefix(s1, 0, 0),), reason="", ts=1.0))
    restored = SIDCache(layer_sizes=SIZES)
    loads = [lambda: load_histories(histories, SIZES), lambda: load_samples(samples, SIZES),
             lambda: restored.load(log)]
    for load in loads:
        if ok:
            load()
        else:
            with pytest.raises(SidRangeError, match="line 1"):
                load()
    if ok:
        assert load_histories(histories, SIZES)["u0"].clicks[0].sid.s1 == s1
        assert load_samples(samples, SIZES)[0].target_sid.s1 == s1
        assert restored.get(7, 1.0).prefixes[0].s1 == s1


@pytest.mark.parametrize("s1,code", [(40, 0), (63, 0), (64, 2)])
def test_cli_match_prefix_uses_configured_sizes(pool_path, tmp_path, capsys, s1, code):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"layer_sizes": list(SIZES)}))
    got = dispatch(["--config", str(config), "match", "--index", str(pool_path),
                    "--prefix", f"{s1},1,1"])
    assert got == code
    if code == 0:
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"] and doc["results"][0]["article_id"] == f"n{s1}"


def test_refresh_rejects_other_layer_sizes(pool_path):
    service = RecommendService(load_snapshot(pool_path, layer_sizes=SIZES), {},
                               RandomGenerator(seed=1, layer_sizes=SIZES), enhance_workers=1)
    try:
        with pytest.raises(InvalidInputError):
            service.refresh_pool(NewsPool([]))       # default layer sizes
    finally:
        service.close()
