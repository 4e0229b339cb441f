import json
import os
import threading
import urllib.request

import pytest

from sidground.generator import PoolSampledGenerator
from sidground.pool import refresh, save_snapshot
from sidground.server import RecommendService, make_http_server


@pytest.fixture()
def service(std_fixture):
    svc = RecommendService(
        std_fixture.pool,
        std_fixture.profiles,
        PoolSampledGenerator(std_fixture.pool, seed=3),
        histories=std_fixture.histories,
        enhance_workers=1,
    )
    yield svc
    svc.close()


@pytest.fixture()
def http_server(service):
    httpd = make_http_server(service, "127.0.0.1", 0)
    port = httpd.server_address[1]
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{port}", service
    httpd.shutdown()
    httpd.server_close()


def post(url, doc):
    req = urllib.request.Request(url, data=json.dumps(doc).encode(),
                                 headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req) as resp:
        return json.loads(resp.read())


def get(url):
    with urllib.request.urlopen(url) as resp:
        return json.loads(resp.read())


class TestService:
    def test_recommend_known_user(self, service, std_fixture):
        uid = next(iter(std_fixture.profiles))
        resp = service.recommend(uid, "recommend news")
        assert len(resp.articles) >= 1
        assert all(a.article_id in std_fixture.pool.by_id for a in resp.articles)

    def test_unknown_user_gets_trending(self, service):
        resp = service.recommend("ghost-user", "recommend news")
        assert resp.served_from == "fallback_level_4"
        assert len(resp.articles) >= 1

    def test_read_through_cache(self, service, std_fixture):
        uid = next(iter(std_fixture.profiles))
        first = service.recommend(uid, "same query")
        assert first.served_from.startswith("fallback")
        service.enhance.drain()   # let the scheduled enhance land
        second = service.recommend(uid, "same query")
        assert second.served_from == "cache"

    def test_refresh_swaps_snapshot(self, service, std_fixture):
        old_pool, old_index = service.snapshot
        new_pool = refresh(old_pool, remove=[old_pool.articles[0].id])
        version = service.refresh_pool(new_pool)
        assert version == old_pool.version + 1
        pool, index = service.snapshot
        assert index.built_from == pool.version == version


class TestHttp:
    def test_recommend_endpoint(self, http_server, std_fixture):
        base, service = http_server
        uid = next(iter(std_fixture.profiles))
        doc = post(base + "/recommend", {"user_id": uid, "query": "recommend news", "k": 5})
        assert doc["served_from"]
        assert 1 <= len(doc["articles"]) <= 5
        assert set(doc["latency_breakdown"]) == {"lookup_ms", "match_ms", "rank_ms", "total_ms"}

    def test_metrics_endpoint(self, http_server, std_fixture):
        base, service = http_server
        uid = next(iter(std_fixture.profiles))
        post(base + "/recommend", {"user_id": uid, "query": "q"})
        doc = get(base + "/metrics")
        assert doc["requests"] >= 1
        assert 0.0 <= doc["cache_hit_rate"] <= 1.0

    def test_refresh_endpoint(self, http_server, std_fixture, tmp_path):
        base, service = http_server
        new_pool = refresh(std_fixture.pool, remove=[std_fixture.pool.articles[0].id])
        snap = tmp_path / "next.jsonl"
        save_snapshot(new_pool, snap)
        doc = post(base + "/refresh", {"path": str(snap)})
        assert doc["pool_version"] == std_fixture.pool.version + 1

    def test_bad_json_is_400(self, http_server):
        base, _ = http_server
        req = urllib.request.Request(base + "/recommend", data=b"{nope",
                                     headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req)
        assert exc.value.code == 400

    def test_unknown_path_is_404(self, http_server):
        base, _ = http_server
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(base + "/nothing")
        assert exc.value.code == 404


class TestHttpBadInput:
    """Bad request bodies get a 4xx reply, never a dropped connection or
    a quietly wrong answer."""

    def status(self, base, data: bytes) -> int:
        req = urllib.request.Request(base + "/recommend", data=data,
                                     headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req) as resp:
                return resp.status
        except urllib.error.HTTPError as e:
            return e.code

    @pytest.mark.parametrize("body", [b"[1, 2]", b'"text"', b"3"])
    def test_non_object_body_is_400(self, http_server, body):
        base, _ = http_server
        assert self.status(base, body) == 400

    # A JSON number with a fraction, a boolean or a numeric string is not
    # an integer k, even where int() would take it.
    @pytest.mark.parametrize("k", ["abc", None, [5], 2.7, True, "3"])
    def test_non_integer_k_is_400(self, http_server, std_fixture, k):
        base, _ = http_server
        uid = next(iter(std_fixture.profiles))
        body = json.dumps({"user_id": uid, "query": "q", "k": k}).encode()
        assert self.status(base, body) == 400

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_is_4xx(self, http_server, std_fixture, k):
        base, _ = http_server
        uid = next(iter(std_fixture.profiles))
        body = json.dumps({"user_id": uid, "query": "never cached", "k": k}).encode()
        assert 400 <= self.status(base, body) < 500

    def test_k_below_one_raises_invalid_input(self, service, std_fixture):
        from sidground.errors import InvalidInputError
        uid = next(iter(std_fixture.profiles))
        with pytest.raises(InvalidInputError):
            service.recommend(uid, "q", k=0)

    def test_refresh_non_string_path_is_422_and_touches_no_descriptor(
            self, http_server, tmp_path):
        base, _ = http_server
        fd = os.open(tmp_path / "held.jsonl", os.O_RDWR | os.O_CREAT)
        try:
            req = urllib.request.Request(base + "/refresh",
                                         data=json.dumps({"path": fd}).encode(),
                                         headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(req)
            assert exc.value.code == 422
            os.fstat(fd)     # raises EBADF if the server opened and closed it
        finally:
            os.close(fd)

    def test_server_keeps_serving_after_bad_bodies(self, http_server, std_fixture):
        base, _ = http_server
        for body in (b"[1]", b'{"k": "x"}', b'{"k": -3}'):
            self.status(base, body)
        uid = next(iter(std_fixture.profiles))
        doc = post(base + "/recommend", {"user_id": uid, "query": "q", "k": 3})
        assert len(doc["articles"]) == 3
