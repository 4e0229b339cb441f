import gc
import json
import os
import socket
import sys
import threading
import time
import urllib.request
import weakref

import pytest

from sidground import server
from sidground.generator import PoolSampledGenerator
from sidground.pool import load_snapshot, refresh, save_snapshot
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


def _running(service, data_dir=None):
    httpd = make_http_server(service, "127.0.0.1", 0, data_dir=data_dir)
    port = httpd.server_address[1]
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{port}", service
    httpd.shutdown()
    thread.join()
    httpd.server_close()


@pytest.fixture()
def http_server(service):
    yield from _running(service)


@pytest.fixture()
def data_dir(tmp_path):
    (tmp_path / "data").mkdir()
    return tmp_path / "data"


@pytest.fixture()
def refresh_server(service, data_dir):
    """A server whose POST /refresh reads snapshots under data_dir."""
    yield from _running(service, str(data_dir))


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
        old_index = service.index
        old_pool = old_index.pool
        new_pool = refresh(old_pool, remove=[old_pool.articles[0].id])
        version = service.refresh_pool(new_pool)
        assert version == old_pool.version + 1
        index = service.index
        assert index is not old_index and index.pool.version == version
        assert sum(map(len, index.buckets.values())) == len(index.pool) == len(old_pool) - 1


    def test_reversioning_refresh_publishes_the_loaded_snapshot(self, service, std_fixture,
                                                                 tmp_path):
        # A loaded snapshot whose version is not newer is published under the
        # next version without building its structures a second time.
        save_snapshot(std_fixture.pool, tmp_path / "snap.jsonl")
        loaded = load_snapshot(tmp_path / "snap.jsonl")
        assert service.refresh_pool(loaded) == std_fixture.pool.version + 1
        published = service.index.pool
        assert published.version == std_fixture.pool.version + 1
        assert loaded.version == std_fixture.pool.version
        assert published.by_id is loaded.by_id and published.articles is loaded.articles
        assert published.by_category is loaded.by_category

    def test_refresh_lets_reference_counting_free_the_old_snapshot(
            self, service, std_fixture, tmp_path):
        # A load freezes its records, so the collector never frees them:
        # the old snapshot must hold no reference cycle, here with its
        # index, hit plans and cache entries in use.
        save_snapshot(std_fixture.pool, tmp_path / "snap.jsonl")
        was_enabled = gc.isenabled()
        gc.enable()
        try:
            service.refresh_pool(load_snapshot(tmp_path / "snap.jsonl"))
            for uid in sorted(std_fixture.profiles)[:20]:
                service.recommend(uid, "q")
            service.enhance.drain()
            for uid in sorted(std_fixture.profiles)[:20]:
                service.recommend(uid, "q")
            assert service.index.hit_plans and len(service.cache) > 0
            gc.disable()
            old = service.index.pool
            refs = [weakref.ref(old), weakref.ref(old.articles[0]), weakref.ref(service.index)]
            del old
            service.refresh_pool(load_snapshot(tmp_path / "snap.jsonl"))
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_refresh_frees_the_articles_the_generator_sampled(self, std_fixture, tmp_path):
        # The generator keeps no object of its pool: one kept SID would also
        # keep the allocator's memory it shares with the snapshot's records.
        save_snapshot(std_fixture.pool, tmp_path / "snap.jsonl")
        pool = load_snapshot(tmp_path / "snap.jsonl")
        generator = PoolSampledGenerator(pool, seed=3)
        svc = RecommendService(pool, std_fixture.profiles, generator,
                               histories=std_fixture.histories, enhance_workers=1)
        was_enabled = gc.isenabled()
        try:
            for uid in sorted(std_fixture.profiles)[:5]:
                svc.recommend(uid, "q")
            svc.enhance.drain()
            assert len(svc.cache) > 0
            gc.disable()
            ref, sid = weakref.ref(pool.articles[0]), pool.articles[0].sid
            del pool
            svc.refresh_pool(load_snapshot(tmp_path / "snap.jsonl"))
            assert ref() is None
            assert sys.getrefcount(sid) == 2       # this frame's name and the call's argument
            assert svc.recommend(sorted(std_fixture.profiles)[0], "q").articles
        finally:
            (gc.enable if was_enabled else gc.disable)()
            svc.close()


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
        # A handler thread counts its connection after the reply's last byte
        # is written, so the client can read /metrics before the count lands.
        wait_for(lambda: get(base + "/metrics")["http"]["connections"] >= 1, "POST counted")
        http = get(base + "/metrics")["http"]
        assert set(http) == {"connections", "refused_503", "timed_out", "accept_to_last_byte_s"}
        assert http["connections"] >= 1 and http["accept_to_last_byte_s"] > 0.0
        assert http["refused_503"] == http["timed_out"] == 0
        gc_block = get(base + "/metrics")["gc"]
        assert set(gc_block) == {"collections", "collected", "frozen"}
        assert len(gc_block["collections"]) == len(gc_block["collected"]) == 3
        assert gc_block["frozen"] == gc.get_freeze_count()

    def test_refresh_endpoint(self, refresh_server, std_fixture, data_dir):
        base, service = refresh_server
        new_pool = refresh(std_fixture.pool, remove=[std_fixture.pool.articles[0].id])
        save_snapshot(new_pool, data_dir / "next.jsonl")
        doc = post(base + "/refresh", {"path": str(data_dir / "next.jsonl")})
        assert doc == {"pool_version": std_fixture.pool.version + 1, "articles": len(new_pool)}
        # A relative path is joined to the data directory.
        doc = post(base + "/refresh", {"path": "next.jsonl"})
        assert doc["pool_version"] == std_fixture.pool.version + 2

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


def status_of(url, doc) -> int:
    try:
        post(url, doc)
    except urllib.error.HTTPError as e:
        return e.code
    return 200


class TestRefreshConfinement:
    """POST /refresh loads a snapshot only from under the server's data
    directory; anything else gets a 403 and leaves the serving pool."""

    @pytest.fixture()
    def outside(self, std_fixture, tmp_path):
        save_snapshot(std_fixture.pool, tmp_path / "outside.jsonl")     # a valid snapshot
        return tmp_path / "outside.jsonl"

    def test_path_outside_the_data_directory_is_403(self, refresh_server, outside):
        base, service = refresh_server
        for path in (str(outside), "../outside.jsonl", "/etc/passwd"):
            assert status_of(base + "/refresh", {"path": path}) == 403
        assert service.index.pool.version == 1

    def test_symlink_out_of_the_data_directory_is_403(self, refresh_server, data_dir, outside):
        base, service = refresh_server
        (data_dir / "link.jsonl").symlink_to(outside)
        (data_dir / "sub").symlink_to(outside.parent)
        for path in ("link.jsonl", "sub/outside.jsonl"):
            assert status_of(base + "/refresh", {"path": path}) == 403
        assert service.index.pool.version == 1

    def test_no_data_directory_refuses_every_refresh(self, http_server, tmp_path, outside):
        base, service = http_server
        assert status_of(base + "/refresh", {"path": str(outside)}) == 403
        assert service.index.pool.version == 1

    @pytest.mark.parametrize("published_at", ["1e400", str(10**400)], ids=["1e400", "10**400"])
    def test_number_beyond_float_range_is_422(self, refresh_server, std_fixture, data_dir,
                                              published_at):
        # 1e400 loaded as inf, and the integer raised a bare OverflowError (500).
        base, service = refresh_server
        save_snapshot(std_fixture.pool, data_dir / "snap.jsonl")
        lines = (data_dir / "snap.jsonl").read_text().splitlines()
        record = {**json.loads(lines[2]), "published_at": "<published_at>"}
        lines[2] = json.dumps(record).replace('"<published_at>"', published_at)
        (data_dir / "snap.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(urllib.error.HTTPError) as exc:
            post(base + "/refresh", {"path": "snap.jsonl"})
        assert exc.value.code == 422
        assert json.loads(exc.value.read())["error"].startswith("line 3: ")
        assert service.index.pool.version == 1


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

    @pytest.mark.parametrize("field,value", [("query", None), ("query", ["q"]),
                                             ("user_id", 7), ("user_id", None)])
    def test_non_string_user_id_or_query_is_400(self, http_server, std_fixture, field, value):
        base, _ = http_server
        doc = {"user_id": next(iter(std_fixture.profiles)), "query": "q", field: value}
        assert self.status(base, json.dumps(doc).encode()) == 400

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

    def test_negative_content_length_is_400(self, http_server):
        # The client keeps the connection open: a server that reads until
        # close would never answer, and the timeout fails the test.
        base, _ = http_server
        host, port = base.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=3.0) as sock:
            sock.sendall(b"POST /recommend HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Type: application/json\r\nContent-Length: -1\r\n\r\n{}")
            status_line = sock.makefile("rb").readline()
        assert status_line.split()[1] == b"400"

    def test_server_keeps_serving_after_bad_bodies(self, http_server, std_fixture):
        base, _ = http_server
        for body in (b"[1]", b'{"k": "x"}', b'{"k": -3}'):
            self.status(base, body)
        uid = next(iter(std_fixture.profiles))
        doc = post(base + "/recommend", {"user_id": uid, "query": "q", "k": 3})
        assert len(doc["articles"]) == 3


def wait_for(predicate, what: str, deadline_s: float = 30.0):
    end = time.monotonic() + deadline_s
    while not predicate():
        assert time.monotonic() < end, f"timed out waiting for {what}"
        time.sleep(0.01)


class TestHandlerPool:
    """The front end serves from a fixed set of handler threads fed by a
    bounded queue: no thread per connection, and a full queue gets a 503."""

    def test_thread_count_is_fixed_across_requests(self, http_server, std_fixture):
        base, service = http_server
        uid = next(iter(std_fixture.profiles))
        post(base + "/recommend", {"user_id": uid, "query": "warm up"})
        service.enhance.drain()         # the enhance thread now exists
        before = threading.active_count()
        for i in range(50):
            post(base + "/recommend", {"user_id": uid, "query": f"q{i % 5}"})
        service.enhance.drain()
        assert threading.active_count() == before

    def test_close_joins_every_handler_thread(self, service):
        before = threading.active_count()
        httpd = make_http_server(service, "127.0.0.1", 0)
        thread = threading.Thread(target=httpd.serve_forever)
        thread.start()
        assert threading.active_count() == before + server.POOL_THREADS + 1
        get(f"http://127.0.0.1:{httpd.server_address[1]}/metrics")
        httpd.shutdown()
        thread.join()
        httpd.server_close()
        assert threading.active_count() == before

    @pytest.mark.skipif(not hasattr(socket, "TCP_DEFER_ACCEPT"), reason="Linux only")
    def test_listening_socket_defers_accept(self, service):
        httpd = make_http_server(service, "127.0.0.1", 0)
        try:
            assert httpd.socket.getsockopt(socket.IPPROTO_TCP, socket.TCP_DEFER_ACCEPT) > 0
        finally:
            httpd.server_close()

    def test_flood_gets_503_then_recovers_after_idle_timeout(self, service, monkeypatch):
        monkeypatch.setattr(server, "POOL_THREADS", 2)
        monkeypatch.setattr(server, "QUEUE_BOUND", 2)
        monkeypatch.setattr(server, "IDLE_TIMEOUT_S", 2)
        httpd = make_http_server(service, "127.0.0.1", 0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        address = httpd.server_address
        held = []
        try:
            # Slow clients: each sends half a request and stalls. Wait for
            # each to reach a handler or the queue before the next connects.
            for n in range(1, 5):
                sock = socket.create_connection(address, timeout=10.0)
                sock.sendall(b"POST /recommend HTTP/1.0\r\n")
                held.append(sock)
                wait_for(lambda: httpd._queue.unfinished_tasks == n
                         and httpd._queue.qsize() == max(0, n - 2), f"connection {n} taken")
            for request in (b"POST /recommend HTTP/1.0\r\n",
                            b"GET /metrics HTTP/1.0\r\n\r\n"):
                with socket.create_connection(address, timeout=10.0) as sock:
                    sock.sendall(request)
                    reply = sock.makefile("rb").read()      # a reset raises here
                assert reply == server.BUSY_REPLY
                assert b"\r\nRetry-After: 1\r\n" in reply
            assert json.loads(reply.split(b"\r\n\r\n", 1)[1]) == {
                "error": "server busy, retry later"}
            # Once the handlers give up on the first two slow clients, they
            # take the queued two, and a normal request waits in the queue.
            wait_for(lambda: httpd.http_record()["timed_out"] >= 2, "idle timeout")
            base = f"http://127.0.0.1:{address[1]}"
            with urllib.request.urlopen(base + "/metrics", timeout=30.0) as resp:
                assert resp.status == 200
                assert json.loads(resp.read())["http"]["refused_503"] == 2
            wait_for(lambda: httpd.http_record()["timed_out"] == 4, "every slow client timed out")
        finally:
            for sock in held:
                sock.close()
            httpd.shutdown()
            thread.join()
            httpd.server_close()

    def test_concurrent_clients_all_served(self, http_server, std_fixture):
        base, _ = http_server
        users = list(std_fixture.profiles)
        replies, errors = [], []

        def client(c):
            try:
                for i in range(25):
                    user = users[(c * 25 + i) % len(users)]
                    replies.append(post(base + "/recommend", {"user_id": user, "query": f"q{i % 3}"}))
            except Exception as e:      # noqa: BLE001 - reported below
                errors.append(e)

        threads = [threading.Thread(target=client, args=(c,)) for c in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors and len(replies) == 200
        ids = {a["article_id"] for doc in replies for a in doc["articles"]}
        assert ids and ids <= set(std_fixture.pool.by_id)

    def test_hang_ups_and_handler_errors_leave_the_pool_whole(
            self, http_server, std_fixture, monkeypatch):
        base, service = http_server
        host, port = base.removeprefix("http://").split(":")
        before = threading.active_count()
        for _ in range(2 * server.POOL_THREADS):
            with socket.create_connection((host, int(port)), timeout=10.0) as sock:
                sock.sendall(b"POST /recommend HTTP/1.0\r\nContent-Length: 100\r\n\r\n{")
        monkeypatch.setattr(service, "recommend", lambda **kw: 1 / 0)
        for _ in range(server.POOL_THREADS):
            with pytest.raises(urllib.error.HTTPError) as exc:
                post(base + "/recommend", {"user_id": "u", "query": "q"})
            assert exc.value.code == 500
            assert json.loads(exc.value.read()) == {"error": "internal error"}
        monkeypatch.undo()
        wait_for(lambda: get(base + "/metrics")["http"]["connections"]
                 >= 3 * server.POOL_THREADS, "every connection handled")
        assert threading.active_count() == before
        uid = next(iter(std_fixture.profiles))
        assert post(base + "/recommend", {"user_id": uid, "query": "q"})["articles"]
