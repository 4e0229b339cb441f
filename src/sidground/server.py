"""HTTP service mode: POST /recommend, GET /metrics, POST /refresh.

A RecommendService owns one atomically swappable PrefixIndex (with its
pool, the serving snapshot), the prefix cache, and the enhance workers.
Each request reads the index once, so a refresh never mixes pools.
The HTTP layer is a thin JSON wrapper over it: a stdlib HTTPServer whose
accepting thread hands each connection to a fixed pool of handler
threads through a bounded queue, answering 503 when the queue is full.
"""

from __future__ import annotations

import gc
import json
import logging
import queue
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

from .dualtrack import (
    DEFAULT_TTL_SECONDS,
    EnhanceWorkers,
    MetricsCollector,
    SIDCache,
    fast_track,
)
from .errors import InvalidInputError, SidgroundError
from .jsonl import json_int, json_str
from .padr import (
    DEFAULT_TAU,
    EMPTY_HISTORY,
    BehaviorHistory,
    UserProfile,
    route,
)
from .pool import NewsPool, build_index, load_snapshot

logger = logging.getLogger(__name__)

# The HTTP front end: POOL_THREADS handler threads serve the connections
# that wait in a queue of at most QUEUE_BOUND. A connection that finds the
# queue full gets BUSY_REPLY. A handler gives up on a client that sends or
# reads nothing for IDLE_TIMEOUT_S seconds.
POOL_THREADS = 4
QUEUE_BOUND = 64
IDLE_TIMEOUT_S = 10
_BUSY_BODY = b'{"error": "server busy, retry later"}'
BUSY_REPLY = (b"HTTP/1.0 503 Service Unavailable\r\n"
              b"Content-Type: application/json\r\n"
              b"Retry-After: 1\r\n"
              b"Content-Length: " + str(len(_BUSY_BODY)).encode() + b"\r\n\r\n"
              + _BUSY_BODY)


class RecommendService:
    def __init__(
        self,
        pool: NewsPool,
        profiles: dict[str, UserProfile],
        generator,
        histories: dict[str, BehaviorHistory] | None = None,
        delta: int = 5,
        k: int = 10,
        lam: float = 0.1,
        tau: int = DEFAULT_TAU,
        ttl_seconds: int = DEFAULT_TTL_SECONDS,
        enhance_workers: int = 2,
    ):
        self.cache = SIDCache(layer_sizes=pool.layer_sizes)
        self.index = build_index(pool)     # replaced whole by refresh_pool
        self._swap_lock = threading.Lock()
        self.profiles = profiles
        self.histories = histories or {}
        self.metrics = MetricsCollector()
        self.delta = delta
        self.k = k
        self.lam = lam
        self.tau = tau
        self.enhance = EnhanceWorkers(self.cache, generator, workers=enhance_workers,
                                      ttl_seconds=ttl_seconds)

    def recommend(self, user_id: str, query: str, k: int | None = None):
        profile = self.profiles.get(user_id) or UserProfile(user_id=user_id)
        history = self.histories.get(user_id, EMPTY_HISTORY)
        context = route(profile, history, query, tau=self.tau)
        response = fast_track(
            context, self.cache, self.index,
            delta=self.delta, k=self.k if k is None else k, lam=self.lam,
            schedule_enhance=self.enhance.schedule,
        )
        self.metrics.record(response)
        return response

    def refresh_pool(self, new_pool: NewsPool):
        # Cached prefixes only mean something for the codebook they came from.
        if new_pool.layer_sizes != self.cache.layer_sizes:
            raise InvalidInputError(
                f"pool layer sizes {new_pool.layer_sizes} differ from the cache's "
                f"{self.cache.layer_sizes}")
        with self._swap_lock:
            old_pool = self.index.pool
            if new_pool.version <= old_pool.version:
                new_pool = NewsPool(new_pool.articles, version=old_pool.version + 1,
                                    as_of=new_pool.as_of, layer_sizes=new_pool.layer_sizes)
            self.index = build_index(new_pool)
        return new_pool.version

    def close(self):
        self.enhance.drain()
        self.enhance.close()


def _gc_record() -> dict:
    """The /metrics "gc" block: the cyclic collector's runs and the objects
    they freed since start, per generation (0, 1, 2), and the objects a
    load froze out of its reach (jsonl.iter_jsonl)."""
    stats = gc.get_stats()
    return {"collections": [g["collections"] for g in stats],
            "collected": [g["collected"] for g in stats],
            "frozen": gc.get_freeze_count()}


class _Handler(BaseHTTPRequestHandler):
    service: RecommendService = None  # type: ignore[assignment]
    # Buffer the status line, headers and body: handle_one_request's flush
    # sends a reply of up to 8 KiB (io.DEFAULT_BUFFER_SIZE) in one write.
    wbufsize = -1

    def log_message(self, fmt, *args):      # route access logs through logging
        logger.debug("http: " + fmt, *args)

    def log_error(self, fmt, *args):
        # handle_one_request reports a read or write that timed out here,
        # with the TimeoutError as the argument, and drops the connection.
        if args and isinstance(args[0], TimeoutError):
            self.server.count(timed_out=1)
        super().log_error(fmt, *args)

    def _send(self, code: int, doc: dict):
        body = json.dumps(doc).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if length < 0:      # rfile.read(-1) would wait for the client to close
            raise ValueError(f"Content-Length must be >= 0, got {length}")
        raw = self.rfile.read(length) if length else b"{}"
        doc = json.loads(raw.decode("utf-8"))
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
        return doc

    def do_GET(self):
        if self.path == "/metrics":
            self._send(200, {**self.service.metrics.snapshot().to_record(),
                             "http": self.server.http_record(), "gc": _gc_record()})
        else:
            self._send(404, {"error": f"unknown path {self.path}"})

    def do_POST(self):
        try:
            code, doc = self._post()
        except OSError:         # the connection failed: nobody to answer
            raise
        except Exception:       # a fault of the program, not of the request
            logger.exception("http: error answering POST %s", self.path)
            code, doc = 500, {"error": "internal error"}
        self._send(code, doc)

    def _post(self) -> tuple[int, dict]:
        try:
            body = self._read_json()
            if self.path == "/recommend":
                user_id = json_str(body.get("user_id", ""), "user_id")
                query = json_str(body.get("query", ""), "query")
                k = json_int(body["k"], "k") if "k" in body else None
        except ValueError as e:       # JSONDecodeError is a ValueError
            return 400, {"error": f"bad JSON body: {e}"}
        if self.path == "/recommend":
            try:
                resp = self.service.recommend(user_id=user_id, query=query, k=k)
            except SidgroundError as e:
                return 422, {"error": str(e)}
            return 200, resp.to_record()
        if self.path == "/refresh":
            try:
                path = json_str(body["path"], "path")   # open() would take an int as an fd
                new_pool = load_snapshot(path, self.service.cache.layer_sizes)
                version = self.service.refresh_pool(new_pool)
            except (KeyError, ValueError, OSError, SidgroundError) as e:
                return 422, {"error": str(e)}
            return 200, {"pool_version": version, "articles": len(new_pool)}
        return 404, {"error": f"unknown path {self.path}"}


class _PoolServer(HTTPServer):
    """HTTPServer that serves from POOL_THREADS handler threads fed by a
    queue of QUEUE_BOUND connections, so a connection flood starts no
    thread and holds no memory beyond those bounds."""

    def __init__(self, address, handler):
        super().__init__(address, handler)
        self._lock = threading.Lock()
        self._counts = {"connections": 0, "refused_503": 0, "timed_out": 0,
                        "accept_to_last_byte_s": 0.0}
        self._queue: queue.Queue = queue.Queue(QUEUE_BOUND)
        self._workers = [threading.Thread(target=self._work, name=f"http-{i}", daemon=True)
                         for i in range(POOL_THREADS)]
        for worker in self._workers:
            worker.start()

    def server_activate(self):
        # Linux: accept() returns once the request's bytes have arrived, so
        # a connection wakes this process once, not twice. A client that
        # sends nothing is still accepted after IDLE_TIMEOUT_S, then timed out.
        if hasattr(socket, "TCP_DEFER_ACCEPT"):
            self.socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_DEFER_ACCEPT, IDLE_TIMEOUT_S)
        super().server_activate()

    def count(self, **deltas):
        with self._lock:
            for key, delta in deltas.items():
                self._counts[key] += delta

    def http_record(self) -> dict:
        """The /metrics "http" block: counters since start."""
        with self._lock:
            return dict(self._counts)

    def process_request(self, request, client_address):
        try:
            self._queue.put_nowait((request, client_address, time.perf_counter()))
        except queue.Full:
            self._refuse(request)

    def _refuse(self, request):
        # Read what the client sent before closing: closing a socket with
        # unread input makes the kernel answer with a reset, which can
        # reach the client before it reads the 503.
        try:
            request.sendall(BUSY_REPLY)
            request.shutdown(socket.SHUT_WR)
            request.setblocking(False)
            while request.recv(65536):
                pass
        except OSError:         # BlockingIOError once the input is drained
            pass
        request.close()
        self.count(refused_503=1)

    def _work(self):
        while (item := self._queue.get()) is not None:
            request, client_address, accepted = item
            try:
                request.settimeout(IDLE_TIMEOUT_S)
                self.finish_request(request, client_address)
            except Exception:       # a handler thread must outlive any connection
                logger.exception("http: error serving %s", client_address)
            elapsed = time.perf_counter() - accepted
            self.shutdown_request(request)
            self.count(connections=1, accept_to_last_byte_s=elapsed)

    def server_close(self):
        super().server_close()
        for _ in self._workers:
            self._queue.put(None)
        for worker in self._workers:
            worker.join()


def make_http_server(service: RecommendService, host: str = "127.0.0.1", port: int = 8080):
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return _PoolServer((host, port), handler)


def serve_forever(service: RecommendService, host: str, port: int):
    httpd = make_http_server(service, host, port)
    logger.info("serving on %s:%d", host, port)
    try:
        httpd.serve_forever()
    finally:
        httpd.server_close()
        service.close()
