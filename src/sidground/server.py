"""HTTP service mode: POST /recommend, GET /metrics, POST /refresh.

A RecommendService owns one atomically swappable (pool, index) snapshot
pair, the prefix cache, and the enhance workers. Each request grabs the
snapshot once, so a concurrent refresh never mixes pools mid-request.
The HTTP layer is a thin JSON wrapper over it (stdlib threading server;
the artifact needs correct semantics, not a web framework).
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .dualtrack import (
    DEFAULT_TTL_SECONDS,
    EnhanceWorkers,
    MetricsCollector,
    SIDCache,
    fast_track,
)
from .errors import InvalidInputError, SidgroundError
from .padr import (
    DEFAULT_TAU,
    EMPTY_HISTORY,
    BehaviorHistory,
    UserProfile,
    route,
)
from .pool import NewsPool, build_index, load_snapshot

logger = logging.getLogger(__name__)


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
        cache: SIDCache | None = None,
        click_counts: dict[str, int] | None = None,
    ):
        self.cache = cache if cache is not None else SIDCache(layer_sizes=pool.layer_sizes)
        self._check_layer_sizes(pool)
        self._snapshot = (pool, build_index(pool))
        self._swap_lock = threading.Lock()
        self.profiles = profiles
        self.histories = histories or {}
        self.metrics = MetricsCollector()
        self.delta = delta
        self.k = k
        self.lam = lam
        self.tau = tau
        self.click_counts = click_counts
        self.enhance = EnhanceWorkers(self.cache, generator, workers=enhance_workers,
                                      ttl_seconds=ttl_seconds)

    @property
    def snapshot(self) -> tuple[NewsPool, "object"]:
        return self._snapshot          # tuple read is atomic

    def _check_layer_sizes(self, pool: NewsPool):
        """Cached prefixes only mean something for the codebook they came from."""
        if pool.layer_sizes != self.cache.layer_sizes:
            raise InvalidInputError(
                f"pool layer sizes {pool.layer_sizes} differ from the cache's "
                f"{self.cache.layer_sizes}")

    def recommend(self, user_id: str, query: str, k: int | None = None):
        profile = self.profiles.get(user_id) or UserProfile(user_id=user_id)
        history = self.histories.get(user_id, EMPTY_HISTORY)
        context = route(profile, history, query, tau=self.tau)
        pool, index = self._snapshot
        response = fast_track(
            context, self.cache, index, pool, profile,
            delta=self.delta, k=self.k if k is None else k, lam=self.lam,
            schedule_enhance=self.enhance.schedule,
            click_counts=self.click_counts,
        )
        self.metrics.record(response)
        return response

    def refresh_pool(self, new_pool: NewsPool):
        self._check_layer_sizes(new_pool)
        with self._swap_lock:
            old_pool, _ = self._snapshot
            if new_pool.version <= old_pool.version:
                new_pool = NewsPool(new_pool.articles, version=old_pool.version + 1,
                                    as_of=new_pool.as_of, layer_sizes=new_pool.layer_sizes)
            self._snapshot = (new_pool, build_index(new_pool))
        return new_pool.version

    def close(self):
        self.enhance.drain()
        self.enhance.close()


class _Handler(BaseHTTPRequestHandler):
    service: RecommendService = None  # type: ignore[assignment]

    def log_message(self, fmt, *args):      # route access logs through logging
        logger.debug("http: " + fmt, *args)

    def _send(self, code: int, doc: dict):
        body = json.dumps(doc).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length) if length else b"{}"
        doc = json.loads(raw.decode("utf-8"))
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
        k = doc.get("k")
        if "k" in doc and (isinstance(k, bool) or not isinstance(k, int)):
            raise ValueError(f"k must be an integer, got {k!r}")
        return doc

    def do_GET(self):
        if self.path == "/metrics":
            self._send(200, self.service.metrics.snapshot().to_record())
        else:
            self._send(404, {"error": f"unknown path {self.path}"})

    def do_POST(self):
        try:
            body = self._read_json()
        except ValueError as e:       # JSONDecodeError is a ValueError
            self._send(400, {"error": f"bad JSON body: {e}"})
            return
        if self.path == "/recommend":
            try:
                resp = self.service.recommend(
                    user_id=str(body.get("user_id", "")),
                    query=str(body.get("query", "")),
                    k=body.get("k"),
                )
            except SidgroundError as e:
                self._send(422, {"error": str(e)})
                return
            self._send(200, resp.to_record())
        elif self.path == "/refresh":
            try:
                path = body["path"]
                if not isinstance(path, str):   # open() would take an int as a descriptor
                    raise InvalidInputError(f"path must be a string, got {path!r}")
                new_pool = load_snapshot(path, self.service.snapshot[0].layer_sizes)
                version = self.service.refresh_pool(new_pool)
            except (KeyError, OSError, SidgroundError) as e:
                self._send(422, {"error": str(e)})
                return
            self._send(200, {"pool_version": version, "articles": len(new_pool)})
        else:
            self._send(404, {"error": f"unknown path {self.path}"})


def make_http_server(service: RecommendService, host: str = "127.0.0.1", port: int = 8080):
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return ThreadingHTTPServer((host, port), handler)


def serve_forever(service: RecommendService, host: str, port: int):
    httpd = make_http_server(service, host, port)
    logger.info("serving on %s:%d", host, port)
    try:
        httpd.serve_forever()
    finally:
        httpd.server_close()
        service.close()
