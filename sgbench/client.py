"""HTTP load generator: a closed loop over a request plan.

One process, one thread, one request in flight: the next request goes
out when the previous reply has been read and checked. The server speaks
HTTP/1.0, so every request opens its own connection. A request's latency
runs from sending to the last byte of the reply; the reply is checked
after that, so checking costs the client, not the measured time.

One request in flight keeps at most one of client and server on a core
at a time. With two in flight on the shared 2-core host, the same seeds
spread 0.3-0.6 (IQR over median) in p50 and throughput, against
0.07-0.2 with one.
"""

from __future__ import annotations

import gc
import http.client
import json
import time
from dataclasses import dataclass
from typing import Callable

TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Outcome:
    sent: float
    done: float
    failure: str | None   # failure kind, None when the reply passed its checks
    served_from: str | None
    context: tuple[str, str]  # the (user, query) sent

    @property
    def latency(self) -> float:
        return self.done - self.sent


Check = Callable[[int, bytes], "tuple[str | None, str | None]"]


def post_recommend(port: int, user_id: str, query: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        body = json.dumps({"user_id": user_id, "query": query})
        conn.request("POST", "/recommend", body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def send_one(port: int, pair: tuple[str, str], check: Check) -> Outcome:
    sent = time.perf_counter()
    try:
        status, body = post_recommend(port, *pair)
    except (OSError, http.client.HTTPException):
        return Outcome(sent, time.perf_counter(), "connection", None, pair)
    done = time.perf_counter()
    failure, served_from = check(status, body)
    return Outcome(sent, done, failure, served_from, pair)


def closed_loop(port: int, plan: list[tuple[str, str]], seconds: float,
                check: Check) -> list[Outcome]:
    """Send the plan in order, cycling from its start, one request at a
    time until `seconds` have passed. Outcomes come back in sending order."""
    deadline = time.perf_counter() + seconds
    out: list[Outcome] = []
    gc.disable()    # a collection in the client would add to measured latency
    try:
        while time.perf_counter() < deadline:
            out.append(send_one(port, plan[len(out) % len(plan)], check))
    finally:
        gc.enable()
    return out
