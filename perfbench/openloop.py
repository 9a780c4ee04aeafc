"""Open-loop HTTP load generator over persistent connections.

One process, ``n_conns`` worker threads, each owning one keep-alive
HTTP/1.1 connection.  Request ``i`` of a step is *due* at
``t0 + i / rate``; the schedule never waits for the server.  A worker
claims the next index, sleeps until it is due (if it is not due yet),
sends it and reads the reply.  When every worker is busy, a due request
waits for the next free connection, so its latency -- always measured
from the due time -- includes the backlog a stall builds up.

The generator reports how late it woke up for requests it was idle for
(``lateness``): that is the generator's own lag, not the server's.
"""

from __future__ import annotations

import http.client
import itertools
import json
import threading
import time
from dataclasses import dataclass, field

__all__ = ["Request", "StepResult", "run_step", "get_json"]


@dataclass(frozen=True)
class Request:
    """One scheduled request: endpoint path and encoded JSON body."""

    path: str
    body: bytes


@dataclass
class StepResult:
    """Everything measured at one offered rate."""

    rate: float
    scheduled: int
    sent: int = 0
    ok: int = 0
    #: sent but answered with an error status or a transport error
    failed: int = 0
    #: still unsent when the step's drain deadline passed
    unsent: int = 0
    #: seconds from due time to the last response byte, per succeeded request
    latency_s: list[float] = field(default_factory=list)
    #: seconds from send to the last response byte, per succeeded request
    service_s: list[float] = field(default_factory=list)
    #: wake-up lag of requests the generator was idle for
    lateness_s: list[float] = field(default_factory=list)
    #: median send lag (send time minus due time) over the last quarter of
    #: the schedule; it grows when the backlog does
    tail_send_lag_s: float = 0.0
    #: wall time from the first due time to the last response
    wall_s: float = 0.0
    #: index -> response bytes, for the indices asked to be kept
    kept: dict[int, bytes] = field(default_factory=dict)
    #: index -> (request id, send->response seconds) when ids were sent
    traced: dict[int, tuple[str, float]] = field(default_factory=dict)


def get_json(host: str, port: int, path: str, timeout: float = 5.0):
    """``GET path`` on a fresh connection; returns ``(status, payload)``."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, json.loads(raw) if raw else None
    finally:
        conn.close()


def run_step(
    host: str,
    port: int,
    requests: list[Request],
    *,
    rate: float,
    duration_s: float,
    n_conns: int,
    drain_s: float,
    keep: frozenset[int] = frozenset(),
    request_ids: str | None = None,
    on_tick=None,
    tick_s: float = 0.25,
    timeout: float = 10.0,
) -> StepResult:
    """Offer ``rate`` requests/s for ``duration_s`` seconds, open loop.

    Requests cycle through ``requests``.  Anything not sent by
    ``duration_s + drain_s`` is counted as unsent, which bounds the time an
    overloaded step can take.  With ``request_ids`` set, request ``i``
    carries ``X-Request-Id: <request_ids>-<i>`` so the caller can join
    client timings to the server's trace ring, and ``on_tick`` (if
    given) is called from this thread every ``tick_s`` seconds while the
    workers run -- the hook that scrapes ``/debug/requests``.
    """
    scheduled = max(1, int(round(rate * duration_s)))
    result = StepResult(rate=rate, scheduled=scheduled)
    counter = itertools.count()
    lock = threading.Lock()
    t0 = time.perf_counter() + 0.05
    deadline = t0 + duration_s + drain_s
    send_lags: list[tuple[int, float]] = []
    last_done = [t0]

    def worker() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        local_lat: list[float] = []
        local_svc: list[float] = []
        local_late: list[float] = []
        local_lag: list[tuple[int, float]] = []
        local_kept: dict[int, bytes] = {}
        local_traced: dict[int, tuple[str, float]] = {}
        sent = ok = failed = unsent = 0
        done = t0
        try:
            while True:
                i = next(counter)
                if i >= scheduled:
                    break
                due = t0 + i / rate
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                    send = time.perf_counter()
                    local_late.append(send - due)
                else:
                    send = now
                if send > deadline:
                    unsent += 1
                    continue
                local_lag.append((i, send - due))
                req = requests[i % len(requests)]
                headers = {"Content-Type": "application/json"}
                rid = None
                if request_ids is not None:
                    rid = f"{request_ids}-{i}"
                    headers["X-Request-Id"] = rid
                sent += 1
                try:
                    conn.request("POST", req.path, body=req.body, headers=headers)
                    resp = conn.getresponse()
                    raw = resp.read()
                    status = resp.status
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=timeout)
                    failed += 1
                    continue
                end = time.perf_counter()
                done = max(done, end)
                if status != 200:
                    failed += 1
                    continue
                ok += 1
                local_lat.append(end - due)
                local_svc.append(end - send)
                if i in keep:
                    local_kept[i] = raw
                if rid is not None:
                    local_traced[i] = (rid, end - send)
        finally:
            conn.close()
        with lock:
            result.sent += sent
            result.ok += ok
            result.failed += failed
            result.unsent += unsent
            result.latency_s.extend(local_lat)
            result.service_s.extend(local_svc)
            result.lateness_s.extend(local_late)
            send_lags.extend(local_lag)
            result.kept.update(local_kept)
            result.traced.update(local_traced)
            last_done[0] = max(last_done[0], done)

    threads = [
        threading.Thread(target=worker, daemon=True) for _ in range(n_conns)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        while thread.is_alive():
            thread.join(tick_s)
            if on_tick is not None:
                on_tick()
    result.wall_s = last_done[0] - t0
    tail = sorted(lag for i, lag in send_lags if i >= scheduled * 3 // 4)
    result.tail_send_lag_s = tail[len(tail) // 2] if tail else 0.0
    return result
