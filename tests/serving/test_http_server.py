"""Tests for QueryServer: the ``repro serve`` HTTP daemon.

Covers the serving parity contract end to end (coalesced HTTP responses
identical to direct QueryEngine execution, including degenerate queries),
concurrent clients, structured 400s for malformed bodies, the telemetry
surface on the same socket, drain-on-shutdown, and the wire contract that
keeps keep-alive clients off the 40 ms delayed-ACK timer and in step with
the server when a body is turned away unread.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serving import QueryServer
from repro.serving.http_server import _ServeHandler
from repro.serving.service import QueryService
from repro.utils.metrics import MetricsRegistry
from repro.utils.telemetry_server import _MAX_BODY_BYTES


def _post(url: str, body, *, raw: bytes | None = None, timeout=30):
    """POST ``body`` as JSON; returns (status, parsed_payload)."""
    data = raw if raw is not None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _get(url: str):
    """GET ``url``; returns (status, body_text)."""
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode("utf-8")


PREDICT_BODIES = [
    {
        "target": "time",
        "candidates": [2.0, 9.5, 13.0, 21.5],
        "words": ["common_000"],
        "location": [1.0, 2.0],
    },
    {
        "target": "location",
        "candidates": [[0.5, 0.5], [10.0, 12.0], [3.3, 7.7]],
        "time": 20.0,
        "words": ["common_001"],
    },
    {
        "target": "text",
        "candidates": [["common_000", "common_001"], ["common_002"]],
        "time": 9.0,
        "location": [5.0, 5.0],
    },
    # Degenerate: fully-OOV query bag, unseen far-away location.
    {
        "target": "time",
        "candidates": [1.0, 12.0, 23.0],
        "words": ["never_in_any_vocab_xyz"],
        "location": [-400.0, 900.0],
    },
]

NEIGHBOR_BODIES = [
    {"modality": "word", "time": 21.0, "k": 5},
    {"modality": "time", "words": ["common_000"], "k": 3},
    {"modality": "location", "time": 3.0, "k": 4},
    {"modality": "word", "words": ["never_in_any_vocab_xyz"], "k": 2},
]


@pytest.fixture(scope="module")
def server(tiny_actor):
    """A running coalescing QueryServer on an ephemeral port."""
    with QueryServer(
        tiny_actor, port=0, metrics=MetricsRegistry()
    ) as server:
        yield server


class TestLifecycle:
    def test_ephemeral_port_and_url(self, server):
        assert server.running
        assert server.port > 0
        assert server.url == f"http://127.0.0.1:{server.port}"

    def test_double_start_rejected(self, server):
        with pytest.raises(RuntimeError, match="already started"):
            server.start()

    def test_unknown_endpoints_404(self, server):
        status, _ = _get(f"{server.url}/nope")
        assert status == 404
        status, payload = _post(f"{server.url}/v1/nope", {"x": 1})
        assert status == 404
        assert "error" in payload


class TestServingParity:
    def test_http_responses_identical_to_direct_engine(
        self, server, tiny_actor
    ):
        """Coalesced HTTP responses == direct QueryService execution.

        Python prints floats shortest-round-trip, so equality on the
        parsed JSON payloads is bit-exactness of every score.
        """
        direct = QueryService(tiny_actor, metrics=MetricsRegistry())
        for body in PREDICT_BODIES:
            status, payload = _post(f"{server.url}/v1/predict", body)
            assert status == 200
            request = direct.validate_predict(body)
            assert payload == direct.dispatch([request])[0]
        for body in NEIGHBOR_BODIES:
            status, payload = _post(f"{server.url}/v1/neighbors", body)
            assert status == 200
            request = direct.validate_neighbors(body)
            assert payload == direct.dispatch([request])[0]

    def test_concurrent_clients_all_get_their_own_answer(
        self, server, tiny_actor, hold_dispatch
    ):
        """A coalesced burst returns per-client results with exact parity.

        The first request's dispatch is held until every other client
        has queued behind it, so the burst always coalesces.
        """
        direct = QueryService(tiny_actor, metrics=MetricsRegistry())
        bodies = [
            {
                "target": "time",
                "candidates": [float(i), float(i + 6) % 24.0, 12.0],
                "words": [f"common_{i % 5:03d}"],
            }
            for i in range(16)
        ]
        expected = [
            direct.dispatch([direct.validate_predict(b)])[0] for b in bodies
        ]
        results: list = [None] * len(bodies)
        barrier = threading.Barrier(len(bodies))
        held = hold_dispatch(server)

        def client(i):
            barrier.wait()
            results[i] = _post(f"{server.url}/v1/predict", bodies[i])

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(len(bodies))
        ]
        for t in threads:
            t.start()
        held.wait_queued(len(bodies) - 1)
        held.release()
        for t in threads:
            t.join()
        for (status, payload), want in zip(results, expected):
            assert status == 200
            assert payload == want

    def test_coalescing_actually_happened(self, server, hold_dispatch):
        """Requests queued behind a running dispatch ride one >1 batch."""
        coalesced = server.metrics.counter("serve.coalesced_batches")
        before = coalesced.value
        held = hold_dispatch(server)
        threads = [
            threading.Thread(
                target=_post,
                args=(f"{server.url}/v1/neighbors", NEIGHBOR_BODIES[0]),
            )
            for _ in range(3)
        ]
        threads[0].start()
        held.wait_queued(0)
        for t in threads[1:]:
            t.start()
        held.wait_queued(2)
        held.release()
        for t in threads:
            t.join(timeout=30.0)
            assert not t.is_alive()
        histogram = server.metrics.histogram("serve.batch_size")
        assert histogram.count > 0
        assert histogram.max > 1
        assert coalesced.value == before + 1


class TestBadRequests:
    def test_malformed_json_is_a_structured_400(self, server):
        before = server.metrics.counter("serve.bad_requests").value
        status, payload = _post(
            f"{server.url}/v1/predict", None, raw=b"{not json"
        )
        assert status == 400
        assert "not valid JSON" in payload["error"]
        assert server.metrics.counter("serve.bad_requests").value == before + 1

    def test_validation_failure_is_a_structured_400(self, server):
        status, payload = _post(
            f"{server.url}/v1/predict",
            {"target": "venue", "candidates": [1.0], "time": 2.0},
        )
        assert status == 400
        assert payload["field"] == "target"
        assert "venue" in payload["error"]

    def test_wrong_shape_candidates_400_not_500(self, server):
        before = server.metrics.counter("serve.errors").value
        status, payload = _post(
            f"{server.url}/v1/neighbors", {"modality": "word", "words": [3]}
        )
        assert status == 400
        assert payload["field"] == "words"
        assert server.metrics.counter("serve.errors").value == before

    def test_non_object_body_400(self, server):
        status, payload = _post(f"{server.url}/v1/predict", [1, 2, 3])
        assert status == 400
        assert "JSON object" in payload["error"]


class TestTelemetrySurface:
    def test_metrics_endpoint_on_same_socket(self, server):
        # Serve one query first so serve.* metrics exist.
        _post(f"{server.url}/v1/neighbors", NEIGHBOR_BODIES[0])
        status, text = _get(f"{server.url}/metrics")
        assert status == 200
        assert "repro_serve_requests_total" in text

    def test_healthz_reports_serving_state(self, server):
        status, text = _get(f"{server.url}/healthz")
        assert status == 200
        payload = json.loads(text)
        assert payload["status"] == "ok"
        assert payload["serving"]["accepting"] is True

    def test_varz_includes_batcher_depth(self, server):
        status, text = _get(f"{server.url}/varz")
        assert status == 200
        assert "batcher_depth" in json.loads(text)["serving"]


class TestDrain:
    def test_requests_after_stop_get_503(self, tiny_actor):
        server = QueryServer(tiny_actor, port=0).start()
        url = server.url
        server._accepting = False
        status, payload = _post(
            f"{url}/v1/neighbors", {"modality": "word", "time": 2.0}
        )
        assert status == 503
        assert "draining" in payload["error"]
        server._accepting = True
        server.stop()
        assert not server.running

    def test_inflight_requests_complete_during_drain(
        self, tiny_actor, hold_dispatch
    ):
        """stop() waits for parked requests instead of dropping them."""
        server = QueryServer(tiny_actor, port=0, max_batch=64).start()
        held = hold_dispatch(server)
        url = server.url
        results = {}

        def client(name):
            results[name] = _post(
                f"{url}/v1/neighbors", {"modality": "word", "time": 21.0}
            )

        # The first request leads and is held mid-dispatch; the second
        # parks behind it in the batcher queue.  Begin the drain while
        # both are in flight, then let the leader finish.
        clients = [
            threading.Thread(target=client, args=(name,))
            for name in ("leader", "parked")
        ]
        clients[0].start()
        held.wait_queued(0)
        clients[1].start()
        held.wait_queued(1)
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        deadline = time.monotonic() + 10.0
        while server.accepting and time.monotonic() < deadline:
            time.sleep(0.001)
        assert stopper.is_alive()  # draining, held by the in-flight pair
        held.release()
        for t in (*clients, stopper):
            t.join(timeout=10.0)
            assert not t.is_alive()
        assert not server.running
        for name in ("leader", "parked"):
            status, payload = results[name]
            assert status == 200
            assert len(payload["neighbors"]) == 10

    def test_stop_is_idempotent(self, tiny_actor):
        server = QueryServer(tiny_actor, port=0).start()
        server.stop()
        server.stop()
        assert not server.running


@pytest.fixture
def wire_spy(monkeypatch):
    """Record each serve connection's TCP_NODELAY flag and socket writes."""
    connections: list[dict] = []
    original_setup = _ServeHandler.setup

    def setup(handler):
        original_setup(handler)
        writes: list[bytes] = []
        connections.append(
            {
                "nodelay": handler.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                ),
                "writes": writes,
            }
        )
        raw_write = handler.wfile.write

        def write(data):
            writes.append(bytes(data))
            return raw_write(data)

        handler.wfile.write = write

    monkeypatch.setattr(_ServeHandler, "setup", setup)
    return connections


class TestWire:
    """One write per response, Nagle off: no delayed-ACK stall."""

    def test_accepted_socket_has_tcp_nodelay(self, tiny_actor, wire_spy):
        with QueryServer(tiny_actor, port=0) as server:
            status, _payload = _post(
                f"{server.url}/v1/neighbors", NEIGHBOR_BODIES[0]
            )
        assert status == 200
        assert wire_spy
        assert all(record["nodelay"] for record in wire_spy)

    def test_each_response_is_one_write(self, tiny_actor, wire_spy):
        """200, 400, 404 and GET responses each reach the socket whole."""
        with QueryServer(tiny_actor, port=0) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port)
            sent = [
                ("POST", "/v1/predict", PREDICT_BODIES[0], 200),
                ("POST", "/v1/neighbors", NEIGHBOR_BODIES[0], 200),
                ("POST", "/v1/predict", {"target": "venue"}, 400),
                ("GET", "/nope", None, 404),
                ("GET", "/healthz", None, 200),
            ]
            bodies = []
            try:
                for method, path, body, want in sent:
                    data = None if body is None else json.dumps(body).encode()
                    conn.request(method, path, body=data)
                    response = conn.getresponse()
                    bodies.append(response.read())
                    assert response.status == want
            finally:
                conn.close()
        assert len(wire_spy) == 1
        writes = wire_spy[0]["writes"]
        assert len(writes) == len(sent)
        for write, body in zip(writes, bodies):
            head, _sep, payload = write.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 ")
            assert f"Content-Length: {len(body)}".encode() in head
            assert payload == body

    def test_keepalive_requests_do_not_stall(self, tiny_actor):
        """Back-to-back keep-alive POSTs stay far below the 40 ms timer.

        With headers and body sent as two writes and Nagle on, every
        response after the first waits for the client's delayed ACK, so
        the median sits near 40 ms; the requests must go back to back,
        because spacing them out lets the ACK timer expire unobserved.
        """
        body = json.dumps(NEIGHBOR_BODIES[0]).encode("utf-8")
        latencies = []
        with QueryServer(tiny_actor, port=0) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port)
            try:
                for _ in range(40):
                    start = time.perf_counter()
                    conn.request(
                        "POST",
                        "/v1/neighbors",
                        body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    response.read()
                    latencies.append(time.perf_counter() - start)
                    assert response.status == 200
            finally:
                conn.close()
        assert statistics.median(latencies) * 1e3 < 20.0


def _raw_post(conn, path, headers, body=b""):
    """POST with exactly ``headers`` (no computed Content-Length)."""
    conn.putrequest("POST", path, skip_accept_encoding=True)
    for name, value in headers.items():
        conn.putheader(name, value)
    conn.endheaders(body)
    response = conn.getresponse()
    response.read()
    return response


def _next_request_status(conn):
    conn.request(
        "POST",
        "/v1/neighbors",
        body=json.dumps(NEIGHBOR_BODIES[0]).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    response.read()
    return response.status


class TestKeepAliveAfterUnreadBody:
    """A POST turned away before its body is read must not leave the body
    on the connection, where it would parse as the next request line."""

    BODY = json.dumps(NEIGHBOR_BODIES[1]).encode("utf-8")

    def test_404_drains_the_body(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            response = _raw_post(
                conn, "/v1/nope", {"Content-Length": str(len(self.BODY))},
                self.BODY,
            )
            assert response.status == 404
            assert response.getheader("Connection") is None
            sock = conn.sock
            assert _next_request_status(conn) == 200
            assert conn.sock is sock  # same keep-alive connection
        finally:
            conn.close()

    def test_503_drains_the_body(self, tiny_actor):
        with QueryServer(tiny_actor, port=0) as server:
            conn = http.client.HTTPConnection("127.0.0.1", server.port)
            try:
                server._accepting = False
                response = _raw_post(
                    conn, "/v1/neighbors",
                    {"Content-Length": str(len(self.BODY))}, self.BODY,
                )
                server._accepting = True
                assert response.status == 503
                assert response.getheader("Connection") is None
                sock = conn.sock
                assert _next_request_status(conn) == 200
                assert conn.sock is sock
            finally:
                conn.close()

    def test_oversized_content_length_closes(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            response = _raw_post(
                conn, "/v1/neighbors",
                {"Content-Length": str(_MAX_BODY_BYTES + 1)}, self.BODY,
            )
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            assert _next_request_status(conn) == 200
        finally:
            conn.close()

    @pytest.mark.parametrize("length", [None, "many", "-5"])
    def test_missing_or_invalid_content_length_closes(self, server, length):
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        headers = {} if length is None else {"Content-Length": length}
        try:
            response = _raw_post(conn, "/v1/neighbors", headers, self.BODY)
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            assert _next_request_status(conn) == 200
        finally:
            conn.close()


class TestKeepAliveAfterGetBody:
    """A GET carrying a body must not leave it on the connection either."""

    def test_get_with_body_then_post_on_same_connection(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            conn.putrequest("GET", "/healthz", skip_accept_encoding=True)
            conn.putheader("Content-Length", "8")
            conn.endheaders(b"12345678")
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            assert response.getheader("Connection") is None
            sock = conn.sock
            conn.request(
                "POST",
                "/v1/neighbors",
                body=json.dumps(NEIGHBOR_BODIES[0]).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 200
            assert conn.sock is sock  # same keep-alive connection
        finally:
            conn.close()
        direct = QueryService(server.model, metrics=MetricsRegistry())
        request = direct.validate_neighbors(NEIGHBOR_BODIES[0])
        assert payload == direct.dispatch([request])[0]

    @pytest.mark.parametrize(
        "headers",
        [
            {"Content-Length": str(_MAX_BODY_BYTES + 1)},
            {"Content-Length": "many"},
            {"Transfer-Encoding": "chunked"},
        ],
    )
    def test_get_with_unreadable_body_closes(self, server, headers):
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            conn.putrequest("GET", "/healthz", skip_accept_encoding=True)
            for name, value in headers.items():
                conn.putheader(name, value)
            conn.endheaders(b"8\r\n12345678\r\n0\r\n\r\n")
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            assert response.getheader("Connection") == "close"
            assert _next_request_status(conn) == 200
        finally:
            conn.close()
