"""Query serving: HTTP daemon, request coalescing, synthetic load replay.

The serving layer turns a fitted model (usually a read-only
``load_bundle(mmap=True)`` bundle) into a network service:

* :class:`~repro.serving.http_server.QueryServer` — the ``repro serve``
  daemon: ``POST /v1/predict`` + ``POST /v1/neighbors`` plus the live
  ``/metrics`` / ``/healthz`` / ``/varz`` / ``/debug/requests``
  observability surface;
* :class:`~repro.serving.batcher.RequestBatcher` — leader/follower
  batching on the handler threads: a lone query dispatches at once on
  its own thread, and queries arriving during a dispatch coalesce into
  the engine's vectorized batch path with exact per-request parity;
* :class:`~repro.serving.service.QueryService` — validation
  (:class:`~repro.serving.service.BadRequest` → structured 400s) and
  batched dispatch;
* :class:`~repro.serving.reqtrace.RequestContext` /
  :class:`~repro.serving.reqtrace.TraceRing` — request-scoped tracing:
  per-request ids (inbound ``X-Request-Id`` honored and echoed), stage
  timings, span links through coalesced batches, and the bounded
  in-memory ring behind ``/debug/requests`` and ``repro tail``;
* :class:`~repro.serving.loadgen.LoadGenerator` — ``repro loadgen``:
  replays :meth:`~repro.data.synthetic.CityModel.generate_query_stream`
  traffic and reports p50/p99 latency, queries/sec, queue waits and the
  request ids of slow/failed exemplars.
"""

from repro.serving.batcher import BatcherClosed, RequestBatcher
from repro.serving.http_server import QueryServer
from repro.serving.loadgen import LoadGenerator, http_transport
from repro.serving.reqtrace import (
    QUEUE_WAIT_HEADER,
    REQUEST_ID_HEADER,
    RequestContext,
    TraceRing,
    load_request_trace,
    request_id_from_header,
)
from repro.serving.service import (
    BadRequest,
    NeighborsRequest,
    PredictRequest,
    QueryService,
)

__all__ = [
    "BadRequest",
    "BatcherClosed",
    "LoadGenerator",
    "NeighborsRequest",
    "PredictRequest",
    "QUEUE_WAIT_HEADER",
    "QueryServer",
    "QueryService",
    "REQUEST_ID_HEADER",
    "RequestBatcher",
    "RequestContext",
    "TraceRing",
    "http_transport",
    "load_request_trace",
    "request_id_from_header",
]
