"""Request batcher/coalescer: many concurrent callers, one engine call.

The query engine's vectorized paths amortize their fixed per-call cost
(modality-cache lookup, hotspot snap, normalized gathers) across a whole
batch — but serving traffic arrives as single queries on independent
handler threads.  :class:`RequestBatcher` bridges the two shapes with
leader/follower (flat-combining) batching and no thread of its own:

* a caller of :meth:`~RequestBatcher.submit` that finds the engine idle
  becomes the **leader**: it takes the queue — its own request at the
  head — and runs one ``dispatch_fn`` call on its own thread, so a lone
  request pays no hand-off and no wait;
* callers arriving while a dispatch runs queue up as **followers**;
* a finishing leader promotes the head of the queue to lead the next
  batch (in a ``finally``, so a raising dispatch cannot strand it) and
  returns; it never keeps combining on behalf of others.

Batches therefore form exactly when requests overlap a dispatch, up to
``max_batch`` items, without any linger window.  Invariant: while the
queue is non-empty, exactly one leader is active or a promoted follower
is about to lead.

The contract that makes coalescing safe is **exact parity**: the dispatch
function must return, for each item, the same result it would return for a
single-item batch (the engine's ragged-batch path guarantees this
bit-for-bit; see :meth:`repro.core.query_engine.QueryEngine
.score_ragged_batch`).  The batcher itself never reorders items — the
dispatch list preserves submission order.

Failure semantics: an exception raised by ``dispatch_fn`` is delivered to
*every* caller of that batch (it describes the group call); a per-item
failure is expressed by returning an :class:`Exception` instance in that
item's result slot, which is raised only in its own caller.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Sequence

from repro.utils.metrics import MetricsRegistry

__all__ = ["RequestBatcher", "BatcherClosed"]


class BatcherClosed(RuntimeError):
    """Raised by :meth:`RequestBatcher.submit` after the batcher closed."""


class _Slot:
    """One caller's result slot: an event, the outcome and trace state.

    ``ctx`` is the caller's optional
    :class:`~repro.serving.reqtrace.RequestContext`; ``enqueued`` is the
    submission timestamp the leader diffs to compute the per-item queue
    wait.  ``promoted`` is set (with ``event``) when a finishing leader
    hands this queued caller the next batch.
    """

    __slots__ = ("event", "result", "error", "ctx", "enqueued", "promoted")

    def __init__(self, ctx=None) -> None:
        self.event = threading.Event()
        self.result = None
        self.error: BaseException | None = None
        self.ctx = ctx
        self.enqueued = time.perf_counter()
        self.promoted = False


class RequestBatcher:
    """Coalesce concurrent single requests into batched dispatch calls.

    Parameters
    ----------
    dispatch_fn:
        ``callable(list[request]) -> sequence[result]`` executing a whole
        batch; must return exactly one result per request, in order.  An
        :class:`Exception` instance in a result slot is raised in that
        caller alone.  It runs on the thread of the batch's leader.
    max_batch:
        Upper bound on items per dispatch call.
    metrics:
        Optional :class:`~repro.utils.metrics.MetricsRegistry`; records
        ``serve.batch_size`` / ``serve.batch_wait_seconds`` histograms and
        the ``serve.batches`` / ``serve.coalesced_batches`` counters.
    """

    def __init__(
        self,
        dispatch_fn: Callable[[list], Sequence],
        *,
        max_batch: int = 64,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._dispatch_fn = dispatch_fn
        self.max_batch = int(max_batch)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._queue: list[tuple[object, _Slot]] = []
        self._leading = False
        self._closed = False
        self.dispatched = 0
        self._batch_seq = 0
        self._dispatch_ctxs: list = []

    # ------------------------------------------------------------- caller side

    def submit(self, request, *, ctx=None, timeout: float | None = 30.0):
        """Run ``request`` in a batch and return its result.

        A caller that finds no dispatch running leads at once; otherwise
        it waits for a leader to serve it or to promote it to lead.

        ``ctx`` (optional) is a
        :class:`~repro.serving.reqtrace.RequestContext`: the leader
        stamps it with the batch id/size, this item's queue wait and its
        fan-back time, linking the request's trace entry to the batch
        span it rode.

        Raises :class:`BatcherClosed` when the batcher is already closed,
        :class:`TimeoutError` if a follower got no result within
        ``timeout`` seconds (a leader runs its dispatch to the end), and
        re-raises whatever exception the dispatch produced for this item
        or its batch.
        """
        slot = _Slot(ctx)
        with self._lock:
            if self._closed:
                raise BatcherClosed("batcher is closed")
            self._queue.append((request, slot))
            lead = not self._leading
            self._leading = True
        if not lead and not slot.event.wait(timeout):
            with self._lock:
                # Promotion and completion both set the event under the
                # lock, so an unset event here means the item is still
                # queued (take it out) or already in a running batch.
                if not slot.event.is_set():
                    for i, (_request, queued) in enumerate(self._queue):
                        if queued is slot:
                            del self._queue[i]
                            break
                    raise TimeoutError(
                        f"batched dispatch did not complete within {timeout}s"
                    )
        if lead or slot.promoted:
            self._lead()
        if slot.error is not None:
            raise slot.error
        return slot.result

    @property
    def depth(self) -> int:
        """Requests currently queued and awaiting dispatch."""
        with self._lock:
            return len(self._queue)

    @property
    def dispatching_contexts(self) -> list:
        """The request contexts of the batch currently being dispatched.

        Only meaningful when read from *inside* ``dispatch_fn`` (which
        runs on the leader thread that just set it; one leader runs at a
        time); the server's trampoline uses it to attach engine-stage
        timings and the batch trace entry to the requests of the batch it
        is executing.  Entries are ``None`` for items submitted without a
        context.
        """
        return self._dispatch_ctxs

    # ------------------------------------------------------------ leader side

    def _lead(self) -> None:
        """Dispatch one batch from the queue head, then hand over the lead.

        The successor is promoted in a ``finally``: whatever the dispatch
        did, a non-empty queue always has a leader on its way.
        """
        with self._lock:
            batch = self._queue[: self.max_batch]
            del self._queue[: len(batch)]
        try:
            self._dispatch(batch)
        finally:
            with self._lock:
                if self._queue:
                    successor = self._queue[0][1]
                    successor.promoted = True
                    successor.event.set()
                else:
                    self._leading = False
                    self._idle.notify_all()

    def _dispatch(self, batch: list[tuple[object, _Slot]]) -> None:
        """Execute one batch and fan the results back to its slots."""
        start = time.perf_counter()
        requests = [request for request, _slot in batch]
        # Stamp the coalescing link before dispatch: batch identity plus
        # each item's measured queue wait (about zero for the leader).
        # ``dispatch_fn`` can read the same contexts via
        # ``dispatching_contexts`` to attach engine-stage timings.
        self._batch_seq += 1
        batch_id = f"b{self._batch_seq}"
        self._dispatch_ctxs = [slot.ctx for _request, slot in batch]
        for _request, slot in batch:
            if slot.ctx is not None:
                slot.ctx.begin_batch(
                    batch_id,
                    len(batch),
                    queue_wait=start - slot.enqueued,
                )
        try:
            results = self._dispatch_fn(requests)
            if len(results) != len(batch):
                raise RuntimeError(
                    f"dispatch returned {len(results)} results for "
                    f"{len(batch)} requests"
                )
        except BaseException as exc:  # noqa: BLE001
            # Delivered to every caller of the batch; the leader's own
            # item is in it, so the leader re-raises it too.
            results = [exc] * len(batch)
        finally:
            self.dispatched += len(batch)
            self.metrics.counter("serve.batches").inc()
            if len(batch) > 1:
                self.metrics.counter("serve.coalesced_batches").inc()
            self.metrics.histogram("serve.batch_size").observe(len(batch))
            self.metrics.histogram("serve.batch_wait_seconds").observe(
                time.perf_counter() - start
            )
            self._dispatch_ctxs = []
        fanback_start = time.perf_counter()
        for (_request, slot), result in zip(batch, results):
            if isinstance(result, BaseException):
                slot.error = result
            else:
                slot.result = result
            if slot.ctx is not None:
                # Per-item fan-back: how long this item waited behind
                # earlier items of its batch to have its slot set.
                slot.ctx.stage("fanback", time.perf_counter() - fanback_start)
            slot.event.set()

    # ---------------------------------------------------------------- lifecycle

    def close(self, *, timeout: float = 10.0) -> None:
        """Stop accepting work and wait until the queue has drained.

        Everything already queued is still dispatched (callers blocked in
        :meth:`submit` get their results); only *new* submissions fail
        with :class:`BatcherClosed`.  Returns once the queue is empty and
        no leader is active, or after ``timeout`` seconds.  Idempotent.
        """
        with self._idle:
            self._closed = True
            self._idle.wait_for(
                lambda: not self._queue and not self._leading, timeout
            )

    def __enter__(self) -> "RequestBatcher":
        """Context-manager entry: the batcher itself (ready to submit)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: :meth:`close`."""
        self.close()
