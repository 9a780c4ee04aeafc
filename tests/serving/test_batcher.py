"""Tests for the request batcher: leader/follower coalescing, fan-back,
errors, timeouts and drain.

The leader/follower tests hold a dispatch on a gate and watch
:attr:`RequestBatcher.depth`, so every batch they assert on is formed
deterministically instead of by racing threads against a clock.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.serving.batcher import BatcherClosed, RequestBatcher
from repro.serving.reqtrace import RequestContext
from repro.utils.metrics import MetricsRegistry


def echo_dispatch(batch):
    """A dispatch function that tags each item with its batch size."""
    return [{"item": item, "batch_size": len(batch)} for item in batch]


def wait_for(predicate, timeout: float = 10.0) -> None:
    """Poll ``predicate`` until it holds; fail the test after ``timeout``."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail("condition not reached in time")
        time.sleep(0.001)


class GatedDispatch:
    """Echo dispatch that records every batch and can hold or fail calls.

    ``hold`` names 1-based call numbers that block until
    ``release(n)``; ``entered(n)`` waits until call ``n`` has started.
    ``fail`` names calls that raise after any hold.
    """

    def __init__(self, hold=(1,), fail=()) -> None:
        self.batches: list[list] = []
        self.threads: list[int] = []
        self._entered = {n: threading.Event() for n in hold}
        self._release = {n: threading.Event() for n in hold}
        self._fail = set(fail)
        self._lock = threading.Lock()

    def __call__(self, batch):
        with self._lock:
            self.batches.append(list(batch))
            self.threads.append(threading.get_ident())
            call = len(self.batches)
        if call in self._entered:
            self._entered[call].set()
            assert self._release[call].wait(10.0)
        if call in self._fail:
            raise RuntimeError(f"dispatch {call} failed")
        return echo_dispatch(batch)

    def entered(self, call: int) -> None:
        assert self._entered[call].wait(10.0)

    def release(self, call: int) -> None:
        self._release[call].set()


class Caller(threading.Thread):
    """One ``submit`` on its own thread, keeping its result or error."""

    def __init__(self, batcher, item, **kwargs) -> None:
        super().__init__(daemon=True)
        self.batcher = batcher
        self.item = item
        self.kwargs = kwargs
        self.result = None
        self.error: BaseException | None = None
        self.ident_seen: int | None = None

    def run(self) -> None:
        self.ident_seen = threading.get_ident()
        try:
            self.result = self.batcher.submit(self.item, **self.kwargs)
        except BaseException as exc:  # noqa: BLE001 - inspected by tests
            self.error = exc


def start_leader(batcher, dispatch, item="lead", **kwargs) -> Caller:
    """Start a caller and wait until its dispatch (the first) is held."""
    leader = Caller(batcher, item, **kwargs)
    leader.start()
    dispatch.entered(1)
    return leader


def queue_followers(batcher, items, **kwargs) -> list[Caller]:
    """Queue one caller per item, in order, behind a running dispatch."""
    callers: list[Caller] = []
    base = batcher.depth
    for item in items:
        caller = Caller(batcher, item, **kwargs)
        caller.start()
        wait_for(lambda: batcher.depth == base + len(callers) + 1)
        callers.append(caller)
    return callers


def join_all(callers) -> None:
    for caller in callers:
        caller.join(timeout=10.0)
        assert not caller.is_alive()


class TestCoalescing:
    def test_single_request_round_trips(self):
        with RequestBatcher(echo_dispatch) as batcher:
            result = batcher.submit("a")
        assert result == {"item": "a", "batch_size": 1}

    def test_concurrent_requests_share_a_batch(self):
        """Requests queued behind a running dispatch ride one batch."""
        dispatch = GatedDispatch()
        with RequestBatcher(dispatch, max_batch=64) as batcher:
            leader = start_leader(batcher, dispatch)
            followers = queue_followers(batcher, [f"q{i}" for i in range(8)])
            dispatch.release(1)
            join_all([leader, *followers])
        assert leader.result == {"item": "lead", "batch_size": 1}
        for i, caller in enumerate(followers):
            assert caller.result == {"item": f"q{i}", "batch_size": 8}

    def test_max_batch_cuts_dispatches(self):
        """No dispatch ever exceeds max_batch even under a pile-up."""
        dispatch = GatedDispatch()
        with RequestBatcher(dispatch, max_batch=3) as batcher:
            leader = start_leader(batcher, dispatch)
            followers = queue_followers(batcher, list(range(7)))
            dispatch.release(1)
            join_all([leader, *followers])
        assert [len(batch) for batch in dispatch.batches] == [1, 3, 3, 1]
        assert dispatch.batches[1:] == [[0, 1, 2], [3, 4, 5], [6]]

    def test_order_preserved_within_batch(self):
        """Fan-back pairs result i with submitter i, not arbitrarily."""
        with RequestBatcher(lambda batch: [item * 10 for item in batch]) as (
            batcher
        ):
            results = {}
            threads = [
                threading.Thread(
                    target=lambda i=i: results.update({i: batcher.submit(i)})
                )
                for i in range(12)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert results == {i: i * 10 for i in range(12)}

    def test_metrics_recorded(self):
        registry = MetricsRegistry()
        dispatch = GatedDispatch()
        with RequestBatcher(dispatch, metrics=registry) as batcher:
            leader = start_leader(batcher, dispatch)
            followers = queue_followers(batcher, ["a", "b"])
            dispatch.release(1)
            join_all([leader, *followers])
        assert registry.counter("serve.batches").value == 2
        assert registry.counter("serve.coalesced_batches").value == 1
        assert registry.histogram("serve.batch_size").max == 2
        assert registry.histogram("serve.batch_wait_seconds").count == 2


class TestLeaderFollower:
    def test_lone_submit_runs_on_the_calling_thread(self):
        dispatch = GatedDispatch(hold=())
        with RequestBatcher(dispatch) as batcher:
            assert batcher.submit("a") == {"item": "a", "batch_size": 1}
        assert dispatch.threads == [threading.get_ident()]

    def test_no_dispatcher_thread(self):
        before = set(threading.enumerate())
        with RequestBatcher(echo_dispatch) as batcher:
            batcher.submit("a")
            started = set(threading.enumerate()) - before
            assert not started
            assert not any(
                t.name.startswith("repro-batcher-")
                for t in threading.enumerate()
            )

    def test_followers_ride_the_next_dispatch_in_order(self):
        """The promoted head leads one batch of every queued follower."""
        dispatch = GatedDispatch()
        with RequestBatcher(dispatch) as batcher:
            leader = start_leader(batcher, dispatch)
            followers = queue_followers(batcher, [f"f{i}" for i in range(5)])
            assert batcher.depth == 5
            dispatch.release(1)
            join_all([leader, *followers])
            assert batcher.depth == 0
        assert dispatch.batches == [["lead"], [f"f{i}" for i in range(5)]]
        # The leader ran the first batch; the head follower led the next.
        assert dispatch.threads == [
            leader.ident_seen,
            followers[0].ident_seen,
        ]

    def test_leader_queue_wait_is_near_zero(self):
        """A leader dispatches at once; a follower's wait spans the hold."""
        dispatch = GatedDispatch()
        lead_ctx = RequestContext("lead", "/test")
        follow_ctx = RequestContext("follow", "/test")
        with RequestBatcher(dispatch) as batcher:
            leader = start_leader(batcher, dispatch, ctx=lead_ctx)
            (follower,) = queue_followers(batcher, ["f"], ctx=follow_ctx)
            time.sleep(0.05)
            dispatch.release(1)
            join_all([leader, follower])
        assert lead_ctx.queue_wait_seconds < 0.005
        assert follow_ctx.queue_wait_seconds >= 0.05
        assert lead_ctx.batch_id != follow_ctx.batch_id

    def test_raising_dispatch_reaches_its_batch_and_queue_is_served(self):
        dispatch = GatedDispatch(hold=(1, 2), fail=(2,))
        with RequestBatcher(dispatch) as batcher:
            leader = start_leader(batcher, dispatch)
            doomed = queue_followers(batcher, ["a", "b"])
            dispatch.release(1)
            dispatch.entered(2)  # "a" leads ["a", "b"], held, then raises
            (survivor,) = queue_followers(batcher, ["c"])
            dispatch.release(2)
            join_all([leader, *doomed, survivor])
        assert leader.result == {"item": "lead", "batch_size": 1}
        for caller in doomed:
            assert isinstance(caller.error, RuntimeError)
            assert str(caller.error) == "dispatch 2 failed"
        assert survivor.error is None
        assert survivor.result == {"item": "c", "batch_size": 1}
        assert dispatch.batches == [["lead"], ["a", "b"], ["c"]]

    def test_timed_out_follower_leaves_no_stranded_work(self):
        """A queued follower that times out takes its item with it."""
        dispatch = GatedDispatch()
        with RequestBatcher(dispatch) as batcher:
            leader = start_leader(batcher, dispatch)
            (impatient,) = queue_followers(batcher, ["gone"], timeout=0.5)
            (patient,) = queue_followers(batcher, ["stay"])
            impatient.join(timeout=10.0)
            assert isinstance(impatient.error, TimeoutError)
            assert batcher.depth == 1
            dispatch.release(1)
            join_all([leader, patient])
            assert patient.result == {"item": "stay", "batch_size": 1}
            assert batcher.submit("later") == {
                "item": "later",
                "batch_size": 1,
            }
        assert ["gone"] not in dispatch.batches
        assert dispatch.batches == [["lead"], ["stay"], ["later"]]

    def test_thread_churn_strands_no_work(self):
        """Racing submits, some timing out, leave no caller stranded.

        A lost promotion would leave a queued caller with no leader, so
        it would hang until its timeout and the final lone submit would
        find the batcher still marked busy.
        """
        n_threads, n_rounds = 16, 40
        results = []
        lock = threading.Lock()

        def dispatch(batch):
            time.sleep(0.0002)
            return list(batch)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with RequestBatcher(dispatch, max_batch=4) as batcher:

                def client(t):
                    for i in range(n_rounds):
                        item = (t, i)
                        timeout = 0.0001 if (t + i) % 7 == 0 else 30.0
                        try:
                            got = batcher.submit(item, timeout=timeout)
                        except TimeoutError:
                            continue
                        with lock:
                            results.append((item, got))

                threads = [
                    threading.Thread(target=client, args=(t,))
                    for t in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
                assert not any(t.is_alive() for t in threads)
                assert batcher.depth == 0
                start = time.perf_counter()
                assert batcher.submit("last") == "last"
                elapsed = time.perf_counter() - start
        finally:
            sys.setswitchinterval(interval)
        patient = sum(
            1
            for t in range(n_threads)
            for i in range(n_rounds)
            if (t + i) % 7 != 0
        )
        assert len(results) >= patient
        assert all(sent == got for sent, got in results)
        assert elapsed < 0.5


class TestErrors:
    def test_dispatch_exception_delivered_to_callers(self):
        def broken(batch):
            raise RuntimeError("engine exploded")

        with RequestBatcher(broken) as batcher:
            with pytest.raises(RuntimeError, match="engine exploded"):
                batcher.submit("a")

    def test_dispatch_survives_for_later_requests(self):
        """One poisoned batch must not wedge the batcher."""
        calls = {"n": 0}

        def flaky(batch):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return echo_dispatch(batch)

        with RequestBatcher(flaky) as batcher:
            with pytest.raises(RuntimeError, match="transient"):
                batcher.submit("a")
            assert batcher.submit("b")["item"] == "b"

    def test_per_item_exception_raised_only_in_that_caller(self):
        def selective(batch):
            return [
                ValueError("bad item") if item == "bad" else item
                for item in batch
            ]

        gate = threading.Event()
        entered = threading.Event()

        def held_selective(batch):
            if batch == ["lead"]:
                entered.set()
                assert gate.wait(10.0)
            return selective(batch)

        with RequestBatcher(held_selective) as batcher:
            leader = Caller(batcher, "lead")
            leader.start()
            assert entered.wait(10.0)
            callers = queue_followers(batcher, ["ok1", "bad", "ok2"])
            gate.set()
            join_all([leader, *callers])
        outcomes = {c.item: c.result or c.error for c in callers}
        assert outcomes["ok1"] == "ok1"
        assert outcomes["ok2"] == "ok2"
        assert isinstance(outcomes["bad"], ValueError)
        assert str(outcomes["bad"]) == "bad item"

    def test_length_mismatch_is_an_error(self):
        with RequestBatcher(lambda batch: []) as batcher:
            with pytest.raises(RuntimeError, match="0 results for 1 requests"):
                batcher.submit("a")

    def test_submit_timeout(self):
        """A follower whose batch never comes raises TimeoutError."""
        dispatch = GatedDispatch()
        batcher = RequestBatcher(dispatch)
        leader = start_leader(batcher, dispatch)
        try:
            with pytest.raises(TimeoutError):
                batcher.submit("a", timeout=0.05)
        finally:
            dispatch.release(1)
            leader.join(timeout=10.0)
            batcher.close()


class TestClose:
    def test_submit_after_close_raises(self):
        batcher = RequestBatcher(echo_dispatch)
        batcher.close()
        with pytest.raises(BatcherClosed):
            batcher.submit("a")

    def test_close_drains_queued_work(self):
        """close() with a held leader and queued followers delivers every
        result before it returns; later submits are refused."""
        dispatch = GatedDispatch()
        batcher = RequestBatcher(dispatch)
        leader = start_leader(batcher, dispatch)
        followers = queue_followers(batcher, ["a", "b", "c"])
        closer = threading.Thread(target=batcher.close)
        closer.start()
        closer.join(timeout=0.1)
        assert closer.is_alive()  # still waiting on the held leader
        with pytest.raises(BatcherClosed):
            batcher.submit("late")
        dispatch.release(1)
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        join_all([leader, *followers])
        assert leader.result == {"item": "lead", "batch_size": 1}
        for caller in followers:
            assert caller.result == {"item": caller.item, "batch_size": 3}
        with pytest.raises(BatcherClosed):
            batcher.submit("after")

    def test_close_is_idempotent(self):
        batcher = RequestBatcher(echo_dispatch)
        batcher.close()
        batcher.close()
