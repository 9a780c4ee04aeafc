"""Tests for the request batcher: coalescing, fan-back, errors, drain."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.serving.batcher import BatcherClosed, RequestBatcher
from repro.utils.metrics import MetricsRegistry


def echo_dispatch(batch):
    """A dispatch function that tags each item with its batch size."""
    return [{"item": item, "batch_size": len(batch)} for item in batch]


class TestCoalescing:
    def test_single_request_round_trips(self):
        with RequestBatcher(echo_dispatch) as batcher:
            result = batcher.submit("a")
        assert result == {"item": "a", "batch_size": 1}

    def test_concurrent_requests_share_a_batch(self):
        """Requests parked within the window dispatch as one batch."""
        release = threading.Event()

        def gated_dispatch(batch):
            return echo_dispatch(batch)

        results = {}
        with RequestBatcher(
            gated_dispatch, max_batch=64, max_wait_ms=100.0
        ) as batcher:

            def client(name):
                release.wait()
                results[name] = batcher.submit(name)

            threads = [
                threading.Thread(target=client, args=(f"q{i}",))
                for i in range(8)
            ]
            for t in threads:
                t.start()
            release.set()
            for t in threads:
                t.join()
        assert set(results) == {f"q{i}" for i in range(8)}
        for name, result in results.items():
            assert result["item"] == name
        # With an ample window at least one dispatch must have coalesced.
        assert max(r["batch_size"] for r in results.values()) > 1

    def test_max_batch_cuts_dispatches(self):
        """No dispatch ever exceeds max_batch even under a pile-up."""
        sizes = []
        lock = threading.Lock()

        def recording_dispatch(batch):
            with lock:
                sizes.append(len(batch))
            return list(batch)

        with RequestBatcher(
            recording_dispatch, max_batch=3, max_wait_ms=50.0
        ) as batcher:
            threads = [
                threading.Thread(target=batcher.submit, args=(i,))
                for i in range(10)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert sum(sizes) == 10
        assert max(sizes) <= 3

    def test_order_preserved_within_batch(self):
        """Fan-back pairs result i with submitter i, not arbitrarily."""
        with RequestBatcher(
            lambda batch: [item * 10 for item in batch],
            max_wait_ms=50.0,
        ) as batcher:
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
        with RequestBatcher(echo_dispatch, metrics=registry) as batcher:
            batcher.submit("a")
        assert registry.counter("serve.batches").value >= 1


class TestArrivalAwareWait:
    def test_lone_request_skips_the_window(self):
        """Nobody on the way: a lone submit dispatches at once."""
        with RequestBatcher(
            echo_dispatch, max_wait_ms=500.0, arrivals=lambda: False
        ) as batcher:
            start = time.perf_counter()
            result = batcher.submit("a")
            elapsed = time.perf_counter() - start
        assert result == {"item": "a", "batch_size": 1}
        assert elapsed < 0.25

    def test_announced_arrivals_still_coalesce(self):
        """While a caller is on its way, concurrent submits share a batch."""
        release = threading.Event()
        results = {}
        with RequestBatcher(
            echo_dispatch, max_wait_ms=200.0, arrivals=lambda: False
        ) as batcher:

            def client(name):
                release.wait()
                results[name] = batcher.submit(name)

            threads = [
                threading.Thread(target=client, args=(f"q{i}",))
                for i in range(8)
            ]
            with batcher.arriving():
                for t in threads:
                    t.start()
                release.set()
                for t in threads:
                    t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)
        assert set(results) == {f"q{i}" for i in range(8)}
        assert max(r["batch_size"] for r in results.values()) > 1

    def test_turned_back_arrival_releases_the_batch(self):
        """An announced caller that never submits ends the wait early."""
        results = {}
        with RequestBatcher(
            echo_dispatch, max_wait_ms=5000.0, arrivals=lambda: False
        ) as batcher:
            thread = threading.Thread(
                target=lambda: results.update(a=batcher.submit("a"))
            )
            start = time.perf_counter()
            with batcher.arriving():
                thread.start()
                time.sleep(0.05)
            thread.join(timeout=10.0)
            elapsed = time.perf_counter() - start
        assert not thread.is_alive()
        assert results["a"] == {"item": "a", "batch_size": 1}
        assert elapsed < 2.5

    def test_arrival_count_survives_thread_churn(self):
        """Racing arrivals leave the count at zero: no lost update.

        A leaked count would make every later lone request wait out the
        whole window, so the final lone submit would take a second.
        """
        n_threads, n_rounds = 16, 40
        results = []
        lock = threading.Lock()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with RequestBatcher(
                echo_dispatch, max_wait_ms=1000.0, arrivals=lambda: False
            ) as batcher:

                def client(t):
                    for i in range(n_rounds):
                        with batcher.arriving():
                            item = (t, i)
                        result = batcher.submit(item)
                        with lock:
                            results.append((item, result["item"]))

                threads = [
                    threading.Thread(target=client, args=(t,))
                    for t in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
                assert not any(t.is_alive() for t in threads)
                start = time.perf_counter()
                batcher.submit("last")
                elapsed = time.perf_counter() - start
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == n_threads * n_rounds
        assert all(sent == got for sent, got in results)
        assert elapsed < 0.5

    def test_arrivals_probe_keeps_the_batch_open(self):
        """Callers not yet counted, reported by arrivals(), are waited for."""
        with RequestBatcher(
            echo_dispatch, max_wait_ms=100.0, arrivals=lambda: True
        ) as batcher:
            start = time.perf_counter()
            batcher.submit("a")
            elapsed = time.perf_counter() - start
        assert elapsed >= 0.09

    def test_time_window_without_arrival_signal(self):
        """The default batcher still lingers the whole window."""
        with RequestBatcher(echo_dispatch, max_wait_ms=100.0) as batcher:
            start = time.perf_counter()
            batcher.submit("a")
            elapsed = time.perf_counter() - start
        assert elapsed >= 0.09


class TestErrors:
    def test_dispatch_exception_delivered_to_callers(self):
        def broken(batch):
            raise RuntimeError("engine exploded")

        with RequestBatcher(broken) as batcher:
            with pytest.raises(RuntimeError, match="engine exploded"):
                batcher.submit("a")

    def test_dispatch_survives_for_later_requests(self):
        """One poisoned batch must not kill the dispatcher thread."""
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

        with RequestBatcher(selective, max_wait_ms=50.0) as batcher:
            outcomes = {}

            def client(item):
                try:
                    outcomes[item] = batcher.submit(item)
                except ValueError as exc:
                    outcomes[item] = f"raised:{exc}"

            threads = [
                threading.Thread(target=client, args=(item,))
                for item in ("ok1", "bad", "ok2")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert outcomes["ok1"] == "ok1"
        assert outcomes["ok2"] == "ok2"
        assert outcomes["bad"] == "raised:bad item"

    def test_length_mismatch_is_an_error(self):
        with RequestBatcher(lambda batch: []) as batcher:
            with pytest.raises(RuntimeError, match="0 results for 1 requests"):
                batcher.submit("a")

    def test_submit_timeout(self):
        def stuck(batch):
            time.sleep(10.0)
            return list(batch)

        batcher = RequestBatcher(stuck)
        try:
            with pytest.raises(TimeoutError):
                batcher.submit("a", timeout=0.05)
        finally:
            # The dispatcher thread is daemonic and still sleeping; don't
            # join it, just mark the batcher closed for new work.
            batcher._closed = True


class TestClose:
    def test_submit_after_close_raises(self):
        batcher = RequestBatcher(echo_dispatch)
        batcher.close()
        with pytest.raises(BatcherClosed):
            batcher.submit("a")

    def test_close_drains_queued_work(self):
        """Requests parked before close() still get their results."""
        started = threading.Event()
        release = threading.Event()

        def slow_dispatch(batch):
            started.set()
            release.wait(timeout=5.0)
            return echo_dispatch(batch)

        batcher = RequestBatcher(slow_dispatch, max_wait_ms=1.0)
        results = {}
        t = threading.Thread(
            target=lambda: results.update({"a": batcher.submit("a")})
        )
        t.start()
        assert started.wait(timeout=5.0)
        closer = threading.Thread(target=batcher.close)
        closer.start()
        release.set()
        t.join(timeout=5.0)
        closer.join(timeout=5.0)
        assert results["a"]["item"] == "a"

    def test_close_is_idempotent(self):
        batcher = RequestBatcher(echo_dispatch)
        batcher.close()
        batcher.close()
