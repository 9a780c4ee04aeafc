"""Serving-test fixtures: deterministic coalescing behind a held leader."""

from __future__ import annotations

import threading
import time

import pytest


class HeldDispatch:
    """Hold a running :class:`~repro.serving.QueryServer`'s next dispatch.

    The request that leads that batch blocks inside the service dispatch
    until :meth:`release`; requests arriving meanwhile queue in the
    batcher, so a test forms a coalesced batch without racing a clock.
    """

    def __init__(self, server, monkeypatch) -> None:
        self.server = server
        self.entered = threading.Event()
        self.gate = threading.Event()
        original = server.service.dispatch

        def held(requests):
            # One leader dispatches at a time, so only the first call
            # can see ``entered`` unset.
            if not self.entered.is_set():
                self.entered.set()
                assert self.gate.wait(10.0)
            return original(requests)

        monkeypatch.setattr(server.service, "dispatch", held)

    def wait_queued(self, n: int, timeout: float = 10.0) -> None:
        """Wait until the held dispatch has ``n`` requests queued behind."""
        assert self.entered.wait(timeout)
        deadline = time.monotonic() + timeout
        while self.server.batcher.depth < n:
            assert time.monotonic() < deadline, (
                f"{self.server.batcher.depth} of {n} requests queued"
            )
            time.sleep(0.001)

    def release(self) -> None:
        self.gate.set()


@pytest.fixture
def hold_dispatch(monkeypatch):
    """``hold_dispatch(server)``: a :class:`HeldDispatch` on ``server``.

    Every hold is released at teardown, so a failing test never leaves a
    handler thread parked.
    """
    holds: list[HeldDispatch] = []

    def hold(server) -> HeldDispatch:
        held = HeldDispatch(server, monkeypatch)
        holds.append(held)
        return held

    yield hold
    for held in holds:
        held.release()
