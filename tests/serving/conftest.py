"""Serving-test fixtures."""

from __future__ import annotations

import time

import pytest


@pytest.fixture
def hold_first_dispatch(monkeypatch):
    """Make a server's next dispatch wait until ``n`` requests are in.

    An idle batcher dispatches its first arrival at once, so a burst of
    concurrent clients coalesces only where the others queue while that
    dispatch runs.  Holding it until they have (or 10 s passed) makes
    the rest ride the following batches, whatever the scheduling.
    """

    def hold(server, n_requests: int) -> None:
        dispatch = server.service.dispatch
        held = []

        def held_dispatch(requests):
            if not held:
                held.append(len(requests))
                deadline = time.monotonic() + 10.0
                while (
                    len(requests) + server.batcher.depth < n_requests
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.001)
            return dispatch(requests)

        monkeypatch.setattr(server.service, "dispatch", held_dispatch)

    return hold
