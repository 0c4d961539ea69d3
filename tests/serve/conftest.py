"""Shared fixtures for the serving subsystem tests."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.bst import BSTModel


@pytest.fixture(scope="package")
def fitted_a(ookla_a, catalog_a):
    """A City-A BST fit over the shared Ookla sample."""
    return BSTModel(catalog_a).fit(
        np.asarray(ookla_a["download_mbps"], dtype=float),
        np.asarray(ookla_a["upload_mbps"], dtype=float),
    )


@pytest.fixture
def fresh_sample(catalog_a):
    """2k plausible City-A tuples the model never saw."""
    rng = np.random.default_rng(77)
    plans = catalog_a.plans
    picks = rng.integers(0, len(plans), 2_000)
    downs = np.abs(
        np.asarray([plans[i].download_mbps for i in picks])
        * rng.normal(0.9, 0.08, picks.size)
    ) + 0.1
    ups = np.abs(
        np.asarray([plans[i].upload_mbps for i in picks])
        * rng.normal(0.95, 0.05, picks.size)
    ) + 0.1
    return downs, ups


class GatedAssigner:
    """An assigner whose ``assign`` blocks until the test opens ``gate``.

    A micro-batcher over it holds its worker inside a flush for as long
    as the test wants, so tuples submitted meanwhile queue up behind the
    held flush -- deterministically, with no timing assumptions.
    ``entered`` is set once a flush is inside ``assign``; ``sizes``
    records every flush's row count, in order.
    """

    def __init__(self, assigner):
        self.inner = assigner
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.sizes: list[int] = []

    def assign(self, downloads, uploads):
        self.sizes.append(len(downloads))
        self.entered.set()
        self.gate.wait()
        return self.inner.assign(downloads, uploads)

    def close_held(self, batcher, n_queued: int, timeout_s: float = 10.0):
        """Close ``batcher`` while its flush is held, then open the gate.

        The gate opens only once ``close()`` has queued its sentinel
        behind the ``n_queued`` tuples waiting on the held flush, so
        nothing but the closing drain can flush them.
        """
        closer = threading.Thread(target=batcher.close)
        closer.start()
        deadline = time.monotonic() + timeout_s
        while batcher._queue.qsize() < n_queued + 1:
            assert time.monotonic() < deadline, "close() queued no sentinel"
            closer.join(timeout=0.001)
        self.gate.set()
        closer.join(timeout=timeout_s)
        assert not closer.is_alive()


@pytest.fixture
def gated():
    """Factory of closed-gate assigners; every gate opens at teardown."""
    made: list[GatedAssigner] = []

    def make(assigner) -> GatedAssigner:
        made.append(GatedAssigner(assigner))
        return made[-1]

    yield make
    for gate in made:
        gate.gate.set()
