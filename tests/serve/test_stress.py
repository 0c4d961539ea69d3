"""Threading stress tests: the model registry and the micro-batcher.

Eight worker threads hammer the shared structures; the assertions are
about *integrity* (no lost updates, every future resolved, results
identical to the single-threaded answers) and *liveness* (everything
finishes well inside a timeout -- a deadlock fails the join, not the
whole pytest run).
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor, as_completed

import numpy as np
import pytest

from repro.core.bst import BSTModel
from repro.serve.engine import MicroBatcher, TierAssigner
from repro.serve.registry import ModelRegistry

N_THREADS = 8
JOIN_TIMEOUT_S = 60.0


@pytest.fixture
def small_registry(tmp_path):
    return ModelRegistry(tmp_path / "models")


@pytest.fixture(scope="module")
def fits(catalog_a, ookla_a):
    """Six distinguishable fits (different training subsets)."""
    downs = np.asarray(ookla_a["download_mbps"], dtype=float)
    ups = np.asarray(ookla_a["upload_mbps"], dtype=float)
    out = []
    for i in range(6):
        lo = i * 150
        sample = slice(lo, lo + 2_000)
        out.append(BSTModel(catalog_a).fit(downs[sample], ups[sample]))
    return out


def _run_threads(worker, n_threads=N_THREADS):
    """Run ``worker(thread_index)`` on N threads; fail on hang or error."""
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        futures = [pool.submit(worker, i) for i in range(n_threads)]
        done = []
        for fut in as_completed(futures, timeout=JOIN_TIMEOUT_S):
            done.append(fut.result())  # re-raises worker exceptions
    assert len(done) == n_threads
    return done


class TestRegistryStress:
    def test_concurrent_load(self, small_registry, fits, catalog_a):
        """Concurrent loads across 6 keys, each read from disk."""
        keys = []
        expected = {}
        for i, fitted in enumerate(fits):
            key = small_registry.key_for(chr(ord("A") + i), catalog_a)
            record = small_registry.register(key, fitted)
            keys.append(key)
            expected[key.slug] = record.digest

        def worker(tid: int):
            rng = np.random.default_rng(tid)
            checked = 0
            for pick in rng.integers(0, len(keys), 40):
                key = keys[int(pick)]
                result, record = small_registry.load(key)
                # Integrity: a load never hands back the wrong model.
                assert record.digest == expected[key.slug]
                assert len(result) == len(fits[int(pick)])
                checked += 1
            return checked

        assert sum(_run_threads(worker)) == N_THREADS * 40

    def test_concurrent_register_and_load(self, small_registry, fits,
                                          catalog_a):
        """Writers registering while readers load: no lost registrations."""
        barrier = threading.Barrier(N_THREADS)

        def worker(tid: int):
            barrier.wait(timeout=JOIN_TIMEOUT_S)
            fitted = fits[tid % len(fits)]
            key = small_registry.key_for(chr(ord("A") + tid), catalog_a)
            record = small_registry.register(key, fitted)
            result, loaded_record = small_registry.load(key)
            assert loaded_record.digest == record.digest
            return key.slug

        slugs = _run_threads(worker)
        # Every thread's registration survived (no lost index updates).
        assert len(set(slugs)) == N_THREADS
        recorded = {record.key.slug for record in small_registry.records()}
        assert set(slugs) <= recorded


class TestMicroBatcherStress:
    def test_eight_producers_no_lost_futures(self, fits, fresh_sample):
        """8 producers * 50 tuples; every future resolves correctly."""
        assigner = TierAssigner(fits[0])
        downs, ups = fresh_sample
        per_thread = 50
        batcher = MicroBatcher(assigner, max_batch=32)
        # A short switch interval interleaves producers with the greedy
        # drain far more often than the 5 ms default.
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def worker(tid: int):
                futures = []
                for j in range(per_thread):
                    idx = (tid * per_thread + j) % len(downs)
                    futures.append(
                        (idx, batcher.submit(downs[idx], ups[idx],
                                             timeout_s=JOIN_TIMEOUT_S))
                    )
                out = []
                for idx, fut in futures:
                    out.append((idx, fut.result(timeout=JOIN_TIMEOUT_S)))
                return out

            results = [
                pair for chunk in _run_threads(worker) for pair in chunk
            ]
        finally:
            sys.setswitchinterval(switch)
            batcher.close()
        assert len(results) == N_THREADS * per_thread
        # Integrity: batched answers match the direct single assignment.
        for idx, (tier, group) in results[::17]:
            assert (tier, group) == assigner.assign_one(downs[idx], ups[idx])

    def test_close_after_producers_finish_flushes_everything(
        self, fits, fresh_sample, gated
    ):
        """close() drains the queue; pre-close submissions all resolve."""
        assigner = TierAssigner(fits[0])
        held = gated(assigner)
        downs, ups = fresh_sample
        batcher = MicroBatcher(held, max_batch=64)
        first = batcher.submit(downs[0], ups[0], timeout_s=JOIN_TIMEOUT_S)
        assert held.entered.wait(JOIN_TIMEOUT_S)
        # Eight producers queue 40 tuples behind the held flush; only
        # close()'s drain can flush them.
        def worker(tid: int):
            rows = range(1 + tid * 5, 1 + (tid + 1) * 5)
            return [
                (i, batcher.submit(downs[i], ups[i],
                                   timeout_s=JOIN_TIMEOUT_S))
                for i in rows
            ]

        futures = [pair for chunk in _run_threads(worker) for pair in chunk]
        held.close_held(batcher, len(futures), timeout_s=JOIN_TIMEOUT_S)
        assert held.sizes == [1, 40]
        for i, fut in [(0, first), *futures]:
            tier, group = fut.result(timeout=JOIN_TIMEOUT_S)
            assert (tier, group) == assigner.assign_one(downs[i], ups[i])

    def test_submit_after_close_raises(self, fits):
        batcher = MicroBatcher(TierAssigner(fits[0]))
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(100.0, 5.0)

    def test_concurrent_close_is_idempotent(self, fits):
        batcher = MicroBatcher(TierAssigner(fits[0]))

        def worker(_tid: int):
            batcher.close()
            return 1

        assert sum(_run_threads(worker)) == N_THREADS
