"""Tests for the tier-assignment engine (TierAssigner + MicroBatcher)."""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro.core.bst import BSTModel, DownloadStageFit
from repro.core.config import BSTConfig
from repro.obs import metrics as obs_metrics
from repro.serve.engine import MicroBatcher, TierAssigner


def _speeds(table):
    return (
        np.asarray(table["download_mbps"], dtype=float),
        np.asarray(table["upload_mbps"], dtype=float),
    )


# ---------------------------------------------------------------------------
# TierAssigner
# ---------------------------------------------------------------------------
def test_training_sample_replay_is_byte_identical(fitted_a, ookla_a):
    downs, ups = _speeds(ookla_a)
    batch = TierAssigner(fitted_a).assign(downs, ups)
    assert np.array_equal(batch.tiers, fitted_a.tiers)
    assert np.array_equal(batch.group_indices, fitted_a.group_indices)


def test_kmeans_fit_replays_identically(ookla_a, catalog_a):
    downs, ups = _speeds(ookla_a)
    fitted = BSTModel(catalog_a, BSTConfig(clustering="kmeans")).fit(
        downs, ups
    )
    batch = TierAssigner(fitted).assign(downs, ups)
    assert np.array_equal(batch.tiers, fitted.tiers)


def test_fresh_data_assignments_are_valid(fitted_a, fresh_sample):
    downs, ups = fresh_sample
    batch = TierAssigner(fitted_a).assign(downs, ups)
    assert len(batch) == downs.size
    valid_tiers = {p.tier for p in fitted_a.catalog.plans}
    assert set(np.unique(batch.tiers)) <= valid_tiers
    n_groups = len(fitted_a.upload_stage.groups)
    assert batch.group_indices.min() >= 0
    assert batch.group_indices.max() < n_groups


def test_assign_one_matches_batch(fitted_a, fresh_sample):
    downs, ups = fresh_sample
    assigner = TierAssigner(fitted_a)
    batch = assigner.assign(downs[:5], ups[:5])
    for i in range(5):
        tier, group = assigner.assign_one(downs[i], ups[i])
        assert tier == batch.tiers[i]
        assert group == batch.group_indices[i]


def test_to_result_shares_stage_fits(fitted_a, fresh_sample):
    downs, ups = fresh_sample
    result = TierAssigner(fitted_a).to_result(downs, ups)
    assert result.upload_stage is fitted_a.upload_stage
    assert result.download_stages is fitted_a.download_stages
    assert len(result) == downs.size


def test_non_finite_input_rejected(fitted_a):
    assigner = TierAssigner(fitted_a)
    with pytest.raises(ValueError, match="finite"):
        assigner.assign([100.0, float("nan")], [5.0, 5.0])
    with pytest.raises(ValueError, match="pair"):
        assigner.assign([100.0, 200.0], [5.0])
    with pytest.raises(ValueError, match="empty"):
        assigner.assign([], [])


def test_missing_download_stage_falls_back(fitted_a, fresh_sample):
    # Amputate one fitted download stage: its rows must flow through the
    # log-nearest-plan fallback, not crash.
    stages = dict(fitted_a.download_stages)
    gi, _ = stages.popitem()
    amputated = type(fitted_a)(
        catalog=fitted_a.catalog,
        upload_stage=fitted_a.upload_stage,
        download_stages=stages,
        group_indices=fitted_a.group_indices,
        tiers=fitted_a.tiers,
    )
    downs, ups = fresh_sample
    batch = TierAssigner(amputated).assign(downs, ups)
    rows = batch.group_indices == gi
    assert batch.n_fallback == int(rows.sum())
    valid_tiers = {p.tier for p in fitted_a.catalog.plans}
    assert set(np.unique(batch.tiers[rows])) <= valid_tiers


# ---------------------------------------------------------------------------
# MicroBatcher
# ---------------------------------------------------------------------------
def test_microbatch_results_match_direct_assignment(fitted_a, fresh_sample):
    downs, ups = fresh_sample
    assigner = TierAssigner(fitted_a)
    direct = assigner.assign(downs[:50], ups[:50])
    with MicroBatcher(assigner, max_batch=16) as batcher:
        futures = [
            batcher.submit(downs[i], ups[i]) for i in range(50)
        ]
        got = [fut.result(timeout=10) for fut in futures]
    assert [t for t, _ in got] == direct.tiers.tolist()
    assert [g for _, g in got] == direct.group_indices.tolist()


def test_microbatch_concurrent_submitters(fitted_a, fresh_sample):
    downs, ups = fresh_sample
    assigner = TierAssigner(fitted_a)
    expected = assigner.assign(downs[:200], ups[:200])
    results: dict[int, tuple[int, int]] = {}
    lock = threading.Lock()

    def worker(lo: int, hi: int, batcher: MicroBatcher) -> None:
        for i in range(lo, hi):
            out = batcher.assign_one(downs[i], ups[i], timeout_s=10)
            with lock:
                results[i] = out

    with MicroBatcher(assigner, max_batch=32) as batcher:
        threads = [
            threading.Thread(target=worker, args=(lo, lo + 50, batcher))
            for lo in range(0, 200, 50)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    assert len(results) == 200
    for i, (tier, group) in results.items():
        assert tier == expected.tiers[i]
        assert group == expected.group_indices[i]


def test_idle_batcher_flushes_each_tuple_on_arrival(fitted_a, fresh_sample,
                                                    gated):
    downs, ups = fresh_sample
    assigner = TierAssigner(fitted_a)
    held = gated(assigner)
    held.gate.set()  # never hold: measure the idle path
    n = 20
    with obs_metrics.use_registry() as reg:
        with MicroBatcher(held, max_batch=64) as batcher:
            got = [
                batcher.assign_one(downs[i], ups[i], timeout_s=10)
                for i in range(n)
            ]
    # No timer waits for company: every lone tuple is its own flush.
    assert reg.counter("serve.batch_flushes").value == n
    assert held.sizes == [1] * n
    assert got == [assigner.assign_one(downs[i], ups[i]) for i in range(n)]


def test_tuples_queued_behind_a_held_flush_batch_up(fitted_a, fresh_sample,
                                                    gated):
    downs, ups = fresh_sample
    assigner = TierAssigner(fitted_a)
    held = gated(assigner)
    n, max_batch = 50, 16
    with obs_metrics.use_registry() as reg:
        with MicroBatcher(held, max_batch=max_batch) as batcher:
            first = batcher.submit(downs[0], ups[0])
            assert held.entered.wait(10)
            futures = [
                batcher.submit(downs[i], ups[i]) for i in range(1, n + 1)
            ]
            held.gate.set()
            got = [fut.result(timeout=10) for fut in [first, *futures]]
    # The held flush took one tuple; the n queued behind it drain in
    # ceil(n / max_batch) greedy flushes, each as full as it can be.
    assert held.sizes == [1, 16, 16, 16, 2]
    assert len(held.sizes) - 1 == math.ceil(n / max_batch)
    assert reg.counter("serve.batch_flushes").value == len(held.sizes)
    direct = assigner.assign(downs[: n + 1], ups[: n + 1])
    assert [t for t, _ in got] == direct.tiers.tolist()
    assert [g for _, g in got] == direct.group_indices.tolist()


def test_close_drains_pending_futures(fitted_a, fresh_sample, gated):
    downs, ups = fresh_sample
    assigner = TierAssigner(fitted_a)
    held = gated(assigner)
    batcher = MicroBatcher(held, max_batch=1024)
    first = batcher.submit(downs[0], ups[0])
    assert held.entered.wait(10)
    futures = [batcher.submit(downs[i], ups[i]) for i in range(1, 21)]
    held.close_held(batcher, len(futures))
    assert all(fut.done() for fut in [first, *futures])
    assert held.sizes == [1, 20]
    for i, fut in enumerate([first, *futures]):
        assert fut.result() == assigner.assign_one(downs[i], ups[i])


def test_submit_after_close_raises(fitted_a):
    batcher = MicroBatcher(TierAssigner(fitted_a))
    batcher.close()
    with pytest.raises(RuntimeError, match="closed"):
        batcher.submit(100.0, 5.0)
    batcher.close()  # idempotent


def test_bad_tuple_propagates_exception(fitted_a):
    with MicroBatcher(TierAssigner(fitted_a), max_batch=1) as batcher:
        fut = batcher.submit(float("nan"), 5.0)
        with pytest.raises(ValueError, match="finite"):
            fut.result(timeout=10)


def test_constructor_validation(fitted_a):
    assigner = TierAssigner(fitted_a)
    with pytest.raises(ValueError, match="max_batch"):
        MicroBatcher(assigner, max_batch=0)
    with pytest.raises(ValueError, match="max_pending"):
        MicroBatcher(assigner, max_batch=64, max_pending=8)


# ---------------------------------------------------------------------------
# Grouped download pass
# ---------------------------------------------------------------------------
def _reference_assign(assigner, downloads, uploads):
    """The pre-vectorization per-group masking loop, kept as an oracle."""
    labels = assigner._upload_predict(np.asarray(uploads, dtype=float))
    group_indices = assigner._component_groups[labels]
    downloads = np.asarray(downloads, dtype=float)
    tiers = np.empty(downloads.size, dtype=np.int64)
    for gi in np.unique(group_indices):
        gi = int(gi)
        rows = np.flatnonzero(group_indices == gi)
        predict = assigner._download_predict.get(gi)
        if predict is None:
            tiers[rows] = assigner._fallback_assign(gi, downloads[rows])
        else:
            tiers[rows] = assigner._download_tiers[gi][
                predict(downloads[rows])
            ]
    return tiers, group_indices


def test_grouped_pass_matches_reference_loop(fitted_a, fresh_sample):
    downs, ups = fresh_sample
    assigner = TierAssigner(fitted_a)
    batch = assigner.assign(downs, ups)
    ref_tiers, ref_groups = _reference_assign(assigner, downs, ups)
    assert np.array_equal(batch.tiers, ref_tiers)
    assert np.array_equal(batch.group_indices, ref_groups)
