"""Streaming benchmarks: firehose throughput and drift-to-swap latency.

Asserts the streaming contracts from docs/STREAMING.md:

- the firehose plus the windowed monitor sustain at least **10,000
  events/sec** in a single process (micro-batch generation, Welford
  window updates, refit-sample pushes, and periodic verdict evaluation
  all included);
- a drifted stream triggers exactly one debounced refit, and the
  drift-to-swap latency on the deterministic ``SimClock`` stays inside
  the debounce-policy bound (min-hold rounded up to the poll cadence,
  plus the zero-sim-time fit).

Emits ``BENCH_stream.json`` (via :func:`repro.obs.runs.record_bench`)
so ``repro obs check`` tracks streaming regressions alongside the other
benchmarks.  Run with ``-s`` to see the timing tables::

    PYTHONPATH=src python -m pytest benchmarks/bench_stream.py -q -s
"""

from __future__ import annotations

import os
import time

from repro.obs import use_collector, use_registry
from repro.obs.runs import record_bench
from repro.serve.registry import ModelRegistry
from repro.stream.clock import SimClock
from repro.stream.firehose import DriftSegment, MeasurementStream
from repro.stream.monitor import StreamMonitor
from repro.stream.run import StreamSession, warmup_and_register
from repro.stream.scheduler import RefitPolicy, RefitScheduler

STREAM_N = int(os.environ.get("REPRO_BENCH_STREAM_N", "200000"))
BATCH_SIZE = 2048
VERDICT_EVERY = 20  # batches between verdict evaluations
MIN_EVENTS_PER_S = 10_000.0
MAX_DRIFT_TO_SWAP_S = 10.0


def test_firehose_throughput_and_drift_to_swap(tmp_path):
    """Firehose+monitor >= 10k events/s; refit swap latency bounded."""
    with use_collector() as collector, use_registry() as metrics:
        # -- throughput: drain STREAM_N events through the monitor ----
        registry = ModelRegistry(tmp_path / "models")
        clock = SimClock()
        stream = MeasurementStream(
            "ookla",
            "A",
            seed=0,
            events_per_s=50_000.0,
            batch_size=BATCH_SIZE,
            pool_size=8192,
            diurnal=True,
        )
        warmup_and_register(stream, registry)
        monitor = StreamMonitor(
            registry=registry, clock=clock, window_s=30.0
        )
        n_batches = max(1, STREAM_N // BATCH_SIZE)
        n_events = 0
        t0 = time.perf_counter()
        for i, batch in enumerate(stream.batches(n_batches)):
            clock.advance_to(batch.t_s)
            monitor.observe(batch)
            n_events += batch.downloads.size
            if (i + 1) % VERDICT_EVERY == 0:
                monitor.verdicts()
        monitor.verdicts()
        firehose_s = time.perf_counter() - t0
        events_per_s = n_events / firehose_s
        metrics.gauge("stream.bench.events_per_s").set(events_per_s)
        assert events_per_s >= MIN_EVENTS_PER_S, (
            f"firehose+monitor sustained only {events_per_s:.0f} "
            f"events/s (< {MIN_EVENTS_PER_S:.0f})"
        )

        # -- lifecycle: drifted stream -> one refit, bounded latency --
        drift_registry = ModelRegistry(tmp_path / "drift-models")
        drifted = MeasurementStream(
            "ookla",
            "A",
            seed=7,
            events_per_s=400.0,
            batch_size=128,
            pool_size=1024,
            diurnal=False,
            segments=[
                DriftSegment(
                    start_s=30.0,
                    download_scale=0.4,
                    upload_scale=0.4,
                )
            ],
        )
        record = warmup_and_register(drifted, drift_registry)
        sim = SimClock()
        drift_monitor = StreamMonitor(
            registry=drift_registry,
            clock=sim,
            window_s=20.0,
            min_samples=150,
            sample_cap=1024,
        )
        scheduler = RefitScheduler(
            registry=drift_registry,
            monitor=drift_monitor,
            policy=RefitPolicy(min_hold_s=2.0, cooldown_s=300.0),
            clock=sim,
            ledger_path=None,
        )
        session = StreamSession(
            drifted, drift_monitor, sim, scheduler=scheduler,
            poll_interval_s=1.0,
        )
        t0 = time.perf_counter()
        summary = session.run(duration_s=65.0)
        lifecycle_s = time.perf_counter() - t0

        refits = summary["refits"]
        assert len(refits) == 1, f"expected one refit, got {refits}"
        refit = refits[0]
        assert refit["old_digest"] == record.digest
        swapped = drift_registry.lookup(record.key)
        assert swapped.digest == refit["new_digest"]
        drift_to_swap_s = refit["drift_to_swap_s"]
        metrics.gauge("stream.bench.drift_to_swap_s").set(drift_to_swap_s)
        assert drift_to_swap_s <= MAX_DRIFT_TO_SWAP_S, (
            f"drift-to-swap took {drift_to_swap_s:.2f}s of stream time "
            f"(> {MAX_DRIFT_TO_SWAP_S:.0f}s)"
        )

    record_bench(
        "stream",
        wall_s=firehose_s + lifecycle_s,
        collector=collector,
        registry=metrics,
        results={
            "events_per_s": events_per_s,
            "n_events": float(n_events),
            "firehose_wall_s": firehose_s,
            "drift_to_swap_s": drift_to_swap_s,
            "refit_count": float(len(refits)),
            "refit_n_samples": float(refit["n_samples"]),
            "lifecycle_wall_s": lifecycle_s,
        },
        params={
            "n": STREAM_N,
            "batch_size": BATCH_SIZE,
            "verdict_every": VERDICT_EVERY,
            "min_events_per_s": MIN_EVENTS_PER_S,
            "max_drift_to_swap_s": MAX_DRIFT_TO_SWAP_S,
        },
        seed=0,
    )

    print()
    print(f"-- firehose + monitor throughput (n={n_events}) --")
    print(
        f"events/s:          {events_per_s:9.0f} "
        f"({n_events} over {firehose_s * 1e3:.1f} ms, "
        f"batch={BATCH_SIZE})"
    )
    print("-- drifted lifecycle (SimClock, min_hold=2s, poll=1s) --")
    print(
        f"drift-to-swap:     {drift_to_swap_s:9.2f} s stream time "
        f"({lifecycle_s * 1e3:.1f} ms wall, "
        f"{int(refit['n_samples'])} refit samples)"
    )
