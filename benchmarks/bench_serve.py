"""Serving benchmarks: warm-registry assignment vs refit-per-request.

Asserts the serving contracts from docs/SERVING.md:

- a warm registry makes ``contextualize`` at least **20x** faster than
  refitting per request (the fit is the pipeline's dominant cost; the
  warm path only re-runs the frozen predictors) while producing
  byte-identical context columns;
- the stdlib HTTP server sustains at least **1000 assignments/sec**
  with a single worker process;
- the sharded multi-worker router sustains at least **20,000
  assignments/sec** while each routed response stays byte-identical
  to the exact in-process engine.

Emits ``BENCH_serve.json`` (via :func:`repro.obs.runs.record_bench`)
so ``repro obs check`` tracks serving regressions alongside the other
benchmarks.  Run with ``-s`` to see the timing tables::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -q -s
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.request

import numpy as np

from repro.frame import write_csv
from repro.market import city_catalog
from repro.obs import use_collector, use_registry
from repro.obs.runs import record_bench
from repro.pipeline.contextualize import contextualize
from repro.serve.engine import QuantizedLookup, TierAssigner
from repro.serve.registry import ModelRegistry
from repro.serve.router import build_router
from repro.serve.server import ServeConfig, build_server
from repro.vendors.ookla import OoklaSimulator

SERVE_N = int(os.environ.get("REPRO_BENCH_SERVE_N", "40000"))
HTTP_REQUESTS = 20
HTTP_BATCH = 200
ROUTER_WORKERS = 2
ROUTER_THREADS = 4
ROUTER_REQUESTS = 40
ROUTER_BATCH = 2000


def _stage_table(collector) -> str:
    """Per-span-name timing summary (same layout as conftest's)."""
    stats = collector.aggregate_stats()
    if not stats:
        return "(no spans recorded)"
    width = max(len(name) for name in stats)
    lines = [
        f"{'stage'.ljust(width)}  calls  total ms    p50 ms    p95 ms"
    ]
    for name in sorted(
        stats, key=lambda n: stats[n]["total_s"], reverse=True
    ):
        row = stats[name]
        lines.append(
            f"{name.ljust(width)}  {int(row['count']):>5}  "
            f"{row['total_s'] * 1e3:>8.1f}  "
            f"{row['p50_s'] * 1e3:>8.2f}  {row['p95_s'] * 1e3:>8.2f}"
        )
    return "\n".join(lines)


def test_warm_registry_vs_refit_and_throughput(benchmark, tmp_path):
    """Warm-path speedup >= 20x, byte-identical; server >= 1000/s."""
    catalog = city_catalog("A")
    tests = OoklaSimulator("A", seed=0).generate(SERVE_N)
    registry = ModelRegistry(tmp_path / "models")

    with use_collector() as collector, use_registry() as metrics:
        # Refit-per-request baseline: the plain contextualize path.
        t0 = time.perf_counter()
        refit = contextualize(tests, catalog)
        refit_s = time.perf_counter() - t0

        # Cold registry pass fits once and registers.
        contextualize(tests, catalog, registry=registry, city="A")

        # Warm path: model comes from the registry, no fit.
        t0 = time.perf_counter()
        warm = contextualize(tests, catalog, registry=registry, city="A")
        warm_s = time.perf_counter() - t0

        metrics.gauge("serve.bench.refit_s").set(refit_s)
        metrics.gauge("serve.bench.warm_s").set(warm_s)
        metrics.gauge("serve.bench.speedup").set(refit_s / warm_s)

        # Parity: the warm path's output is byte-identical.
        refit_csv = tmp_path / "refit.csv"
        warm_csv = tmp_path / "warm.csv"
        write_csv(refit.table, refit_csv)
        write_csv(warm.table, warm_csv)
        byte_identical = refit_csv.read_bytes() == warm_csv.read_bytes()

        # Single-worker HTTP throughput over the warm registry.
        server = build_server(
            registry, ServeConfig(port=0, default_city="A")
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            url = f"http://{host}:{port}/assign"
            downs = np.asarray(tests["download_mbps"], dtype=float)
            ups = np.asarray(tests["upload_mbps"], dtype=float)
            finite = np.isfinite(downs) & np.isfinite(ups)
            downs, ups = downs[finite], ups[finite]
            bodies = [
                json.dumps(
                    {
                        "downloads": downs[i : i + HTTP_BATCH].tolist(),
                        "uploads": ups[i : i + HTTP_BATCH].tolist(),
                    }
                ).encode("utf-8")
                for i in range(0, HTTP_REQUESTS * HTTP_BATCH, HTTP_BATCH)
            ]
            t0 = time.perf_counter()
            assigned = 0
            for body in bodies:
                request = urllib.request.Request(
                    url,
                    data=body,
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=30) as resp:
                    assigned += len(json.loads(resp.read())["tiers"])
            http_s = time.perf_counter() - t0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        throughput = assigned / http_s
        metrics.gauge("serve.bench.http_rps").set(throughput)

        # Raw engine rates: the vectorised exact path and the proven
        # quantized table, no HTTP in the way.
        assigner = TierAssigner(registry.load(registry.key_for("A", catalog))[0])
        t0 = time.perf_counter()
        exact_batch = assigner.assign(downs, ups)
        engine_rows_s = downs.size / (time.perf_counter() - t0)
        lookup = QuantizedLookup.build(assigner, downs, ups)
        t0 = time.perf_counter()
        lookup_batch = lookup.assign(downs, ups)
        lookup_rows_s = downs.size / (time.perf_counter() - t0)
        lookup_identical = bool(
            np.array_equal(exact_batch.tiers, lookup_batch.tiers)
            and np.array_equal(
                exact_batch.group_indices, lookup_batch.group_indices
            )
        )
        metrics.gauge("serve.bench.engine_rows_s").set(engine_rows_s)
        metrics.gauge("serve.bench.lookup_rows_s").set(lookup_rows_s)

        # Sharded multi-worker path: a second city on the other shard,
        # a 2-worker router in front, concurrent clients, and a
        # byte-identity check on every routed response.
        catalog_b = city_catalog("B")
        tests_b = OoklaSimulator("B", seed=0).generate(SERVE_N)
        contextualize(tests_b, catalog_b, registry=registry, city="B")
        downs_b = np.asarray(tests_b["download_mbps"], dtype=float)
        ups_b = np.asarray(tests_b["upload_mbps"], dtype=float)
        finite_b = np.isfinite(downs_b) & np.isfinite(ups_b)
        downs_b, ups_b = downs_b[finite_b], ups_b[finite_b]
        assigner_b = TierAssigner(
            registry.load(registry.key_for("B", catalog_b))[0]
        )
        speeds = {"A": (downs, ups), "B": (downs_b, ups_b)}
        exacts = {"A": assigner, "B": assigner_b}
        requests_spec = []
        for i in range(ROUTER_REQUESTS):
            city = "AB"[i % 2]
            d, u = speeds[city]
            rows = np.arange(i * ROUTER_BATCH, (i + 1) * ROUTER_BATCH) % d.size
            expected = exacts[city].assign(d[rows], u[rows])
            requests_spec.append(
                (
                    json.dumps(
                        {
                            "downloads": d[rows].tolist(),
                            "uploads": u[rows].tolist(),
                            "city": city,
                        }
                    ).encode("utf-8"),
                    expected.tiers.tolist(),
                )
            )
        router = build_router(
            tmp_path / "models",
            ServeConfig(
                port=0, workers=ROUTER_WORKERS, default_city="A"
            ),
        )
        router_thread = threading.Thread(
            target=router.serve_forever, daemon=True
        )
        router_thread.start()
        try:
            rhost, rport = router.server_address[:2]
            router_url = f"http://{rhost}:{rport}/assign"
            mismatches: list[int] = []
            router_assigned = [0] * ROUTER_THREADS
            errors: list[Exception] = []

            def _drive(worker_idx: int) -> None:
                try:
                    for j in range(
                        worker_idx, len(requests_spec), ROUTER_THREADS
                    ):
                        body, expected_tiers = requests_spec[j]
                        request = urllib.request.Request(
                            router_url,
                            data=body,
                            headers={"Content-Type": "application/json"},
                        )
                        with urllib.request.urlopen(
                            request, timeout=60
                        ) as resp:
                            out = json.loads(resp.read())
                        if out["tiers"] != expected_tiers:
                            mismatches.append(j)
                        router_assigned[worker_idx] += len(out["tiers"])
                except Exception as exc:  # surface in the main thread
                    errors.append(exc)

            # Warm both shards (model load + first JSON parse) off the
            # clock, then measure the sustained concurrent rate.
            for city in ("A", "B"):
                d, u = speeds[city]
                warm_body = json.dumps(
                    {
                        "downloads": d[:8].tolist(),
                        "uploads": u[:8].tolist(),
                        "city": city,
                    }
                ).encode("utf-8")
                request = urllib.request.Request(
                    router_url,
                    data=warm_body,
                    headers={"Content-Type": "application/json"},
                )
                urllib.request.urlopen(request, timeout=60).read()
            drivers = [
                threading.Thread(target=_drive, args=(i,))
                for i in range(ROUTER_THREADS)
            ]
            t0 = time.perf_counter()
            for driver in drivers:
                driver.start()
            for driver in drivers:
                driver.join()
            router_s = time.perf_counter() - t0
        finally:
            router.shutdown()
            router_thread.join(timeout=30)
            router.server_close()
        if errors:
            raise errors[0]
        router_throughput = sum(router_assigned) / router_s
        router_identical = not mismatches
        metrics.gauge("serve.bench.router_rps").set(router_throughput)

    record_bench(
        "serve",
        wall_s=refit_s + warm_s + http_s,
        collector=collector,
        registry=metrics,
        results={
            "refit_s": refit_s,
            "warm_s": warm_s,
            "speedup": refit_s / warm_s,
            "byte_identical": float(byte_identical),
            "http_assignments_per_s": throughput,
            "engine_rows_per_s": engine_rows_s,
            "lookup_rows_per_s": lookup_rows_s,
            "lookup_byte_identical": float(lookup_identical),
            "router_assignments_per_s": router_throughput,
            "router_byte_identical": float(router_identical),
        },
        params={
            "n": SERVE_N,
            "http_requests": HTTP_REQUESTS,
            "http_batch": HTTP_BATCH,
            "router_workers": ROUTER_WORKERS,
            "router_threads": ROUTER_THREADS,
            "router_requests": ROUTER_REQUESTS,
            "router_batch": ROUTER_BATCH,
        },
        seed=0,
    )

    print()
    print(f"-- warm registry vs refit (n={SERVE_N}, city A) --")
    print(f"refit per request: {refit_s * 1e3:9.1f} ms")
    print(
        f"warm registry:     {warm_s * 1e3:9.1f} ms  "
        f"({refit_s / warm_s:.0f}x)"
    )
    print(f"byte-identical output: {byte_identical}")
    print(
        f"http throughput:   {throughput:9.0f} assignments/s "
        f"({assigned} over {http_s * 1e3:.1f} ms, single worker)"
    )
    print(
        f"engine rows/s:     {engine_rows_s:9.0f} exact, "
        f"{lookup_rows_s:.0f} quantized "
        f"(byte-identical: {lookup_identical})"
    )
    print(
        f"router throughput: {router_throughput:9.0f} assignments/s "
        f"({sum(router_assigned)} over {router_s * 1e3:.1f} ms, "
        f"{ROUTER_WORKERS} workers x {ROUTER_THREADS} clients, "
        f"byte-identical: {router_identical})"
    )
    print()
    print("-- per-stage spans --")
    print(_stage_table(collector))

    assert byte_identical, "warm-path output differs from refit output"
    assert refit_s / warm_s >= 20.0, (
        f"warm registry speedup {refit_s / warm_s:.1f}x < 20x"
    )
    assert throughput >= 1000.0, (
        f"server throughput {throughput:.0f}/s < 1000/s"
    )
    assert lookup_identical, (
        "quantized lookup output differs from the exact engine"
    )
    assert router_identical, (
        f"router responses diverged from the exact engine on requests "
        f"{mismatches[:5]}"
    )
    assert router_throughput >= 20_000.0, (
        f"router throughput {router_throughput:.0f}/s < 20000/s"
    )

    # pytest-benchmark records the warm path for regression tracking.
    benchmark.pedantic(
        lambda: contextualize(tests, catalog, registry=registry, city="A"),
        rounds=3,
        iterations=1,
    )
