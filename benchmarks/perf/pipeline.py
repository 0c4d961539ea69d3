"""``paper_pipeline``: the analyst flow of the paper, with no serving.

One pass simulates Ookla tests for four cities and MBA panels for four
states (``simulate_s``), contextualizes each city and fits BST on each
panel (``fit_s``), and scores Table 2's upload-group accuracy as the
minimum over states.  Passes repeat on the same inputs, at least
:data:`MIN_PASSES` times; every pass must reproduce the first one's
output digest, and accuracy must stay at the paper's >96%.

Every city and panel has 10k tests, the size at which ``kde.grid`` in
``auto`` mode takes the binned path (``FAST_PATH_MIN_SAMPLES``), as it
does at the CLI's default sizes.  A traced run that sees no binned grid
fails, so the workload cannot silently drift onto the exact path only.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.assignment import accuracy_report
from repro.core.bst import BSTModel
from repro.market.isps import CITY_IDS, city_catalog, state_catalog
from repro.obs.metrics import use_registry
from repro.obs.trace import use_collector
from repro.pipeline.contextualize import contextualize
from repro.vendors.mba import MBASimulator
from repro.vendors.ookla import OoklaSimulator

from benchmarks.perf import tracing
from benchmarks.perf.spec import OUT_DIR, SRC, RunResult, percentile

N_OOKLA = 10_000  # tests per city
N_MBA = 10_000  # tests per state panel
MIN_PASSES = 2
SETUP_REPEATS = 5
ACCURACY_FLOOR = 0.96  # paper Table 2: >96% in every state
# What an analyst's session imports before the first simulation.
IMPORTS = (
    "import repro.vendors.ookla, repro.vendors.mba, "
    "repro.pipeline.contextualize, repro.core.bst, repro.core.assignment"
)


@dataclass
class Pass:
    simulate_s: float
    fit_s: float
    rows: int
    digest: str
    accuracy: float


def cold_import_s() -> float:
    """Start a fresh interpreter and import the analysis stack."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORTS], env=env, check=True)
    return time.perf_counter() - t0


def one_pass(seed: int) -> Pass:
    t0 = time.perf_counter()
    cities = [
        OoklaSimulator(city, seed=seed * 10 + i).generate(N_OOKLA)
        for i, city in enumerate(CITY_IDS)
    ]
    panels = [
        MBASimulator(state, seed=seed * 10 + i).generate(N_MBA)
        for i, state in enumerate(CITY_IDS)
    ]
    t1 = time.perf_counter()
    digest = hashlib.sha256()
    rows = 0
    for city, table in zip(CITY_IDS, cities):
        ctx = contextualize(table, city_catalog(city))
        for column in ("bst_tier", "normalized_download", "normalized_upload"):
            digest.update(np.ascontiguousarray(ctx.table[column]).tobytes())
        digest.update("\n".join(ctx.table["bst_group"]).encode("utf-8"))
        rows += len(ctx)
    accuracies = []
    for state, panel in zip(CITY_IDS, panels):
        result = BSTModel(state_catalog(state)).fit(
            panel["download_mbps"], panel["upload_mbps"]
        )
        digest.update(result.tiers.tobytes())
        accuracies.append(
            accuracy_report(result, panel["tier"]).upload_group_accuracy
        )
        rows += len(result)
    t2 = time.perf_counter()
    return Pass(t1 - t0, t2 - t1, rows, digest.hexdigest(), min(accuracies))


def _check(passes: list[Pass], result: RunResult) -> None:
    # Per pass: a simulation and a fit for each city and each state.
    result.attempted += 4 * len(CITY_IDS) * len(passes)
    for i, p in enumerate(passes):
        if p.digest != passes[0].digest:
            result.fail(f"pass {i} output digest differs from pass 0")
        if p.accuracy < ACCURACY_FLOOR:
            result.fail(f"pass {i} BST accuracy {p.accuracy:.4f} < 0.96")


def run(
    seed: int, seconds: float, trace: bool, log: Callable[[str], None]
) -> RunResult:
    result = RunResult()
    imports = [cold_import_s() for _ in range(1 if trace else SETUP_REPEATS)]
    log("setup (cold import): " + " ".join(f"{t:.3f}" for t in imports) + " s")
    if trace:
        return _traced(seed, result, log)
    passes: list[Pass] = []
    spent = 0.0
    while len(passes) < MIN_PASSES or spent + spent / len(passes) <= seconds:
        passes.append(one_pass(seed))
        p = passes[-1]
        spent += p.simulate_s + p.fit_s
        log(
            f"pass {len(passes)}: simulate {p.simulate_s:.3f} s  fit "
            f"{p.fit_s:.3f} s  {p.rows} rows  accuracy {p.accuracy:.4f}"
        )
    _check(passes, result)
    totals_s = [p.simulate_s + p.fit_s for p in passes]
    result.metrics = {
        "setup_s": percentile(imports, 50),
        "latency_p50_ms": percentile(totals_s, 50) * 1e3,
        # Per second of the whole pass: the fit phase alone costs what
        # the seed's data makes EM iterate, which varies ~20% by seed.
        "throughput_per_s": percentile(
            [p.rows / t for p, t in zip(passes, totals_s)], 50
        ),
    }
    result.details = {
        "latency_p90_ms": percentile(totals_s, 90) * 1e3,
        "simulate_s": percentile([p.simulate_s for p in passes], 50),
        "fit_s": percentile([p.fit_s for p in passes], 50),
        "bst_accuracy": min(p.accuracy for p in passes),
    }
    return result


def _traced(
    seed: int, result: RunResult, log: Callable[[str], None]
) -> RunResult:
    """An untraced pass, then the same pass under the span collector."""
    plain = one_pass(seed)
    with ExitStack() as stack:
        collector = stack.enter_context(use_collector())
        registry = stack.enter_context(use_registry())
        t0 = time.perf_counter()
        traced = one_pass(seed)
        wall = time.perf_counter() - t0
    _check([plain, traced], result)
    stats = tracing.layer_stats(collector.spans())
    log("-- per-layer self time (one traced pass) --")
    log(tracing.render_table(stats, wall))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / "paper_pipeline-spans.jsonl"
    collector.export_jsonl(path)
    log(f"wrote {len(collector)} spans to {path}")
    result.layers = stats
    result.metrics = tracing.fit_counts(collector, registry)
    if result.metrics["kde.grid.binned"] == 0:
        result.fail(
            "no kde.grid call took the binned path: the inputs are "
            "smaller than analyst runs at the CLI's default sizes",
            n=0,
        )
    result.metrics["trace_overhead"] = (
        (traced.simulate_s + traced.fit_s) / (plain.simulate_s + plain.fit_s)
        - 1.0
    )
    return result
