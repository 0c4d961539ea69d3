"""Declarations shared by the runner, the workloads and ``compare``.

Metrics are declared in two places, each the only declaration of its
kind:

- ``BENCHMARK.json`` at the repository root declares the metrics a run
  prints in its JSON result: the end-to-end ones (shared by every
  workload) with their bounds, and the per-layer ones.  Its keys are
  fixed, so it cannot hold anything workload-specific.
- :data:`DETAILS` declares the metrics that are not gated on every run:
  the tail latency, and the workload-specific ones (ladder capacity,
  reload latency, the simulate/fit split, accuracy, refit latency,
  drift-to-swap).  An untraced run prints and records them beside the
  JSON result, and ``compare`` judges them with their bounds.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parents[1]
SRC = ROOT / "src"
OUT_DIR = PERF_DIR / "out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# Open-loop rates in req/s: the nominal step, then the ladder.  The top
# step must overload the server: its goodput is the sustained throughput.
LADDERS = {
    "serve_small": (20.0, (40.0, 80.0, 160.0, 320.0, 640.0)),
    "serve_bulk": (40.0, (60.0, 90.0, 135.0, 200.0, 300.0, 600.0)),
}


@dataclass(frozen=True)
class Detail:
    """A workload-specific metric; ``kind`` says how ``bound`` applies.

    ``rel``: share of the parent's median; ``abs``: absolute amount in
    the metric's unit; ``step``: ladder steps.
    """

    name: str
    unit: str
    better: str
    bound: float
    kind: str = "rel"


# The 90th percentile of the unit of work latency_p50_ms times.  On a
# shared host it follows the host's steal time (serve_small: 11-14 ms
# below 1% steal, 17-21 ms at 2.5-4.6%), so it is judged by ``compare``
# against paired parent runs rather than gated on every run.
TAIL = Detail("latency_p90_ms", "ms", "lower", 0.25)

# Relative bounds are ceilings, as the end-to-end ones in BENCHMARK.json
# are: ``compare`` narrows each to the spread the committed baseline of
# the workload measured (see compare.py).
DETAILS: dict[str, tuple[Detail, ...]] = {
    "serve_small": (
        TAIL,
        Detail("max_rate_rps", "req/s", "higher", 1, "step"),
        Detail("reload_p50_ms", "ms", "lower", 0.25),
    ),
    "serve_bulk": (TAIL, Detail("max_rate_rps", "req/s", "higher", 1, "step")),
    "paper_pipeline": (
        TAIL,
        Detail("simulate_s", "s", "lower", 0.25),
        Detail("fit_s", "s", "lower", 0.25),
        Detail("bst_accuracy", "fraction", "higher", 0.002, "abs"),
    ),
    "stream_refit": (
        TAIL,
        Detail("refit_p50_s", "s", "lower", 0.25),
        # One poll interval of the session (1 s of SimClock time).
        Detail("drift_to_swap_s", "s", "lower", 1.0, "abs"),
    ),
}


@dataclass
class RunResult:
    """What one workload run measured; the CLI prints and records it."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    details: dict[str, float] = field(default_factory=dict)
    # Traced runs: per span name, calls / self_s / p50_s (tracing.layer_stats)
    layers: dict[str, dict[str, float]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str, n: int = 1) -> None:
        """Record ``n`` failed operations and why."""
        self.failed += n
        self.correct = False
        if len(self.problems) < 20:
            self.problems.append(message)


def load_benchmark() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    return float(np.percentile(list(values), q))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
