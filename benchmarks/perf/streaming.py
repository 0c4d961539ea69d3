"""``stream_refit``: the StreamSession lifecycle on SimClock, with no HTTP.

Four Ookla streams (cities A-D) are muxed into 256-event batches; each
city's traffic drops to 0.4x for 90 s of stream time, so every city
refits once at the drift's onset and once after it ends: eight debounced
refits per session.

The unit of work is one micro-batch: its latency is the wall time the
session spends on it after the source hands it over (monitor update,
and on a poll tick the disruption check, alert rules and the scheduler,
including any refit it runs).  A refit's own latency is the wall time
of the scheduler poll that ran it (verdict, BST fit, registration,
swap).

Timing proxies stand in for the source, monitor, alert engine and
scheduler handed to :class:`~repro.stream.run.StreamSession`; they add
spans only when a collector is installed.  Sessions with distinct
derived seeds repeat until the run length is spent, each from a fresh
registry, because a refit's cost depends on its data.
"""

from __future__ import annotations

import tempfile
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.bst import BSTModel
from repro.obs.alerts import AlertEngine, default_serve_rules
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import span, use_collector
from repro.serve.registry import ModelKey, ModelRegistry
from repro.stream.clock import SimClock
from repro.stream.firehose import DriftSegment, MeasurementStream, StreamMux
from repro.stream.monitor import StreamMonitor
from repro.stream.run import StreamSession, warmup_and_register
from repro.stream.scheduler import RefitPolicy, RefitScheduler

from benchmarks.perf import tracing
from benchmarks.perf.spec import OUT_DIR, RunResult, percentile

CITIES = ("A", "B", "C", "D")
EVENTS_PER_S = 1000.0  # per stream, in stream time
DURATION_S = 300.0  # stream time per session
EXPECTED_REFITS = 2 * len(CITIES)
MIN_SESSIONS = 2
POLL_S = 1.0


@dataclass
class Session:
    setup_s: float
    registry: ModelRegistry
    streams: list[MeasurementStream]
    wall_s: float = 0.0
    events: int = 0
    failures: int = 0
    batch_ms: list[float] = field(default_factory=list)
    refit_ms: list[float] = field(default_factory=list)
    refits: list[dict] = field(default_factory=list)
    samples: list[tuple[str, object, object]] = field(default_factory=list)


def _streams(seed: int) -> list[MeasurementStream]:
    return [
        MeasurementStream(
            "ookla",
            city,
            seed=seed * 10 + i,
            events_per_s=EVENTS_PER_S,
            batch_size=256,
            pool_size=2048,
            segments=[
                DriftSegment(
                    start_s=60.0 + 15.0 * i,
                    duration_s=90.0,
                    download_scale=0.4,
                    upload_scale=0.4,
                )
            ],
        )
        for i, city in enumerate(CITIES)
    ]


def prepare(seed: int, root: Path) -> Session:
    """The set-up: build each stream's pool, fit and register its model."""
    t0 = time.perf_counter()
    registry = ModelRegistry(root)
    streams = _streams(seed)
    for stream in streams:
        warmup_and_register(stream, registry)
    return Session(time.perf_counter() - t0, registry, streams)


def run_session(out: Session) -> None:
    """Drain the muxed streams through monitor, alerts and scheduler."""
    clock = SimClock()
    monitor = StreamMonitor(
        registry=out.registry, clock=clock, window_s=20.0, min_samples=150,
        sample_cap=4096,
    )
    watched = tracing.Traced(
        monitor,
        {
            "observe": "stream.monitor.observe",
            "verdicts": "stream.monitor.verdicts",
            "disruptions": "stream.monitor.disruptions",
        },
    )

    def recent_sample(city, isp):
        downloads, uploads = monitor.recent_sample(city, isp)
        out.samples.append((city, downloads.copy(), uploads.copy()))
        return downloads, uploads

    watched.recent_sample = recent_sample
    scheduler = RefitScheduler(
        registry=out.registry,
        monitor=watched,
        policy=RefitPolicy(min_hold_s=2.0, cooldown_s=30.0),
        clock=clock,
        ledger_path=None,
    )

    def poll():
        start = time.perf_counter()
        with span("stream.scheduler.poll"):
            done = scheduler.poll()
        if done:  # one refit per poll (max_concurrent=1)
            out.refit_ms.append((time.perf_counter() - start) * 1e3)
        return done

    polled = tracing.Traced(scheduler, {})
    polled.poll = poll
    source = tracing.Traced(
        StreamMux(out.streams), {"next_batch": "stream.firehose.next_batch"}
    )
    pull = source.next_batch
    handed_over: list[float] = []  # when the session got each batch

    def next_batch():
        if handed_over:
            out.batch_ms.append((time.perf_counter() - handed_over[-1]) * 1e3)
        batch = pull()
        handed_over.append(time.perf_counter())
        return batch

    source.next_batch = next_batch
    alerts = AlertEngine(
        default_serve_rules(),
        registry=MetricsRegistry(clock=clock),
        drift_provider=watched.verdicts,
        clock=clock,
    )
    run = StreamSession(
        source,
        watched,
        clock,
        scheduler=polled,
        alerts=tracing.Traced(alerts, {"evaluate": "obs.alerts.evaluate"}),
        poll_interval_s=POLL_S,
    )
    t0 = time.perf_counter()
    summary = run.run(duration_s=DURATION_S)
    out.batch_ms.append((time.perf_counter() - handed_over[-1]) * 1e3)
    out.wall_s = time.perf_counter() - t0
    out.events = summary["n_events"]
    out.refits = summary["refits"]
    out.failures = scheduler.n_failures


def _check(s: Session, result: RunResult) -> None:
    """Expected refit count, and the post-swap models: the model each city
    serves at the end equals an offline fit of the sample its last refit
    captured."""
    result.attempted += EXPECTED_REFITS
    if s.failures or len(s.refits) != EXPECTED_REFITS:
        result.fail(
            f"{len(s.refits)} refits and {s.failures} failures, expected "
            f"{EXPECTED_REFITS} refits",
            n=max(s.failures, 1),
        )
        return
    catalogs = {stream.city: stream.catalog for stream in s.streams}
    # Samples the scheduler took but found too small refit nothing.
    used = [x for x in s.samples if len(x[1]) >= RefitPolicy().min_samples]
    last = {
        ModelKey.from_slug(r["model"]).city: (r, x)
        for r, x in zip(s.refits, used)
    }
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        scratch = ModelRegistry(tmp)
        for city, (refit, sample) in sorted(last.items()):
            sampled, downloads, uploads = sample
            key = ModelKey.from_slug(refit["model"])
            offline = BSTModel(catalogs[city]).fit(downloads, uploads)
            served = s.registry.lookup(key)
            if (
                sampled != city
                or served is None
                or served.digest != refit["new_digest"]
                or scratch.register(key, offline).digest != served.digest
            ):
                result.fail(
                    f"{refit['model']} does not serve the offline fit"
                )


def run(
    seed: int, seconds: float, trace: bool, log: Callable[[str], None]
) -> RunResult:
    result = RunResult()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(
        dir=OUT_DIR, prefix="stream_refit-"
    ) as tmp:
        if trace:
            return _traced(seed, Path(tmp), result, log)
        sessions: list[Session] = []
        # Session time only: the set-ups come on top, so the measured
        # time is the whole run length, and a run averages over as much
        # of the host's second-scale speed changes as it can.
        spent = 0.0
        while (
            len(sessions) < MIN_SESSIONS
            or spent + spent / len(sessions) <= seconds
        ):
            k = len(sessions)
            s = prepare(seed * 16 + k, Path(tmp) / f"registry-{k}")
            run_session(s)
            _check(s, result)
            sessions.append(s)
            spent += s.wall_s
            log(
                f"session {k + 1}: setup {s.setup_s:.3f} s  "
                f"run {s.wall_s:.3f} s"
                f"  {s.events} events  batch p50 "
                f"{percentile(s.batch_ms, 50):.3f} ms p90 "
                f"{percentile(s.batch_ms, 90):.3f} ms  {len(s.refits)} refits"
            )
    batch_ms = [ms for s in sessions for ms in s.batch_ms]
    refit_ms = [ms for s in sessions for ms in s.refit_ms]
    result.metrics = {
        "setup_s": percentile([s.setup_s for s in sessions], 50),
        "latency_p50_ms": percentile(batch_ms, 50),
        "throughput_per_s": percentile(
            [s.events / s.wall_s for s in sessions], 50
        ),
    }
    result.details = {
        "latency_p90_ms": percentile(batch_ms, 90),
        "refit_p50_s": percentile(refit_ms, 50) / 1e3 if refit_ms else 0.0,
        "drift_to_swap_s": percentile(
            [r["drift_to_swap_s"] for s in sessions for r in s.refits], 50
        ),
    }
    return result


def _traced(
    seed: int, tmp: Path, result: RunResult, log: Callable[[str], None]
) -> RunResult:
    """An untraced session, then a traced one (each with its own setup)."""
    plain = prepare(seed * 16, tmp / "plain")
    run_session(plain)
    traced = prepare(seed * 16, tmp / "traced")
    with ExitStack() as stack:
        collector = stack.enter_context(use_collector())
        registry = stack.enter_context(use_registry())
        run_session(traced)
    _check(plain, result)
    _check(traced, result)
    spans = collector.spans()
    stats = tracing.layer_stats(spans)
    log("-- per-layer self time (one traced session) --")
    log(tracing.render_table(stats, traced.wall_s))
    path = OUT_DIR / "stream_refit-spans.jsonl"
    collector.export_jsonl(path)
    log(f"wrote {len(collector)} spans to {path}")
    n_refits = registry.counter("stream.refits").value
    result.layers = stats
    result.metrics = tracing.fit_counts(collector, registry)
    per_refit = (lambda n: n / n_refits) if n_refits else (lambda n: 0.0)
    result.metrics.update(
        {
            "stream.refits": n_refits,
            "stream.refit_failures": registry.counter(
                "stream.refit_failures"
            ).value,
            "stream.breaches_per_refit": per_refit(
                registry.counter("stream.drift_flags").value
            ),
            "stream.em_iterations_per_refit": per_refit(
                result.metrics["em.iterations.sum"]
            ),
            "trace_overhead": traced.wall_s / plain.wall_s - 1.0,
        }
    )
    return result
