"""``serve_small`` and ``serve_bulk``: the serving stack under open-loop load.

The system under test is ``repro serve --workers 2`` (CLI defaults,
``REPRO_LEDGER=0``, a temporary working directory and registry inside
the checkout) running as a subprocess.  Load comes from this process
alone: two sender threads, each with one connection.  Every 200
response's tiers are checked against an exact in-process
:class:`~repro.serve.engine.TierAssigner` after each step, off the
clock.

A traced run replays the nominal step's request log serially in process
against ``AssignmentService(ModelRegistry(root), ServeConfig(mmap_models=
True))`` (models load through the mmap sidecar, as ``repro serve``'s
workers do by default) with each layer wrapped in a span, and probes the
router hop and the keep-alive stall over HTTP at a low rate.
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.bst import BSTModel, BSTResult
from repro.core.config import BSTConfig
from repro.market.isps import city_catalog
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import parse_prometheus_text
from repro.obs.runs import config_fingerprint
from repro.obs.trace import SpanCollector, span, use_collector
from repro.serve.engine import TierAssigner
from repro.serve.registry import ModelKey, ModelRegistry, shard_for
from repro.serve.server import AssignmentService, ServeConfig
from repro.vendors.ookla import OoklaSimulator

from benchmarks.perf import loadgen, tracing
from benchmarks.perf.spec import LADDERS, OUT_DIR, SRC, RunResult, percentile

CITIES = ("A", "B", "C", "D")
N_WORKERS = 2
SETUP_REPEATS = 3
RELOAD_EVERY_S = 2.0
PROBES = 40
WARMUP_S = 1.0  # at the nominal rate, before anything is timed
# Shares of --seconds: all nominal segments, all top segments (whose
# goodput is the sustained throughput), and each lower ladder step.  The
# two kinds of segment alternate ROUNDS times, so both sample the host's
# speed, which changes within seconds, across the whole run.
NOMINAL_SHARE, TOP_SHARE, STEP_SHARE = 0.55, 0.3, 0.06
ROUNDS = 3


@dataclass
class Model:
    key: ModelKey
    result: BSTResult
    downloads: np.ndarray
    uploads: np.ndarray


@dataclass
class Inputs:
    models: list[Model]
    bodies: list[bytes]
    expected: list[tuple[list[int], list[int], str]]  # tiers, groups, slug
    keepalive: bool
    reloads: bool


def _pool(city: str, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    table = OoklaSimulator(city, seed=seed).generate(n)
    downloads = np.asarray(table["download_mbps"], dtype=float)
    uploads = np.asarray(table["upload_mbps"], dtype=float)
    keep = np.isfinite(downloads) & np.isfinite(uploads)
    keep &= (downloads > 0) & (uploads > 0)
    return downloads[keep], uploads[keep]


def _fit(key: ModelKey, city: str, downloads, uploads) -> Model:
    result = BSTModel(city_catalog(city)).fit(downloads, uploads)
    return Model(key, result, downloads, uploads)


def _body(
    model: Model,
    rows: np.ndarray,
    pool: tuple[np.ndarray, np.ndarray],
    rng: np.random.Generator,
    stream: bool,
) -> dict:
    jitter = np.exp(rng.normal(0.0, 0.05, size=(2, rows.size)))
    payload = {
        "downloads": np.round(pool[0][rows] * jitter[0], 3).tolist(),
        "uploads": np.round(pool[1][rows] * jitter[1], 3).tolist(),
        "city": model.key.city,
        "isp": model.key.isp,
    }
    if stream:
        payload["stream"] = True
    return payload


def _expect(inputs: Inputs, payloads: list[tuple[int, dict]]) -> None:
    """Encode the bodies and compute their exact tiers off the clock."""
    assigners = [TierAssigner(m.result) for m in inputs.models]
    for mi, payload in payloads:
        body = json.dumps(payload).encode("utf-8")
        sent = json.loads(body)  # exactly the floats the server parses
        batch = assigners[mi].assign(sent["downloads"], sent["uploads"])
        inputs.bodies.append(body)
        inputs.expected.append(
            (
                batch.tiers.tolist(),
                batch.group_indices.tolist(),
                inputs.models[mi].key.slug,
            )
        )


def small_inputs(seed: int) -> Inputs:
    """34 models (4 cities x 8 regional resamples, plus plain A and B) and
    1024 bodies of 1-8 rows, every other one a streamed single tuple.

    Streamed tuples wait for the micro-batcher's flush (~5 ms more than a
    plain request), so latencies have two modes of equal weight: p50 lies
    on the edge between them and p90 inside the streamed one.
    """
    rng = np.random.default_rng(seed)
    pools, models, pool_of = {}, [], []
    for i, city in enumerate(CITIES):
        pools[city] = _pool(city, 2000, seed * 10 + i)
    config_hash = config_fingerprint(BSTConfig())
    for city in CITIES:
        downloads, uploads = pools[city]
        isp = city_catalog(city).isp_name
        for k in range(8):
            rows = rng.integers(0, downloads.size, size=1000)
            key = ModelKey(f"{city}-r{k}", isp, config_hash)
            models.append(_fit(key, city, downloads[rows], uploads[rows]))
            pool_of.append(city)
    for city in ("A", "B"):
        key = ModelKey(city, city_catalog(city).isp_name, config_hash)
        models.append(_fit(key, city, *pools[city]))
        pool_of.append(city)
    inputs = Inputs(models, [], [], keepalive=True, reloads=True)
    payloads = []
    for j in range(1024):
        mi = int(rng.integers(len(models)))
        pool = pools[pool_of[mi]]
        stream = j % 2 == 0
        n_rows = 1 if stream else int(rng.integers(1, 9))
        rows = rng.integers(0, pool[0].size, size=n_rows)
        payloads.append((mi, _body(models[mi], rows, pool, rng, stream)))
    _expect(inputs, payloads)
    return inputs


def bulk_inputs(seed: int) -> Inputs:
    """Two models on the two shards and 32 bodies of 2000 rows that
    alternate between them."""
    rng = np.random.default_rng(seed)
    isp_a = city_catalog("A").isp_name
    other = next(
        c for c in CITIES[1:]
        if shard_for(c, city_catalog(c).isp_name, N_WORKERS)
        != shard_for("A", isp_a, N_WORKERS)
    )
    config_hash = config_fingerprint(BSTConfig())
    models, pools = [], []
    for i, city in enumerate(("A", other)):
        pool = _pool(city, 4000, seed * 10 + i)
        key = ModelKey(city, city_catalog(city).isp_name, config_hash)
        models.append(_fit(key, city, *pool))
        pools.append(pool)
    inputs = Inputs(models, [], [], keepalive=False, reloads=False)
    payloads = []
    for j in range(32):
        mi = j % 2
        rows = rng.integers(0, pools[mi][0].size, size=2000)
        payloads.append((mi, _body(models[mi], rows, pools[mi], rng, False)))
    _expect(inputs, payloads)
    return inputs


def populate(root: Path, models: list[Model]) -> ModelRegistry:
    """Register every model (with its training sample) under ``root``."""
    registry = ModelRegistry(root)
    for model in models:
        registry.register(
            model.key, model.result,
            downloads=model.downloads, uploads=model.uploads,
        )
    return registry


class ServeProcess:
    """``repro serve --workers 2`` in its own process group."""

    def __init__(self, registry_root: Path, cwd: Path):
        self.registry_root = registry_root
        self.cwd = cwd
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.workers: dict[int, tuple[str, int]] = {}
        self._pump: threading.Thread | None = None

    def start(self, timeout_s: float = 60.0) -> None:
        env = dict(os.environ, REPRO_LEDGER="0")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--workers", str(N_WORKERS),
                "--registry", str(self.registry_root),
                "--port", "0",
                "--alert-log", "off",
            ],
            cwd=self.cwd,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )
        lines: queue.Queue = queue.Queue()

        def pump(stream) -> None:
            for line in stream:
                lines.put(line)
            lines.put(None)

        self._pump = threading.Thread(
            target=pump, args=(self.proc.stdout,), daemon=True
        )
        self._pump.start()
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                line = lines.get(timeout=max(deadline - time.monotonic(), 0))
            except queue.Empty:
                raise RuntimeError(
                    "repro serve did not bind in time"
                ) from None
            if line is None:
                raise RuntimeError(
                    f"repro serve exited with code {self.proc.wait()}"
                )
            match = re.search(r"serving on http://[^\s:]+:(\d+)", line)
            if match:
                self.port = int(match.group(1))
                break
        health = json.loads(self.get("/healthz"))
        if health.get("status") != "ok":
            raise RuntimeError(f"repro serve is not healthy: {health}")
        for row in health["router"]["workers"]:
            host, port = row["url"].rsplit("//", 1)[1].split(":")
            self.workers[int(row["shard"])] = (host, int(port))

    def get(self, path: str) -> bytes:
        sender = loadgen.HttpSender("127.0.0.1", self.port, keepalive=False)
        status, body = sender.request(0, "GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return body

    def stop(self) -> None:
        """SIGTERM the router (it drains and stops its workers), then make
        sure nothing in its process group outlives it."""
        proc = self.proc
        if proc is None:
            return
        self.proc = None
        pgid = proc.pid
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                os.killpg(pgid, signal.SIGKILL)
                proc.wait()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                break
            if deadline - time.monotonic() < 5:
                os.killpg(pgid, signal.SIGKILL)
            time.sleep(0.05)
        if self._pump is not None:
            self._pump.join(timeout=5)


class Load:
    """Sends operations to the router and checks the answers."""

    def __init__(self, inputs: Inputs, port: int, registry: ModelRegistry):
        self.inputs = inputs
        self.registry = registry
        self.sender = loadgen.HttpSender(
            "127.0.0.1", port, keepalive=inputs.keepalive
        )
        self._lock = threading.Lock()
        self._n_reloads = 0
        self._cursor = 0

    def ops(self, rate: float, duration_s: float) -> list[loadgen.Op]:
        """Assign requests at ``rate``, plus a write every 2 s when the
        workload reloads."""
        ops = loadgen.schedule(rate, duration_s, self._next_body)
        if self.inputs.reloads:
            t = RELOAD_EVERY_S / 2
            while t < duration_s:
                ops.append(loadgen.Op(t, -1))
                t += RELOAD_EVERY_S
            ops.sort(key=lambda op: op.due_s)
        return ops

    def _next_body(self, i: int) -> int:
        """Bodies in order, continuing across steps."""
        self._cursor += 1
        return (self._cursor - 1) % len(self.inputs.bodies)

    def send(self, k: int, op: loadgen.Op) -> tuple[int, bytes]:
        if op.index >= 0:
            return self.sender.request(
                k, "POST", "/assign", self.inputs.bodies[op.index]
            )
        with self._lock:
            models = self.inputs.models
            model = models[self._n_reloads % len(models)]
            self._n_reloads += 1
        reload_op(self.registry, model)
        body = json.dumps({"slugs": [model.key.slug]}).encode("utf-8")
        return self.sender.request(k, "POST", "/reload", body)

    def good(self, outcome: loadgen.Outcome) -> bool:
        """Whether an answer is a 200 with exactly the expected content."""
        if outcome.status != 200:
            return False
        try:
            answer = json.loads(outcome.body)
        except ValueError:
            return False
        if outcome.op.index < 0:
            workers = answer.get("workers") or [{}]
            return all(row.get("status") == 200 for row in workers)
        tiers, groups, slug = self.inputs.expected[outcome.op.index]
        model = answer.get("model", {})
        return (
            answer.get("tiers") == tiers
            and answer.get("group_indices") == groups
            and f"{model.get('city')}|{model.get('isp')}|"
            f"{model.get('config_hash')}" == slug
        )


def reload_op(registry: ModelRegistry, model: Model) -> None:
    """Re-register an unchanged model (the write half of a reload)."""
    registry.register(
        model.key, model.result,
        downloads=model.downloads, uploads=model.uploads,
    )


@dataclass
class Phase:
    rate: float
    duration_s: float
    grace_s: float
    assigns: list[loadgen.Outcome]
    assigns_good: list[bool]
    reload_ms: list[float]
    outcomes: list[loadgen.Outcome]


def run_step(
    load: Load,
    rate: float,
    duration_s: float,
    result: RunResult,
    grace_s: float = 1.0,
) -> Phase:
    """One open-loop step; answers are checked after it, off the clock."""
    outcomes = loadgen.run_phase(
        load.ops(rate, duration_s), load.send, duration_s, grace_s=grace_s
    )
    good = []
    for outcome in outcomes:
        if outcome.status == loadgen.SHED:
            good.append(False)
            continue
        result.attempted += 1
        ok = load.good(outcome)
        good.append(ok)
        if not ok:
            result.fail(
                f"op {outcome.op.index} at {rate:g} req/s: status "
                f"{outcome.status} {outcome.body[:120]!r}"
            )
    assigns = [i for i, o in enumerate(outcomes) if o.op.index >= 0]
    reload_ms = [
        o.latency_s * 1e3
        for o, g in zip(outcomes, good)
        if o.op.index < 0 and g
    ]
    return Phase(
        rate,
        duration_s,
        grace_s,
        [outcomes[i] for i in assigns],
        [good[i] for i in assigns],
        reload_ms,
        outcomes,
    )


def step_stats(phases: list[Phase]) -> loadgen.StepStats:
    """One step's statistics over segments of the same rate and length."""
    first = phases[0]
    return loadgen.step_stats(
        [(p.assigns, p.assigns_good) for p in phases],
        first.rate,
        first.duration_s,
        first.grace_s,
    )


def _step_row(stats: loadgen.StepStats) -> str:
    return (
        f"  {stats.rate:>6g}  {stats.scheduled:>6}  {stats.good:>6}  "
        f"{stats.in_time / max(stats.scheduled, 1):>7.1%}  "
        f"{stats.p50_ms:>8.2f}  {stats.p90_ms:>8.2f}  {stats.p95_ms:>8.2f}  "
        f"{stats.late_p95_ms:>8.2f}  {stats.goodput:>8.1f}  "
        f"{'pass' if stats.passed else 'FAIL'}"
    )


def _setup(
    inputs: Inputs, workdir: Path, repeats: int, log: Callable[[str], None]
) -> tuple[ServeProcess, ModelRegistry, list[float]]:
    """Publish the models, start the server and load every model once;
    repeated from scratch ``repeats`` times, the last one is kept."""
    times = []
    for rep in range(repeats):
        t0 = time.perf_counter()
        root = workdir / f"registry-{rep}"
        registry = populate(root, inputs.models)
        sut = ServeProcess(root, workdir)
        try:
            sut.start()
            warm = loadgen.HttpSender("127.0.0.1", sut.port, keepalive=False)
            seen = set()
            for i, (_, _, slug) in enumerate(inputs.expected):
                if slug in seen:
                    continue
                seen.add(slug)
                status, _ = warm.request(
                    0, "POST", "/assign", inputs.bodies[i]
                )
                if status != 200:
                    raise RuntimeError(f"warm-up of {slug} answered {status}")
        except BaseException:
            sut.stop()
            raise
        times.append(time.perf_counter() - t0)
        log(f"setup {rep + 1}/{repeats}: {times[-1]:.3f} s")
        if rep < repeats - 1:
            sut.stop()
    return sut, registry, times


@dataclass
class Steps:
    nominal: list[Phase]  # segments at the nominal rate
    top: list[Phase]  # segments at the top rate, which overloads
    ladder: list[Phase]  # one phase per ladder step run


def _steps(
    load: Load,
    workload: str,
    seconds: float,
    trace: bool,
    result: RunResult,
    log: Callable[[str], None],
) -> Steps:
    """A warm-up, then ROUNDS alternations of a nominal and a top segment,
    then the ladder up to its first failing step.  A traced run makes one
    nominal segment, as long as all of them together."""
    nominal, ladder = LADDERS[workload]
    run_step(load, nominal, WARMUP_S, result)
    log(
        "    rate   sched    good  in_time    p50_ms    p90_ms    p95_ms  "
        "late_p95   goodput"
    )
    steps = Steps([], [], [])

    def segment(phases: list[Phase], *args, **kwargs) -> None:
        phases.append(run_step(load, *args, result, **kwargs))
        log(_step_row(step_stats(phases[-1:])))

    if trace:
        segment(steps.nominal, nominal, NOMINAL_SHARE * seconds)
        return steps
    for _ in range(ROUNDS):
        segment(steps.nominal, nominal, NOMINAL_SHARE * seconds / ROUNDS)
        # Operations still unsent at the end of a top segment are shed
        # at once: its goodput counts completions inside it only.
        segment(
            steps.top, ladder[-1], TOP_SHARE * seconds / ROUNDS, grace_s=0.0
        )
    passed = step_stats(steps.nominal).passed
    for rate in ladder[:-1]:
        if not passed:
            break
        segment(steps.ladder, rate, STEP_SHARE * seconds)
        passed = step_stats(steps.ladder[-1:]).passed
    return steps


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    log: Callable[[str], None],
) -> RunResult:
    result = RunResult()
    t0 = time.perf_counter()
    make = small_inputs if workload == "serve_small" else bulk_inputs
    inputs = make(seed)
    log(
        f"inputs: {len(inputs.models)} models, {len(inputs.bodies)} bodies "
        f"({time.perf_counter() - t0:.2f} s, not timed)"
    )
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(
        dir=OUT_DIR, prefix=f"{workload}-"
    ) as tmp:
        workdir = Path(tmp)
        sut, registry, setup_times = _setup(
            inputs, workdir, 1 if trace else SETUP_REPEATS, log
        )
        load = Load(inputs, sut.port, registry)
        try:
            steps = _steps(load, workload, seconds, trace, result, log)
            if trace:
                layer = _probe_sut(inputs, sut, steps.nominal[0])
        finally:
            load.sender.close()
            sut.stop()
        if trace:
            result.layers, result.metrics = _replay_layers(
                workload, inputs, registry, steps.nominal[0], log
            )
            result.metrics.update(layer)
            return result
    nominal, top = step_stats(steps.nominal), step_stats(steps.top)
    ladder = [step_stats([p]) for p in steps.ladder]
    phases = steps.nominal + steps.top + steps.ladder
    reload_ms = [ms for p in phases for ms in p.reload_ms]
    result.metrics = {
        "setup_s": percentile(setup_times, 50),
        "latency_p50_ms": nominal.p50_ms,
        "throughput_per_s": top.goodput,
    }
    result.details["latency_p90_ms"] = nominal.p90_ms
    result.details["max_rate_rps"] = max(
        (s.rate for s in [nominal, *ladder, top] if s.passed), default=0.0
    )
    if reload_ms:
        result.details["reload_p50_ms"] = percentile(reload_ms, 50)
    log(
        f"nominal: {nominal.good} samples over {ROUNDS} segments; top "
        f"{top.rate:g} req/s sustained {top.goodput:.1f} req/s; "
        f"{len(reload_ms)} reloads"
    )
    return result


# ---------------------------------------------------------------------------
# traced run: probes against the live server, then an in-process replay
# ---------------------------------------------------------------------------
def _probe_sut(
    inputs: Inputs, sut: ServeProcess, nominal: Phase
) -> dict[str, float]:
    lateness = [
        o.late_s * 1e3 for o in nominal.outcomes if o.status != loadgen.SHED
    ]
    layer = {"loadgen.late_p95_ms": percentile(lateness, 95)}
    layer.update(_scrape_counts(sut))
    layer.update(_probes(inputs, sut))
    return layer


def _replay_layers(
    workload: str,
    inputs: Inputs,
    registry: ModelRegistry,
    nominal: Phase,
    log: Callable[[str], None],
) -> tuple[dict, dict[str, float]]:
    """Per-layer stats of a traced replay, and its counts."""
    log_ops = [o.op for o in nominal.outcomes]
    untraced_s, _, _ = _replay(inputs, registry, log_ops, traced=False)
    traced_s, collector, counts = _replay(
        inputs, registry, log_ops, traced=True
    )
    stats = tracing.layer_stats(collector.spans())
    log(f"-- per-layer self time (replay of {len(log_ops)} ops) --")
    log(tracing.render_table(stats, traced_s))
    path = OUT_DIR / f"{workload}-spans.jsonl"
    collector.export_jsonl(path)
    log(f"wrote {len(collector)} spans to {path}")
    counts["trace_overhead"] = traced_s / untraced_s - 1.0
    return stats, counts


def _scrape_counts(sut: ServeProcess) -> dict[str, float]:
    """Counters from the router's merged ``/metrics`` exposition."""
    families = parse_prometheus_text(sut.get("/metrics").decode("utf-8"))

    def total(name: str) -> float:
        return sum(value for _, value in families.get(f"{name}_total", []))

    return {
        "serve.queue_rejections": total("serve_queue_rejections"),
        "router.retries": total("serve_router_retries"),
        "router.worker_restarts": total("serve_router_worker_restarts"),
        "serve.errors_4xx": total("serve_errors_4xx"),
        "serve.errors_5xx": total("serve_errors_5xx"),
    }


def _p50_ms(
    sender: loadgen.HttpSender, body: bytes, n: int, pause_s: float
) -> float:
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        status, _ = sender.request(0, "POST", "/assign", body)
        times.append((time.perf_counter() - t0) * 1e3)
        if status != 200:
            raise RuntimeError(f"probe answered {status}")
        time.sleep(pause_s)
    return percentile(times, 50)


def _probes(inputs: Inputs, sut: ServeProcess) -> dict[str, float]:
    """Router hop and keep-alive stall, probed at a low rate.

    The hop is the router round trip minus a direct round trip to the
    worker :func:`shard_for` picks; the stall is back-to-back keep-alive
    p50 minus fresh-connection p50 against that worker.  Both use a
    non-streamed body so the micro-batcher's flush wait stays out.
    """
    index = next(
        i for i, body in enumerate(inputs.bodies) if b'"stream"' not in body
    )
    city, isp = inputs.expected[index][2].split("|")[:2]
    host, port = sut.workers[shard_for(city, isp, N_WORKERS)]
    body = inputs.bodies[index]
    router = loadgen.HttpSender("127.0.0.1", sut.port, keepalive=False)
    fresh = loadgen.HttpSender(host, port, keepalive=False)
    kept = loadgen.HttpSender(host, port, keepalive=True)
    try:
        routed = _p50_ms(router, body, PROBES, 0.02)
        direct = _p50_ms(fresh, body, PROBES, 0.02)
        back_to_back = _p50_ms(kept, body, PROBES, 0.0)
    finally:
        kept.close()
    return {
        "serve.router.hop_ms": routed - direct,
        "serve.http.keepalive_stall_ms": back_to_back - direct,
    }


def _instrument(service: AssignmentService, rows: dict[str, int]) -> None:
    """Wrap each layer ``assign_payload`` reaches in a span."""
    service.assign_payload = tracing.traced(
        "serve.server.assign_payload", service.assign_payload
    )
    service.resolve = tracing.traced("serve.server.resolve", service.resolve)
    service.registry.records = tracing.traced(
        "serve.registry.records", service.registry.records
    )
    service._observe = tracing.traced("obs.quality.observe", service._observe)
    service.reload = tracing.traced("serve.server.reload", service.reload)
    load = service._load
    batcher_for = service.batcher_for
    done: set[int] = set()

    def counting(name: str, fn: Callable, path: str) -> Callable:
        def wrapper(downloads, uploads):
            rows[path] += len(downloads)
            with span(name):
                return fn(downloads, uploads)

        return wrapper

    def traced_load(key):
        loaded = load(key)
        if id(loaded) not in done:
            done.add(id(loaded))
            assigner = loaded.assigner
            assigner.assign = counting(
                "serve.engine.assign", assigner.assign, "exact"
            )
            assigner.group_labels = tracing.traced(
                "serve.engine.group_labels", assigner.group_labels
            )
            if loaded.lookup is not None:
                loaded.lookup.assign = counting(
                    "serve.engine.assign", loaded.lookup.assign, "lookup"
                )
        return loaded

    service._load = traced_load
    service.batcher_for = lambda loaded: tracing.Traced(
        batcher_for(loaded), {"assign_one": "serve.engine.batcher"}
    )


def _replay(
    inputs: Inputs,
    registry: ModelRegistry,
    log_ops: list[loadgen.Op],
    traced: bool,
) -> tuple[float, SpanCollector | None, dict[str, float]]:
    """Serve the request log serially in process.

    Each request goes through the same steps as the HTTP handler:
    decode, ``assign_payload``, encode, metric writes.  Models load as
    the workers load them, through the mmap sidecar; every model is
    loaded once before the clock starts.  Returns the wall time and, when
    traced, the spans and the replay's counts.
    """
    service = AssignmentService(
        ModelRegistry(registry.root), ServeConfig(mmap_models=True)
    )
    rows = {"exact": 0, "lookup": 0}
    fallback = total = 0
    models = itertools.cycle(inputs.models)
    try:
        for i, (_, _, slug) in enumerate(inputs.expected):
            if slug not in service._loaded:
                service.assign_payload(json.loads(inputs.bodies[i]))
        with ExitStack() as stack:
            if traced:
                collector = stack.enter_context(use_collector())
                reg = stack.enter_context(obs_metrics.use_registry())
                _instrument(service, rows)
            t0 = time.perf_counter()
            for op in log_ops:
                if op.index < 0:
                    model = next(models)
                    with span("replay.reload"):
                        reload_op(service.registry, model)
                        service.reload([model.key.slug])
                    continue
                with span("replay.assign"):
                    start = time.perf_counter()
                    with span("serve.decode"):
                        payload = json.loads(inputs.bodies[op.index])
                    response = service.assign_payload(payload)
                    response["trace_id"] = "0" * 16
                    with span("serve.encode"):
                        json.dumps(response).encode("utf-8")
                    with span("obs.metrics.write"):
                        service.record_request()
                        service.observe_http(
                            "assign", 200, time.perf_counter() - start
                        )
                fallback += response["n_fallback"]
                total += len(response["tiers"])
            wall = time.perf_counter() - t0
    finally:
        service.close()
    if not traced:
        return wall, None, {}
    flushes = reg.histogram("serve.batch_size")
    served = rows["exact"] + rows["lookup"]
    return wall, collector, {
        "batcher.rows_per_flush": flushes.mean if flushes.count else 0.0,
        "engine.lookup_share": rows["lookup"] / served if served else 0.0,
        "engine.fallback_share": fallback / total if total else 0.0,
    }
