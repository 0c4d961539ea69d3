"""Stdlib HTTP service for online tier assignment.

A thin serving layer over :mod:`repro.serve.registry` and
:mod:`repro.serve.engine`: a ``ThreadingHTTPServer`` (no third-party web
framework) exposing

- ``POST /assign`` -- assign tiers to a batch of ``<download, upload>``
  tuples against a registered model (selected by city / isp /
  config_hash; defaults to the configured city's most recent model);
- ``GET /models``  -- the registry's records (staleness metadata
  included);
- ``GET /healthz`` -- liveness plus request counters, loaded-model
  count, per-model drift status, and active alerts;
- ``GET /metrics`` -- Prometheus text exposition of the service's
  dedicated registry (cumulative totals plus windowed rates and
  latency quantiles; see docs/ALERTING.md);
- ``POST /reload`` -- hot-swap models: drop loaded state (optionally
  limited to a ``{"slugs": [...]}`` body) so the next request resolves
  the freshest registration.  The refit scheduler
  (:mod:`repro.stream.scheduler`) calls this after registering a
  drift-triggered refit; see docs/STREAMING.md.

The HTTP plumbing (trace ids, body limits, error envelopes) is the
shared :class:`~repro.serve.http.JsonRequestHandler`.  Every request
gets a ``trace_id`` (echoed in the ``X-Trace-Id`` response header,
``/assign`` responses, and error JSON) and — when the id passes the
``trace_sample_rate`` coin — runs under a ``serve.request`` span
carrying ``method`` / ``path`` / ``status`` / ``trace_id``.  Requests
feed the ``serve.requests`` counter, the ``serve.errors`` (+ per-class
``serve.errors_4xx`` / ``serve.errors_5xx``) counters, and
per-endpoint / per-status-class latency histograms, into both the
process-global registry (when observability is on) and a dedicated
always-on :class:`~repro.obs.metrics.MetricsRegistry` that backs
``/metrics``.  Incoming tuples also stream into a dedicated
:class:`~repro.obs.quality.QualityMonitor`; the drift check compares
each model's observed download/upload means against the
``training_stats`` recorded at registration and flags models whose
traffic has moved more than ``drift_rel_threshold`` (relative) after
``drift_min_samples`` observations.  An :class:`~repro.obs.alerts.
AlertEngine` evaluates declarative rules over the windowed metrics and
the drift verdicts on a background loop.

Shutdown is graceful: ``serve_until_shutdown`` installs
SIGTERM/SIGINT handlers that stop the accept loop, then drains
in-flight handler threads (``daemon_threads`` stays off and
``server_close`` joins them) and closes the micro-batchers, so a
terminated server never drops an accepted request.
"""

from __future__ import annotations

import contextlib
import queue
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.alerts import (
    AlertEngine,
    AlertEvaluator,
    default_serve_rules,
    load_rules,
)
from repro.obs.logging import get_logger, kv
from repro.obs.metrics import MetricsRegistry, render_prometheus
from repro.obs.quality import QualityMonitor
from repro.obs.trace import should_sample, span
from repro.serve.engine import (
    BatcherClosedError,
    MicroBatcher,
    QuantizedLookup,
    TierAssigner,
)
from repro.serve.http import JsonHTTPServer, JsonRequestHandler, RequestError
from repro.serve.registry import ModelKey, ModelRecord, ModelRegistry

log = get_logger("serve.server")

__all__ = [
    "AssignmentService",
    "ServeConfig",
    "ServeServer",
    "build_server",
    "serve_until_shutdown",
]


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the assignment service."""

    host: str = "127.0.0.1"
    port: int = 8000
    default_city: str = ""  # model picked when a request names none
    request_timeout_s: float = 10.0  # per-connection socket timeout
    max_body_bytes: int = 8 * 1024 * 1024  # request bodies above -> 413
    drift_rel_threshold: float = 0.5  # |obs - train| / train mean
    drift_min_samples: int = 200  # observations before drift applies
    micro_batch: int = 256
    micro_flush_interval_s: float = 0.005
    micro_max_pending: int = 4096
    trace_sample_rate: float = 1.0  # fraction of requests spanned
    metrics_window_s: float = 60.0  # window rendered by GET /metrics
    alert_interval_s: float = 1.0  # evaluator period; <= 0 disables
    alert_log: str | None = None  # JSONL transition log path
    alert_rules_path: str | None = None  # JSON rules; None -> defaults
    shard: tuple[int, int] | None = None  # (index, total) (city, isp) shard
    mmap_models: bool = False  # load via the shared mmap sidecar
    quantized: bool = False  # serve via verified lookup tables


@dataclass
class _LoadedModel:
    """One model resolved for serving: assigner + provenance."""

    key: ModelKey
    record: ModelRecord
    assigner: TierAssigner
    lookup: QuantizedLookup | None = None  # verified quantized table
    batcher: MicroBatcher | None = None
    lock: threading.Lock = field(default_factory=threading.Lock)


class AssignmentService:
    """Model resolution, assignment, and drift tracking for the server.

    Usable without HTTP (the CLI smoke test and the benchmark drive it
    directly): :meth:`assign_payload` implements the ``/assign``
    contract over plain dicts.
    """

    def __init__(self, registry: ModelRegistry, config: ServeConfig):
        self.registry = registry
        self.config = config
        self._lock = threading.Lock()
        self._loaded: dict[str, _LoadedModel] = {}
        # Dedicated monitor and registry: the service watches its own
        # traffic even when global observability is off; the registry
        # backs GET /metrics and the alert engine.
        self.quality = QualityMonitor()
        self.metrics = MetricsRegistry()
        rules = (
            load_rules(config.alert_rules_path)
            if config.alert_rules_path
            else default_serve_rules()
        )
        self.alerts = AlertEngine(
            rules,
            registry=self.metrics,
            drift_provider=self.drift_status,
            log_path=config.alert_log,
        )
        self._evaluator: AlertEvaluator | None = None
        self._started = time.monotonic()
        # Last drift verdict per model slug: serve.drift_flags counts
        # only not-drifted -> drifted *transitions*, so its rate tracks
        # drift events rather than /healthz or alert-loop polling.
        self._drift_flagged: dict[str, bool] = {}
        # Optional observer of successfully-assigned traffic, called as
        # tap(city, isp, downloads, uploads).  The stream lifecycle
        # (repro.stream.attach) points this at a StreamMonitor so live
        # serving traffic feeds the refit scheduler's windowed stats.
        self.stream_tap: Callable[[str, str, Any, Any], None] | None = None

    def start_alerting(self) -> None:
        """Start the background alert evaluator (idempotent)."""
        if self.config.alert_interval_s <= 0:
            return
        if self._evaluator is None:
            self._evaluator = AlertEvaluator(
                self.alerts, interval_s=self.config.alert_interval_s
            ).start()

    def _write_metrics(self, write: Callable[[Any], None]) -> None:
        """Apply one instrument write to both metrics registries.

        The dedicated registry is always on and backs ``/metrics``; the
        process-global one is a no-op unless the CLI installed one.
        """
        write(self.metrics)
        write(obs_metrics.get_registry())

    # -- model resolution ------------------------------------------------
    def resolve(
        self,
        city: str | None = None,
        isp: str | None = None,
        config_hash: str | None = None,
    ) -> _LoadedModel:
        """The loaded model for :meth:`ModelRegistry.resolve`'s pick.

        A missing ``city`` falls back to ``config.default_city``; a
        sharded service (``config.shard``) only matches models whose
        ``(city, isp)`` hash lands on its shard.  Raises ``KeyError``
        when nothing matches.
        """
        record = self.registry.resolve(
            city or self.config.default_city or None,
            isp,
            config_hash,
            shard=self.config.shard,
        )
        return self._load(record.key)

    def _load(self, key: ModelKey) -> _LoadedModel:
        with self._lock:
            loaded = self._loaded.get(key.slug)
        if loaded is not None:
            return loaded
        if self.config.mmap_models:
            result, record = self.registry.load_shared(key)
        else:
            result, record = self.registry.load(key)
        assigner = TierAssigner(result)
        lookup = None
        if self.config.quantized and record.lookup:
            try:
                lookup = QuantizedLookup.from_dict(assigner, record.lookup)
            except ValueError as exc:
                log.warning(
                    "persisted lookup table rejected; serving exact path",
                    extra=kv(model=key.slug, error=str(exc)),
                )
        loaded = _LoadedModel(
            key=key, record=record, assigner=assigner, lookup=lookup
        )
        with self._lock:
            # Another thread may have raced us; keep the first.
            loaded = self._loaded.setdefault(key.slug, loaded)
            n_loaded = len(self._loaded)
        self._write_metrics(
            lambda r: r.gauge("serve.models_loaded").set(n_loaded)
        )
        return loaded

    def batcher_for(self, loaded: _LoadedModel) -> MicroBatcher:
        """The model's micro-batcher (created on first streaming use)."""
        with loaded.lock:
            if loaded.batcher is None:
                loaded.batcher = MicroBatcher(
                    loaded.assigner,
                    max_batch=self.config.micro_batch,
                    flush_interval_s=self.config.micro_flush_interval_s,
                    max_pending=self.config.micro_max_pending,
                )
            return loaded.batcher

    # -- assignment ------------------------------------------------------
    def assign_payload(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Implement the ``/assign`` contract over plain dicts.

        Payload: ``{"downloads": [...], "uploads": [...]}`` plus
        optional ``city`` / ``isp`` / ``config_hash`` selectors and
        ``"stream": true`` to route single tuples through the
        micro-batching queue.  Raises ``ValueError`` for malformed
        payloads and ``KeyError`` when no model matches.
        """
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        downloads = payload.get("downloads")
        uploads = payload.get("uploads")
        if downloads is None or uploads is None:
            raise ValueError(
                "request must carry 'downloads' and 'uploads' arrays"
            )
        try:
            downloads = np.asarray(downloads, dtype=float)
            uploads = np.asarray(uploads, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"non-numeric speed values: {exc}") from exc
        selectors = {
            name: payload.get(name) for name in ("city", "isp", "config_hash")
        }
        loaded = self.resolve(**selectors)
        if payload.get("stream") and downloads.size == 1:
            try:
                tier, group = self.batcher_for(loaded).assign_one(
                    float(downloads[0]), float(uploads[0])
                )
            except BatcherClosedError:
                # A /reload hot-swap closed this model's batcher under
                # us.  Re-resolve (loading the fresh registration) and
                # retry once, so a swap never surfaces as a 5xx burst;
                # a second closure means real shutdown and propagates.
                loaded = self.resolve(**selectors)
                tier, group = self.batcher_for(loaded).assign_one(
                    float(downloads[0]), float(uploads[0])
                )
            tiers = [tier]
            groups = [group]
            n_fallback = 0
        else:
            engine = loaded.lookup or loaded.assigner
            batch = engine.assign(downloads, uploads)
            tiers = batch.tiers.tolist()
            groups = batch.group_indices.tolist()
            n_fallback = batch.n_fallback
        # Observe only after assignment succeeded: a batch the engine
        # rejects with 400 (NaN/inf, mismatched lengths) or that timed
        # out in the queue must not shift the drift monitor's observed
        # means and fire false model_drift alerts.
        self._observe(loaded, downloads, uploads)
        return {
            "tiers": tiers,
            "group_indices": groups,
            "group_labels": loaded.assigner.group_labels(groups),
            "n_fallback": n_fallback,
            "model": {
                "city": loaded.key.city,
                "isp": loaded.key.isp,
                "config_hash": loaded.key.config_hash,
                "digest": loaded.record.digest,
            },
        }

    def _observe(
        self,
        loaded: _LoadedModel,
        downloads: np.ndarray,
        uploads: np.ndarray,
    ) -> None:
        slug = loaded.key.slug
        self.quality.field(f"serve.{slug}.download_mbps").observe_array(
            downloads
        )
        self.quality.field(f"serve.{slug}.upload_mbps").observe_array(
            uploads
        )
        tap = self.stream_tap
        if tap is not None:
            tap(loaded.key.city, loaded.key.isp, downloads, uploads)

    # -- drift -----------------------------------------------------------
    def drift_status(self) -> list[dict[str, Any]]:
        """Per-loaded-model drift verdicts against training_stats.

        Called by both ``/healthz`` and the background alert evaluator,
        so it must be poll-stable: ``serve.drift_flags`` (and the
        drift warning log line) fire only on a model's not-drifted ->
        drifted *transition*, not on every call while drifted.
        """
        with self._lock:
            loaded = list(self._loaded.values())
        out = []
        for model in loaded:
            directions = {}
            drifted = False
            for direction in ("download_mbps", "upload_mbps"):
                train = model.record.training_stats.get(direction)
                if not train or not train.get("mean"):
                    continue
                snap = self.quality.field(
                    f"serve.{model.key.slug}.{direction}"
                ).snapshot()
                n_obs = snap.count - snap.n_nan
                if n_obs < self.config.drift_min_samples:
                    directions[direction] = {
                        "status": "warming_up",
                        "n_observed": n_obs,
                    }
                    continue
                rel = abs(snap.mean - train["mean"]) / abs(train["mean"])
                direction_drifted = rel > self.config.drift_rel_threshold
                drifted = drifted or direction_drifted
                directions[direction] = {
                    "status": "drifted" if direction_drifted else "ok",
                    "n_observed": n_obs,
                    "observed_mean": snap.mean,
                    "training_mean": train["mean"],
                    "rel_deviation": rel,
                }
            with self._lock:
                was_drifted = self._drift_flagged.get(model.key.slug, False)
                self._drift_flagged[model.key.slug] = drifted
            if drifted and not was_drifted:
                self._write_metrics(
                    lambda r: r.counter("serve.drift_flags").inc()
                )
                log.warning(
                    "serving traffic drifted from training distribution",
                    extra=kv(model=model.key.slug),
                )
            out.append(
                {
                    "model": model.key.slug,
                    "drifted": drifted,
                    "directions": directions,
                }
            )
        return out

    # -- health / lifecycle ----------------------------------------------
    def record_request(self) -> None:
        """Count a request."""
        self._write_metrics(lambda r: r.counter("serve.requests").inc())

    def record_error(self) -> None:
        """Count a failed request."""
        self._write_metrics(lambda r: r.counter("serve.errors").inc())

    def observe_http(
        self, endpoint: str, status: int, elapsed_s: float
    ) -> None:
        """Feed one finished request into the latency/status instruments."""
        status_class = f"{status // 100}xx"

        def write(registry) -> None:
            registry.histogram("serve.request_latency_s").observe(
                elapsed_s
            )
            registry.histogram(f"serve.latency.{endpoint}").observe(
                elapsed_s
            )
            registry.counter(f"serve.status.{status_class}").inc()
            if status >= 500:
                registry.counter("serve.errors_5xx").inc()
            elif status >= 400:
                registry.counter("serve.errors_4xx").inc()

        self._write_metrics(write)

    def health(self) -> dict[str, Any]:
        with self._lock:
            n_loaded = len(self._loaded)
        return {
            "status": "ok",
            "uptime_s": round(time.monotonic() - self._started, 3),
            "models_registered": len(self.registry.records()),
            "models_loaded": n_loaded,
            "requests": int(self.metrics.counter("serve.requests").value),
            "errors": int(self.metrics.counter("serve.errors").value),
            "drift": self.drift_status(),
            # counts() first: its "active" tally is superseded by the
            # full list of active alerts.
            "alerts": {
                **self.alerts.counts(),
                "active": self.alerts.active(),
            },
        }

    def reload(self, slugs: list[str] | None = None) -> dict[str, Any]:
        """Hot-swap models: drop loaded state so the next request
        resolves the freshest registration.

        ``slugs`` limits the swap to those models; None reloads all.
        In-flight requests keep the complete model object they already
        resolved (old *or* new, never torn); the next resolve reloads
        from the registry, whose cache is evicted here.  Per-model
        drift state restarts from ``warming_up`` against the new
        ``training_stats``, so a post-refit ``/healthz`` verdict
        returns to ok instead of comparing fresh traffic with a stale
        baseline.
        """
        self.registry.evict_cache()
        with self._lock:
            if slugs is None:
                victims = list(self._loaded)
            else:
                victims = [s for s in slugs if s in self._loaded]
            dropped = [self._loaded.pop(s) for s in victims]
            for slug in victims:
                self._drift_flagged.pop(slug, None)
            n_loaded = len(self._loaded)
        _close_batchers(dropped)
        for slug in victims:
            self.quality.drop_fields(f"serve.{slug}.")

        def write(registry) -> None:
            registry.counter("serve.reloads").inc()
            registry.gauge("serve.models_loaded").set(n_loaded)

        self._write_metrics(write)
        log.info(
            "hot-swapped models",
            extra=kv(models=",".join(victims) if victims else "(none)"),
        )
        return {"reloaded": victims, "models_loaded": n_loaded}

    def close(self) -> None:
        """Stop the alert loop, then drain every model's micro-batcher."""
        if self._evaluator is not None:
            self._evaluator.stop()
            self._evaluator = None
        with self._lock:
            loaded = list(self._loaded.values())
        _close_batchers(loaded)


def _close_batchers(models: list[_LoadedModel]) -> None:
    """Drain and detach each model's micro-batcher, if it has one."""
    for model in models:
        with model.lock:
            if model.batcher is not None:
                model.batcher.close()
                model.batcher = None


class _Handler(JsonRequestHandler):
    """Routes of :class:`ServeServer`, plus its sampled request span."""

    server: "ServeServer"

    @contextlib.contextmanager
    def request_span(self) -> Iterator[None]:
        service = self.server.service
        if not should_sample(self._trace_id, service.config.trace_sample_rate):
            yield
            return
        service._write_metrics(
            lambda r: r.counter("serve.traces_sampled").inc()
        )
        with span(
            "serve.request",
            method=self.command,
            path=self._path,
            trace_id=self._trace_id,
        ) as sp:
            yield
            sp.set(status=self._status)

    # -- routes ----------------------------------------------------------
    def _get_healthz(self) -> None:
        self._send_json(200, self.server.service.health())

    def _get_models(self) -> None:
        self._send_json(
            200, {"models": self.server.service.registry.models()}
        )

    def _get_metrics(self) -> None:
        service = self.server.service
        text = render_prometheus(
            service.metrics, window_s=service.config.metrics_window_s
        )
        self._send_body(
            200,
            text.encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8",
        )

    def _post_assign(self) -> None:
        service = self.server.service
        payload, _ = self._read_json()
        try:
            response = service.assign_payload(payload)
        except ValueError as exc:
            raise RequestError(400, str(exc)) from None
        except KeyError as exc:
            raise RequestError(404, str(exc).strip("'\"")) from None
        except (queue.Full, BatcherClosedError) as exc:
            # Backpressure (a saturated micro-batch queue) and shutdown
            # are retryable conditions, not internal errors: answer a
            # structured 503 with Retry-After instead of a generic 500.
            service._write_metrics(
                lambda r: r.counter("serve.queue_rejections").inc()
            )
            reason = (
                "assignment queue is saturated"
                if isinstance(exc, queue.Full)
                else "assignment engine is shutting down"
            )
            raise RequestError(
                503, f"{reason}; retry shortly", {"Retry-After": "1"}
            ) from None
        response["trace_id"] = self._trace_id
        self._send_json(200, response)

    def _post_reload(self) -> None:
        """``POST /reload``: hot-swap models (empty body reloads all)."""
        response = self.server.service.reload(self._reload_slugs())
        response["trace_id"] = self._trace_id
        self._send_json(200, response)

    get_routes = {
        "/healthz": _get_healthz,
        "/models": _get_models,
        "/metrics": _get_metrics,
    }
    post_routes = {"/assign": _post_assign, "/reload": _post_reload}


class ServeServer(JsonHTTPServer):
    """Threading HTTP server bound to one :class:`AssignmentService`."""

    def __init__(self, address: tuple[str, int], service: AssignmentService):
        self.service = service
        super().__init__(address, service, _Handler)


def build_server(
    registry: ModelRegistry, config: ServeConfig | None = None
) -> ServeServer:
    """A ready-to-run server (``port=0`` binds an ephemeral port)."""
    config = config or ServeConfig()
    service = AssignmentService(registry, config)
    service.start_alerting()
    return ServeServer((config.host, config.port), service)


def serve_until_shutdown(server: ServeServer) -> int:
    """Run the accept loop until SIGTERM/SIGINT; drain, close, return 0.

    Signal handlers hand ``shutdown()`` to a helper thread (calling it
    from the loop's own thread deadlocks), then ``server_close`` joins
    in-flight handlers and stops the micro-batchers.
    """
    host, port = server.server_address[:2]
    log.info("serving", extra=kv(host=host, port=port))

    def _stop(signum, frame) -> None:
        log.info("shutdown requested", extra=kv(signal=signum))
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        previous[sig] = signal.signal(sig, _stop)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.server_close()
    return 0
