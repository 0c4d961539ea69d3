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
  registry (cumulative totals plus windowed rates and latency
  quantiles; see docs/ALERTING.md);
- ``POST /reload`` -- hot-swap models: drop loaded state (optionally
  limited to a ``{"slugs": [...]}`` body) so the next request resolves
  the freshest registration.

The HTTP plumbing (trace ids, body limits, error envelopes) is the
shared :class:`~repro.serve.http.JsonRequestHandler`.  Every request
gets a ``trace_id`` (echoed in the ``X-Trace-Id`` response header,
``/assign`` responses, and error JSON) and — when the id passes the
``trace_sample_rate`` coin — runs under a ``serve.request`` span
carrying ``method`` / ``path`` / ``status`` / ``trace_id``.  Requests
feed the ``serve.requests`` counter, the ``serve.errors`` (+ per-class
``serve.errors_4xx`` / ``serve.errors_5xx``) counters, and
per-endpoint / per-status-class latency histograms.  The service writes
each instrument once, into the registry it took from
:func:`~repro.obs.metrics.active_or_new` when it was built: the process
registry when one is installed (``repro serve`` and every worker install
one first, so the model-registry and micro-batcher counters render on
``/metrics`` too), else a private always-on one.  Each answered row
counts in ``serve.assigned`` and feeds its model's
:class:`~repro.obs.window.WindowedMoments` over the trailing
``metrics_window_s``; the drift check compares those windowed
download/upload means against the ``training_stats`` recorded at
registration (:func:`~repro.obs.window.drift_verdict`) and flags models
whose recent traffic has moved more than
:data:`~repro.obs.window.DRIFT_REL_THRESHOLD` (relative) once the
window holds ``drift_min_samples`` observations.
Each loaded model also keeps a :class:`~repro.obs.window.PairRing` of
its latest rows, the refit sample, so the service itself is the drift
source of ``repro serve --refit`` (docs/STREAMING.md).  An
:class:`~repro.obs.alerts.AlertEngine` evaluates declarative rules over
the windowed metrics and the drift verdicts on a background loop.

Shutdown is graceful: ``serve_until_shutdown`` installs
SIGTERM/SIGINT handlers that stop the accept loop, then drains
in-flight handler threads (``daemon_threads`` stays off and
``server_close`` joins them) and closes the micro-batchers, so a
terminated server never drops an accepted request.
"""

from __future__ import annotations

import contextlib
import json
import queue
import signal
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import asdict, dataclass, field
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
from repro.obs.metrics import render_prometheus
from repro.obs.trace import should_sample, span
from repro.obs.window import (
    DIRECTIONS,
    DriftFlags,
    PairRing,
    WindowedMoments,
    drift_verdict,
)
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

# Per client connection's socket, so a stalled client cannot pin a
# handler thread (the router's own is 30 s).
_REQUEST_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class ServeConfig:
    """Every setting of one ``repro serve`` deployment.

    With ``workers > 1`` the router process reads its address,
    ``default_city``, ``max_body_bytes`` and ``metrics_window_s`` from
    it, and each worker gets the whole config as ``--config`` JSON,
    re-pointed at its own shard (:mod:`repro.serve.worker`).
    """

    host: str = "127.0.0.1"
    port: int = 8000
    default_city: str = ""  # model picked when a request names none
    max_body_bytes: int = 8 * 1024 * 1024  # request bodies above -> 413
    # Drift is judged only once a window holds this many rows; a model
    # serving fewer per metrics_window_s stays warming_up.
    drift_min_samples: int = 200
    trace_sample_rate: float = 1.0  # fraction of requests spanned
    metrics_window_s: float = 60.0  # GET /metrics and drift window
    alert_interval_s: float = 1.0  # evaluator period; <= 0 disables
    alert_log: str | None = None  # JSONL transition log path
    alert_rules_path: str | None = None  # JSON rules; None -> defaults
    shard: tuple[int, int] | None = None  # (index, total) (city, isp) shard
    mmap_models: bool = False  # load via the shared mmap sidecar
    quantized: bool = False  # serve via verified lookup tables
    workers: int = 1  # > 1: a router in front of this many workers
    refit_interval_s: float = 0.0  # refit scheduler period; <= 0 disables
    refit_jobs: int = 1  # parallel fit jobs per refit
    refit_ledger: str | None = None  # run ledger refits append to

    def to_json(self) -> str:
        """This config as one JSON object (the worker's ``--config``)."""
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "ServeConfig":
        """Inverse of :meth:`to_json`.

        Raises ``ValueError`` on malformed JSON and ``TypeError`` on
        anything but an object of known fields.
        """
        fields = json.loads(text)
        if isinstance(fields, dict) and fields.get("shard") is not None:
            fields["shard"] = tuple(fields["shard"])
        return cls(**fields)


@dataclass
class _LoadedModel:
    """One model resolved for serving: assigner + provenance."""

    key: ModelKey
    record: ModelRecord
    assigner: TierAssigner
    moments: dict[str, WindowedMoments]  # drift window per direction
    sample: PairRing = field(default_factory=PairRing)  # refit sample
    lookup: QuantizedLookup | None = None  # verified quantized table
    batcher: MicroBatcher | None = None
    lock: threading.Lock = field(default_factory=threading.Lock)


class AssignmentService:
    """Model resolution, assignment, and drift tracking for the server.

    Usable without HTTP (the CLI smoke test and the benchmark drive it
    directly): :meth:`assign_payload` implements the ``/assign``
    contract over plain dicts.  ``clock`` times the drift windows, the
    metrics windows and uptime; tests inject a fake one.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: ServeConfig,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.registry = registry
        self.config = config
        self.clock = clock
        self._lock = threading.Lock()
        self._loaded: dict[str, _LoadedModel] = {}
        # One registry backs GET /metrics and the alert engine: the
        # installed process registry, else a private always-on one.
        self.metrics = obs_metrics.active_or_new(clock=clock)
        rules = (
            load_rules(config.alert_rules_path)
            if config.alert_rules_path
            else default_serve_rules()
        )
        self.alerts = AlertEngine(
            rules,
            registry=self.metrics,
            drift_provider=self.verdicts,
            log_path=config.alert_log,
        )
        self._evaluator: AlertEvaluator | None = None
        self._started = clock()
        # serve.drift_flags counts only not-drifted -> drifted
        # transitions, so its rate tracks drift events rather than
        # /healthz or alert-loop polling.
        self._drift_flags = DriftFlags()

    def start_alerting(self) -> None:
        """Start the background alert evaluator (idempotent)."""
        if self.config.alert_interval_s <= 0:
            return
        if self._evaluator is None:
            self._evaluator = AlertEvaluator(
                self.alerts, interval_s=self.config.alert_interval_s
            ).start()

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
        window_s = self.config.metrics_window_s
        loaded = _LoadedModel(
            key=key,
            record=record,
            assigner=assigner,
            moments={d: WindowedMoments(window_s) for d in DIRECTIONS},
            lookup=lookup,
        )
        with self._lock:
            # Another thread may have raced us; keep the first.
            loaded = self._loaded.setdefault(key.slug, loaded)
            n_loaded = len(self._loaded)
        self.metrics.gauge("serve.models_loaded").set(n_loaded)
        return loaded

    def batcher_for(self, loaded: _LoadedModel) -> MicroBatcher:
        """The model's micro-batcher (created on first streaming use)."""
        with loaded.lock:
            if loaded.batcher is None:
                loaded.batcher = MicroBatcher(loaded.assigner)
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
        lookup = None
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
            stages = loaded.assigner.result.download_stages
            n_fallback = int(group not in stages)  # no fitted stage
        else:
            lookup = loaded.lookup
            batch = (lookup or loaded.assigner).assign(downloads, uploads)
            tiers = batch.tiers.tolist()
            groups = batch.group_indices.tolist()
            n_fallback = batch.n_fallback
        # Observe only after assignment succeeded: a batch the engine
        # rejects with 400 (NaN/inf, mismatched lengths) or that timed
        # out in the queue must not shift the drift window's observed
        # means, fire false model_drift alerts, or enter a refit.
        self._observe(loaded, downloads, uploads)
        # Counted here, not in the engine: registrations and refits
        # assign their training rows too, and answer none.
        self.metrics.counter("serve.assigned").inc(len(tiers))
        if n_fallback:
            self.metrics.counter("serve.fallback_assigned").inc(n_fallback)
        if lookup is not None:
            self.metrics.counter("serve.lookup_assigned").inc(len(tiers))
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
        now = self.clock()
        with loaded.lock:
            for direction, values in zip(DIRECTIONS, (downloads, uploads)):
                loaded.moments[direction].observe(now, values)
            loaded.sample.push(downloads, uploads)

    # -- drift and refit source ------------------------------------------
    def verdicts(self) -> list[dict[str, Any]]:
        """Per-loaded-model drift verdicts over the trailing window.

        Called by ``/healthz``, the background alert evaluator and an
        attached refit scheduler, so it must be poll-stable:
        ``serve.drift_flags`` (and the drift warning log line) fire
        only on a model's not-drifted -> drifted *transition*, not on
        every call while drifted.
        """
        with self._lock:
            loaded = list(self._loaded.values())
        now = self.clock()
        out = []
        for model in loaded:
            with model.lock:
                drifted, directions = drift_verdict(
                    model.moments,
                    now,
                    model.record.training_stats,
                    self.config.drift_min_samples,
                )
            if self._drift_flags.rose(model.key.slug, drifted):
                self.metrics.counter("serve.drift_flags").inc()
                log.warning(
                    "serving traffic drifted from training distribution",
                    extra=kv(model=model.key.slug),
                )
            out.append(
                {
                    "model": model.key.slug,
                    "city": model.key.city,
                    "isp": model.key.isp,
                    "drifted": drifted,
                    "directions": directions,
                }
            )
        return out

    def _loaded_pair(self, city: str, isp: str) -> list[_LoadedModel]:
        with self._lock:
            return [
                model
                for slug, model in sorted(self._loaded.items())
                if (model.key.city, model.key.isp) == (city, isp)
            ]

    def recent_sample(
        self, city: str, isp: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """The refit samples of the pair's loaded models, oldest first."""
        pairs = [(np.empty(0), np.empty(0))]
        for model in self._loaded_pair(city, isp):
            with model.lock:
                pairs.append(model.sample.pairs())
        downloads, uploads = zip(*pairs)
        return np.concatenate(downloads), np.concatenate(uploads)

    def rebaseline(self, city: str, isp: str) -> None:
        """Reload the pair's models: fresh window and sample (a refit)."""
        self.reload([m.key.slug for m in self._loaded_pair(city, isp)])

    # -- health / lifecycle ----------------------------------------------
    def record_request(self) -> None:
        """Count a request."""
        self.metrics.counter("serve.requests").inc()

    def record_error(self) -> None:
        """Count a failed request."""
        self.metrics.counter("serve.errors").inc()

    def observe_http(
        self, endpoint: str, status: int, elapsed_s: float
    ) -> None:
        """Feed one finished request into the latency/status instruments."""
        metrics = self.metrics
        metrics.histogram("serve.request_latency_s").observe(elapsed_s)
        metrics.histogram(f"serve.latency.{endpoint}").observe(elapsed_s)
        metrics.counter(f"serve.status.{status // 100}xx").inc()
        if status >= 500:
            metrics.counter("serve.errors_5xx").inc()
        elif status >= 400:
            metrics.counter("serve.errors_4xx").inc()

    def health(self) -> dict[str, Any]:
        with self._lock:
            n_loaded = len(self._loaded)
        return {
            "status": "ok",
            "uptime_s": round(self.clock() - self._started, 3),
            "models_registered": len(self.registry.records()),
            "models_loaded": n_loaded,
            "requests": int(self.metrics.counter("serve.requests").value),
            "errors": int(self.metrics.counter("serve.errors").value),
            "drift": self.verdicts(),
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
        resolved (old *or* new, never torn); the next resolve loads the
        model from the registry on disk.  Per-model
        drift state (the new model's empty window and refit sample)
        restarts from ``warming_up`` against the new ``training_stats``,
        so a post-refit ``/healthz`` verdict returns to ok instead of
        comparing fresh traffic with a stale baseline.
        """
        with self._lock:
            if slugs is None:
                victims = list(self._loaded)
            else:
                victims = [s for s in slugs if s in self._loaded]
            dropped = [self._loaded.pop(s) for s in victims]
            n_loaded = len(self._loaded)
        _close_batchers(dropped)
        for slug in victims:
            self._drift_flags.forget(slug)
        self.metrics.counter("serve.reloads").inc()
        self.metrics.gauge("serve.models_loaded").set(n_loaded)
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
    """Detach each model's micro-batcher, then drain it unlocked.

    The drain runs outside ``model.lock`` so requests finishing on the
    model (their ``_observe`` takes the lock) do not wait for it.
    """
    for model in models:
        with model.lock:
            batcher, model.batcher = model.batcher, None
        if batcher is not None:
            batcher.close()


class _Handler(JsonRequestHandler):
    """Routes of :class:`ServeServer`, plus its sampled request span."""

    server: "ServeServer"

    @contextlib.contextmanager
    def request_span(self) -> Iterator[None]:
        service = self.server.service
        if not should_sample(self._trace_id, service.config.trace_sample_rate):
            yield
            return
        service.metrics.counter("serve.traces_sampled").inc()
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
        payload = self._read_json()
        try:
            response = service.assign_payload(payload)
        except ValueError as exc:
            raise RequestError(400, str(exc)) from None
        except KeyError as exc:
            raise RequestError(404, str(exc.args[0])) from None
        except (queue.Full, FutureTimeoutError, BatcherClosedError) as exc:
            # Backpressure (a saturated micro-batch queue or a result
            # that outlived its wait) and shutdown are retryable
            # conditions, not internal errors: answer a structured 503
            # with Retry-After instead of a generic 500.
            service.metrics.counter("serve.queue_rejections").inc()
            if isinstance(exc, queue.Full):
                reason = "assignment queue is saturated"
            elif isinstance(exc, FutureTimeoutError):
                reason = "assignment timed out in the queue"
            else:
                reason = "assignment engine is shutting down"
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
        super().__init__(
            address,
            service,
            _Handler,
            request_timeout_s=_REQUEST_TIMEOUT_S,
            max_body_bytes=service.config.max_body_bytes,
        )


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
    in-flight handlers and stops the micro-batchers.  They are installed
    before the ``serving on http://host:port`` line is printed, so a
    supervisor that signals as soon as it reads the line still gets a
    graceful stop.
    """

    def _stop(signum, frame) -> None:
        log.info("shutdown requested", extra=kv(signal=signum))
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        previous[sig] = signal.signal(sig, _stop)
    host, port = server.server_address[:2]
    log.info("serving", extra=kv(host=host, port=port))
    # The router's supervisor, the smoke tests and tooling parse this
    # exact line for the bound port.
    print(f"serving on http://{host}:{port}", flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.server_close()
    return 0
