"""Front router for a fleet of sharded assignment workers.

Scaling one Python server past a point means processes, not threads:
the router spawns N :mod:`repro.serve.worker` subprocesses, each owning
the ``(city, isp)`` models whose :func:`~repro.serve.registry.shard_for`
hash lands on its shard, and exposes one endpoint with the same HTTP
contract as the single-process server:

- ``POST /assign``  -- resolved against the registry index, forwarded
  to the owning shard's worker, response relayed verbatim (the router
  honours a caller's ``X-Trace-Id`` and forwards its id to the worker,
  so traces join up end to end).  The router decodes only the routing
  selectors (:func:`_routing_payload`) and forwards the raw bytes; the
  worker decodes the speed arrays;
- ``GET /models``   -- answered from the shared registry directly;
- ``GET /healthz``  -- router process table plus every worker's own
  health document;
- ``GET /metrics``  -- the workers' expositions scraped, parsed, and
  aggregated with the router's own ``serve.router.*`` instruments
  (counters/gauges summed, quantile samples combined by max);
- ``POST /reload``  -- fanned out to the owning shards (all shards for
  an empty body) so a model registered elsewhere hot-swaps every
  worker serving it.

The router reads its address, ``default_city``, ``max_body_bytes`` and
``metrics_window_s`` from the deployment's
:class:`~repro.serve.server.ServeConfig`; each worker gets that whole
config, re-pointed at its shard, so every ``repro serve`` setting
(alerting, tracing, quantized lookups, refits) reaches every worker.
Drift is the shard owner's: each worker judges, alerts on, and under
``repro serve --refit`` refits, the models it serves; the router holds
no drift state.

Every call to a worker (forwards, reload fan-outs, health and metrics
scrapes) goes through :meth:`_RouterService._request` over the
handle's pool of kept-alive connections.  A pooled connection the
worker has closed while it sat idle is retried once on a fresh
connection; that is not a failure.  A worker that dies (crash, OOM
kill) is restarted on the next request that needs its shard —
``serve.router.worker_restarts`` counts these — and the failed forward
is retried once against the fresh process.  Workers are stopped with
SIGTERM on ``server_close`` and shut down gracefully, so the router
inherits the single server's drain-on-exit contract.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Any

from repro.obs.logging import get_logger, kv
from repro.obs.metrics import (
    active_or_new,
    parse_prometheus_text,
    render_prometheus,
)
from repro.serve.http import (
    JsonHTTPServer,
    JsonRequestHandler,
    RequestError,
    decode_object,
)
from repro.serve.registry import (
    ModelKey,
    ModelRecord,
    ModelRegistry,
    shard_for,
)
from repro.serve.server import ServeConfig

log = get_logger("serve.router")

__all__ = [
    "RouterServer",
    "WorkerHandle",
    "build_router",
]

_SERVING_RE = re.compile(r"serving on http://([^\s:]+):(\d+)")
# Per forwarded request and per client connection's socket.
_REQUEST_TIMEOUT_S = 30.0
_BIND_TIMEOUT_S = 60.0  # worker start -> "serving on" line
# A worker call failed: the shard is unreachable or answered garbage.
_WORKER_ERRORS = (OSError, http.client.HTTPException)
# How a pooled connection the worker closed while idle fails, before
# any response byte (RemoteDisconnected is a ConnectionResetError).
_STALE_ERRORS = (BrokenPipeError, ConnectionResetError)
_SELECTORS = ("city", "isp", "config_hash")
# One JSON string (kept whole, so brackets and quotes inside it are
# text) or one array of number characters only (a speed column).
_SCAN_RE = re.compile(
    rb'("[^"\\]*(?:\\.[^"\\]*)*")|\[[-+.0-9eE,\s]*\]', re.DOTALL
)


def _routing_payload(body: bytes) -> dict[str, Any] | None:
    """``body`` decoded with every number-only array emptied.

    Decoding the speed arrays is most of a large body's decode, and
    the router reads only the selectors.  The scan empties each
    number-only array outside strings, then decodes what is left.  The
    result's string (or absent) selectors are exactly a full decode's:
    the scan changes nothing outside those arrays.  None when the scan
    cannot vouch for them -- a non-UTF-8 body, a result that is not a
    JSON object, or a selector that is not a string -- and the caller
    decodes in full.  An array the scan accepts but strict JSON
    rejects (``[1,,2]``) is the worker's 400 to answer.
    """
    if json.detect_encoding(body) not in ("utf-8", "utf-8-sig"):
        return None
    try:
        payload = json.loads(
            _SCAN_RE.sub(lambda m: m[1] or b"[]", body)
        )
    except ValueError:
        return None
    if not isinstance(payload, dict) or not all(
        isinstance(payload.get(name), (str, type(None)))
        for name in _SELECTORS
    ):
        return None
    return payload


def _exchange(
    conn: http.client.HTTPConnection,
    method: str,
    path: str,
    body: bytes | None,
    headers: dict[str, str],
) -> tuple[http.client.HTTPResponse, bytes]:
    """Send one request on ``conn`` and read the whole response.

    A failure closes ``conn``: its stream position is unknown.
    """
    try:
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response, response.read()
    except BaseException:
        conn.close()
        raise


class _WorkerConnection(http.client.HTTPConnection):
    """A connection to a worker with Nagle off, as the handlers have."""

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _escape_label(value: str) -> str:
    """Escape a label value per the Prometheus text exposition rules."""
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _slug_city_isp(slug: str) -> tuple[str, str]:
    """The ``(city, isp)`` a model slug shards by (raises ValueError)."""
    key = ModelKey.from_slug(slug)
    return key.city, key.isp


class WorkerHandle:
    """One supervised worker subprocess and its base URL.

    ``start`` spawns :meth:`argv` -- ``python -m repro.serve.worker``
    with this handle's shard of the deployment config -- parses the
    ``serving on ...`` line for the ephemeral port, and keeps draining
    the child's stdout on a daemon thread.  ``restart`` is
    start-over-again: used by the router when a forward finds the
    process dead.  The handle also pools the router's idle kept-alive
    connections to the worker (:meth:`checkout` / :meth:`checkin`);
    ``restart`` and ``stop`` drop them.
    """

    def __init__(
        self,
        shard: int,
        registry_root: str | Path,
        config: ServeConfig,
    ) -> None:
        self.shard = int(shard)
        self.registry_root = str(registry_root)
        self.config = config
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.restarts = 0
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    @property
    def base_url(self) -> str:
        with self._lock:
            address = self.address
        if address is None:
            return ""
        host, port = address
        return f"http://{host}:{port}"

    @property
    def alive(self) -> bool:
        with self._lock:
            return self.proc is not None and self.proc.poll() is None

    @property
    def pid(self) -> int | None:
        with self._lock:
            return self.proc.pid if self.proc is not None else None

    def argv(self) -> list[str]:
        """The worker command line: the whole config, on this shard."""
        config = replace(
            self.config,
            host="127.0.0.1",
            port=0,
            workers=1,
            shard=(self.shard, self.config.workers),
            mmap_models=True,
        )
        return [
            sys.executable,
            "-m",
            "repro.serve.worker",
            "--registry",
            self.registry_root,
            "--config",
            config.to_json(),
        ]

    def start(self) -> None:
        """Spawn the worker and wait for it to bind (idempotent)."""
        with self._lock:
            if self.proc is not None and self.proc.poll() is None:
                return
            env = dict(os.environ)
            src_root = str(Path(__file__).resolve().parents[2])
            existing = env.get("PYTHONPATH", "")
            env["PYTHONPATH"] = (
                f"{src_root}{os.pathsep}{existing}" if existing else src_root
            )
            self.proc = subprocess.Popen(
                self.argv(),
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                env=env,
                text=True,
            )
            self.address = self._await_bind(self.proc)
            pid = self.proc.pid
        log.info(
            "worker started",
            extra=kv(shard=self.shard, pid=pid, url=self.base_url),
        )

    def restart(self) -> None:
        """Reap the dead process (if any) and spawn a fresh worker."""
        with self._lock:
            if self.proc is not None and self.proc.poll() is None:
                return  # already healthy; a racing restart beat us
            if self.proc is not None:
                self.proc.wait()
                self.proc = None
            self.restarts += 1
        self.close_idle()  # the new process listens on a new port
        self.start()

    def stop(self, timeout_s: float = 15.0) -> None:
        """SIGTERM the worker and wait for its graceful exit.

        The pooled connections close first: the worker's shutdown
        joins its handler threads, and one parked on an idle
        connection would wait out its socket timeout.
        """
        self.close_idle()
        with self._lock:
            proc, self.proc = self.proc, None
        if proc is None or proc.poll() is not None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            log.warning(
                "worker ignored SIGTERM; killing",
                extra=kv(shard=self.shard, pid=proc.pid),
            )
            proc.kill()
            proc.wait()

    # -- connection pool -------------------------------------------------
    def checkout(self) -> tuple[http.client.HTTPConnection, bool]:
        """An idle pooled connection, else a new one; and whether pooled."""
        with self._lock:
            if self._idle:
                return self._idle.pop(), True
        return self.connect(), False

    def connect(self) -> http.client.HTTPConnection:
        """A new connection to the worker (opened by its first request)."""
        with self._lock:
            host, port = self.address
        return _WorkerConnection(host, port, timeout=_REQUEST_TIMEOUT_S)

    def checkin(self, conn: http.client.HTTPConnection) -> None:
        """Return a connection whose last response was read in full."""
        with self._lock:
            self._idle.append(conn)

    def close_idle(self) -> None:
        """Close every pooled connection."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    # ------------------------------------------------------------------
    def _await_bind(self, proc: subprocess.Popen) -> tuple[str, int]:
        """Read stdout until the worker names its address; then drain it."""
        deadline = time.monotonic() + _BIND_TIMEOUT_S
        assert proc.stdout is not None
        while True:
            if time.monotonic() > deadline:
                proc.kill()
                raise RuntimeError(
                    f"worker shard {self.shard} did not bind within "
                    f"{_BIND_TIMEOUT_S:.0f}s"
                )
            line = proc.stdout.readline()
            if not line:
                code = proc.wait()
                raise RuntimeError(
                    f"worker shard {self.shard} exited with code {code} "
                    "before binding"
                )
            match = _SERVING_RE.search(line)
            if match:
                threading.Thread(
                    target=self._drain, args=(proc.stdout,), daemon=True
                ).start()
                return match.group(1), int(match.group(2))

    @staticmethod
    def _drain(stream) -> None:
        for _ in stream:
            pass


class _RouterService:
    """Request routing, worker supervision, and telemetry aggregation."""

    def __init__(
        self,
        registry: ModelRegistry,
        config: ServeConfig,
        workers: list[WorkerHandle],
    ) -> None:
        self.registry = registry
        self.config = config
        self.workers = workers
        self.metrics = active_or_new()
        self._started = time.monotonic()

    # -- routing ---------------------------------------------------------
    def forward_assign(
        self, body: bytes, record: ModelRecord, trace_id: str
    ) -> tuple[int, bytes]:
        """POST the raw body to the owning shard; returns (status, body).

        A dead worker is restarted and the request retried once on the
        fresh process; 4xx/5xx worker responses relay as-is (they carry
        the worker's structured error JSON and the shared trace id).
        """
        shard = shard_for(record.key.city, record.key.isp, len(self.workers))
        handle = self.workers[shard]
        for attempt in (0, 1):
            try:
                status, payload = self._request(
                    handle, "POST", "/assign", body, trace_id
                )
                self.metrics.counter("serve.router.forwarded").inc()
                return status, payload
            except _WORKER_ERRORS as exc:
                if attempt == 1:
                    raise
                log.warning(
                    "worker unreachable; restarting shard",
                    extra=kv(
                        shard=shard, error=str(exc), trace_id=trace_id
                    ),
                )
                self.metrics.counter("serve.router.worker_restarts").inc()
                self.metrics.counter("serve.router.retries").inc()
                handle.restart()
        raise AssertionError("unreachable")  # pragma: no cover

    def _request(
        self,
        handle: WorkerHandle,
        method: str,
        path: str,
        body: bytes | None = None,
        trace_id: str | None = None,
    ) -> tuple[int, bytes]:
        """One call to a worker over its pool: (status, whole body).

        Any status returns (a structured worker error relays as-is).
        A pooled connection that is reset, or closed before any
        response byte, was most likely closed by the worker while idle,
        so the call is made once more on a fresh connection; a failure
        there raises.
        """
        headers = {}
        if trace_id:
            headers["X-Trace-Id"] = trace_id
        if body is not None:
            headers["Content-Type"] = "application/json"
        conn, pooled = handle.checkout()
        try:
            response, payload = _exchange(conn, method, path, body, headers)
        except _STALE_ERRORS:
            if not pooled:
                raise
            conn = handle.connect()
            response, payload = _exchange(conn, method, path, body, headers)
        if response.will_close:
            conn.close()
        else:
            handle.checkin(conn)
        return response.status, payload

    def reload_models(
        self, slugs: list[str] | None = None, trace_id: str = ""
    ) -> dict[str, Any]:
        """Fan ``POST /reload`` out to the shards that own ``slugs``.

        None (or an empty list) reloads every worker.  Worker outcomes
        are reported per shard; an unreachable worker is an error row,
        not a failed fan-out.
        """
        if slugs:
            shards = sorted(
                {
                    shard_for(*_slug_city_isp(slug), len(self.workers))
                    for slug in slugs
                }
            )
        else:
            shards = list(range(len(self.workers)))
        body = json.dumps({"slugs": slugs} if slugs else {}).encode("utf-8")
        reloaded: list[str] = []
        worker_rows: list[dict[str, Any]] = []
        for shard in shards:
            handle = self.workers[shard]
            try:
                status, payload = self._request(
                    handle, "POST", "/reload", body, trace_id
                )
                row: dict[str, Any] = {"shard": shard, "status": status}
                if status == 200:
                    outcome = json.loads(payload)
                    row["reloaded"] = outcome.get("reloaded", [])
                    reloaded.extend(row["reloaded"])
            except _WORKER_ERRORS as exc:
                row = {"shard": shard, "error": str(exc)}
            worker_rows.append(row)
        self.metrics.counter("serve.router.reloads").inc()
        log.info(
            "fanned out model reload",
            extra=kv(
                shards=",".join(str(s) for s in shards),
                models=",".join(reloaded) if reloaded else "(none)",
            ),
        )
        return {"reloaded": sorted(set(reloaded)), "workers": worker_rows}

    # -- aggregation -----------------------------------------------------
    def scrape_worker(self, handle: WorkerHandle, path: str) -> bytes:
        status, payload = self._request(handle, "GET", path)
        if status != 200:
            raise ValueError(f"worker answered {path} with {status}")
        return payload

    def health(self) -> dict[str, Any]:
        worker_rows = []
        worker_health = []
        for handle in self.workers:
            worker_rows.append(
                {
                    "shard": handle.shard,
                    "url": handle.base_url,
                    "pid": handle.pid,
                    "alive": handle.alive,
                    "restarts": handle.restarts,
                }
            )
            try:
                worker_health.append(
                    json.loads(self.scrape_worker(handle, "/healthz"))
                )
            except (*_WORKER_ERRORS, ValueError) as exc:
                worker_health.append({"error": str(exc)})
        alive = sum(1 for row in worker_rows if row["alive"])
        self.metrics.gauge("serve.router.workers_alive").set(alive)
        return {
            "status": "ok" if alive == len(self.workers) else "degraded",
            "router": {
                "uptime_s": round(time.monotonic() - self._started, 3),
                "n_workers": len(self.workers),
                "workers_alive": alive,
                "workers": worker_rows,
            },
            "workers": worker_health,
        }

    def metrics_text(self) -> str:
        """One exposition: the workers' and the router's samples merged.

        The router's registry is its process registry, and any family
        in it may also be one its workers report, so its samples join
        the merge instead of repeating a family.  Counter totals, rates,
        and plain gauges sum across processes; quantile-labelled samples
        (summary/window percentiles) combine by max — "worst shard" is
        the operative read for a latency quantile aggregated without raw
        observations.
        """
        expositions = []
        for handle in self.workers:
            try:
                text = self.scrape_worker(handle, "/metrics").decode("utf-8")
                expositions.append(parse_prometheus_text(text))
            except (*_WORKER_ERRORS, ValueError) as exc:
                log.warning(
                    "worker metrics scrape failed",
                    extra=kv(shard=handle.shard, error=str(exc)),
                )
        expositions.append(
            parse_prometheus_text(
                render_prometheus(
                    self.metrics, window_s=self.config.metrics_window_s
                )
            )
        )
        merged: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
        for families in expositions:
            for name, samples in families.items():
                for labels, value in samples:
                    if math.isnan(value):
                        continue
                    key = (name, tuple(sorted(labels.items())))
                    if "quantile" in labels:
                        merged[key] = max(merged.get(key, value), value)
                    else:
                        merged[key] = merged.get(key, 0.0) + value
        lines: list[str] = []
        last_family = None
        for name, labels in sorted(merged):
            if name != last_family:
                kind = "counter" if name.endswith("_total") else "gauge"
                lines.append(f"# TYPE {name} {kind}")
                last_family = name
            label_text = ",".join(
                f'{k}="{_escape_label(v)}"' for k, v in labels
            )
            rendered = f"{name}{{{label_text}}}" if label_text else name
            lines.append(
                f"{rendered} {format(merged[(name, labels)], '.10g')}"
            )
        return "\n".join(lines) + "\n"

    # -- per-request instruments (called by the request core) ----------
    def record_request(self) -> None:
        self.metrics.counter("serve.router.requests").inc()

    def record_error(self) -> None:
        self.metrics.counter("serve.router.errors").inc()

    def observe_http(
        self, endpoint: str, status: int, elapsed_s: float
    ) -> None:
        self.metrics.histogram("serve.router.request_latency_s").observe(
            elapsed_s
        )

    # -- lifecycle -------------------------------------------------------
    def start_workers(self) -> None:
        for handle in self.workers:
            handle.start()
        self.metrics.gauge("serve.router.workers_alive").set(
            sum(1 for handle in self.workers if handle.alive)
        )

    def close(self) -> None:
        for handle in self.workers:
            handle.stop()


class _RouterHandler(JsonRequestHandler):
    """Routes of :class:`RouterServer`."""

    server: "RouterServer"

    def _get_healthz(self) -> None:
        self._send_json(200, self.server.router.health())

    def _get_models(self) -> None:
        self._send_json(200, {"models": self.server.router.registry.models()})

    def _get_metrics(self) -> None:
        self._send_body(
            200,
            self.server.router.metrics_text().encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8",
        )

    def _post_assign(self) -> None:
        router = self.server.router
        body = self._read_body()
        payload = _routing_payload(body)
        if payload is None:
            payload = decode_object(body)
        try:
            # The same pick the owning worker will make.
            record = router.registry.resolve(
                payload.get("city") or router.config.default_city or None,
                payload.get("isp"),
                payload.get("config_hash"),
            )
        except KeyError as exc:
            decode_object(body)  # a bad body is a 400 before a 404
            raise RequestError(404, str(exc.args[0])) from None
        try:
            status, response = router.forward_assign(
                body, record, self._trace_id
            )
        except _WORKER_ERRORS as exc:
            raise RequestError(502, f"worker unavailable: {exc}") from None
        self._send_body(status, response, "application/json")

    def _post_reload(self) -> None:
        """``POST /reload``: fan the hot-swap out to the worker fleet."""
        slugs = self._reload_slugs()
        try:
            response = self.server.router.reload_models(
                slugs, trace_id=self._trace_id
            )
        except ValueError as exc:
            raise RequestError(400, str(exc)) from None
        response["trace_id"] = self._trace_id
        self._send_json(200, response)

    get_routes = {
        "/healthz": _get_healthz,
        "/models": _get_models,
        "/metrics": _get_metrics,
    }
    post_routes = {"/assign": _post_assign, "/reload": _post_reload}


class RouterServer(JsonHTTPServer):
    """Threading front server bound to one worker fleet.

    ``server_close`` joins handler threads, then SIGTERMs every worker
    and waits for their graceful exits.
    """

    def __init__(self, address: tuple[str, int], router: _RouterService):
        self.router = router
        super().__init__(
            address,
            router,
            _RouterHandler,
            request_timeout_s=_REQUEST_TIMEOUT_S,
            max_body_bytes=router.config.max_body_bytes,
        )


def build_router(
    registry_root: str | Path, config: ServeConfig
) -> RouterServer:
    """A ready-to-run router with its ``config.workers`` workers started.

    ``port=0`` binds an ephemeral port.  Raises ``RuntimeError`` when a
    worker fails to bind within 60 s.
    """
    registry = ModelRegistry(registry_root)
    workers = [
        WorkerHandle(shard, registry_root, config)
        for shard in range(config.workers)
    ]
    router = _RouterService(registry, config, workers)
    server = RouterServer((config.host, config.port), router)
    try:
        router.start_workers()
    except Exception:
        server.server_close()
        raise
    return server
