"""Front router for a fleet of sharded assignment workers.

Scaling one Python server past a point means processes, not threads:
the router spawns N :mod:`repro.serve.worker` subprocesses, each owning
the ``(city, isp)`` models whose :func:`~repro.serve.registry.shard_for`
hash lands on its shard, and exposes one endpoint with the same HTTP
contract as the single-process server:

- ``POST /assign``  -- resolved against the registry index, forwarded
  to the owning shard's worker, response relayed verbatim (the router
  honours a caller's ``X-Trace-Id`` and forwards its id to the worker,
  so traces join up end to end);
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

A worker that dies (crash, OOM kill) is restarted on the next request
that needs its shard — ``serve.router.worker_restarts`` counts these —
and the failed forward is retried once against the fresh process.
Workers are stopped with SIGTERM on ``server_close`` and shut down
gracefully, so the router inherits the single server's drain-on-exit
contract.
"""

from __future__ import annotations

import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace
from pathlib import Path
from typing import Any

from repro.obs.logging import get_logger, kv
from repro.obs.metrics import (
    active_or_new,
    parse_prometheus_text,
    render_prometheus,
)
from repro.obs.trace import new_trace_id
from repro.serve.http import JsonHTTPServer, JsonRequestHandler, RequestError
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
    process dead.
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
        self.base_url = ""
        self.restarts = 0
        self._lock = threading.Lock()

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
            self.base_url = self._await_bind(self.proc)
            pid, url = self.proc.pid, self.base_url
        log.info(
            "worker started", extra=kv(shard=self.shard, pid=pid, url=url)
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
        self.start()

    def stop(self, timeout_s: float = 15.0) -> None:
        """SIGTERM the worker and wait for its graceful exit."""
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

    # ------------------------------------------------------------------
    def _await_bind(self, proc: subprocess.Popen) -> str:
        """Read stdout until the worker names its port; then drain it."""
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
                return f"http://{match.group(1)}:{match.group(2)}"

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
                status, payload = self._post(handle, body, trace_id)
                self.metrics.counter("serve.router.forwarded").inc()
                return status, payload
            except (urllib.error.URLError, ConnectionError, OSError) as exc:
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

    def _post(
        self,
        handle: WorkerHandle,
        body: bytes,
        trace_id: str,
        path: str = "/assign",
    ) -> tuple[int, bytes]:
        request = urllib.request.Request(
            f"{handle.base_url}{path}",
            data=body,
            headers={
                "Content-Type": "application/json",
                "X-Trace-Id": trace_id,
            },
            method="POST",
        )
        try:
            with urllib.request.urlopen(
                request, timeout=_REQUEST_TIMEOUT_S
            ) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            # Structured worker error (400/404/503/...): relay verbatim.
            return exc.code, exc.read()

    def reload_models(
        self, slugs: list[str] | None = None, trace_id: str = ""
    ) -> dict[str, Any]:
        """Fan ``POST /reload`` out to the shards that own ``slugs``.

        None (or an empty list) reloads every worker.  The router's own
        registry cache is evicted too.  Worker outcomes are reported per
        shard; an unreachable worker is an error row, not a failed
        fan-out.
        """
        self.registry.evict_cache()
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
                status, payload = self._post(
                    handle, body, trace_id or new_trace_id(), path="/reload"
                )
                row: dict[str, Any] = {"shard": shard, "status": status}
                if status == 200:
                    outcome = json.loads(payload)
                    row["reloaded"] = outcome.get("reloaded", [])
                    reloaded.extend(row["reloaded"])
            except (urllib.error.URLError, ConnectionError, OSError) as exc:
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
        request = urllib.request.Request(f"{handle.base_url}{path}")
        with urllib.request.urlopen(
            request, timeout=_REQUEST_TIMEOUT_S
        ) as response:
            return response.read()

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
            except (urllib.error.URLError, OSError, ValueError) as exc:
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

        The router's registry is its process registry; under the run
        ledger it also holds the CLI's instruments (a startup fit's
        ``serve.assigned``), so its samples join the merge instead of
        repeating a family.  Counter totals, rates, and plain gauges sum
        across processes; quantile-labelled samples (summary/window
        percentiles) combine by max — "worst shard" is the operative read for a latency
        quantile aggregated without raw observations.
        """
        expositions = []
        for handle in self.workers:
            try:
                text = self.scrape_worker(handle, "/metrics").decode("utf-8")
                expositions.append(parse_prometheus_text(text))
            except (urllib.error.URLError, OSError, ValueError) as exc:
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
        payload, body = self._read_json()
        try:
            # The same pick the owning worker will make.
            record = router.registry.resolve(
                payload.get("city") or router.config.default_city or None,
                payload.get("isp"),
                payload.get("config_hash"),
            )
        except KeyError as exc:
            raise RequestError(404, str(exc).strip("'\"")) from None
        try:
            status, response = router.forward_assign(
                body, record, self._trace_id
            )
        except (urllib.error.URLError, ConnectionError, OSError) as exc:
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
