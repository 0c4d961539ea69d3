"""Live terminal dashboard over a serving tier's telemetry.

Backs ``repro obs watch``: poll a running server's ``/metrics``
(Prometheus text) and ``/healthz`` (JSON) endpoints and render one
refreshing snapshot per interval — throughput, windowed latency
quantiles, error rates, drift verdicts, and active alerts.  The fetch
and render halves are separate functions so tests can drive them
without a terminal or a sleep loop.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.obs.metrics import parse_prometheus_text

__all__ = ["render_snapshot", "take_snapshot", "watch"]

#: ANSI "clear screen + home" prefix used between refreshes.
_CLEAR = "\x1b[2J\x1b[H"


def _sample(
    series: dict[str, list[tuple[dict[str, str], float]]],
    name: str,
    **labels: str,
) -> float:
    """First sample of ``name`` whose labels include ``labels``; nan if none."""
    for sample_labels, value in series.get(name, []):
        if all(sample_labels.get(k) == v for k, v in labels.items()):
            return value
    return float("nan")


def take_snapshot(client: Any) -> dict[str, Any]:
    """One joint poll of ``/metrics`` + ``/healthz``.

    ``client`` is a :class:`repro.serve.client.ServeClient` (or any
    object with ``metrics_text()`` and ``healthz()``).
    """
    series = parse_prometheus_text(client.metrics_text())
    health = client.healthz()
    window = None
    for samples in series.values():
        for labels, _ in samples:
            if "window" in labels:
                window = labels["window"]
                break
        if window is not None:
            break
    latency = {
        quantile: _sample(
            series,
            "serve_request_latency_s_window",
            quantile=quantile,
        )
        for quantile in ("0.5", "0.95", "0.99")
    }
    stream = None
    if any(name.startswith("stream_") for name in series):
        stream = {
            "events_total": _sample(series, "stream_events_total"),
            "events_rate": _sample(series, "stream_events_rate"),
            "lag_s": _sample(series, "stream_lag_s"),
            "active_refits": _sample(series, "stream_active_refits"),
            "refits_total": _sample(series, "stream_refits_total"),
            "refit_failures_total": _sample(
                series, "stream_refit_failures_total"
            ),
            "refit_p95_s": _sample(
                series, "stream_refit_latency_s_window", quantile="0.95"
            ),
            "reloads_total": _sample(series, "serve_reloads_total"),
        }
    return {
        "window": window or "n/a",
        "uptime_s": health.get("uptime_s", float("nan")),
        "requests_total": _sample(series, "serve_requests_total"),
        "requests_rate": _sample(series, "serve_requests_rate"),
        "errors_total": _sample(series, "serve_errors_total"),
        "errors_4xx_rate": _sample(series, "serve_errors_4xx_rate"),
        "errors_5xx_rate": _sample(series, "serve_errors_5xx_rate"),
        "latency": latency,
        "models_loaded": health.get("models_loaded", 0),
        # A router's /healthz nests each worker's drift rows.
        "drift": health.get("drift")
        or [
            row
            for worker in health.get("workers", [])
            for row in worker.get("drift", [])
        ],
        "alerts": health.get("alerts", {}),
        "stream": stream,
    }


def _num(value: float, unit: str = "") -> str:
    if isinstance(value, float) and math.isnan(value):
        return "-"
    return f"{value:g}{unit}"


def render_snapshot(snap: dict[str, Any]) -> str:
    """Fixed-width text rendering of one :func:`take_snapshot` result."""
    latency = snap["latency"]
    drifted = [d["model"] for d in snap["drift"] if d.get("drifted")]
    alerts = snap.get("alerts", {})
    active = alerts.get("active", [])
    lines = [
        f"-- serve watch (window {snap['window']}, "
        f"up {_num(snap['uptime_s'], 's')}) --",
        f"requests   total={_num(snap['requests_total'])} "
        f"rate={_num(snap['requests_rate'], '/s')}",
        f"errors     total={_num(snap['errors_total'])} "
        f"4xx={_num(snap['errors_4xx_rate'], '/s')} "
        f"5xx={_num(snap['errors_5xx_rate'], '/s')}",
        "latency    "
        + " ".join(
            f"{label}={_latency_ms(latency[q])}"
            for q, label in (
                ("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"),
            )
        ),
        f"models     loaded={snap['models_loaded']} "
        f"drifted={','.join(drifted) if drifted else 'none'}",
        f"alerts     active={len(active)} "
        f"fired={alerts.get('fired', 0)} "
        f"resolved={alerts.get('resolved', 0)}",
    ]
    stream = snap.get("stream")
    if stream is not None:
        # The panel appears only when the server actually emits
        # stream.* metrics (repro serve --refit / repro stream run);
        # event counts exist only where a StreamMonitor ingests.
        if not math.isnan(stream["events_total"]):
            lines.append(
                f"stream     events={_num(stream['events_total'])} "
                f"rate={_num(stream['events_rate'], '/s')} "
                f"lag={_num(stream['lag_s'], 's')}"
            )
        lines.append(
            f"lifecycle  refits={_num(stream['refits_total'])} "
            f"failed={_num(stream['refit_failures_total'])} "
            f"active={_num(stream['active_refits'])} "
            f"drifted={len(drifted)} "
            f"reloads={_num(stream['reloads_total'])} "
            f"swap_p95={_num(stream['refit_p95_s'], 's')}"
        )
    for alert in active:
        lines.append(
            f"  ! [{alert['severity']}] {alert['rule']}: "
            f"{alert['message']} "
            f"(value={_num(float(alert['value']))}, "
            f"{alert['since_s']:.0f}s)"
        )
    return "\n".join(lines)


def _latency_ms(seconds: float) -> str:
    if isinstance(seconds, float) and math.isnan(seconds):
        return "-"
    return f"{seconds * 1e3:.1f}ms"


def watch(
    client: Any,
    interval_s: float = 2.0,
    max_polls: int = 0,
    clear: bool = True,
    out: Callable[[str], None] = print,
    sleep: Callable[[float], None] | None = None,
) -> int:
    """Poll-and-render loop; returns the number of snapshots rendered.

    ``max_polls=0`` loops until interrupted (the CLI catches
    KeyboardInterrupt).  ``sleep`` is injectable so tests can run the
    loop without waiting.
    """
    import time

    sleep = sleep if sleep is not None else time.sleep
    rendered = 0
    while True:
        text = render_snapshot(take_snapshot(client))
        out((_CLEAR if clear and rendered else "") + text)
        rendered += 1
        if max_polls and rendered >= max_polls:
            return rendered
        sleep(interval_s)
