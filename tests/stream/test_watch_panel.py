"""`repro obs watch` stream/lifecycle panel rendering."""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry, render_prometheus
from repro.obs.watch import render_snapshot, take_snapshot


class FakeClient:
    def __init__(self, registry: MetricsRegistry, drift=(), **health):
        self._registry = registry
        self._health = {"drift": list(drift), **health}

    def metrics_text(self) -> str:
        return render_prometheus(self._registry)

    def healthz(self) -> dict:
        return {
            "status": "ok",
            "uptime_s": 12.0,
            "models_loaded": 1,
            "alerts": {"fired": 0, "resolved": 0, "active": []},
            **self._health,
        }


def _drift_row(slug: str, drifted: bool) -> dict:
    return {"model": slug, "drifted": drifted, "directions": {}}


def _serving_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("serve.requests").inc(10)
    registry.histogram("serve.request_latency_s").observe(0.01)
    return registry


def test_snapshot_without_stream_metrics_has_no_panel():
    snap = take_snapshot(FakeClient(_serving_registry()))
    assert snap["stream"] is None
    text = render_snapshot(snap)
    assert "stream" not in text
    assert "lifecycle" not in text


def test_snapshot_with_stream_metrics_renders_panel():
    registry = _serving_registry()
    registry.counter("stream.events").inc(5000)
    registry.counter("stream.refits").inc(2)
    registry.counter("stream.refit_failures").inc(0)
    registry.gauge("stream.lag_s").set(0.25)
    registry.gauge("stream.active_refits").set(0)
    registry.histogram("stream.refit_latency_s").observe(2.5)
    registry.counter("serve.reloads").inc(2)
    drift = [_drift_row("A|x|0", True), _drift_row("B|y|0", False)]
    snap = take_snapshot(FakeClient(registry, drift))
    stream = snap["stream"]
    assert stream is not None
    assert stream["events_total"] == 5000
    assert stream["refits_total"] == 2
    assert stream["lag_s"] == 0.25
    assert stream["reloads_total"] == 2
    text = render_snapshot(snap)
    assert "stream     events=5000" in text
    assert "lifecycle  refits=2" in text
    assert "lag=0.25s" in text
    assert "drifted=1 " in text  # counted from the /healthz rows
    assert "reloads=2" in text


def test_serve_refit_panel_has_lifecycle_but_no_events_line():
    """`repro serve --refit` emits refit instruments but no stream.events:
    the events line is left out and drift comes from /healthz."""
    registry = _serving_registry()
    registry.counter("stream.refits").inc(1)
    text = render_snapshot(
        take_snapshot(FakeClient(registry, [_drift_row("A|x|0", True)]))
    )
    assert "stream     events" not in text
    assert "lifecycle  refits=1" in text
    assert "drifted=1 " in text


def test_router_health_drift_rows_are_counted():
    registry = _serving_registry()
    registry.counter("stream.refits").inc(1)
    workers = [
        {"drift": [_drift_row("A|x|0", True)]},
        {"drift": [_drift_row("B|y|0", True)]},
        {"error": "unreachable"},
    ]
    snap = take_snapshot(FakeClient(registry, workers=workers))
    assert [row["model"] for row in snap["drift"]] == ["A|x|0", "B|y|0"]
    assert "drifted=2 " in render_snapshot(snap)
