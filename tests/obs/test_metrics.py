"""Tests for counter/gauge/histogram aggregation and the summary."""

import math
import threading

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    active_or_new,
    counter,
    gauge,
    get_registry,
    histogram,
    set_registry,
    use_registry,
)
from repro.obs.trace import SpanCollector, get_collector, use_collector


class TestNullDefault:
    def test_default_registry_is_disabled(self):
        assert not get_registry().enabled

    def test_null_instruments_are_inert(self):
        counter("noop.count").inc(5)
        gauge("noop.gauge").set(1.0)
        histogram("noop.hist").observe(2.0)
        with use_registry() as reg:
            pass
        assert len(reg) == 0


class TestCounter:
    def test_accumulates(self):
        with use_registry() as reg:
            counter("c").inc()
            counter("c").inc(4)
        assert reg.counter("c").value == 5.0

    def test_rejects_negative(self):
        with use_registry():
            with pytest.raises(ValueError, match="counters only go up"):
                counter("c").inc(-1)

    def test_same_name_same_instrument(self):
        with use_registry():
            assert counter("x") is counter("x")


class TestGauge:
    def test_last_write_wins(self):
        with use_registry() as reg:
            gauge("g").set(3)
            gauge("g").set(7)
        assert reg.gauge("g").value == 7.0

    def test_unset_gauge_is_nan(self):
        with use_registry() as reg:
            pass
        assert math.isnan(reg.gauge("fresh").value)


class TestHistogram:
    def test_summary_stats(self):
        with use_registry() as reg:
            for v in (1.0, 2.0, 3.0, 10.0):
                histogram("h").observe(v)
        h = reg.histogram("h")
        assert h.count == 4
        assert h.min == 1.0
        assert h.max == 10.0
        assert h.mean == 4.0

    def test_empty_mean_is_nan(self):
        with use_registry() as reg:
            pass
        assert math.isnan(reg.histogram("empty").mean)

    def test_percentiles_exact_when_under_capacity(self):
        with use_registry() as reg:
            for v in range(101):  # 0..100, below reservoir capacity
                histogram("p").observe(float(v))
        h = reg.histogram("p")
        assert h.p50 == 50.0
        assert h.p95 == 95.0
        assert h.p99 == 99.0
        assert h.percentile(0.0) == 0.0
        assert h.percentile(1.0) == 100.0

    def test_percentiles_approximate_when_sampled(self):
        with use_registry() as reg:
            for v in range(10_000):  # overflows the reservoir
                histogram("big").observe(float(v))
        h = reg.histogram("big")
        assert h.count == 10_000
        assert h.p50 == pytest.approx(5_000, rel=0.15)
        assert h.p95 == pytest.approx(9_500, rel=0.1)

    def test_empty_percentiles_are_nan(self):
        with use_registry() as reg:
            pass
        assert math.isnan(reg.histogram("none").p50)
        assert math.isnan(reg.histogram("none").p99)

    def test_dump_merge_combines_registries(self):
        with use_registry() as a:
            counter("m.count").inc(2)
            gauge("m.gauge").set(1.0)
            for v in (1.0, 2.0):
                histogram("m.hist").observe(v)
        with use_registry() as b:
            counter("m.count").inc(3)
            gauge("m.gauge").set(4.0)
            for v in (3.0, 4.0):
                histogram("m.hist").observe(v)
        a.merge_dump(b.dump())
        assert a.counter("m.count").value == 5.0
        assert a.gauge("m.gauge").value == 4.0  # last write wins
        h = a.histogram("m.hist")
        assert h.count == 4
        assert h.min == 1.0
        assert h.max == 4.0
        assert h.mean == 2.5


class TestRegistry:
    def test_snapshot_types(self):
        with use_registry() as reg:
            counter("a.count").inc(2)
            gauge("a.gauge").set(0.5)
            histogram("a.hist").observe(9)
        snap = reg.snapshot()
        assert snap["a.count"] == {"type": "counter", "value": 2.0}
        assert snap["a.gauge"] == {"type": "gauge", "value": 0.5}
        assert snap["a.hist"]["type"] == "histogram"
        assert snap["a.hist"]["count"] == 1

    def test_render_sorted_and_labelled(self):
        with use_registry() as reg:
            counter("z.last").inc()
            histogram("a.first").observe(3)
        text = reg.render()
        assert text.startswith("-- metrics summary --")
        assert text.index("a.first") < text.index("z.last")
        assert "counter" in text and "histogram" in text
        assert "n=1" in text
        assert "p95=" in text

    def test_render_empty(self):
        assert "(no metrics recorded)" in MetricsRegistry().render()

    def test_use_registry_restores_previous(self):
        before = get_registry()
        with use_registry():
            assert get_registry() is not before
        assert get_registry() is before

    @pytest.mark.parametrize(
        "use, make, get",
        [
            (use_registry, MetricsRegistry, get_registry),
            (use_collector, SpanCollector, get_collector),
        ],
        ids=["registry", "collector"],
    )
    def test_scoped_install_keeps_an_empty_argument(self, use, make, get):
        empty = make()
        assert len(empty) == 0  # falsy, yet it is the one to install
        with use(empty) as installed:
            assert installed is empty
            assert get() is empty

    def test_active_or_new_returns_the_installed_registry(self):
        with use_registry() as reg:
            assert active_or_new() is reg

    def test_active_or_new_without_one_is_a_fresh_clocked_registry(self):
        now = [5.0]
        reg = active_or_new(clock=lambda: now[0])
        assert reg is not active_or_new()
        assert not get_registry().enabled  # nothing was installed
        reg.counter("c").inc(3)
        now[0] += 120.0  # past the default 60 s window
        assert reg.counter("c").window_sum() == 0.0
        assert reg.counter("c").value == 3.0

    def test_set_registry_none_restores_null(self):
        previous = set_registry(MetricsRegistry())
        try:
            assert get_registry().enabled
        finally:
            set_registry(None)
            assert not get_registry().enabled
            set_registry(previous)

    def test_thread_safety(self):
        def worker():
            for _ in range(500):
                counter("t.count").inc()

        with use_registry() as reg:
            threads = [
                threading.Thread(target=worker) for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert reg.counter("t.count").value == 2000.0
