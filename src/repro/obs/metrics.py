"""Counters, gauges, and histograms for the BST pipeline.

Instrumented code asks the active registry for a named instrument and
updates it::

    from repro.obs import metrics as obs_metrics
    obs_metrics.counter("tests.generated").inc(len(table))
    obs_metrics.histogram("em.iterations").observe(fit.n_iter)
    obs_metrics.gauge("em.converged").set(1.0 if fit.converged else 0.0)

Like tracing, metrics are **off by default**: the module-level registry
is a null registry whose instruments are shared inert objects, so an
``inc``/``observe``/``set`` in library code costs two attribute lookups
when nobody is listening.  Install a :class:`MetricsRegistry` (via
``set_registry`` or ``use_registry``) to start aggregating; ``render``
turns the aggregate into the plain-text summary the CLI prints under
``--metrics``.

Counters and histograms additionally keep **windowed** state: a ring of
tick-stamped one-second buckets (default horizon 300 s) so callers can
ask for rate-over-window and windowed quantiles — "requests/s over the
last minute", "p95 latency over the last minute" — next to the
cumulative-since-start values::

    obs_metrics.counter("serve.requests").rate(window_s=60.0)
    obs_metrics.histogram("serve.request_latency_s").window_percentile(
        0.95, window_s=60.0
    )

The ring is a :class:`repro.obs.window.TickRing`.  Writes stay O(1): a
bucket is lazily reset the first time a new tick lands in its slot, so
there is no background sweeper thread.  Reads walk the ring (300
slots).  Instruments accept an injectable ``clock`` callable (default
``time.monotonic``) so tests can drive window expiry deterministically.

Naming convention: ``<module>.<quantity>`` (e.g. ``em.iterations``,
``kde.peaks_found``, ``ndt_join.unmatched``); see docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import math
import random
import re
import threading
import time
import zlib
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.obs.window import TickRing

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active_or_new",
    "counter",
    "gauge",
    "get_registry",
    "histogram",
    "parse_prometheus_text",
    "render_prometheus",
    "set_registry",
    "use_registry",
]

#: Default look-back horizon retained by windowed instruments.
WINDOW_HORIZON_S = 300.0
#: Width of one ring bucket.
WINDOW_BUCKET_S = 1.0
#: Default window used when callers do not pass ``window_s``.
DEFAULT_WINDOW_S = 60.0
#: Per-bucket cap on retained raw samples for windowed quantiles.
WINDOW_BUCKET_SAMPLES = 32
_N_SLOTS = int(round(WINDOW_HORIZON_S / WINDOW_BUCKET_S))


class _Bucket:
    """One histogram ring slot: exact count/total plus capped samples."""

    __slots__ = ("count", "total", "samples")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.samples: list[float] = []


def _nearest_rank(sample: list[float], q: float) -> float:
    """The ``q``-quantile of a sorted sample; ``nan`` when it is empty."""
    if not sample:
        return float("nan")
    return sample[min(len(sample) - 1, max(0, round(q * (len(sample) - 1))))]


class Counter:
    """Monotonically increasing count with an optional trailing window."""

    __slots__ = ("name", "value", "_lock", "_ring", "_clock")

    def __init__(
        self,
        name: str,
        windowed: bool = True,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()
        self._ring = (
            TickRing(_N_SLOTS, WINDOW_BUCKET_S, float) if windowed else None
        )
        self._clock = clock if clock is not None else time.monotonic

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self.value += amount
            if self._ring is not None:
                self._ring.add(self._clock(), amount)

    def window_sum(self, window_s: float = DEFAULT_WINDOW_S) -> float:
        """Amount added during the trailing ``window_s`` seconds."""
        with self._lock:
            if self._ring is None:
                return 0.0
            return sum(self._ring.live(self._clock(), window_s))

    def rate(self, window_s: float = DEFAULT_WINDOW_S) -> float:
        """Increments per second over the trailing ``window_s``."""
        window_s = float(window_s)
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        return self.window_sum(window_s) / window_s


class Gauge:
    """Last-written value (e.g. a convergence flag or a ratio)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = float("nan")

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming distribution summary: count / min / mean / max + quantiles.

    Keeps O(1) state — running count/total/min/max plus a bounded
    reservoir sample (capacity :data:`RESERVOIR_CAPACITY`) from which
    p50/p95/p99 are estimated — so arbitrarily long runs stay cheap.
    The reservoir RNG is seeded from the instrument name (CRC32), so the
    same observation sequence yields the same quantile estimates in
    every process.
    """

    RESERVOIR_CAPACITY = 1024

    __slots__ = (
        "name", "count", "total", "min", "max",
        "_reservoir", "_rng", "_lock", "_ring", "_clock",
    )

    def __init__(
        self,
        name: str,
        windowed: bool = True,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._reservoir: list[float] = []
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))
        self._lock = threading.Lock()
        self._ring = (
            TickRing(_N_SLOTS, WINDOW_BUCKET_S, _Bucket) if windowed else None
        )
        self._clock = clock if clock is not None else time.monotonic

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            # Algorithm R: item t replaces a random slot with prob cap/t.
            if len(self._reservoir) < self.RESERVOIR_CAPACITY:
                self._reservoir.append(value)
            else:
                slot = self._rng.randrange(self.count)
                if slot < self.RESERVOIR_CAPACITY:
                    self._reservoir[slot] = value
            if self._ring is None:
                return
            bucket = self._ring.slot(self._clock())
            bucket.count += 1
            bucket.total += value
            samples = bucket.samples
            if len(samples) < WINDOW_BUCKET_SAMPLES:
                samples.append(value)
            else:
                # Algorithm R within the bucket: keep a uniform sample.
                pick = self._rng.randrange(bucket.count)
                if pick < WINDOW_BUCKET_SAMPLES:
                    samples[pick] = value

    def _collect(self, window_s: float) -> tuple[int, float, list[float]]:
        """``(count, total, samples)`` for the trailing ``window_s``."""
        count = 0
        total = 0.0
        samples: list[float] = []
        with self._lock:
            if self._ring is None:
                return count, total, samples
            for bucket in self._ring.live(self._clock(), window_s):
                count += bucket.count
                total += bucket.total
                samples.extend(bucket.samples)
        return count, total, samples

    def window_snapshot(
        self, window_s: float = DEFAULT_WINDOW_S
    ) -> dict[str, float]:
        """Summary of observations in the trailing ``window_s``.

        ``count``/``total``/``mean`` are exact; ``min``/``max`` and the
        quantiles are estimated from the per-bucket samples (exact while
        each bucket saw at most :data:`WINDOW_BUCKET_SAMPLES` values).
        """
        count, total, samples = self._collect(window_s)
        samples.sort()
        return {
            "count": float(count),
            "total": total,
            "mean": total / count if count else float("nan"),
            "min": samples[0] if samples else float("nan"),
            "max": samples[-1] if samples else float("nan"),
            "p50": _nearest_rank(samples, 0.50),
            "p95": _nearest_rank(samples, 0.95),
            "p99": _nearest_rank(samples, 0.99),
        }

    def window_percentile(
        self, q: float, window_s: float = DEFAULT_WINDOW_S
    ) -> float:
        """Estimated ``q``-quantile over the trailing ``window_s``."""
        return _nearest_rank(sorted(self._collect(window_s)[2]), q)

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else float("nan")

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile (0..1) from the reservoir sample.

        Exact while ``count <= RESERVOIR_CAPACITY``; an unbiased sample
        estimate beyond that.  ``nan`` when nothing was observed.
        """
        with self._lock:
            sample = sorted(self._reservoir)
        return _nearest_rank(sample, q)

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def _dump(self) -> dict[str, Any]:
        with self._lock:
            return {
                "count": self.count,
                "total": self.total,
                "min": self.min,
                "max": self.max,
                "reservoir": list(self._reservoir),
            }

    def _merge(self, dump: dict[str, Any]) -> None:
        """Fold another histogram's dump into this one (worker merge)."""
        with self._lock:
            self.count += int(dump["count"])
            self.total += float(dump["total"])
            self.min = min(self.min, float(dump["min"]))
            self.max = max(self.max, float(dump["max"]))
            combined = self._reservoir + [
                float(v) for v in dump["reservoir"]
            ]
            if len(combined) > self.RESERVOIR_CAPACITY:
                # Deterministic down-sample (seeded from name + count).
                rng = random.Random(
                    zlib.crc32(self.name.encode("utf-8")) ^ self.count
                )
                combined = rng.sample(combined, self.RESERVOIR_CAPACITY)
            self._reservoir = combined


class _NullInstrument:
    """Shared inert counter/gauge/histogram for the disabled registry."""

    __slots__ = ()
    name = ""
    value = 0.0
    count = 0
    total = 0.0
    mean = float("nan")
    p50 = float("nan")
    p95 = float("nan")
    p99 = float("nan")

    def percentile(self, q: float) -> float:
        return float("nan")

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def window_sum(self, window_s: float = DEFAULT_WINDOW_S) -> float:
        return 0.0

    def rate(self, window_s: float = DEFAULT_WINDOW_S) -> float:
        return 0.0

    def window_snapshot(
        self, window_s: float = DEFAULT_WINDOW_S
    ) -> dict[str, float]:
        nan = float("nan")
        return {
            "count": 0.0, "total": 0.0, "mean": nan, "min": nan,
            "max": nan, "p50": nan, "p95": nan, "p99": nan,
        }

    def window_percentile(
        self, q: float, window_s: float = DEFAULT_WINDOW_S
    ) -> float:
        return float("nan")


_NULL_INSTRUMENT = _NullInstrument()


class _NullRegistry:
    """Default registry: hands out the shared inert instrument."""

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT


class MetricsRegistry:
    """Thread-safe named-instrument store.

    ``clock`` (default ``time.monotonic``) is handed to every created
    instrument's window ring; inject a fake clock to step windows
    deterministically in tests.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(
                    name, clock=self._clock
                )
            return inst

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge(name)
            return inst

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = Histogram(
                    name, clock=self._clock
                )
            return inst

    def instruments(
        self,
    ) -> tuple[dict[str, Counter], dict[str, Gauge], dict[str, Histogram]]:
        """``(counters, gauges, histograms)`` snapshot, without creating."""
        with self._lock:
            return (
                dict(self._counters),
                dict(self._gauges),
                dict(self._histograms),
            )

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Plain-dict view of every instrument (for tests / JSON export)."""
        with self._lock:
            out: dict[str, dict[str, float]] = {}
            for name, c in self._counters.items():
                out[name] = {"type": "counter", "value": c.value}
            for name, g in self._gauges.items():
                out[name] = {"type": "gauge", "value": g.value}
            for name, h in self._histograms.items():
                out[name] = {
                    "type": "histogram",
                    "count": h.count,
                    "min": h.min,
                    "mean": h.mean,
                    "p50": h.p50,
                    "p95": h.p95,
                    "p99": h.p99,
                    "max": h.max,
                }
            return out

    def dump(self) -> dict[str, dict]:
        """Full mergeable state (including each histogram's reservoir sample).

        Unlike :meth:`snapshot` (a human/JSON view), a dump can be fed
        to :meth:`merge_dump` on another registry without losing the
        quantile sketches — this is how :func:`repro.core.parallel.
        parallel_map` folds worker-process metrics into the parent.
        """
        with self._lock:
            return {
                "counters": {
                    name: c.value for name, c in self._counters.items()
                },
                "gauges": {
                    name: g.value for name, g in self._gauges.items()
                },
                "histograms": {
                    name: h._dump() for name, h in self._histograms.items()
                },
            }

    def merge_dump(self, dump: dict[str, dict]) -> None:
        """Fold another registry's :meth:`dump` into this one.

        Counters add, gauges take the incoming value (last write wins,
        in merge order), histograms merge their summary state and
        reservoir samples deterministically.
        """
        for name, value in dump.get("counters", {}).items():
            self.counter(name).inc(float(value))
        for name, value in dump.get("gauges", {}).items():
            self.gauge(name).set(float(value))
        for name, hist_dump in dump.get("histograms", {}).items():
            self.histogram(name)._merge(hist_dump)

    def __len__(self) -> int:
        with self._lock:
            return (
                len(self._counters)
                + len(self._gauges)
                + len(self._histograms)
            )

    def render(self) -> str:
        """Plain-text summary table, instruments sorted by name."""
        rows: list[str] = ["-- metrics summary --"]
        snap = self.snapshot()
        if not snap:
            rows.append("(no metrics recorded)")
            return "\n".join(rows)
        width = max(len(name) for name in snap)
        for name in sorted(snap):
            entry = snap[name]
            if entry["type"] == "counter":
                detail = f"counter    {entry['value']:g}"
            elif entry["type"] == "gauge":
                detail = f"gauge      {entry['value']:g}"
            else:
                detail = (
                    f"histogram  n={entry['count']} "
                    f"min={entry['min']:g} "
                    f"mean={entry['mean']:.4g} "
                    f"p50={entry['p50']:.4g} "
                    f"p95={entry['p95']:.4g} "
                    f"p99={entry['p99']:.4g} "
                    f"max={entry['max']:g}"
                )
            rows.append(f"{name.ljust(width)}  {detail}")
        return "\n".join(rows)


_registry: MetricsRegistry | _NullRegistry = _NullRegistry()


def get_registry() -> MetricsRegistry | _NullRegistry:
    """The active registry (a null registry when metrics are off)."""
    return _registry


def set_registry(
    registry: MetricsRegistry | _NullRegistry | None,
) -> MetricsRegistry | _NullRegistry:
    """Install ``registry`` (None restores the null); returns the old one."""
    global _registry
    previous = _registry
    _registry = registry if registry is not None else _NullRegistry()
    return previous


def active_or_new(
    clock: Callable[[], float] | None = None,
) -> MetricsRegistry:
    """The installed registry, or a new always-on one when none is.

    A serving process calls this once, installs the answer, and builds
    its server against it, so every instrument lands in the one
    registry ``/metrics`` renders.  ``clock`` only reaches the new
    registry; an installed one keeps its own.
    """
    if isinstance(_registry, MetricsRegistry):
        return _registry
    return MetricsRegistry(clock=clock)


@contextmanager
def use_registry(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Scoped metrics: install a registry, restore the previous on exit.

    >>> with use_registry() as reg:
    ...     counter("demo.count").inc()
    >>> reg.counter("demo.count").value
    1.0
    """
    # "is None": an empty registry has len() 0, so it is falsy.
    registry = registry if registry is not None else MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


def counter(name: str):
    """The named counter in the active registry."""
    return _registry.counter(name)


def gauge(name: str):
    """The named gauge in the active registry."""
    return _registry.gauge(name)


def histogram(name: str):
    """The named histogram in the active registry."""
    return _registry.histogram(name)


def _prom_name(name: str) -> str:
    """A dotted instrument name as a Prometheus metric name."""
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _prom_value(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return format(value, ".10g")


def render_prometheus(
    registry: MetricsRegistry | _NullRegistry,
    window_s: float = DEFAULT_WINDOW_S,
) -> str:
    """Prometheus text exposition (v0.0.4) of every instrument.

    Cumulative counters render as ``<name>_total``; windowed rates as a
    ``<name>_rate`` gauge labelled with the window.  Histograms render
    as summaries (cumulative quantiles from the reservoir) plus
    ``<name>_window*`` gauges for the trailing-window view.  Instruments
    created with ``windowed=False`` skip the windowed families.
    """
    window_label = f'window="{format(float(window_s), "g")}s"'
    lines: list[str] = []
    counters, gauges, histograms = (
        registry.instruments()
        if isinstance(registry, MetricsRegistry)
        else ({}, {}, {})
    )
    for name in sorted(counters):
        c = counters[name]
        base = _prom_name(name)
        lines.append(f"# TYPE {base}_total counter")
        lines.append(f"{base}_total {_prom_value(c.value)}")
        if c._ring is not None:
            lines.append(f"# TYPE {base}_rate gauge")
            lines.append(
                f"{base}_rate{{{window_label}}} "
                f"{_prom_value(c.rate(window_s))}"
            )
    for name in sorted(gauges):
        g = gauges[name]
        base = _prom_name(name)
        lines.append(f"# TYPE {base} gauge")
        lines.append(f"{base} {_prom_value(g.value)}")
    for name in sorted(histograms):
        h = histograms[name]
        base = _prom_name(name)
        lines.append(f"# TYPE {base} summary")
        for q in (0.5, 0.95, 0.99):
            lines.append(
                f'{base}{{quantile="{q}"}} '
                f"{_prom_value(h.percentile(q))}"
            )
        lines.append(f"{base}_sum {_prom_value(h.total)}")
        lines.append(f"{base}_count {_prom_value(h.count)}")
        if h._ring is not None:
            snap = h.window_snapshot(window_s)
            lines.append(f"# TYPE {base}_window gauge")
            for q in ("0.5", "0.95", "0.99"):
                key = {"0.5": "p50", "0.95": "p95", "0.99": "p99"}[q]
                lines.append(
                    f'{base}_window{{{window_label},quantile="{q}"}} '
                    f"{_prom_value(snap[key])}"
                )
            lines.append(f"# TYPE {base}_window_count gauge")
            lines.append(
                f"{base}_window_count{{{window_label}}} "
                f"{_prom_value(snap['count'])}"
            )
    return "\n".join(lines) + "\n" if lines else ""


_PROM_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+\d+)?$"
)
_PROM_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus_text(
    text: str,
) -> dict[str, list[tuple[dict[str, str], float]]]:
    """Parse Prometheus text exposition into ``{name: [(labels, value)]}``.

    Strict enough for round-trip tests and the smoke gate: any
    non-comment, non-blank line that fails the sample grammar raises
    ``ValueError``.
    """
    out: dict[str, list[tuple[dict[str, str], float]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _PROM_LINE.match(line)
        if match is None:
            raise ValueError(
                f"malformed exposition line {lineno}: {raw!r}"
            )
        labels = {
            key: value.replace('\\"', '"').replace("\\\\", "\\")
            for key, value in _PROM_LABEL.findall(
                match.group("labels") or ""
            )
        }
        try:
            value = float(match.group("value"))
        except ValueError as exc:
            raise ValueError(
                f"malformed sample value on line {lineno}: {raw!r}"
            ) from exc
        out.setdefault(match.group("name"), []).append((labels, value))
    return out
