"""Span-based tracing for the BST pipeline.

A *span* is a named, timed region of work with key/value attributes::

    with span("bst.fit_upload", n=uploads.size) as sp:
        ...
        sp.set(n_iter=fit.n_iter, converged=fit.converged)

Spans nest: a span opened while another is active records that span as
its parent, so a ``contextualize`` run yields a tree (pipeline ->
``bst.fit`` -> per-stage fits -> KDE / EM / assignment leaves).

Tracing is **off by default**.  The module-level collector starts as a
no-op: ``span(...)`` then yields a shared inert span object without
taking timestamps or allocating, so instrumented library code costs a
single function call when nobody is listening.  Activate collection by
installing a :class:`SpanCollector` (``set_collector`` or the
``use_collector`` context manager); the collector is thread-safe and can
export the finished spans as JSON lines.

Naming convention: ``<module>.<stage>`` (e.g. ``bst.fit_upload``,
``kde.count_peaks``, ``gmm.fit``, ``ndt_join.join``); see
docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import zlib
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "Span",
    "SpanCollector",
    "current_span",
    "current_trace_id",
    "get_collector",
    "new_span_id",
    "new_trace_id",
    "set_collector",
    "should_sample",
    "span",
    "use_collector",
    "use_trace_id",
]

_ids = itertools.count(1)  # itertools.count is atomic under CPython's GIL


def new_span_id() -> int:
    """A fresh process-unique span id (for adopting foreign spans)."""
    return next(_ids)


_trace_id: ContextVar[str | None] = ContextVar(
    "repro_obs_trace_id", default=None
)


def new_trace_id() -> str:
    """A fresh 16-hex-char request trace id.

    Trace ids label individual requests for log/span correlation; they
    are intentionally non-deterministic so concurrent servers never
    collide, and nothing in the pipeline's numeric output depends on
    them.
    """
    return os.urandom(8).hex()  # lint: allow[DET003] correlation id, not results


def current_trace_id() -> str | None:
    """The trace id bound to this context, or None outside a request."""
    return _trace_id.get()


@contextmanager
def use_trace_id(trace_id: str | None) -> Iterator[str | None]:
    """Bind ``trace_id`` to the current context for the block's duration."""
    token = _trace_id.set(trace_id)
    try:
        yield trace_id
    finally:
        _trace_id.reset(token)


def should_sample(trace_id: str, rate: float) -> bool:
    """Deterministic per-trace sampling decision at ``rate`` (0..1).

    Hashes the trace id, so every participant in a request agrees on
    the decision without coordination, and a given id always samples
    the same way (stable across processes).
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    bucket = zlib.crc32(trace_id.encode("utf-8")) % 10_000
    return bucket < rate * 10_000


@dataclass
class Span:
    """One finished-or-open timed region of work."""

    name: str
    span_id: int
    parent_id: int | None = None
    depth: int = 0
    start_s: float = 0.0
    end_s: float | None = None
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def set(self, **attributes: Any) -> "Span":
        """Attach key/value attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "start_s": round(self.start_s, 9),
            "duration_s": round(self.duration_s, 9),
            "attributes": _jsonable(self.attributes),
        }


class _NoopSpan:
    """Inert stand-in yielded when no collector is installed."""

    __slots__ = ()
    name = ""
    attributes: dict[str, Any] = {}
    duration_s = 0.0

    def set(self, **attributes: Any) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()


class _NoopCollector:
    """Default collector: records nothing, enables the span fast path."""

    enabled = False

    def record(self, sp: Span) -> None:  # pragma: no cover - never called
        pass


class SpanCollector:
    """Thread-safe in-process store of finished spans."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._epoch = time.perf_counter()

    def record(self, sp: Span) -> None:
        with self._lock:
            self._spans.append(sp)

    def spans(self) -> list[Span]:
        """Snapshot of the finished spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def find(self, name: str) -> list[Span]:
        """Finished spans with the given name."""
        return [sp for sp in self.spans() if sp.name == name]

    def aggregate(self) -> dict[str, tuple[int, float]]:
        """Per-name ``(count, total_seconds)`` over the finished spans."""
        totals: dict[str, tuple[int, float]] = {}
        for sp in self.spans():
            count, total = totals.get(sp.name, (0, 0.0))
            totals[sp.name] = (count + 1, total + sp.duration_s)
        return totals

    def aggregate_stats(self) -> dict[str, dict[str, float]]:
        """Per-name duration statistics over the finished spans.

        Returns ``{name: {count, total_s, p50_s, p95_s, p99_s}}`` with
        exact percentiles (every finished span is retained in-process).
        This is the "span table" a run manifest records and the bench
        harness prints.
        """
        durations: dict[str, list[float]] = {}
        for sp in self.spans():
            durations.setdefault(sp.name, []).append(sp.duration_s)
        stats: dict[str, dict[str, float]] = {}
        for name, values in durations.items():
            values.sort()
            n = len(values)

            def q(frac: float) -> float:
                return values[min(n - 1, max(0, round(frac * (n - 1))))]

            stats[name] = {
                "count": n,
                "total_s": round(sum(values), 9),
                "p50_s": round(q(0.50), 9),
                "p95_s": round(q(0.95), 9),
                "p99_s": round(q(0.99), 9),
            }
        return stats

    def adopt_spans(
        self,
        rows: list[dict],
        parent_id: int | None = None,
        rebase_to: float | None = None,
        **extra_attributes,
    ) -> None:
        """Re-record spans exported from another process.

        ``rows`` are ``Span.to_dict()`` payloads from a worker's private
        collector.  Ids are remapped to fresh local ids, worker-root
        spans are re-parented under ``parent_id`` (e.g. the enclosing
        ``parallel.map`` span), start times are shifted so the earliest
        worker span aligns with ``rebase_to`` (durations are preserved
        verbatim), and ``extra_attributes`` (e.g. ``worker=<pid>``) are
        stamped on every adopted span.
        """
        if not rows:
            return
        id_map = {row["span_id"]: new_span_id() for row in rows}
        offset = 0.0
        if rebase_to is not None:
            offset = rebase_to - min(row["start_s"] for row in rows)
        base_depth = 0
        if parent_id is not None:
            base_depth = 1 + min(row.get("depth", 0) for row in rows)
        for row in rows:
            local_parent = row.get("parent_id")
            adopted = Span(
                name=row["name"],
                span_id=id_map[row["span_id"]],
                parent_id=(
                    id_map[local_parent]
                    if local_parent in id_map
                    else parent_id
                ),
                depth=row.get("depth", 0) + base_depth,
                start_s=row["start_s"] + offset,
                end_s=row["start_s"] + offset + row["duration_s"],
                attributes={**row.get("attributes", {}), **extra_attributes},
            )
            self.record(adopted)

    def export_jsonl(self, path) -> int:
        """Write one JSON object per finished span; returns the count.

        Start times are rebased to the collector's creation so traces
        from different runs are comparable.
        """
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as fh:
            for sp in spans:
                row = sp.to_dict()
                row["start_s"] = round(sp.start_s - self._epoch, 9)
                fh.write(json.dumps(row) + "\n")
        return len(spans)

    def render_tree(self) -> str:
        """Indented text rendering of the span tree (slowest-path view)."""
        spans = self.spans()
        by_parent: dict[int | None, list[Span]] = {}
        known = {sp.span_id for sp in spans}
        for sp in spans:
            parent = sp.parent_id if sp.parent_id in known else None
            by_parent.setdefault(parent, []).append(sp)
        lines: list[str] = []

        def walk(parent: int | None, indent: int) -> None:
            for sp in sorted(
                by_parent.get(parent, []), key=lambda s: s.start_s
            ):
                attrs = " ".join(
                    f"{k}={v}" for k, v in sorted(sp.attributes.items())
                )
                lines.append(
                    f"{'  ' * indent}{sp.name}  "
                    f"{sp.duration_s * 1e3:.2f} ms"
                    + (f"  [{attrs}]" if attrs else "")
                )
                walk(sp.span_id, indent + 1)

        walk(None, 0)
        return "\n".join(lines)


_collector: SpanCollector | _NoopCollector = _NoopCollector()
_stack: ContextVar[tuple[tuple[int, int], ...]] = ContextVar(
    "repro_obs_span_stack", default=()
)


def get_collector() -> SpanCollector | _NoopCollector:
    """The active collector (a no-op collector when tracing is off)."""
    return _collector


def set_collector(
    collector: SpanCollector | _NoopCollector | None,
) -> SpanCollector | _NoopCollector:
    """Install ``collector`` (None restores the no-op); returns the old one."""
    global _collector
    previous = _collector
    _collector = collector if collector is not None else _NoopCollector()
    return previous


@contextmanager
def use_collector(
    collector: SpanCollector | None = None,
) -> Iterator[SpanCollector]:
    """Scoped tracing: install a collector, restore the previous on exit.

    >>> with use_collector() as collector:
    ...     with span("demo.stage"):
    ...         pass
    >>> [sp.name for sp in collector.spans()]
    ['demo.stage']
    """
    # "is None": an empty collector has len() 0, so it is falsy.
    collector = collector if collector is not None else SpanCollector()
    previous = set_collector(collector)
    try:
        yield collector
    finally:
        set_collector(previous)


def current_span() -> Span | _NoopSpan:
    """The innermost open span, or the inert no-op span when none is."""
    if not _collector.enabled:
        return _NOOP_SPAN
    stack = _stack.get()
    if not stack:
        return _NOOP_SPAN
    sp = _open_spans.get(stack[-1][0])
    return sp if sp is not None else _NOOP_SPAN


_open_spans: dict[int, Span] = {}


@contextmanager
def span(name: str, **attributes: Any) -> Iterator[Span | _NoopSpan]:
    """Open a named, timed span; a no-op when no collector is installed."""
    collector = _collector
    if not collector.enabled:
        yield _NOOP_SPAN
        return
    stack = _stack.get()
    parent_id, depth = (
        (stack[-1][0], stack[-1][1] + 1) if stack else (None, 0)
    )
    sp = Span(
        name=name,
        span_id=next(_ids),
        parent_id=parent_id,
        depth=depth,
        attributes=dict(attributes),
        start_s=time.perf_counter(),
    )
    _open_spans[sp.span_id] = sp
    token = _stack.set(stack + ((sp.span_id, depth),))
    try:
        yield sp
    finally:
        sp.end_s = time.perf_counter()
        _stack.reset(token)
        _open_spans.pop(sp.span_id, None)
        collector.record(sp)


def _jsonable(attributes: dict[str, Any]) -> dict[str, Any]:
    """Coerce attribute values to JSON-safe scalars."""
    out: dict[str, Any] = {}
    for key, value in attributes.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        elif hasattr(value, "item"):  # numpy scalar
            out[key] = value.item()
        else:
            out[key] = str(value)
    return out
