"""Per-layer measurement from outside the program.

The benchmark never edits ``src/``: it wraps calls into a layer's public
functions in :func:`repro.obs.span` from its own files (:func:`traced`,
:class:`Traced`), and reads the spans the program already emits through
the same collector.  A layer's *self time* is its span's duration minus
the part of that interval its child spans cover, so nested layers are
not counted twice.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Iterable

from repro.obs.trace import Span, span

from benchmarks.perf.spec import percentile


def traced(name: str, fn: Callable) -> Callable:
    """``fn`` wrapped in a span called ``name``."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with span(name):
            return fn(*args, **kwargs)

    return wrapper


class Traced:
    """Proxy for ``target`` with the named methods wrapped in spans.

    ``methods`` maps a method name to its span name; every other
    attribute is read from the target, so the proxy can stand in for it
    wherever the program expects the real object.
    """

    def __init__(self, target: Any, methods: dict[str, str]):
        self._target = target
        for attr, name in methods.items():
            setattr(self, attr, traced(name, getattr(target, attr)))

    def __getattr__(self, name: str) -> Any:
        return getattr(self._target, name)


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self seconds per span id: duration minus the union of its children.

    Child intervals are clipped to the parent's, so a child's time can
    never be subtracted twice nor make a self time negative.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent_id is not None and sp.end_s is not None:
            children.setdefault(sp.parent_id, []).append(
                (sp.start_s, sp.end_s)
            )
    out: dict[int, float] = {}
    for sp in spans:
        if sp.end_s is None:
            continue
        covered = 0.0
        reach = sp.start_s
        for lo, hi in sorted(children.get(sp.span_id, ())):
            lo, hi = max(lo, reach), min(hi, sp.end_s)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sp.span_id] = max(sp.duration_s - covered, 0.0)
    return out


def layer_stats(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds, p50 of the inclusive duration."""
    spans = [sp for sp in spans if sp.end_s is not None]
    own = self_times(spans)
    grouped: dict[str, list[Span]] = {}
    for sp in spans:
        grouped.setdefault(sp.name, []).append(sp)
    return {
        name: {
            "calls": float(len(group)),
            "self_s": sum(own[sp.span_id] for sp in group),
            "p50_s": percentile([sp.duration_s for sp in group], 50),
        }
        for name, group in grouped.items()
    }


def render_table(stats: dict[str, dict[str, float]], wall_s: float) -> str:
    """One row per layer, largest self time first."""
    width = max([len("layer")] + [len(name) for name in stats])
    lines = [
        f"{'layer'.ljust(width)}  {'calls':>7}  {'self ms':>10}  "
        f"{'p50 us':>10}  {'share':>6}"
    ]
    for name in sorted(stats, key=lambda n: -stats[n]["self_s"]):
        row = stats[name]
        share = row["self_s"] / wall_s if wall_s > 0 else 0.0
        lines.append(
            f"{name.ljust(width)}  {int(row['calls']):>7}  "
            f"{row['self_s'] * 1e3:>10.2f}  {row['p50_s'] * 1e6:>10.1f}  "
            f"{share:>6.1%}"
        )
    return "\n".join(lines)


def layer_metrics(stats: dict[str, dict[str, float]]) -> dict[str, float]:
    """``<layer>.calls`` / ``.self_ms`` / ``.p50_us`` for every layer."""
    out: dict[str, float] = {}
    for name, row in stats.items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_ms"] = row["self_s"] * 1e3
        out[f"{name}.p50_us"] = row["p50_s"] * 1e6
    return out


def fit_counts(collector, registry) -> dict[str, float]:
    """EM and KDE work counts of the fits a traced run made."""
    iterations = registry.histogram("em.iterations")
    grids = collector.find("kde.grid")
    return {
        "em.iterations.sum": iterations.total,
        "em.iterations.mean": iterations.mean if iterations.count else 0.0,
        "em.unconverged": registry.counter("em.unconverged").value,
        "kde.grid.binned": float(
            sum(sp.attributes.get("method") == "binned" for sp in grids)
        ),
        "kde.grid.exact": float(
            sum(sp.attributes.get("method") == "exact" for sp in grids)
        ),
    }
