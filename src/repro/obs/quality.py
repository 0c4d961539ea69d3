"""Streaming data-quality monitors for the BST pipeline.

The paper's core claim — a speed test number is uninterpretable without
its context — applies to our own runs: a Table 2 accuracy figure means
nothing if the input distribution silently drifted (NaN bursts, negative
speeds, a heavy tail the simulator never produced before).  This module
watches the data as it flows:

- :class:`FieldMonitor` — per-field streaming counters (NaN / negative /
  zero / implausibly-large values), Welford moments (mean/std, merged
  per batch with :func:`repro.obs.window.combine`), min/max, and a
  bounded deterministic reservoir that
  yields p50/p95/p99 and a tail ratio without retaining the stream.
- :class:`QualityMonitor` — a session of field monitors plus
  tier-assignment health: the entropy of the assigned-tier distribution
  (a collapsed fit assigns everything to one tier → entropy ~0) and the
  unmapped-group rate (catalog upload groups no mixture component
  mapped to).
- :class:`QualityReport` — the finished snapshot: renderable text,
  JSON-able dict, and a ``publish_metrics`` hook that sets the headline
  rates as ``quality.*`` gauges in a given metrics registry (a run
  manifest's, see :meth:`repro.obs.runs.RunRecorder.finish`).

Like tracing and metrics, quality monitoring is **off by default**: the
module-level monitor is a null object whose field monitors are shared
inert instances, so the ``observe_*`` calls wired through the vendor
simulators, ``pipeline/contextualize`` and ``core/bst`` cost one
attribute check when nobody is listening.  Install a monitor with
``set_quality`` / ``use_quality`` (the CLI does this whenever the run
ledger is enabled; see :mod:`repro.obs.runs`).
"""

from __future__ import annotations

import math
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro.obs.window import EMPTY, combine, moments_of

__all__ = [
    "FieldMonitor",
    "FieldQuality",
    "QualityMonitor",
    "QualityReport",
    "get_quality",
    "set_quality",
    "use_quality",
]

# Speeds above 10 Gbps do not occur on the simulated (or, for the paper's
# datasets, residential) access networks; treat them as implausible.
DEFAULT_OUTLIER_ABOVE = 10_000.0

RESERVOIR_CAPACITY = 512


def _field_seed(name: str) -> int:
    """Deterministic per-field RNG seed (independent of PYTHONHASHSEED)."""
    return zlib.crc32(name.encode("utf-8"))


@dataclass
class FieldQuality:
    """Finished snapshot of one monitored field."""

    name: str
    count: int
    n_nan: int
    n_negative: int
    n_zero: int
    n_outlier: int
    minimum: float
    maximum: float
    mean: float
    std: float
    p50: float
    p95: float
    p99: float

    @property
    def nan_rate(self) -> float:
        return self.n_nan / self.count if self.count else 0.0

    @property
    def negative_rate(self) -> float:
        return self.n_negative / self.count if self.count else 0.0

    @property
    def outlier_rate(self) -> float:
        return self.n_outlier / self.count if self.count else 0.0

    @property
    def tail_ratio(self) -> float:
        """p99 / p50 — a heavy-tail indicator (1.0 = no tail)."""
        if not math.isfinite(self.p50) or self.p50 <= 0:
            return float("nan")
        return self.p99 / self.p50

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "count": self.count,
            "nan": self.n_nan,
            "negative": self.n_negative,
            "zero": self.n_zero,
            "outlier": self.n_outlier,
            "min": _json_float(self.minimum),
            "max": _json_float(self.maximum),
            "mean": _json_float(self.mean),
            "std": _json_float(self.std),
            "p50": _json_float(self.p50),
            "p95": _json_float(self.p95),
            "p99": _json_float(self.p99),
            "tail_ratio": _json_float(self.tail_ratio),
        }

    @classmethod
    def from_dict(cls, row: dict[str, Any]) -> "FieldQuality":
        return cls(
            name=row["name"],
            count=int(row["count"]),
            n_nan=int(row["nan"]),
            n_negative=int(row["negative"]),
            n_zero=int(row["zero"]),
            n_outlier=int(row["outlier"]),
            minimum=_restore_float(row["min"]),
            maximum=_restore_float(row["max"]),
            mean=_restore_float(row["mean"]),
            std=_restore_float(row["std"]),
            p50=_restore_float(row["p50"]),
            p95=_restore_float(row["p95"]),
            p99=_restore_float(row["p99"]),
        )


class FieldMonitor:
    """Streaming per-field quality accumulator.

    O(1) state per field: counts, ``(n, mean, M2)`` moments over the
    finite values, min/max, and a capacity-bounded reservoir sample used
    for percentile estimates.  The reservoir RNG is seeded from the
    field name (CRC32), so the same stream of ``observe_array`` calls
    produces the same sketch in every process.
    """

    __slots__ = (
        "name",
        "outlier_above",
        "count",
        "n_nan",
        "n_negative",
        "n_zero",
        "n_outlier",
        "_moments",
        "_min",
        "_max",
        "_reservoir",
        "_seen",
        "_rng",
        "_lock",
    )

    def __init__(
        self, name: str, outlier_above: float = DEFAULT_OUTLIER_ABOVE
    ) -> None:
        self.name = name
        self.outlier_above = float(outlier_above)
        self.count = 0
        self.n_nan = 0
        self.n_negative = 0
        self.n_zero = 0
        self.n_outlier = 0
        self._moments = EMPTY
        self._min = float("inf")
        self._max = float("-inf")
        self._reservoir: list[float] = []
        self._seen = 0
        self._rng = np.random.default_rng(_field_seed(name))
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Observe one value (see :meth:`observe_array` for batches)."""
        self.observe_array(np.asarray([value], dtype=float))

    def observe_array(self, values: Any) -> None:
        """Observe a batch of values (vectorised; NaN/inf welcome)."""
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            return
        finite_mask = np.isfinite(arr)
        finite = arr[finite_mask]
        with self._lock:
            self.count += int(arr.size)
            self.n_nan += int(arr.size - finite_mask.sum())
            if finite.size:
                self.n_negative += int((finite < 0).sum())
                self.n_zero += int((finite == 0).sum())
                self.n_outlier += int((finite > self.outlier_above).sum())
                self._moments = combine(self._moments, moments_of(finite))
                self._min = min(self._min, float(finite.min()))
                self._max = max(self._max, float(finite.max()))
                self._fill_reservoir(finite)

    def _fill_reservoir(self, finite: np.ndarray) -> None:
        # Vectorised Algorithm R: item t (0-based, global) replaces slot
        # j = uniform(0, t) when j lands inside the reservoir.
        cap = RESERVOIR_CAPACITY
        idx = 0
        if len(self._reservoir) < cap:
            take = min(cap - len(self._reservoir), finite.size)
            self._reservoir.extend(float(v) for v in finite[:take])
            self._seen += take
            idx = take
        rest = finite[idx:]
        if rest.size:
            positions = self._seen + np.arange(rest.size)
            slots = (self._rng.random(rest.size) * (positions + 1)).astype(
                np.int64
            )
            hits = slots < cap
            for slot, value in zip(slots[hits], rest[hits]):
                self._reservoir[int(slot)] = float(value)
            self._seen += int(rest.size)

    def _percentile(self, sorted_res: np.ndarray, q: float) -> float:
        if sorted_res.size == 0:
            return float("nan")
        return float(np.quantile(sorted_res, q))

    def snapshot(self) -> FieldQuality:
        """The current :class:`FieldQuality` view of this field."""
        with self._lock:
            n_finite, mean, m2 = self._moments
            if n_finite > 0:
                std = math.sqrt(m2 / n_finite)
            else:
                mean = std = float("nan")
            sorted_res = np.sort(np.asarray(self._reservoir, dtype=float))
            return FieldQuality(
                name=self.name,
                count=self.count,
                n_nan=self.n_nan,
                n_negative=self.n_negative,
                n_zero=self.n_zero,
                n_outlier=self.n_outlier,
                minimum=self._min if n_finite else float("nan"),
                maximum=self._max if n_finite else float("nan"),
                mean=mean,
                std=std,
                p50=self._percentile(sorted_res, 0.50),
                p95=self._percentile(sorted_res, 0.95),
                p99=self._percentile(sorted_res, 0.99),
            )


class _NullFieldMonitor:
    """Shared inert field monitor for the disabled quality session."""

    __slots__ = ()
    name = ""
    count = 0

    def observe(self, value: float) -> None:
        pass

    def observe_array(self, values: Any) -> None:
        pass


_NULL_FIELD = _NullFieldMonitor()


class _NullQualityMonitor:
    """Default monitor: records nothing, enables the wiring fast path."""

    enabled = False

    def field(self, name: str, outlier_above: float = DEFAULT_OUTLIER_ABOVE):
        return _NULL_FIELD

    def observe_assignments(self, tiers: Any) -> None:
        pass

    def observe_group_mapping(self, n_unmapped: int, n_groups: int) -> None:
        pass

    def observe_dropped_rows(self, dropped: int, total: int) -> None:
        pass


@dataclass
class QualityReport:
    """Finished data-quality snapshot of one run.

    ``tier_entropy`` is the Shannon entropy (bits) of the assigned-tier
    distribution, ``tier_entropy_normalized`` the same divided by
    ``log2(#tiers)`` (1.0 = uniform, 0.0 = collapsed — both extremes are
    suspicious for crowdsourced speed tests).
    """

    fields: list[FieldQuality] = field(default_factory=list)
    n_assignments: int = 0
    tier_entropy: float = float("nan")
    tier_entropy_normalized: float = float("nan")
    tier_counts: dict[str, int] = field(default_factory=dict)
    unmapped_groups: int = 0
    total_groups: int = 0
    dropped_rows: int = 0
    total_rows: int = 0

    @property
    def unmapped_group_rate(self) -> float:
        if not self.total_groups:
            return 0.0
        return self.unmapped_groups / self.total_groups

    @property
    def dropped_row_rate(self) -> float:
        if not self.total_rows:
            return 0.0
        return self.dropped_rows / self.total_rows

    def to_dict(self) -> dict[str, Any]:
        return {
            "fields": [fq.to_dict() for fq in self.fields],
            "n_assignments": self.n_assignments,
            "tier_entropy": _json_float(self.tier_entropy),
            "tier_entropy_normalized": _json_float(
                self.tier_entropy_normalized
            ),
            "tier_counts": dict(self.tier_counts),
            "unmapped_groups": self.unmapped_groups,
            "total_groups": self.total_groups,
            "unmapped_group_rate": self.unmapped_group_rate,
            "dropped_rows": self.dropped_rows,
            "total_rows": self.total_rows,
            "dropped_row_rate": self.dropped_row_rate,
        }

    @classmethod
    def from_dict(cls, row: dict[str, Any]) -> "QualityReport":
        return cls(
            fields=[FieldQuality.from_dict(f) for f in row.get("fields", [])],
            n_assignments=int(row.get("n_assignments", 0)),
            tier_entropy=_restore_float(row.get("tier_entropy")),
            tier_entropy_normalized=_restore_float(
                row.get("tier_entropy_normalized")
            ),
            tier_counts={
                str(k): int(v) for k, v in row.get("tier_counts", {}).items()
            },
            unmapped_groups=int(row.get("unmapped_groups", 0)),
            total_groups=int(row.get("total_groups", 0)),
            dropped_rows=int(row.get("dropped_rows", 0)),
            total_rows=int(row.get("total_rows", 0)),
        )

    def scalars(self) -> dict[str, float]:
        """Flat headline numbers, for metrics publishing and `obs check`."""
        out: dict[str, float] = {}
        for fq in self.fields:
            prefix = f"quality.{fq.name}"
            out[f"{prefix}.nan_rate"] = fq.nan_rate
            out[f"{prefix}.negative_rate"] = fq.negative_rate
            out[f"{prefix}.outlier_rate"] = fq.outlier_rate
            if math.isfinite(fq.tail_ratio):
                out[f"{prefix}.tail_ratio"] = fq.tail_ratio
        if self.n_assignments:
            out["quality.tier_entropy"] = self.tier_entropy
            if math.isfinite(self.tier_entropy_normalized):
                out["quality.tier_entropy_normalized"] = (
                    self.tier_entropy_normalized
                )
        if self.total_groups:
            out["quality.unmapped_group_rate"] = self.unmapped_group_rate
        if self.total_rows:
            out["quality.dropped_row_rate"] = self.dropped_row_rate
        return out

    def publish_metrics(self, registry) -> None:
        """Set the headline rates as ``quality.*`` gauges in ``registry``."""
        for name, value in self.scalars().items():
            registry.gauge(name).set(value)

    def render(self) -> str:
        """Plain-text quality table (the `-- data quality --` section)."""
        lines: list[str] = []
        if self.fields:
            width = max(len(fq.name) for fq in self.fields)
            header = (
                f"{'field'.ljust(width)}  {'n':>7}  {'nan':>5}  {'neg':>4}  "
                f"{'out':>4}  {'p50':>9}  {'p99':>9}  {'tail':>6}"
            )
            lines.append(header)
            for fq in self.fields:
                lines.append(
                    f"{fq.name.ljust(width)}  {fq.count:>7}  "
                    f"{fq.n_nan:>5}  {fq.n_negative:>4}  {fq.n_outlier:>4}  "
                    f"{_fmt(fq.p50):>9}  {_fmt(fq.p99):>9}  "
                    f"{_fmt(fq.tail_ratio):>6}"
                )
        if self.n_assignments:
            lines.append(
                f"tier entropy: {self.tier_entropy:.3f} bits "
                f"(normalized {_fmt(self.tier_entropy_normalized)}) "
                f"over {self.n_assignments} assignments"
            )
        if self.total_groups:
            lines.append(
                f"unmapped upload groups: {self.unmapped_groups}/"
                f"{self.total_groups} ({self.unmapped_group_rate:.1%})"
            )
        if self.total_rows:
            lines.append(
                f"dropped rows: {self.dropped_rows}/{self.total_rows} "
                f"({self.dropped_row_rate:.1%})"
            )
        if not lines:
            lines.append("(no quality data recorded)")
        return "\n".join(lines)


class QualityMonitor:
    """One run's worth of data-quality accumulation (thread-safe)."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._fields: dict[str, FieldMonitor] = {}
        self._tier_counts: dict[str, int] = {}
        self._n_assignments = 0
        self._unmapped_groups = 0
        self._total_groups = 0
        self._dropped_rows = 0
        self._total_rows = 0

    def field(
        self, name: str, outlier_above: float = DEFAULT_OUTLIER_ABOVE
    ) -> FieldMonitor:
        """The named field monitor (created on first use)."""
        with self._lock:
            mon = self._fields.get(name)
            if mon is None:
                mon = self._fields[name] = FieldMonitor(
                    name, outlier_above=outlier_above
                )
            return mon

    def observe_assignments(self, tiers: Any) -> None:
        """Record a batch of per-measurement tier assignments."""
        arr = np.asarray(tiers).ravel()
        if arr.size == 0:
            return
        values, counts = np.unique(arr, return_counts=True)
        with self._lock:
            self._n_assignments += int(arr.size)
            for value, count in zip(values, counts):
                key = str(value)
                self._tier_counts[key] = (
                    self._tier_counts.get(key, 0) + int(count)
                )

    def observe_group_mapping(self, n_unmapped: int, n_groups: int) -> None:
        """Record a stage-one fit's unmapped-group outcome."""
        with self._lock:
            self._unmapped_groups += int(n_unmapped)
            self._total_groups += int(n_groups)

    def observe_dropped_rows(self, dropped: int, total: int) -> None:
        """Record rows dropped before fitting (non-finite input)."""
        with self._lock:
            self._dropped_rows += int(dropped)
            self._total_rows += int(total)

    def report(self) -> QualityReport:
        """Build the finished :class:`QualityReport`."""
        with self._lock:
            monitors = [self._fields[name] for name in sorted(self._fields)]
            tier_counts = dict(self._tier_counts)
            n_assignments = self._n_assignments
            unmapped = self._unmapped_groups
            total_groups = self._total_groups
            dropped = self._dropped_rows
            total_rows = self._total_rows
        entropy = entropy_norm = float("nan")
        if n_assignments:
            probs = np.asarray(
                [c / n_assignments for c in tier_counts.values()]
            )
            probs = probs[probs > 0]
            entropy = float(-(probs * np.log2(probs)).sum())
            k = len(tier_counts)
            entropy_norm = entropy / math.log2(k) if k > 1 else 0.0
        return QualityReport(
            fields=[monitor.snapshot() for monitor in monitors],
            n_assignments=n_assignments,
            tier_entropy=entropy,
            tier_entropy_normalized=entropy_norm,
            tier_counts=tier_counts,
            unmapped_groups=unmapped,
            total_groups=total_groups,
            dropped_rows=dropped,
            total_rows=total_rows,
        )


_monitor: QualityMonitor | _NullQualityMonitor = _NullQualityMonitor()


def get_quality() -> QualityMonitor | _NullQualityMonitor:
    """The active quality monitor (a null monitor when quality is off)."""
    return _monitor


def set_quality(
    monitor: QualityMonitor | _NullQualityMonitor | None,
) -> QualityMonitor | _NullQualityMonitor:
    """Install ``monitor`` (None restores the null); returns the old one."""
    global _monitor
    previous = _monitor
    _monitor = monitor if monitor is not None else _NullQualityMonitor()
    return previous


@contextmanager
def use_quality(
    monitor: QualityMonitor | None = None,
) -> Iterator[QualityMonitor]:
    """Scoped quality monitoring: install, restore the previous on exit.

    >>> with use_quality() as q:
    ...     q.field("demo").observe_array([1.0, float("nan")])
    >>> q.report().fields[0].n_nan
    1
    """
    monitor = monitor or QualityMonitor()
    previous = set_quality(monitor)
    try:
        yield monitor
    finally:
        set_quality(previous)


def _fmt(value: float) -> str:
    if not math.isfinite(value):
        return "n/a"
    return f"{value:.3g}"


def _json_float(value: float | None) -> float | None:
    """NaN/inf are not valid JSON; encode them as None."""
    if value is None or not math.isfinite(value):
        return None
    return float(value)


def _restore_float(value: Any) -> float:
    return float("nan") if value is None else float(value)
