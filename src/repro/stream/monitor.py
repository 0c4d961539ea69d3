"""Online monitoring of the measurement firehose.

:class:`StreamMonitor` consumes :class:`~repro.stream.firehose.StreamBatch`
micro-batches and maintains, per ``(city, isp)`` group:

- **windowed moments** -- :class:`repro.obs.window.WindowedMoments`, a
  ring of stream-time buckets holding Welford ``(n, mean, M2)`` triples,
  merged with Chan's parallel update, so the sliding-window mean/std
  costs O(buckets) to read and O(1) per batch to write;
- **a refit sample** -- a :class:`~repro.obs.window.PairRing` of the
  most recent raw ``(download, upload)`` pairs, which is exactly the
  data a drift-triggered refit trains on (:mod:`repro.stream.scheduler`);
- **disruption state** -- sudden tier-share shift against the long-run
  mix, and congestion onset against the per-time-of-day baseline.

Windows are measured in *stream time* (event timestamps), not wall
time, so a simulated run is deterministic; the injected ``clock`` is
used only for the ``stream.lag_s`` gauge (how far monitoring trails the
stream).  Drift verdicts compare the windowed mean against the serving
registry's ``training_stats`` through the same
:func:`repro.obs.window.drift_verdict` as
``AssignmentService.verdicts()``, so the rows have exactly the same
keys, and the same ``model_drift`` alert rule
(:func:`repro.obs.alerts.default_serve_rules`) and
:class:`~repro.stream.scheduler.RefitScheduler` consume either source.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger, kv
from repro.obs.window import (
    DIRECTIONS,
    DriftFlags,
    PairRing,
    WindowedMoments,
    drift_verdict,
)
from repro.serve.registry import ModelRegistry
from repro.stream.firehose import StreamBatch

__all__ = ["GroupStats", "StreamMonitor"]

log = get_logger("repro.stream.monitor")

# Absolute change in upper-half-tier share (windowed vs long-run) that
# flags a subscriber-mix disruption.
TIER_SHIFT_THRESHOLD = 0.2
# Fractional drop of the windowed download mean below the long-run mean
# *for the same time-of-day bin* that flags congestion onset.
CONGESTION_DROP_FRAC = 0.4


class GroupStats:
    """All per-(city, isp) monitoring state (owned by StreamMonitor)."""

    __slots__ = (
        "city",
        "isp",
        "moments",
        "sample",
        "last_t_s",
        "tier_n",
        "tier_upper",
        "win_tier",
        "bin_stats",
        "median_tier",
    )

    def __init__(self, city: str, isp: str, window_s: float, cap: int):
        self.city = city
        self.isp = isp
        self.moments = {d: WindowedMoments(window_s) for d in DIRECTIONS}
        self.sample = PairRing(cap)  # the refit sample
        self.last_t_s = float("-inf")
        # Long-run vs windowed tier mix (upper-half-tier share).
        self.tier_n = 0
        self.tier_upper = 0
        self.win_tier = WindowedMoments(window_s)
        # Per-diurnal-bin long-run download mean for congestion onset.
        self.bin_stats: dict[int, tuple[int, float]] = {}
        self.median_tier: float | None = None


class StreamMonitor:
    """Windowed stream statistics, drift verdicts, disruption detection.

    Parameters
    ----------
    registry:
        Serving model registry whose ``training_stats`` are the drift
        baseline; groups with no registered model never report drift.
    clock:
        Injectable monotonic clock; used only for the ``stream.lag_s``
        gauge.  ``None`` disables lag tracking (pure simulation).
    window_s:
        Sliding-window span, in *stream* seconds.
    min_samples:
        Windowed observations a direction needs before
        :func:`~repro.obs.window.drift_verdict` judges it (mirrors
        ``ServeConfig.drift_min_samples``).
    sample_cap:
        Per-group refit-sample ring size.
    """

    def __init__(
        self,
        registry: ModelRegistry | None = None,
        clock: Callable[[], float] | None = None,
        window_s: float = 60.0,
        min_samples: int = 200,
        sample_cap: int = 8192,
    ):
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if sample_cap < 1:
            raise ValueError("sample_cap must be >= 1")
        self.registry = registry
        self.clock = clock
        self.window_s = float(window_s)
        self.min_samples = int(min_samples)
        self.sample_cap = int(sample_cap)
        self._lock = threading.Lock()
        self._groups: dict[tuple[str, str], GroupStats] = {}
        self._baselines: dict[tuple[str, str], tuple[str, dict] | None] = {}
        self._drift_flags = DriftFlags()
        self._disruption_flags = DriftFlags()

    # -- ingestion -------------------------------------------------------
    def observe(self, batch: StreamBatch) -> None:
        """Fold one firehose micro-batch into the windowed state."""
        self.observe_arrays(
            batch.city,
            batch.isp,
            batch.downloads,
            batch.uploads,
            tiers=batch.tiers,
            hours=batch.hours,
            t_s=batch.t_s,
        )

    def observe_arrays(
        self,
        city: str,
        isp: str,
        downloads: np.ndarray,
        uploads: np.ndarray,
        tiers: np.ndarray | None = None,
        hours: np.ndarray | None = None,
        *,
        t_s: float,
    ) -> None:
        """Fold raw arrays stamped with stream time ``t_s``."""
        downloads = np.asarray(downloads, dtype=float).ravel()
        uploads = np.asarray(uploads, dtype=float).ravel()
        if downloads.size == 0:
            return
        with self._lock:
            group = self._groups.get((city, isp))
            if group is None:
                group = self._groups[(city, isp)] = GroupStats(
                    city, isp, self.window_s, self.sample_cap
                )
            group.last_t_s = max(group.last_t_s, float(t_s))
            for direction, values in zip(DIRECTIONS, (downloads, uploads)):
                group.moments[direction].observe(t_s, values)
            group.sample.push(downloads, uploads)
            if tiers is not None and len(tiers):
                self._observe_tiers(group, t_s, np.asarray(tiers))
            if hours is not None and len(hours):
                self._observe_bins(group, downloads, np.asarray(hours))
        obs_metrics.counter("stream.events").inc(downloads.size)
        obs_metrics.counter("stream.batches").inc()
        if self.clock is not None:
            obs_metrics.gauge("stream.lag_s").set(
                max(self.clock() - t_s, 0.0)
            )

    def _observe_tiers(
        self, group: GroupStats, t_s: float, tiers: np.ndarray
    ) -> None:
        if group.median_tier is None:
            # Long-run mix reference, frozen at first sight of the group.
            group.median_tier = float(np.median(tiers))
        upper = (tiers > group.median_tier).astype(float)
        group.tier_n += int(tiers.size)
        group.tier_upper += int(upper.sum())
        group.win_tier.observe(t_s, upper)

    def _observe_bins(
        self, group: GroupStats, downloads: np.ndarray, hours: np.ndarray
    ) -> None:
        bins = (hours // 6).astype(np.int64)
        for b in np.unique(bins):
            vals = downloads[bins == b]
            n_old, mean_old = group.bin_stats.get(int(b), (0, 0.0))
            n_new = n_old + int(vals.size)
            mean_new = mean_old + (float(vals.mean()) - mean_old) * (
                vals.size / n_new
            )
            group.bin_stats[int(b)] = (n_new, mean_new)

    # -- baselines -------------------------------------------------------
    def _baseline(self, city: str, isp: str) -> tuple[str, dict] | None:
        """(slug, training_stats) of the newest registered model."""
        key = (city, isp)
        with self._lock:
            if key in self._baselines:
                return self._baselines[key]
        # Registry I/O happens outside the lock; a racing fill writes
        # the same answer, so last-writer-wins is benign.
        found: tuple[str, dict] | None = None
        if self.registry is not None:
            try:
                latest = self.registry.resolve(city, isp)
                found = (latest.key.slug, latest.training_stats)
            except KeyError:
                pass  # no registered model: the group never drifts
        with self._lock:
            self._baselines[key] = found
        return found

    def rebaseline(self, city: str, isp: str) -> None:
        """Drop the cached baseline (call after a refit registers)."""
        with self._lock:
            self._baselines.pop((city, isp), None)

    # -- verdicts --------------------------------------------------------
    def verdicts(self) -> list[dict[str, Any]]:
        """Rolling drift verdicts, shaped like the serving ``verdicts()``.

        Poll-stable: the ``stream.drift_flags`` counter moves only on a
        group's not-drifted -> drifted transition.
        """
        with self._lock:
            groups = list(self._groups.values())
        out: list[dict[str, Any]] = []
        n_drifted = 0
        for group in groups:
            baseline = self._baseline(group.city, group.isp)
            if baseline is None:
                continue
            slug, training_stats = baseline
            drifted, directions = drift_verdict(
                group.moments, group.last_t_s, training_stats, self.min_samples
            )
            if self._drift_flags.rose(slug, drifted):
                obs_metrics.counter("stream.drift_flags").inc()
                log.warning(
                    "stream traffic drifted from training distribution",
                    extra=kv(model=slug, group=f"{group.city}|{group.isp}"),
                )
            if drifted:
                n_drifted += 1
            out.append(
                {
                    "model": slug,
                    "city": group.city,
                    "isp": group.isp,
                    "drifted": drifted,
                    "directions": directions,
                }
            )
        obs_metrics.gauge("stream.drifted_models").set(float(n_drifted))
        return out

    # -- disruptions -----------------------------------------------------
    def disruptions(self) -> list[dict[str, Any]]:
        """Active disruption events (tier-share shift, congestion onset).

        Poll-stable like :meth:`verdicts`: ``stream.disruptions`` counts
        only inactive -> active transitions.
        """
        with self._lock:
            groups = list(self._groups.values())
        events: list[dict[str, Any]] = []
        for group in groups:
            for kind, event in (
                ("tier_shift", self._tier_shift(group)),
                ("congestion", self._congestion(group)),
            ):
                key = (group.city, group.isp, kind)
                if self._disruption_flags.rose(key, event is not None):
                    obs_metrics.counter("stream.disruptions").inc()
                    log.warning(
                        "stream disruption detected",
                        extra=kv(kind=kind, group=f"{group.city}|{group.isp}"),
                    )
                if event is not None:
                    events.append(event)
        return events

    def _tier_shift(self, group: GroupStats) -> dict[str, Any] | None:
        if group.tier_n < self.min_samples:
            return None
        n, win_share, _ = group.win_tier.snapshot(group.last_t_s)
        if n < self.min_samples:
            return None
        longrun = group.tier_upper / group.tier_n
        delta = win_share - longrun
        if abs(delta) <= TIER_SHIFT_THRESHOLD:
            return None
        return {
            "city": group.city,
            "isp": group.isp,
            "kind": "tier_shift",
            "observed_share": win_share,
            "longrun_share": longrun,
            "delta": delta,
        }

    def _congestion(self, group: GroupStats) -> dict[str, Any] | None:
        if group.last_t_s == float("-inf"):
            return None
        current_bin = int(((group.last_t_s / 3600.0) % 24.0) // 6)
        baseline = group.bin_stats.get(current_bin)
        if baseline is None or baseline[0] < self.min_samples:
            return None
        n, mean, _ = group.moments["download_mbps"].snapshot(group.last_t_s)
        if n < self.min_samples:
            return None
        floor = baseline[1] * (1.0 - CONGESTION_DROP_FRAC)
        if mean >= floor:
            return None
        return {
            "city": group.city,
            "isp": group.isp,
            "kind": "congestion",
            "observed_mean": mean,
            "bin_mean": baseline[1],
            "time_bin": current_bin,
        }

    # -- refit support ---------------------------------------------------
    def recent_sample(
        self, city: str, isp: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """The retained raw ``(downloads, uploads)`` for one group."""
        with self._lock:
            group = self._groups.get((city, isp))
            if group is None:
                return np.empty(0), np.empty(0)
            return group.sample.pairs()
