"""Online monitoring of the measurement firehose.

:class:`StreamMonitor` consumes :class:`~repro.stream.firehose.StreamBatch`
micro-batches and maintains, per ``(city, isp)`` group:

- **windowed moments** -- a ring of stream-time buckets holding Welford
  ``(n, mean, M2)`` triples, merged with Chan's parallel update, so the
  sliding-window mean/std costs O(buckets) to read and O(1) per batch to
  write;
- **windowed quantiles** -- the existing deterministic reservoir sketch
  (:class:`repro.obs.quality.FieldMonitor`), rotated every window so the
  p50/p95 reflect recent traffic rather than the whole stream;
- **a refit sample** -- a bounded ring of the most recent raw
  ``(download, upload)`` pairs, which is exactly the data a
  drift-triggered refit trains on (:mod:`repro.stream.scheduler`);
- **disruption state** -- sudden tier-share shift against the long-run
  mix, and congestion onset against the per-time-of-day baseline.

Windows are measured in *stream time* (event timestamps), not wall
time, so a simulated run is deterministic; the injected ``clock`` is
used only for the ``stream.lag_s`` gauge (how far monitoring trails the
stream).  Drift verdicts compare the windowed mean against the serving
registry's ``training_stats`` and are shaped exactly like
``AssignmentService.drift_status()`` output, so the same
``model_drift`` alert rule (:func:`repro.obs.alerts.default_serve_rules`)
consumes either source.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger, kv
from repro.obs.metrics import MetricsRegistry
from repro.obs.quality import FieldMonitor
from repro.serve.registry import ModelRegistry
from repro.stream.firehose import StreamBatch

__all__ = ["GroupStats", "StreamMonitor"]

log = get_logger("repro.stream.monitor")

_DIRECTIONS = ("download_mbps", "upload_mbps")

# Buckets per sliding window: granularity of expiry, not of the stats.
_N_BUCKETS = 12


class _WindowedMoments:
    """Sliding-window Welford moments over stream time.

    A ring of ``_N_BUCKETS`` buckets each spanning ``window_s / n`` of
    stream time and holding one ``(n, mean, M2)`` triple.  A batch is
    folded into its bucket with Chan's parallel combine; a read merges
    the non-expired buckets the same way.
    """

    __slots__ = ("bucket_s", "ticks", "n", "mean", "m2")

    def __init__(self, window_s: float):
        self.bucket_s = float(window_s) / _N_BUCKETS
        self.ticks = np.full(_N_BUCKETS, -1, dtype=np.int64)
        self.n = np.zeros(_N_BUCKETS, dtype=np.int64)
        self.mean = np.zeros(_N_BUCKETS, dtype=float)
        self.m2 = np.zeros(_N_BUCKETS, dtype=float)

    @staticmethod
    def _combine(
        na: float, ma: float, m2a: float, nb: float, mb: float, m2b: float
    ) -> tuple[float, float, float]:
        n = na + nb
        if n == 0:
            return 0.0, 0.0, 0.0
        delta = mb - ma
        mean = ma + delta * nb / n
        m2 = m2a + m2b + delta * delta * na * nb / n
        return n, mean, m2

    def observe(self, t_s: float, values: np.ndarray) -> None:
        values = values[np.isfinite(values)]
        if values.size == 0:
            return
        tick = int(t_s // self.bucket_s)
        slot = tick % _N_BUCKETS
        if self.ticks[slot] != tick:
            self.ticks[slot] = tick
            self.n[slot] = 0
            self.mean[slot] = 0.0
            self.m2[slot] = 0.0
        nb = float(values.size)
        mb = float(values.mean())
        m2b = float(((values - mb) ** 2).sum())
        n, mean, m2 = self._combine(
            float(self.n[slot]), self.mean[slot], self.m2[slot], nb, mb, m2b
        )
        self.n[slot] = int(n)
        self.mean[slot] = mean
        self.m2[slot] = m2

    def snapshot(self, now_s: float) -> tuple[int, float, float]:
        """``(n, mean, std)`` over buckets still inside the window."""
        tick = int(now_s // self.bucket_s)
        n, mean, m2 = 0.0, 0.0, 0.0
        for slot in range(_N_BUCKETS):
            if self.ticks[slot] < 0 or self.ticks[slot] <= tick - _N_BUCKETS:
                continue
            n, mean, m2 = self._combine(
                n, mean, m2, float(self.n[slot]), self.mean[slot],
                self.m2[slot],
            )
        if n == 0:
            return 0, float("nan"), float("nan")
        std = math.sqrt(m2 / n) if n > 0 else float("nan")
        return int(n), float(mean), float(std)


class _RotatingReservoir:
    """Window-rotated :class:`FieldMonitor` for recent-traffic quantiles."""

    __slots__ = ("name", "window_s", "period", "current", "previous")

    def __init__(self, name: str, window_s: float):
        self.name = name
        self.window_s = float(window_s)
        self.period = -1
        self.current = FieldMonitor(name)
        self.previous: FieldMonitor | None = None

    def observe(self, t_s: float, values: np.ndarray) -> None:
        period = int(t_s // self.window_s)
        if period != self.period:
            self.previous = self.current if self.period >= 0 else None
            self.current = FieldMonitor(self.name)
            self.period = period
        self.current.observe_array(values)

    def percentiles(self) -> tuple[float, float]:
        """``(p50, p95)`` of the freshest reservoir with data."""
        mon = self.current
        if mon.count == 0 and self.previous is not None:
            mon = self.previous
        snap = mon.snapshot()
        return snap.p50, snap.p95


class GroupStats:
    """All per-(city, isp) monitoring state (owned by StreamMonitor)."""

    __slots__ = (
        "city",
        "isp",
        "moments",
        "reservoirs",
        "sample_down",
        "sample_up",
        "sample_pos",
        "sample_len",
        "n_events",
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
        self.moments = {d: _WindowedMoments(window_s) for d in _DIRECTIONS}
        self.reservoirs = {
            d: _RotatingReservoir(f"stream.{city}|{isp}.{d}", window_s)
            for d in _DIRECTIONS
        }
        # Refit sample: bounded ring of the latest raw pairs.
        self.sample_down = np.zeros(cap, dtype=float)
        self.sample_up = np.zeros(cap, dtype=float)
        self.sample_pos = 0
        self.sample_len = 0
        self.n_events = 0
        self.last_t_s = float("-inf")
        # Long-run vs windowed tier mix (upper-half-tier share).
        self.tier_n = 0
        self.tier_upper = 0
        self.win_tier = _WindowedMoments(window_s)
        # Per-diurnal-bin long-run download mean for congestion onset.
        self.bin_stats: dict[int, tuple[int, float]] = {}
        self.median_tier: float | None = None

    def push_sample(self, downloads: np.ndarray, uploads: np.ndarray) -> None:
        cap = len(self.sample_down)
        n = len(downloads)
        if n >= cap:
            self.sample_down[:] = downloads[-cap:]
            self.sample_up[:] = uploads[-cap:]
            self.sample_pos = 0
            self.sample_len = cap
            return
        end = self.sample_pos + n
        if end <= cap:
            self.sample_down[self.sample_pos : end] = downloads
            self.sample_up[self.sample_pos : end] = uploads
        else:
            head = cap - self.sample_pos
            self.sample_down[self.sample_pos :] = downloads[:head]
            self.sample_up[self.sample_pos :] = uploads[:head]
            self.sample_down[: n - head] = downloads[head:]
            self.sample_up[: n - head] = uploads[head:]
        self.sample_pos = end % cap
        self.sample_len = min(self.sample_len + n, cap)

    def sample(self) -> tuple[np.ndarray, np.ndarray]:
        """The retained raw pairs, oldest first."""
        if self.sample_len < len(self.sample_down):
            return (
                self.sample_down[: self.sample_len].copy(),
                self.sample_up[: self.sample_len].copy(),
            )
        order = np.concatenate(
            [
                np.arange(self.sample_pos, len(self.sample_down)),
                np.arange(0, self.sample_pos),
            ]
        )
        return self.sample_down[order], self.sample_up[order]


class StreamMonitor:
    """Windowed stream statistics, drift verdicts, disruption detection.

    Parameters
    ----------
    registry:
        Serving model registry whose ``training_stats`` are the drift
        baseline; groups with no registered model never report drift.
    metrics:
        Optional :class:`MetricsRegistry` that receives the ``stream.*``
        instruments in addition to the global one.
    clock:
        Injectable monotonic clock; used only for the ``stream.lag_s``
        gauge.  ``None`` disables lag tracking (pure simulation).
    window_s:
        Sliding-window span, in *stream* seconds.
    drift_rel_threshold / min_samples:
        A direction is drifted when the windowed mean deviates from the
        training mean by more than the relative threshold, after at
        least ``min_samples`` windowed events (mirrors
        ``ServeConfig.drift_rel_threshold`` / ``drift_min_samples``).
    tier_shift_threshold:
        Absolute change in upper-half-tier share (windowed vs long-run)
        that flags a subscriber-mix disruption.
    congestion_drop_frac:
        Fractional drop of the windowed download mean below the
        long-run mean *for the same time-of-day bin* that flags
        congestion onset.
    sample_cap:
        Per-group refit-sample ring size.
    """

    def __init__(
        self,
        registry: ModelRegistry | None = None,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] | None = None,
        window_s: float = 60.0,
        drift_rel_threshold: float = 0.5,
        min_samples: int = 200,
        tier_shift_threshold: float = 0.2,
        congestion_drop_frac: float = 0.4,
        sample_cap: int = 8192,
    ):
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if sample_cap < 1:
            raise ValueError("sample_cap must be >= 1")
        self.registry = registry
        self.metrics = metrics
        self.clock = clock
        self.window_s = float(window_s)
        self.drift_rel_threshold = float(drift_rel_threshold)
        self.min_samples = int(min_samples)
        self.tier_shift_threshold = float(tier_shift_threshold)
        self.congestion_drop_frac = float(congestion_drop_frac)
        self.sample_cap = int(sample_cap)
        self._lock = threading.Lock()
        self._groups: dict[tuple[str, str], GroupStats] = {}
        self._baselines: dict[tuple[str, str], tuple[str, dict] | None] = {}
        self._drift_flagged: dict[str, bool] = {}
        self._active_disruptions: dict[tuple[str, str, str], dict] = {}
        self.n_events = 0
        self.n_batches = 0

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
        t_s: float | None = None,
    ) -> None:
        """Entry point for serve-path taps (no StreamBatch at hand).

        ``t_s`` defaults to the injected clock, so live serving traffic
        windows by arrival time while simulated batches window by their
        own stream timestamps.
        """
        downloads = np.asarray(downloads, dtype=float).ravel()
        uploads = np.asarray(uploads, dtype=float).ravel()
        if downloads.size == 0:
            return
        if t_s is None:
            t_s = self.clock() if self.clock is not None else 0.0
        with self._lock:
            group = self._groups.get((city, isp))
            if group is None:
                group = self._groups[(city, isp)] = GroupStats(
                    city, isp, self.window_s, self.sample_cap
                )
            group.n_events += int(downloads.size)
            group.last_t_s = max(group.last_t_s, float(t_s))
            group.moments["download_mbps"].observe(t_s, downloads)
            group.moments["upload_mbps"].observe(t_s, uploads)
            group.reservoirs["download_mbps"].observe(t_s, downloads)
            group.reservoirs["upload_mbps"].observe(t_s, uploads)
            group.push_sample(downloads, uploads)
            if tiers is not None and len(tiers):
                self._observe_tiers(group, t_s, np.asarray(tiers))
            if hours is not None and len(hours):
                self._observe_bins(group, downloads, np.asarray(hours))
            self.n_events += int(downloads.size)
            self.n_batches += 1
        self._bump("stream.events", downloads.size)
        self._bump("stream.batches", 1)
        if self.clock is not None:
            self._gauge("stream.lag_s", max(self.clock() - t_s, 0.0))

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
        """Rolling drift verdicts, shaped like ``drift_status()`` output.

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
            directions: dict[str, Any] = {}
            drifted = False
            for direction in _DIRECTIONS:
                train = training_stats.get(direction)
                if not train or not train.get("mean"):
                    continue
                n, mean, std = group.moments[direction].snapshot(
                    group.last_t_s
                )
                if n < self.min_samples:
                    directions[direction] = {
                        "status": "warming_up",
                        "n_observed": n,
                    }
                    continue
                rel = float(abs(mean - train["mean"]) / abs(train["mean"]))
                p50, p95 = group.reservoirs[direction].percentiles()
                direction_drifted = rel > self.drift_rel_threshold
                drifted = bool(drifted or direction_drifted)
                directions[direction] = {
                    "status": "drifted" if direction_drifted else "ok",
                    "n_observed": n,
                    "observed_mean": mean,
                    "observed_std": std,
                    "observed_p50": p50,
                    "observed_p95": p95,
                    "training_mean": train["mean"],
                    "relative_delta": rel,
                }
            with self._lock:
                was = self._drift_flagged.get(slug, False)
                self._drift_flagged[slug] = drifted
            if drifted and not was:
                self._bump("stream.drift_flags", 1)
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
        self._gauge("stream.drifted_models", float(n_drifted))
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
            events.extend(self._tier_shift(group))
            events.extend(self._congestion(group))
        active_keys = set()
        with self._lock:
            for event in events:
                key = (event["city"], event["isp"], event["kind"])
                active_keys.add(key)
                if key not in self._active_disruptions:
                    self._active_disruptions[key] = event
                    self._bump("stream.disruptions", 1)
                    log.warning(
                        "stream disruption detected",
                        extra=kv(
                            kind=event["kind"],
                            group=f"{event['city']}|{event['isp']}",
                        ),
                    )
            for key in list(self._active_disruptions):
                if key not in active_keys:
                    del self._active_disruptions[key]
        return events

    def _tier_shift(self, group: GroupStats) -> list[dict[str, Any]]:
        if group.tier_n < self.min_samples:
            return []
        n, win_share, _ = group.win_tier.snapshot(group.last_t_s)
        if n < self.min_samples:
            return []
        longrun = group.tier_upper / group.tier_n
        delta = win_share - longrun
        if abs(delta) <= self.tier_shift_threshold:
            return []
        return [
            {
                "city": group.city,
                "isp": group.isp,
                "kind": "tier_shift",
                "observed_share": win_share,
                "longrun_share": longrun,
                "delta": delta,
            }
        ]

    def _congestion(self, group: GroupStats) -> list[dict[str, Any]]:
        if group.last_t_s == float("-inf"):
            return []
        current_bin = int(((group.last_t_s / 3600.0) % 24.0) // 6)
        baseline = group.bin_stats.get(current_bin)
        if baseline is None or baseline[0] < self.min_samples:
            return []
        n, mean, _ = group.moments["download_mbps"].snapshot(group.last_t_s)
        if n < self.min_samples:
            return []
        floor = baseline[1] * (1.0 - self.congestion_drop_frac)
        if mean >= floor:
            return []
        return [
            {
                "city": group.city,
                "isp": group.isp,
                "kind": "congestion",
                "observed_mean": mean,
                "bin_mean": baseline[1],
                "time_bin": current_bin,
            }
        ]

    # -- refit support ---------------------------------------------------
    def recent_sample(
        self, city: str, isp: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """The retained raw ``(downloads, uploads)`` for one group."""
        with self._lock:
            group = self._groups.get((city, isp))
            if group is None:
                return np.empty(0), np.empty(0)
            return group.sample()

    def group_names(self) -> list[tuple[str, str]]:
        with self._lock:
            return sorted(self._groups)

    # -- instrument plumbing --------------------------------------------
    def _bump(self, name: str, n: float) -> None:
        obs_metrics.counter(name).inc(n)
        if self.metrics is not None:
            self.metrics.counter(name).inc(n)

    def _gauge(self, name: str, value: float) -> None:
        obs_metrics.gauge(name).set(value)
        if self.metrics is not None:
            self.metrics.gauge(name).set(value)
